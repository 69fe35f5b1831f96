package twigjoin

import (
	"fmt"
	"strings"

	"treelattice/internal/labeltree"
)

// Axis is the structural relationship between a query node and its parent.
type Axis uint8

// The two supported axes.
const (
	// Child requires a parent-child edge (Definition 1 of the paper).
	Child Axis = iota
	// Descendant allows any proper ancestor-descendant pair.
	Descendant
)

func (a Axis) String() string {
	if a == Descendant {
		return "//"
	}
	return "/"
}

// Query is a twig pattern with a per-edge axis. Axes[i] describes the
// edge from node i to its parent; Axes[0] is the axis of the whole query
// relative to the document (Descendant = match anywhere, Child = the
// query root must map to the document root).
type Query struct {
	Pattern labeltree.Pattern
	Axes    []Axis
}

// NewQuery builds a query; a nil axes slice defaults every edge to Child
// with a Descendant root (match anywhere), the semantics of the
// estimator's patterns.
func NewQuery(p labeltree.Pattern, axes []Axis) (Query, error) {
	if axes == nil {
		axes = make([]Axis, p.Size())
		axes[0] = Descendant
	}
	if len(axes) != p.Size() {
		return Query{}, fmt.Errorf("twigjoin: %d axes for %d nodes", len(axes), p.Size())
	}
	return Query{Pattern: p, Axes: axes}, nil
}

// MustQuery is NewQuery that panics on error.
func MustQuery(p labeltree.Pattern, axes []Axis) Query {
	q, err := NewQuery(p, axes)
	if err != nil {
		panic(err)
	}
	return q
}

// Parser guards mirroring labeltree's pattern parser: adversarial input
// (the query endpoint is fuzzed) must not exhaust memory or the stack.
// The limits are far above any meaningful twig.
const (
	maxParseNodes = 1 << 16
	maxParseDepth = 1 << 12
)

// ParseQuery parses the twig syntax extended with a per-edge axis: each
// child may be prefixed with "//" for the descendant axis, e.g.
// "a(b,//c(d))". A leading "//" (default) matches the query anywhere in
// the document; a leading "/" anchors it at the document root. Labels
// are interned into dict.
func ParseQuery(s string, dict *labeltree.Dict) (Query, error) {
	return parseQuery(s, labeltree.Resolver{Dict: dict})
}

// ParseKnownQuery is ParseQuery for untrusted queries against a shared
// dictionary: it resolves labels with Lookup and interns nothing. A
// label the dictionary lacks fails with a *labeltree.UnknownLabelError,
// but only once the whole query has parsed, so syntax errors take
// precedence.
func ParseKnownQuery(s string, dict *labeltree.Dict) (Query, error) {
	return parseQuery(s, labeltree.Resolver{Dict: dict, LookupOnly: true})
}

func parseQuery(s string, res labeltree.Resolver) (Query, error) {
	p := &queryParser{src: strings.TrimSpace(s), res: res}
	rootAxis := Descendant
	switch {
	case strings.HasPrefix(p.src, "//"):
		p.pos = 2
	case strings.HasPrefix(p.src, "/"):
		rootAxis = Child
		p.pos = 1
	}
	if err := p.parseNode(-1, rootAxis, 0); err != nil {
		return Query{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Query{}, fmt.Errorf("twigjoin: trailing input %q", p.src[p.pos:])
	}
	if p.res.Unknown != nil {
		return Query{}, p.res.Unknown
	}
	pat, err := labeltree.NewPattern(p.labels, p.parents)
	if err != nil {
		return Query{}, err
	}
	return Query{Pattern: pat, Axes: p.axes}, nil
}

// MustParseQuery is ParseQuery that panics on error.
func MustParseQuery(s string, dict *labeltree.Dict) Query {
	q, err := ParseQuery(s, dict)
	if err != nil {
		panic(err)
	}
	return q
}

// String renders the query in the extended twig syntax.
func (q Query) String(dict *labeltree.Dict) string {
	children := make([][]int32, q.Pattern.Size())
	for i := int32(1); int(i) < q.Pattern.Size(); i++ {
		children[q.Pattern.Parent(i)] = append(children[q.Pattern.Parent(i)], i)
	}
	var render func(i int32) string
	render = func(i int32) string {
		out := dict.Name(q.Pattern.Label(i))
		if len(children[i]) > 0 {
			parts := make([]string, len(children[i]))
			for j, c := range children[i] {
				prefix := ""
				if q.Axes[c] == Descendant {
					prefix = "//"
				}
				parts[j] = prefix + render(c)
			}
			out += "(" + strings.Join(parts, ",") + ")"
		}
		return out
	}
	prefix := "//"
	if q.Axes[0] == Child {
		prefix = "/"
	}
	return prefix + render(0)
}

// ChildOnly reports whether every edge uses the child axis (the
// estimator-compatible form).
func (q Query) ChildOnly() bool {
	for _, a := range q.Axes[1:] {
		if a != Child {
			return false
		}
	}
	return true
}

type queryParser struct {
	src     string
	pos     int
	res     labeltree.Resolver
	labels  []labeltree.LabelID
	parents []int32
	axes    []Axis
}

func (p *queryParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func isQueryLabelByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' || c == '@' || c == '#' ||
		'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

func (p *queryParser) parseNode(parent int32, axis Axis, depth int) error {
	if depth > maxParseDepth {
		return fmt.Errorf("twigjoin: query exceeds depth %d", maxParseDepth)
	}
	if len(p.labels) >= maxParseNodes {
		return fmt.Errorf("twigjoin: query exceeds %d nodes", maxParseNodes)
	}
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isQueryLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return fmt.Errorf("twigjoin: expected label at offset %d in %q", p.pos, p.src)
	}
	idx := int32(len(p.labels))
	p.labels = append(p.labels, p.res.ID(p.src[start:p.pos]))
	p.parents = append(p.parents, parent)
	p.axes = append(p.axes, axis)
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			p.skipSpace()
			childAxis := Child
			if strings.HasPrefix(p.src[p.pos:], "//") {
				childAxis = Descendant
				p.pos += 2
			}
			if err := p.parseNode(idx, childAxis, depth+1); err != nil {
				return err
			}
			p.skipSpace()
			if p.pos >= len(p.src) {
				return fmt.Errorf("twigjoin: unterminated '(' in %q", p.src)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return fmt.Errorf("twigjoin: expected ',' or ')' at offset %d in %q", p.pos, p.src)
		}
	}
	return nil
}
