package labeltree

import (
	"fmt"
	"strings"
	"unicode"
)

// Query-shape guards: the twig parser accepts untrusted input (it sits
// behind /v1/estimate's q parameter), so both the node count and the
// nesting depth are bounded. The limits are far above any meaningful twig
// query — the paper's workloads top out at tens of nodes — and exist only
// to keep adversarial inputs from exhausting memory or the goroutine
// stack.
const (
	maxQueryNodes = 1 << 16
	maxQueryDepth = 1024
)

// ParsePattern parses the twig syntax "a(b,c(d))" into a Pattern,
// interning labels into dict. Whitespace around labels and punctuation is
// ignored. A leading "//" (as in the paper's "//laptop" example) is
// accepted and ignored: patterns are matched anywhere in the data tree, so
// the descendant axis at the root is implicit.
func ParsePattern(s string, dict *Dict) (Pattern, error) {
	return parsePattern(s, Resolver{Dict: dict})
}

// ParseKnownPattern is ParsePattern for untrusted queries against a
// shared dictionary: it resolves labels with Lookup and interns nothing.
// A label the dictionary lacks fails with an *UnknownLabelError, but
// only once the whole query has parsed, so syntax errors take
// precedence.
func ParseKnownPattern(s string, dict *Dict) (Pattern, error) {
	return parsePattern(s, Resolver{Dict: dict, LookupOnly: true})
}

// UnknownLabelError reports a query label that a lookup-only parse
// (ParseKnownPattern, twigjoin.ParseKnownQuery) did not find in the
// dictionary.
type UnknownLabelError struct {
	Label string
}

func (e *UnknownLabelError) Error() string {
	return fmt.Sprintf("labeltree: unknown label %q", e.Label)
}

// Resolver maps the label names of one query parse to IDs. It interns
// them, or, when LookupOnly, records the first name the dictionary
// lacks in Unknown and stands in ID 0, so the parse can finish and
// report any syntax error first.
type Resolver struct {
	Dict       *Dict
	LookupOnly bool
	Unknown    *UnknownLabelError
}

// ID resolves one label name.
func (r *Resolver) ID(name string) LabelID {
	if !r.LookupOnly {
		return r.Dict.Intern(name)
	}
	id, ok := r.Dict.Lookup(name)
	if !ok && r.Unknown == nil {
		r.Unknown = &UnknownLabelError{Label: name}
	}
	return id
}

func parsePattern(s string, res Resolver) (Pattern, error) {
	p := &patternParser{src: s, res: res}
	p.skipSpace()
	p.acceptPrefix("//")
	if _, err := p.parseNode(-1, 1); err != nil {
		return Pattern{}, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return Pattern{}, fmt.Errorf("labeltree: trailing input %q at offset %d", p.src[p.pos:], p.pos)
	}
	if p.res.Unknown != nil {
		return Pattern{}, p.res.Unknown
	}
	return Pattern{labels: p.labels, parent: p.parents}, nil
}

// MustParsePattern is ParsePattern that panics on error; for tests and
// examples with literal queries.
func MustParsePattern(s string, dict *Dict) Pattern {
	p, err := ParsePattern(s, dict)
	if err != nil {
		panic(err)
	}
	return p
}

// ParsePath parses a path expression "a/b/c" (or "//a/b/c") into a path
// Pattern, interning labels into dict.
func ParsePath(s string, dict *Dict) (Pattern, error) {
	s = strings.TrimPrefix(strings.TrimSpace(s), "//")
	parts := strings.Split(s, "/")
	if len(parts) > maxQueryNodes {
		return Pattern{}, fmt.Errorf("labeltree: path exceeds %d steps", maxQueryNodes)
	}
	labels := make([]LabelID, 0, len(parts))
	for _, part := range parts {
		part = strings.TrimSpace(part)
		if part == "" {
			return Pattern{}, fmt.Errorf("labeltree: empty step in path %q", s)
		}
		labels = append(labels, dict.Intern(part))
	}
	return PathPattern(labels...), nil
}

type patternParser struct {
	src     string
	pos     int
	res     Resolver
	labels  []LabelID
	parents []int32
}

func (p *patternParser) skipSpace() {
	for p.pos < len(p.src) && unicode.IsSpace(rune(p.src[p.pos])) {
		p.pos++
	}
}

func (p *patternParser) acceptPrefix(prefix string) {
	if strings.HasPrefix(p.src[p.pos:], prefix) {
		p.pos += len(prefix)
	}
}

// isLabelByte admits element names plus the synthetic prefixes '@'
// (attribute nodes) and '#' (value-bucket nodes) so queries can carry
// attribute and value predicates.
func isLabelByte(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' || c == '@' || c == '#' ||
		'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' || '0' <= c && c <= '9'
}

// parseNode parses "label" or "label(child,child,...)" and records the node
// under parent. It returns the new node's index.
func (p *patternParser) parseNode(parent int32, depth int) (int32, error) {
	if depth > maxQueryDepth {
		return -1, fmt.Errorf("labeltree: query exceeds depth %d", maxQueryDepth)
	}
	if len(p.labels) >= maxQueryNodes {
		return -1, fmt.Errorf("labeltree: query exceeds %d nodes", maxQueryNodes)
	}
	p.skipSpace()
	start := p.pos
	for p.pos < len(p.src) && isLabelByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start {
		return -1, fmt.Errorf("labeltree: expected label at offset %d in %q", p.pos, p.src)
	}
	idx := int32(len(p.labels))
	p.labels = append(p.labels, p.res.ID(p.src[start:p.pos]))
	p.parents = append(p.parents, parent)
	p.skipSpace()
	if p.pos < len(p.src) && p.src[p.pos] == '(' {
		p.pos++
		for {
			if _, err := p.parseNode(idx, depth+1); err != nil {
				return -1, err
			}
			p.skipSpace()
			if p.pos >= len(p.src) {
				return -1, fmt.Errorf("labeltree: unterminated '(' in %q", p.src)
			}
			if p.src[p.pos] == ',' {
				p.pos++
				continue
			}
			if p.src[p.pos] == ')' {
				p.pos++
				break
			}
			return -1, fmt.Errorf("labeltree: expected ',' or ')' at offset %d in %q", p.pos, p.src)
		}
	}
	return idx, nil
}
