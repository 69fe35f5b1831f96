package main

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// This file generates every input a workload sends: XML documents shaped
// like the paper's four Table 3 datasets (NASA, IMDB, PSD, XMark) and the
// twig queries drawn from them. Nothing here calls the program, so no
// program change can alter what a workload sends for a given seed.

// rng is splitmix64. The benchmark owns its generator so that neither the
// program nor the Go release can change the inputs behind a seed.
type rng struct{ s uint64 }

// newRNG derives an independent stream per purpose from one seed.
func newRNG(seed uint64, stream string) *rng {
	h := uint64(14695981039346656037)
	for i := 0; i < len(stream); i++ {
		h = (h ^ uint64(stream[i])) * 1099511628211
	}
	return &rng{s: seed*0x9E3779B97F4A7C15 ^ h}
}

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

func (r *rng) float() float64         { return float64(r.next()>>11) / (1 << 53) }
func (r *rng) intn(n int) int         { return int(r.next() % uint64(n)) }
func (r *rng) uniform(lo, hi int) int { return lo + r.intn(hi-lo+1) }
func (r *rng) maybe(p float64) bool   { return r.float() < p }

// geometric draws a non-negative integer with the given mean.
func (r *rng) geometric(mean float64) int {
	p := 1 / (mean + 1)
	n := 0
	for n < 1000 && r.float() > p {
		n++
	}
	return n
}

// heavy draws from a capped discrete Pareto tail: XMark's high-variance
// fanouts. The caps keep combinatorial match counts, and with them the
// run-to-run spread of the figures, bounded.
func (r *rng) heavy(xm, alpha float64, cap int) int {
	u := math.Max(r.float(), 1e-12)
	return min(int(xm/math.Pow(u, 1/alpha)), cap)
}

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// vocab interns element names. Its ids are the benchmark's own and have
// nothing to do with the program's label dictionary.
type vocab struct {
	names []string
	ids   map[string]int32
}

func newVocab() *vocab { return &vocab{ids: make(map[string]int32)} }

func (v *vocab) id(name string) int32 {
	if id, ok := v.ids[name]; ok {
		return id
	}
	id := int32(len(v.names))
	v.names = append(v.names, name)
	v.ids[name] = id
	return id
}

// tree is a generated document in preorder: the descendants of node v are
// exactly the nodes v+1 .. end[v]-1.
type tree struct {
	label   []int32
	kids    [][]int32
	end     []int32
	byLabel map[int32][]int32 // node ids per label, ascending
}

func (t *tree) size() int { return len(t.label) }

// doc is one generated document with its serialized form.
type doc struct {
	name  string
	shape int
	xml   []byte
	t     *tree
}

// shapeNames are the four dataset shapes, in the paper's order.
var shapeNames = []string{"nasa", "imdb", "psd", "xmark"}

// docGen assembles a document in insertion order; finish renumbers it
// into preorder and serializes it.
type docGen struct {
	v     *vocab
	r     *rng
	label []int32
	kids  [][]int32
}

func (b *docGen) add(parent int32, name string) int32 {
	id := int32(len(b.label))
	b.label = append(b.label, b.v.id(name))
	b.kids = append(b.kids, nil)
	if parent >= 0 {
		b.kids[parent] = append(b.kids[parent], id)
	}
	return id
}

func (b *docGen) leaf(parent int32, name string) { b.add(parent, name) }

func (b *docGen) finish(name string, shape int) *doc {
	n := len(b.label)
	t := &tree{
		label:   make([]int32, 0, n),
		kids:    make([][]int32, n),
		end:     make([]int32, n),
		byLabel: make(map[int32][]int32),
	}
	var buf bytes.Buffer
	var walk func(old int32) int32
	walk = func(old int32) int32 {
		id := int32(len(t.label))
		l := b.label[old]
		t.label = append(t.label, l)
		t.byLabel[l] = append(t.byLabel[l], id)
		tag := b.v.names[l]
		buf.WriteByte('<')
		buf.WriteString(tag)
		buf.WriteByte('>')
		if len(b.kids[old]) == 0 {
			// Leaf text: ignored by the structure-only parse, but it gives
			// the documents realistic byte counts.
			buf.WriteString("v")
			buf.WriteString(strconv.Itoa(int(id)))
		}
		for _, k := range b.kids[old] {
			t.kids[id] = append(t.kids[id], walk(k))
		}
		buf.WriteString("</")
		buf.WriteString(tag)
		buf.WriteString(">\n")
		t.end[id] = int32(len(t.label))
		return id
	}
	walk(0)
	return &doc{name: name, shape: shape, xml: buf.Bytes(), t: t}
}

// genDoc generates one document of the given shape with about target
// elements: generation stops after the record that crosses it.
func genDoc(v *vocab, r *rng, shape int, name string, target int) *doc {
	b := &docGen{v: v, r: r}
	switch shapeNames[shape] {
	case "nasa":
		root := b.add(-1, "datasets")
		for len(b.label) < target {
			b.nasaDataset(root)
		}
	case "imdb":
		root := b.add(-1, "imdb")
		for len(b.label) < target {
			b.imdbMovie(root)
		}
	case "psd":
		root := b.add(-1, "ProteinDatabase")
		for len(b.label) < target {
			b.psdEntry(root)
		}
	case "xmark":
		b.xmark(target)
	}
	return b.finish(name, shape)
}

// nasaDataset is a rigid bibliographic record: count variability sits
// inside containers, so conditional independence holds well.
func (b *docGen) nasaDataset(root int32) {
	r := b.r
	ds := b.add(root, "dataset")
	b.leaf(ds, "title")
	b.leaf(ds, "identifier")
	b.leaf(b.add(ds, "altname"), "subject")
	authors := b.add(ds, "authors")
	for i, n := 0, r.uniform(1, 4); i < n; i++ {
		au := b.add(authors, "author")
		b.leaf(au, "initial")
		b.leaf(au, "lastname")
	}
	refs := b.add(ds, "references")
	for i, n := 0, r.geometric(1.5); i < n; i++ {
		ref := b.add(refs, "reference")
		j := b.add(b.add(ref, "source"), "journal")
		b.leaf(j, "name")
		b.leaf(j, "publisher")
		b.leaf(b.add(ref, "date"), "year")
	}
	kw := b.add(ds, "keywords")
	for i, n := 0, r.uniform(1, 5); i < n; i++ {
		b.leaf(kw, "keyword")
	}
	d := b.add(b.add(ds, "descriptions"), "description")
	for i, n := 0, r.uniform(1, 3); i < n; i++ {
		b.leaf(d, "para")
	}
	th := b.add(ds, "tableHead")
	for i, n := 0, r.uniform(2, 6); i < n; i++ {
		b.leaf(th, "field")
	}
	h := b.add(ds, "history")
	b.leaf(b.add(h, "creation"), "date")
	rev := b.add(h, "revisions")
	for i, n := 0, r.geometric(1); i < n; i++ {
		b.leaf(rev, "revision")
	}
}

// imdbMovie drives every repeated child count from one hidden popularity
// factor, so sibling counts correlate and independence is violated.
func (b *docGen) imdbMovie(root int32) {
	r := b.r
	f := math.Exp(r.float()*2.4 - 1.2)
	mv := b.add(root, "movie")
	b.leaf(mv, "title")
	b.leaf(mv, "year")
	b.leaf(mv, "language")
	for i, n := 0, r.uniform(1, 2); i < n; i++ {
		b.leaf(b.add(mv, "director"), "name")
	}
	for i, n := 0, 1+r.geometric(3*f); i < n; i++ {
		ac := b.add(mv, "actor")
		b.leaf(ac, "name")
		if r.maybe(0.3) {
			b.leaf(ac, "role")
		}
	}
	for i, n := 0, r.geometric(2*f); i < n; i++ {
		b.leaf(mv, "keyword")
	}
	for i, n := 0, 1+r.geometric(f); i < n; i++ {
		b.leaf(mv, "genre")
	}
	for i, n := 0, r.geometric(1.5*f); i < n; i++ {
		rel := b.add(mv, "release")
		b.leaf(rel, "country")
		b.leaf(rel, "date")
	}
	if r.maybe(math.Min(1, 0.3*f)) {
		rt := b.add(mv, "rating")
		b.leaf(rt, "votes")
		b.leaf(rt, "score")
	}
}

// psdEntry is a rigid protein record with deeper nesting than nasa.
func (b *docGen) psdEntry(root int32) {
	r := b.r
	e := b.add(root, "ProteinEntry")
	h := b.add(e, "header")
	b.leaf(h, "uid")
	b.leaf(h, "accession")
	b.leaf(b.add(e, "protein"), "name")
	org := b.add(e, "organism")
	b.leaf(org, "source")
	b.leaf(org, "common")
	b.leaf(e, "sequence")
	refs := b.add(e, "references")
	for i, n := 0, r.uniform(1, 3); i < n; i++ {
		ref := b.add(refs, "reference")
		ri := b.add(ref, "refinfo")
		aus := b.add(ri, "authors")
		for j, m := 0, r.uniform(1, 5); j < m; j++ {
			b.leaf(aus, "author")
		}
		b.leaf(ri, "title")
		b.leaf(ri, "year")
		ai := b.add(ref, "accinfo")
		b.leaf(ai, "xrefs")
		for j, m := 0, r.uniform(0, 2); j < m; j++ {
			b.leaf(ai, "genetics")
		}
	}
	fts := b.add(e, "features")
	for i, n := 0, r.geometric(2); i < n; i++ {
		ft := b.add(fts, "feature")
		b.leaf(ft, "feature_type")
		loc := b.add(ft, "location")
		b.leaf(loc, "begin")
		b.leaf(loc, "end")
	}
	cls := b.add(e, "classification")
	for i, n := 0, r.uniform(1, 3); i < n; i++ {
		b.leaf(cls, "superfamily")
	}
	s := b.add(e, "summary")
	b.leaf(s, "length")
	b.leaf(s, "molweight")
}

// xmark is the auction site with heavy-tailed fanouts and recursive
// description markup.
func (b *docGen) xmark(target int) {
	r := b.r
	root := b.add(-1, "site")
	regions := b.add(root, "regions")
	var regionIDs []int32
	for _, n := range []string{"africa", "asia", "europe", "namerica", "samerica", "australia"} {
		regionIDs = append(regionIDs, b.add(regions, n))
	}
	people := b.add(root, "people")
	open := b.add(root, "open_auctions")
	closed := b.add(root, "closed_auctions")
	cats := b.add(root, "categories")
	for len(b.label) < target {
		switch r.intn(5) {
		case 0:
			b.xmarkItem(regionIDs[r.intn(len(regionIDs))])
		case 1:
			b.xmarkPerson(people)
		case 2:
			a := b.add(open, "open_auction")
			b.leaf(a, "initial")
			b.leaf(a, "current")
			b.leaf(a, "itemref")
			for i, n := 0, r.heavy(1, 1.2, 24)-1; i < n; i++ {
				bd := b.add(a, "bidder")
				b.leaf(bd, "date")
				b.leaf(bd, "increase")
			}
		case 3:
			a := b.add(closed, "closed_auction")
			for _, n := range []string{"seller", "buyer", "itemref", "price", "date"} {
				b.leaf(a, n)
			}
		case 4:
			c := b.add(cats, "category")
			b.leaf(c, "name")
			b.leaf(b.add(c, "description"), "text")
		}
	}
}

func (b *docGen) xmarkItem(region int32) {
	r := b.r
	it := b.add(region, "item")
	b.leaf(it, "location")
	b.leaf(it, "name")
	b.leaf(it, "payment")
	b.xmarkText(b.add(it, "description"), 0)
	if r.maybe(0.5) {
		mb := b.add(it, "mailbox")
		for i, n := 0, r.heavy(1, 1.3, 12)-1; i < n; i++ {
			m := b.add(mb, "mail")
			b.leaf(m, "from")
			b.leaf(m, "date")
			b.xmarkText(m, 2)
		}
	}
}

func (b *docGen) xmarkText(parent int32, depth int) {
	r := b.r
	txt := b.add(parent, "text")
	if depth == 0 {
		for i, n := 0, r.heavy(1, 1.4, 16); i < n; i++ {
			b.leaf(txt, "keyword")
		}
		for i, n := 0, r.heavy(1, 1.6, 10)-1; i < n; i++ {
			b.leaf(txt, "bold")
		}
	} else if r.maybe(0.15) {
		b.leaf(txt, "keyword")
	}
	if depth < 4 && r.maybe(0.35) {
		pl := b.add(txt, "parlist")
		for i, n := 0, r.uniform(1, 3); i < n; i++ {
			b.xmarkText(b.add(pl, "listitem"), depth+1)
		}
	}
}

func (b *docGen) xmarkPerson(people int32) {
	r := b.r
	p := b.add(people, "person")
	b.leaf(p, "name")
	b.leaf(p, "emailaddress")
	if r.maybe(0.5) {
		b.leaf(p, "phone")
	}
	if r.maybe(0.6) {
		ad := b.add(p, "address")
		for _, n := range []string{"street", "city", "country"} {
			b.leaf(ad, n)
		}
	}
	if r.maybe(0.4) {
		ws := b.add(p, "watches")
		for i, n := 0, r.heavy(1, 1.3, 24)-1; i < n; i++ {
			b.leaf(ws, "watch")
		}
	}
}

// genDocs generates n documents cycling through the four shapes.
func genDocs(v *vocab, r *rng, prefix string, n, target int) []*doc {
	docs := make([]*doc, n)
	for i := range docs {
		shape := i % len(shapeNames)
		docs[i] = genDoc(v, r, shape, fmt.Sprintf("%s-%s-%05d", prefix, shapeNames[shape], i), target)
	}
	return docs
}

// qnode is one twig query node; node 0 is the root and every parent
// precedes its children. desc marks a descendant ("//") edge to the parent.
type qnode struct {
	label  int32
	parent int32
	desc   bool
}

type twig []qnode

func (q twig) children(i int32) []int32 {
	var out []int32
	for j := i + 1; int(j) < len(q); j++ {
		if q[j].parent == i {
			out = append(out, j)
		}
	}
	return out
}

// text renders q in the program's twig syntax, "a(b,//c(d))".
func (q twig) text(v *vocab) string {
	var sb strings.Builder
	var walk func(i int32)
	walk = func(i int32) {
		if q[i].desc {
			sb.WriteString("//")
		}
		sb.WriteString(v.names[q[i].label])
		if kids := q.children(i); len(kids) > 0 {
			sb.WriteByte('(')
			for n, k := range kids {
				if n > 0 {
					sb.WriteByte(',')
				}
				walk(k)
			}
			sb.WriteByte(')')
		}
	}
	walk(0)
	return sb.String()
}

// key is q's canonical unordered form: isomorphic twigs share a key.
func (q twig) key() string {
	var walk func(i int32) string
	walk = func(i int32) string {
		var kids []string
		for _, k := range q.children(i) {
			kids = append(kids, walk(k))
		}
		sort.Strings(kids)
		s := strconv.Itoa(int(q[i].label))
		if q[i].desc {
			s = "/" + s
		}
		return s + "(" + strings.Join(kids, ",") + ")"
	}
	return walk(0)
}

func (q twig) hasDesc() bool {
	for _, n := range q[1:] {
		if n.desc {
			return true
		}
	}
	return false
}

func (q twig) distinctLabels() bool {
	seen := make(map[int32]bool, len(q))
	for _, n := range q {
		if seen[n.label] {
			return false
		}
		seen[n.label] = true
	}
	return true
}

func (q twig) branching() bool {
	for i := range q {
		if len(q.children(int32(i))) >= 2 {
			return true
		}
	}
	return false
}

// sampleTwig grows a connected sub-twig of n nodes from a random inner
// node of t, so the twig has at least one match. With descP > 0, a growth
// step may skip one or two levels and attach a descendant through a "//"
// edge; distinct keeps the labels pairwise distinct.
func sampleTwig(r *rng, t *tree, n int, descP float64, distinct bool) (twig, bool) {
	type cand struct {
		parent int32
		node   int32
		desc   bool
	}
	start := int32(r.intn(t.size()))
	if len(t.kids[start]) == 0 {
		return nil, false
	}
	q := twig{{label: t.label[start], parent: -1}}
	bound := []int32{start}
	used := map[int32]bool{start: true}
	labels := map[int32]bool{t.label[start]: true}
	for len(q) < n {
		var child, desc []cand
		for qi, dn := range bound {
			for _, w := range t.kids[dn] {
				if !used[w] {
					child = append(child, cand{int32(qi), w, false})
				}
				if descP == 0 {
					continue
				}
				for _, g := range t.kids[w] {
					if !used[g] {
						desc = append(desc, cand{int32(qi), g, true})
					}
					for _, gg := range t.kids[g] {
						if !used[gg] {
							desc = append(desc, cand{int32(qi), gg, true})
						}
					}
				}
			}
		}
		pool := child
		if len(desc) > 0 && r.maybe(descP) {
			pool = desc
		}
		if distinct {
			kept := pool[:0:0]
			for _, c := range pool {
				if !labels[t.label[c.node]] {
					kept = append(kept, c)
				}
			}
			pool = kept
		}
		if len(pool) == 0 {
			return nil, false
		}
		c := pool[r.intn(len(pool))]
		q = append(q, qnode{label: t.label[c.node], parent: c.parent, desc: c.desc})
		bound = append(bound, c.node)
		used[c.node] = true
		labels[t.label[c.node]] = true
	}
	return q, true
}

// perturb relabels one node with another label of the same shape: the
// negative-workload construction of the paper's §5.1. The caller keeps the
// result only if its reference count is zero. The new label never repeats
// a sibling's: a duplicated singleton child (two titles under one movie)
// is estimated as a product of fanouts, and the handful of such twigs
// would dominate est_err's mean and swing it by orders of magnitude
// between seeds.
func perturb(r *rng, q twig, shapeLabels []int32, distinct bool) twig {
	out := append(twig(nil), q...)
	i := r.intn(len(out))
	l := shapeLabels[r.intn(len(shapeLabels))]
	for j, n := range out {
		if n.label == l && (distinct || j != i && i > 0 && n.parent == out[i].parent) {
			return nil
		}
	}
	if l == out[i].label {
		return nil
	}
	out[i].label = l
	return out
}

// shapeLabels lists, per shape, the labels its documents use.
func shapeLabels(docs []*doc) [][]int32 {
	seen := make([]map[int32]bool, len(shapeNames))
	out := make([][]int32, len(shapeNames))
	for i := range seen {
		seen[i] = make(map[int32]bool)
	}
	for _, d := range docs {
		for _, l := range d.t.label {
			if !seen[d.shape][l] {
				seen[d.shape][l] = true
				out[d.shape] = append(out[d.shape], l)
			}
		}
	}
	for _, ls := range out {
		sort.Slice(ls, func(i, j int) bool { return ls[i] < ls[j] })
	}
	return out
}

// zipf draws ranks in [0, n) with probability proportional to 1/(rank+1)^s.
type zipf struct{ cdf []float64 }

func newZipf(n int, s float64) *zipf {
	z := &zipf{cdf: make([]float64, n)}
	total := 0.0
	for i := range z.cdf {
		total += 1 / math.Pow(float64(i+1), s)
		z.cdf[i] = total
	}
	for i := range z.cdf {
		z.cdf[i] /= total
	}
	return z
}

func (z *zipf) draw(r *rng) int {
	return min(sort.SearchFloat64s(z.cdf, r.float()), len(z.cdf)-1)
}
