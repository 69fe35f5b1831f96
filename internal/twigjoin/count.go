package twigjoin

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"treelattice/internal/labeltree"
)

// MaxSiblingGroup bounds how many children of one query node may share a
// label. The counter resolves such a group with a subset DP over 2^g
// states; 16 covers every mined pattern, since a K-pattern has at most
// K−1 ≤ 15 children per node.
const MaxSiblingGroup = 16

// ErrSiblingGroup reports a query node with more than MaxSiblingGroup
// children carrying one label.
var ErrSiblingGroup = errors.New("twigjoin: too many same-label siblings")

// Counter counts the matches of one query (Definition 1 selectivity,
// generalized to both axes) over the region index without enumerating
// them. With query node u bound to data node v, count(u, v) is a product
// over u's children, taken in plan order: each child w contributes
// Σ count(w, x) over its region probe under v, and a leaf contributes the
// length of its probe. A zero factor ends the product. Siblings that share
// a label form one factor, resolved by a subset DP over their shared
// probe. Sums and products saturate at math.MaxInt64.
//
// The product is exact unless two same-label query nodes can bind one
// data node: neither is the other's ancestor (an ancestor binds a proper
// ancestor), they are not in one sibling group (the subset DP keeps those
// apart), and a "//" edge lies on the path from their lowest common
// ancestor to one of them. Without such an edge both paths are "/" edges,
// so binding the two nodes to one data node would bind the two children
// of the common ancestor that lead to them to one node too, and those
// children share a label and the "/" axis: one sibling group. Fallback
// reports a query with such a pair, such as //a(b,//b) or
// //a(//b(//c),//b(//c)), and the counter then counts it by enumeration.
//
// count(u, v) depends only on v's subtree as an unordered labeled tree:
// the probes under two nodes of one subtree class differ only in order,
// and sums, products and the subset DP's permanent ignore order. So a
// count memoizes count(u, v) for internal query nodes u by (u, class of
// v) and answers a repeated pair at the cost of the candidate visit that
// offered v. Enumeration, the fallback, does not use the memo.
//
// A Counter is prepared once per query and reused across documents. It
// takes its memo table on its first count and keeps it until Release;
// counting a document without same-label groups allocates nothing once
// the table is as large as the document needs. It is not safe for
// concurrent use; CountCorpusContext spreads one query's documents over
// copies of it.
type Counter struct {
	q        Query
	order    []int32
	fallback bool
	internal int // query nodes with children: the memo's node keys
	// factors holds every node's child factors, grouped by parent and in
	// plan order within a parent; node u's are factors[first[u]:first[u+1]].
	factors []factor
	first   []int32

	memo *memo // kept across counts until Release
	// pool, when set, refills budget: CountCorpusContext sets it on each
	// of its workers' counters for the length of a pass.
	pool *atomic.Int64

	// Per-count state.
	x      *Index
	ctx    context.Context
	budget *int64
	stats  Stats
	work   int64 // units charged: visits and subset-DP steps
	hits   int64 // counts answered by the memo
	err    error
}

// maxMemoSlots bounds a memo table: 24 B a slot, 384 KiB in all.
const maxMemoSlots = 1 << 14

// memo is a direct-mapped table of count(u, v) keyed by (u, class of v).
// A slot holds a value only while its gen is the table's: each count
// takes a new generation, which retires every slot at once.
type memo struct {
	slots []memoSlot
	shift uint // 64 − log2(slots in use): a key hash's top bits pick its slot
	gen   uint32
}

type memoSlot struct {
	gen   uint32
	node  int32 // query node u
	class int32 // subtree class of the data node u is bound to
	n     int64 // count(u, v)
}

// memoPool holds the tables of finished counters.
var memoPool = sync.Pool{New: func() any { return new(memo) }}

// reset readies m for a count that may store up to want keys: it grows
// the table toward want slots, at most maxMemoSlots, and takes a new
// generation. The count uses the first size slots of a larger table, so
// which keys share a slot, and with it the count's work, depends only on
// want and not on the counts the table served before.
func (m *memo) reset(want int) {
	size := 64
	for size < want && size < maxMemoSlots {
		size <<= 1
	}
	if len(m.slots) < size {
		m.slots = make([]memoSlot, size)
		m.gen = 0
	}
	m.shift = uint(64 - bits.TrailingZeros(uint(size)))
	if m.gen++; m.gen == 0 {
		// The stamps wrapped: clear them so no slot of an old
		// generation passes for the new one.
		clear(m.slots)
		m.gen = 1
	}
}

// slot returns the one slot (u, class) may occupy.
func (m *memo) slot(u, class int32) *memoSlot {
	h := (uint64(uint32(u))<<32 | uint64(uint32(class))) * 0x9e3779b97f4a7c15
	return &m.slots[h>>m.shift]
}

// factor is one child of a query node, or a group of its children that
// share a label and an axis.
type factor struct {
	label labeltree.LabelID
	axis  Axis
	nodes []int32
	// regions is the label's region list in the document being counted,
	// resolved once per count instead of once per probe.
	regions *labelRegions
	// Group scratch, reused across bindings: a group's factor is never
	// re-entered while it is being computed (recursion only descends).
	cells []int64
	dp    []int64
}

// NewCounter prepares q for counting under a bind order (nil = stored
// numbering). The order decides which child factor is probed first, so
// a planner order keeps its early exits. An invalid order panics, as in
// EnumerateContext; a node with more than MaxSiblingGroup same-label
// children returns ErrSiblingGroup.
func NewCounter(q Query, order []int32) (*Counter, error) {
	p := q.Pattern
	n := p.Size()
	buf := make([]int32, 4*n+1)
	c := &Counter{q: q, order: buf[:n], first: buf[3*n:]}
	pos, byLabel := buf[n:2*n], buf[2*n:3*n]
	if order == nil {
		for i := range c.order {
			c.order[i] = int32(i)
		}
		order = c.order
	}
	validateOrder(p, order, pos)
	copy(c.order, order)

	// Sorting by (label, parent, axis, plan position) makes each sibling
	// group a contiguous run, first-bound member first.
	for i := range byLabel {
		byLabel[i] = int32(i)
	}
	slices.SortFunc(byLabel, func(a, b int32) int {
		return cmp.Or(cmp.Compare(p.Label(a), p.Label(b)), cmp.Compare(p.Parent(a), p.Parent(b)),
			cmp.Compare(q.Axes[a], q.Axes[b]), cmp.Compare(pos[a], pos[b]))
	})
	distinct := true
	c.factors = make([]factor, 0, n-1)
	for s := 0; s < n; {
		lead := byLabel[s]
		e := s + 1
		for e < n && p.Label(byLabel[e]) == p.Label(lead) && p.Parent(byLabel[e]) == p.Parent(lead) &&
			q.Axes[byLabel[e]] == q.Axes[lead] {
			e++
		}
		if e < n && p.Label(byLabel[e]) == p.Label(lead) || e-s > 1 {
			distinct = false
		}
		if par := p.Parent(lead); par >= 0 {
			if e-s > MaxSiblingGroup {
				return nil, fmt.Errorf("%w: query node %d has %d children labeled %d (at most %d)",
					ErrSiblingGroup, par, e-s, p.Label(lead), MaxSiblingGroup)
			}
			c.factors = append(c.factors, factor{label: p.Label(lead), axis: q.Axes[lead], nodes: byLabel[s:e]})
		}
		s = e
	}
	c.fallback = !distinct && !q.ChildOnly() && collides(q, c.factors)
	slices.SortFunc(c.factors, func(a, b factor) int {
		if pa, pb := p.Parent(a.nodes[0]), p.Parent(b.nodes[0]); pa != pb {
			return cmp.Compare(pa, pb)
		}
		return cmp.Compare(pos[a.nodes[0]], pos[b.nodes[0]])
	})
	j := 0
	for u := range c.first {
		for j < len(c.factors) && int(p.Parent(c.factors[j].nodes[0])) < u {
			j++
		}
		c.first[u] = int32(j)
		if u > 0 && c.first[u] != c.first[u-1] {
			c.internal++
		}
	}
	return c, nil
}

// clone returns a Counter for c's query and bind order that shares c's
// read-only plan and has its own group scratch and memo table.
func (c *Counter) clone() *Counter {
	d := &Counter{q: c.q, order: c.order, fallback: c.fallback, internal: c.internal, first: c.first,
		factors: make([]factor, len(c.factors))}
	for i, f := range c.factors {
		d.factors[i] = factor{label: f.label, axis: f.axis, nodes: f.nodes}
	}
	return d
}

// Fallback reports that the product is not exact for the query, so the
// counter counts by enumeration.
func (c *Counter) Fallback() bool { return c.fallback }

// collides reports whether two same-label nodes of q can bind one data
// node under the product (see Counter), given q's sibling groups. Call a
// node's top the highest node it reaches over "/" edges alone. Two nodes
// with one top are joined by "/" paths through their common ancestor, so
// a pair collides exactly when its tops differ, neither node is the
// other's ancestor and the two are not in one group. A preorder walk
// meets each pair of non-ancestors once, when it enters the later node;
// the earlier one has then been left. So the query collides when some
// node, on entry, finds a left node of its label with another top that
// is not an earlier member of its own group. Counting the left nodes per
// label and per (label, top) finds that in linear time.
func collides(q Query, groups []factor) bool {
	p := q.Pattern
	n := p.Size()
	buf := make([]int32, 4*n+len(groups))
	group, top, first, next, entered := buf[:n], buf[n:2*n], buf[2*n:3*n], buf[3*n:4*n], buf[4*n:]
	for k, f := range groups {
		for _, u := range f.nodes {
			group[u] = int32(k)
		}
	}
	// Child lists as first-child and next-sibling links; 0, the root,
	// ends a list, since it is no node's child.
	for u := int32(n) - 1; u > 0; u-- {
		next[u] = first[p.Parent(u)]
		first[p.Parent(u)] = u
	}
	type labelTop struct{ label, top int32 }
	left := make(map[labeltree.LabelID]int32)
	leftIn := make(map[labelTop]int32)
	var walk func(u int32) bool
	walk = func(u int32) bool {
		l := p.Label(u)
		top[u] = u
		var mates int32 // earlier members of u's group, all left by now
		if u > 0 {
			if q.Axes[u] == Child {
				top[u] = top[p.Parent(u)]
			} else {
				mates = entered[group[u]]
			}
			entered[group[u]]++
		}
		if left[l]-leftIn[labelTop{l, top[u]}]-mates > 0 {
			return true
		}
		for w := first[u]; w != 0; w = next[w] {
			if walk(w) {
				return true
			}
		}
		left[l]++
		leftIn[labelTop{l, top[u]}]++
		return false
	}
	return walk(0)
}

// CountContext counts the matches of the query in x's document. The
// count's work is one unit per candidate visit — each data node a probe
// offers, with a leaf's whole probe charged at once — and one per
// subset-DP step of a same-label group. nodeBudget (when non-nil) is
// charged that work, stopping the count with ErrNodeBudget when it runs
// out, and ctx (when non-nil) is polled every budgetPollInterval units.
// The stats up to a stop are returned alongside the error.
func (c *Counter) CountContext(ctx context.Context, x *Index, nodeBudget *int64) (Stats, error) {
	if c.fallback {
		return enumerate(ctx, x, c.q, c.order, nodeBudget, c.pool, keepGoing)
	}
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return Stats{}, err
		}
	}
	c.begin(ctx, x, nodeBudget)
	c.stats.Matches = c.sum(0, x.roots(c.q))
	return c.end()
}

// Release returns the counter's memo table to a shared pool, for a
// Counter that counts no more or only rarely; a later count takes a
// table again.
func (c *Counter) Release() {
	if c.memo != nil {
		memoPool.Put(c.memo)
		c.memo = nil
	}
}

func (c *Counter) begin(ctx context.Context, x *Index, budget *int64) {
	c.x, c.ctx, c.budget, c.stats, c.work, c.hits, c.err = x, ctx, budget, Stats{}, 0, 0, nil
	for i := range c.factors {
		c.factors[i].regions = x.regions[c.factors[i].label]
	}
	if c.internal > 0 {
		if c.memo == nil {
			c.memo = memoPool.Get().(*memo)
		}
		c.memo.reset(c.internal * len(x.size))
	}
}

// end returns the count's outcome and drops its references to the
// document and the request.
func (c *Counter) end() (Stats, error) {
	st, err := c.stats, c.err
	c.x, c.ctx, c.budget = nil, nil, nil
	for i := range c.factors {
		c.factors[i].regions = nil
	}
	return st, err
}

// charge takes n units of work from the node budget and polls ctx
// whenever the work crosses a multiple of budgetPollInterval. It returns
// the units it took, fewer than n when the budget runs out; c.err is set
// when the count must stop.
func (c *Counter) charge(n int64) int64 {
	if c.budget != nil {
		if *c.budget < n && !refill(c.budget, c.pool, n) {
			n, c.err = max(*c.budget, 0), ErrNodeBudget
		}
		*c.budget -= n
	}
	before := c.work
	if c.work += n; c.err == nil && c.ctx != nil && before/budgetPollInterval != c.work/budgetPollInterval {
		c.err = c.ctx.Err()
	}
	return n
}

// visit charges n candidate visits to the node budget and the stats. It
// reports false when the count must stop.
func (c *Counter) visit(n int64) bool {
	c.stats.Candidates += c.charge(n)
	return c.err == nil
}

// sum returns Σ count(u, v) over the candidates v for query node u; a
// leaf matches once per candidate. After a stop it returns the total of
// the candidates that finished.
func (c *Counter) sum(u int32, cands []int32) int64 {
	if c.first[u] == c.first[u+1] {
		if !c.visit(int64(len(cands))) {
			return 0
		}
		return int64(len(cands))
	}
	var total int64
	for _, v := range cands {
		if !c.visit(1) {
			break
		}
		total = satAdd(total, c.count(u, v))
		if c.err != nil {
			break
		}
	}
	return total
}

// count returns the matches of u's subtree with u bound to v: the product
// of u's child factors in plan order, or the memo's value for u and v's
// class. It returns 0 after a stop, and a count a stop cut short is not
// stored.
func (c *Counter) count(u, v int32) int64 {
	class := c.x.class[v]
	m := c.memo.slot(u, class)
	if m.gen == c.memo.gen && m.node == u && m.class == class {
		c.hits++
		return m.n
	}
	prod := int64(1)
	for i := c.first[u]; i < c.first[u+1] && prod != 0; i++ {
		f := &c.factors[i]
		probe := c.x.probe(f.regions, v, f.axis)
		var n int64
		if len(f.nodes) == 1 {
			n = c.sum(f.nodes[0], probe)
		} else {
			n = c.group(f, probe)
		}
		if c.err != nil {
			return 0
		}
		prod = satMul(prod, n)
	}
	*m = memoSlot{gen: c.memo.gen, node: u, class: class, n: prod}
	return prod
}

// group counts the injective assignments of a same-label sibling group to
// distinct nodes of its shared probe: the permanent of
// a[i][j] = count(nodes[i], probe[j]), computed by a subset DP over the
// group in O(len(probe) · 2^g · g) steps. A member with no match anywhere
// in the probe ends it early. Each (member, candidate) cell is a
// candidate visit; each probe column some member matches also charges one
// unit of work per subset state, so the node budget bounds the DP too.
func (c *Counter) group(f *factor, probe []int32) int64 {
	g := len(f.nodes)
	if len(probe) < g {
		return 0
	}
	need := g * len(probe)
	if c.budget != nil && *c.budget < int64(need) && !refill(c.budget, c.pool, int64(need)) {
		// The cells alone would run the budget out: stop before
		// allocating them.
		c.visit(int64(need))
		return 0
	}
	if cap(f.cells) < need {
		f.cells = make([]int64, need)
	}
	cells := f.cells[:need]
	for i, w := range f.nodes {
		hit := false
		for j, x := range probe {
			if !c.visit(1) {
				return 0
			}
			n := int64(1)
			if c.first[w] != c.first[w+1] {
				if n = c.count(w, x); c.err != nil {
					return 0
				}
			}
			cells[j*g+i] = n
			hit = hit || n != 0
		}
		if !hit {
			return 0
		}
	}
	if f.dp == nil {
		f.dp = make([]int64, 1<<g)
	}
	dp := f.dp
	clear(dp)
	dp[0] = 1
	for j := range probe {
		col := cells[j*g : (j+1)*g]
		if !slices.ContainsFunc(col, func(a int64) bool { return a != 0 }) {
			continue
		}
		// Subset-DP steps are work but not candidate visits.
		if c.charge(int64(len(dp))); c.err != nil {
			return 0
		}
		// Descending subsets: an update only targets a larger set, so
		// dp[s] still holds its value from before this column.
		for s := len(dp) - 1; s >= 0; s-- {
			if dp[s] == 0 {
				continue
			}
			for i, a := range col {
				if a != 0 && s&(1<<i) == 0 {
					t := s | 1<<i
					dp[t] = satAdd(dp[t], satMul(dp[s], a))
				}
			}
		}
	}
	return dp[len(dp)-1]
}

// Count counts all matches of q. A query node with more than
// MaxSiblingGroup same-label children, which CountContext refuses, is
// counted by enumeration.
func Count(x *Index, q Query) int64 {
	st, err := CountContext(nil, x, q, nil, nil)
	if err != nil {
		st = Enumerate(x, q, nil, keepGoing)
	}
	return st.Matches
}

// CountPattern returns s(p), the number of Definition 1 matches of the
// child-axis pattern p anywhere in x's document.
func CountPattern(x *Index, p labeltree.Pattern) int64 {
	return Count(x, MustQuery(p, nil))
}

// CountContext counts all matches of q with a Counter prepared for the
// bind order; see Counter.CountContext for the budget and polling
// contract.
func CountContext(ctx context.Context, x *Index, q Query, bindOrder []int32, nodeBudget *int64) (Stats, error) {
	c, err := NewCounter(q, bindOrder)
	if err != nil {
		return Stats{}, err
	}
	defer c.Release()
	return c.CountContext(ctx, x, nodeBudget)
}

// CountAllContext counts each child-axis pattern anywhere in x's document
// and returns the counts in input order. The patterns are independent
// reads of one index, spread over workers goroutines (<= 0 means
// GOMAXPROCS); counting stops with ctx.Err() once ctx is done.
func CountAllContext(ctx context.Context, x *Index, patterns []labeltree.Pattern, workers int) ([]int64, error) {
	out := make([]int64, len(patterns))
	errs := make([]error, len(patterns))
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(workers, len(patterns)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One memo table serves all of this worker's counters.
			m := memoPool.Get().(*memo)
			defer memoPool.Put(m)
			for i := next.Add(1) - 1; i < int64(len(patterns)) && ctx.Err() == nil; i = next.Add(1) - 1 {
				c, err := NewCounter(MustQuery(patterns[i], nil), nil)
				if err != nil {
					errs[i] = err
					continue
				}
				c.memo = m
				var st Stats
				st, errs[i] = c.CountContext(ctx, x, nil)
				out[i] = st.Matches
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// keepGoing is the emit callback of a count by enumeration.
func keepGoing(Match) bool { return true }

func satAdd(a, b int64) int64 {
	s := a + b
	if s < a {
		return math.MaxInt64
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	p := a * b
	if p/b != a || p < 0 {
		return math.MaxInt64
	}
	return p
}
