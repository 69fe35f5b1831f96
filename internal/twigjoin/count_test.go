package twigjoin

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

// figure1Tree builds the paper's Figure 1(a) document.
func figure1Tree(t *testing.T) (*Index, *labeltree.Dict) {
	t.Helper()
	tr, dict := parseDoc(t, `<computer><laptops><laptop><brand/><price/></laptop><laptop><brand/><price/></laptop></laptops><desktops/></computer>`)
	return NewIndex(tr), dict
}

// countOf counts a child-axis pattern in the extended syntax.
func countOf(x *Index, dict *labeltree.Dict, q string) int64 {
	return CountPattern(x, labeltree.MustParsePattern(q, dict))
}

func TestFigure1TwigQuery(t *testing.T) {
	x, dict := figure1Tree(t)
	// Figure 1(b): //laptop(brand, price) has two matches.
	if got := countOf(x, dict, "laptop(brand,price)"); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
}

func TestSingleNodeCounts(t *testing.T) {
	x, dict := figure1Tree(t)
	for _, tc := range []struct {
		q    string
		want int64
	}{
		{"computer", 1}, {"laptop", 2}, {"brand", 2}, {"missing", 0},
	} {
		if got := countOf(x, dict, tc.q); got != tc.want {
			t.Errorf("Count(%s) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestPathCounts(t *testing.T) {
	x, dict := figure1Tree(t)
	for _, tc := range []struct {
		q    string
		want int64
	}{
		{"computer(laptops)", 1},
		{"laptops(laptop)", 2},
		{"laptops(laptop(brand))", 2},
		{"computer(laptops(laptop(price)))", 2},
		{"computer(desktops(laptop))", 0},
	} {
		if got := countOf(x, dict, tc.q); got != tc.want {
			t.Errorf("Count(%s) = %d, want %d", tc.q, got, tc.want)
		}
	}
}

func TestDuplicateSiblingLabels(t *testing.T) {
	x, dict := figure1Tree(t)
	// laptops(laptop, laptop): the two pattern children must map to the
	// two distinct laptop elements; 2 ordered injective assignments.
	if got := countOf(x, dict, "laptops(laptop,laptop)"); got != 2 {
		t.Fatalf("Count = %d, want 2", got)
	}
	// Three distinct laptop children cannot be found among two elements.
	if got := countOf(x, dict, "laptops(laptop,laptop,laptop)"); got != 0 {
		t.Fatalf("Count = %d, want 0", got)
	}
}

func TestDuplicateLabelsDeeper(t *testing.T) {
	tr, dict := parseDoc(t, `<r><a><x/></a><a><x/><x/></a><a/></r>`)
	// r(a(x), a): first child can map to a1 (1 way via x) or a2 (2 ways),
	// second child to any *other* a. a1: 1 * 2 others = 2; a2: 2 * 2 = 4.
	q := labeltree.MustParsePattern("r(a(x),a)", dict)
	want := bruteCount(tr, q, 0)
	if got := CountPattern(NewIndex(tr), q); got != want {
		t.Fatalf("Count = %d, brute = %d", got, want)
	}
	if want != 6 {
		t.Fatalf("brute = %d, want 6 (hand computed)", want)
	}
}

func TestCountAgainstBruteRandom(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(99))
	c := 0
	for trial := 0; trial < 300; trial++ {
		tr := treetest.RandomTree(rng, 2+rng.Intn(40), alphabet, dict)
		p := treetest.RandomPattern(rng, 1+rng.Intn(5), alphabet)
		want := bruteCount(tr, p, 0)
		if got := CountPattern(NewIndex(tr), p); got != want {
			t.Fatalf("trial %d: counter=%d brute=%d pattern=%s", trial, got, want, p.String(dict))
		}
		if got := refCount(tr, p); got != want {
			t.Fatalf("trial %d: reference DP=%d brute=%d pattern=%s", trial, got, want, p.String(dict))
		}
		if want > 0 {
			c++
		}
	}
	if c == 0 {
		t.Fatal("random workload never produced a positive count; test is vacuous")
	}
}

func TestQuickCountMatchesBrute(t *testing.T) {
	dict, alphabet := treetest.Alphabet(2) // tiny alphabet to force duplicates
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		tr := treetest.RandomTree(rng, 2+rng.Intn(25), alphabet, dict)
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		return CountPattern(NewIndex(tr), p) == bruteCount(tr, p, 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestCountAll(t *testing.T) {
	x, dict := figure1Tree(t)
	patterns := []labeltree.Pattern{
		labeltree.MustParsePattern("laptop", dict),
		labeltree.MustParsePattern("laptop(brand,price)", dict),
		labeltree.MustParsePattern("missing", dict),
	}
	want := []int64{2, 2, 0}
	for _, workers := range []int{0, 1, 2} {
		got, err := CountAllContext(context.Background(), x, patterns, workers)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("workers=%d: CountAllContext[%d] = %d, want %d", workers, i, got[i], want[i])
			}
		}
	}
}

func TestCountAllSingleWorker(t *testing.T) {
	x, dict := figure1Tree(t)
	got, err := CountAllContext(context.Background(), x, []labeltree.Pattern{labeltree.MustParsePattern("laptop", dict)}, 1)
	if err != nil || len(got) != 1 || got[0] != 2 {
		t.Fatalf("CountAllContext = %v, %v", got, err)
	}
	if out, err := CountAllContext(context.Background(), x, nil, 1); err != nil || len(out) != 0 {
		t.Fatalf("CountAllContext(nil) = %v, %v", out, err)
	}
}

func TestPatternOccursOnceInItself(t *testing.T) {
	dict, alphabet := treetest.Alphabet(8) // distinct labels per node
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		// All-distinct labels: the pattern matches its own materialized
		// tree exactly once.
		size := 1 + rng.Intn(8)
		labels := make([]labeltree.LabelID, size)
		parent := make([]int32, size)
		parent[0] = -1
		for i := 0; i < size; i++ {
			labels[i] = alphabet[i]
			if i > 0 {
				parent[i] = int32(rng.Intn(i))
			}
		}
		p := labeltree.MustPattern(labels, parent)
		tr := treetest.TreeFromPattern(p, dict)
		if got := CountPattern(NewIndex(tr), p); got != 1 {
			t.Fatalf("trial %d: Count = %d, want 1", trial, got)
		}
	}
}

func TestSaturationArithmetic(t *testing.T) {
	if satAdd(math.MaxInt64, 1) != math.MaxInt64 {
		t.Fatal("satAdd did not saturate")
	}
	if satMul(math.MaxInt64/2, 3) != math.MaxInt64 {
		t.Fatal("satMul did not saturate")
	}
	if satMul(0, math.MaxInt64) != 0 || satMul(7, 6) != 42 || satAdd(3, 4) != 7 {
		t.Fatal("saturating arithmetic broke exact small values")
	}
	// One a with 40 b children: a(b×12) has 40·39·…·29 ≈ 2.7e18
	// matches, still below math.MaxInt64; a(b×13) has 28 times as many
	// and saturates.
	tr, dict := parseDoc(t, "<a>"+strings.Repeat("<b/>", 40)+"</a>")
	x := NewIndex(tr)
	want := int64(1)
	for i := int64(0); i < 12; i++ {
		want *= 40 - i
	}
	if got := countOf(x, dict, "a("+strings.TrimSuffix(strings.Repeat("b,", 12), ",")+")"); got != want {
		t.Fatalf("a(b×12) = %d, want %d", got, want)
	}
	if got := countOf(x, dict, "a("+strings.TrimSuffix(strings.Repeat("b,", 13), ",")+")"); got != math.MaxInt64 {
		t.Fatalf("a(b×13) = %d, want saturation", got)
	}
}

func TestPermanentSmall(t *testing.T) {
	// The subset DP is the permanent of the group's count matrix.
	// [[1,1],[1,1]] = 2: two b's over two b children.
	tr, dict := parseDoc(t, `<a><b/><b/></a>`)
	if got := countOf(NewIndex(tr), dict, "a(b,b)"); got != 2 {
		t.Fatalf("permanent = %d, want 2", got)
	}
	// Three identical rows over two columns: no injective assignment.
	if got := countOf(NewIndex(tr), dict, "a(b,b,b)"); got != 0 {
		t.Fatalf("permanent = %d, want 0", got)
	}
	// Weighted [[2,3],[5,7]]: rows b(c), b(d) over two b children with
	// 2 c + 5 d and 3 c + 7 d; the permanent is 2·7 + 3·5 = 29.
	tr, dict = parseDoc(t, "<a><b>"+strings.Repeat("<c/>", 2)+strings.Repeat("<d/>", 5)+
		"</b><b>"+strings.Repeat("<c/>", 3)+strings.Repeat("<d/>", 7)+"</b></a>")
	if got := countOf(NewIndex(tr), dict, "a(b(c),b(d))"); got != 29 {
		t.Fatalf("permanent = %d, want 29", got)
	}
}

func TestSiblingGroupGuard(t *testing.T) {
	// A query node with more than MaxSiblingGroup same-label children is
	// refused, on either axis, rather than run 2^g DP states per probe.
	dict := labeltree.NewDict()
	x := NewIndex(treetest.TreeFromPattern(labeltree.MustParsePattern("x(y)", dict), dict))
	group := func(n int, sep string) string {
		return "//x(" + strings.TrimSuffix(strings.Repeat(sep+"y,", n), ",") + ")"
	}
	for _, sep := range []string{"", "//"} {
		q := MustParseQuery(group(MaxSiblingGroup+1, sep), dict)
		if _, err := NewCounter(q, nil); !errors.Is(err, ErrSiblingGroup) {
			t.Fatalf("%q: NewCounter err = %v, want ErrSiblingGroup", sep, err)
		}
		if _, err := CountContext(context.Background(), x, q, nil, nil); !errors.Is(err, ErrSiblingGroup) {
			t.Fatalf("%q: CountContext err = %v, want ErrSiblingGroup", sep, err)
		}
		if got := Count(x, MustParseQuery(group(MaxSiblingGroup, sep), dict)); got != 0 {
			t.Fatalf("%q: group at the bound counted %d, want 0", sep, got)
		}
		// Count has no error to return: it enumerates instead.
		if got := Count(x, q); got != 0 {
			t.Fatalf("%q: oversized group counted %d, want 0", sep, got)
		}
	}
}

// TestDescendantGroupCounts: a label repeated only among "//" siblings of
// one parent is one group of the product, and a label repeated down one
// root path cannot collide, so neither query enumerates. Over one <a>
// with 24 <b/>, six "//b" count 24·23·…·19 from one probe of 24 nodes,
// where enumeration visits about 128.8 M candidates.
func TestDescendantGroupCounts(t *testing.T) {
	tr, dict := parseDoc(t, "<a>"+strings.Repeat("<b/>", 24)+"</a>")
	x := NewIndex(tr)
	c, err := NewCounter(MustParseQuery("//a(//b,//b,//b,//b,//b,//b)", dict), nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.CountContext(context.Background(), x, nil)
	if err != nil || c.Fallback() || st.Matches != 96_909_120 || st.Candidates >= 1000 {
		t.Fatalf("six //b: fallback %v, %+v, %v; want no fallback, 96909120 matches, < 1000 candidates",
			c.Fallback(), st, err)
	}
	tr, dict = parseDoc(t, "<a><a><a/></a><b><a/></b></a>")
	x = NewIndex(tr)
	c, err = NewCounter(MustParseQuery("//a(//a)", dict), nil)
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.CountContext(context.Background(), x, nil); err != nil || c.Fallback() || st.Matches != 4 {
		t.Fatalf("//a(//a): fallback %v, %+v, %v; want no fallback, 4 matches", c.Fallback(), st, err)
	}
}

// TestCollidesAgainstPairs checks the linear-time fallback test against
// its definition, pair by pair, on random queries over two labels with
// random axes: a query collides when two same-label nodes are neither
// ancestor and descendant nor one sibling group, and a "//" edge lies on
// the path from their lowest common ancestor to one of them.
func TestCollidesAgainstPairs(t *testing.T) {
	dict, alphabet := treetest.Alphabet(2)
	rng := rand.New(rand.NewSource(17))
	path := func(p labeltree.Pattern, u int32) []int32 {
		var up []int32
		for ; u >= 0; u = p.Parent(u) {
			up = append(up, u)
		}
		return up
	}
	seen := map[bool]int{}
	for trial := 0; trial < 3000; trial++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(8), alphabet)
		axes := make([]Axis, p.Size())
		for i := range axes {
			axes[i] = Axis(rng.Intn(2))
		}
		q := MustQuery(p, axes)
		want := false
		for u := int32(1); int(u) < p.Size(); u++ {
			for v := int32(0); v < u; v++ {
				if p.Label(u) != p.Label(v) {
					continue
				}
				pu, pv := path(p, u), path(p, v)
				if slices.Contains(pu, v) || p.Parent(u) == p.Parent(v) && axes[u] == axes[v] {
					continue
				}
				// Strip the shared root path down to the common ancestor.
				for len(pu) > 0 && len(pv) > 0 && pu[len(pu)-1] == pv[len(pv)-1] {
					pu, pv = pu[:len(pu)-1], pv[:len(pv)-1]
				}
				for _, w := range append(pu, pv...) {
					want = want || axes[w] == Descendant
				}
			}
		}
		c, err := NewCounter(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := c.Fallback(); got != want {
			t.Fatalf("%s: Fallback() = %v, pairwise rule says %v", q.String(dict), got, want)
		}
		seen[want]++
	}
	if seen[true] == 0 || seen[false] == 0 {
		t.Fatalf("trials drew only one verdict: %v", seen)
	}
}

// TestGroupPollsContext: the subset DP polls ctx on its own, so a group
// whose cells are too few to reach a visit poll (12 members × 20
// candidates = 240 < budgetPollInterval) still stops on cancellation
// within its 20 × 2^12 DP steps.
func TestGroupPollsContext(t *testing.T) {
	tr, dict := parseDoc(t, "<a>"+strings.Repeat("<b/>", 20)+"</a>")
	x := NewIndex(tr)
	q := MustParseQuery("//a("+strings.TrimSuffix(strings.Repeat("b,", 12), ",")+")", dict)
	c, err := NewCounter(q, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	c.begin(ctx, x, nil)
	if n := c.group(&c.factors[0], x.Stream(q.Pattern.Label(1))); n != 0 || !errors.Is(c.err, context.Canceled) {
		t.Fatalf("group = %d, err %v; want 0, context.Canceled", n, c.err)
	}
}

// TestGroupChargesBudget: a same-label group charges one visit per
// (member, candidate) cell, after the one root candidate, and one budget
// step per subset state of each probe column; the DP steps stop the count
// like visits do but stay out of Stats.Candidates. A budget too small for
// the cells stops the count before they are allocated.
func TestGroupChargesBudget(t *testing.T) {
	tr, dict := parseDoc(t, "<a>"+strings.Repeat("<b/>", 20)+"</a>")
	x := NewIndex(tr)
	q := MustParseQuery("//a("+strings.TrimSuffix(strings.Repeat("b,", 12), ",")+")", dict)
	const cells, steps = 1 + 12*20, 20 << 12
	for _, tc := range []struct {
		budget int64
		err    error
	}{
		{cells - 1, ErrNodeBudget},
		{cells + steps - 1, ErrNodeBudget},
		{cells + steps, nil},
	} {
		c, err := NewCounter(q, nil)
		if err != nil {
			t.Fatal(err)
		}
		budget := tc.budget
		st, err := c.CountContext(context.Background(), x, &budget)
		if !errors.Is(err, tc.err) {
			t.Fatalf("budget %d: err = %v, want %v", tc.budget, err, tc.err)
		}
		if budget != 0 {
			t.Fatalf("budget %d: %d left, want 0", tc.budget, budget)
		}
		if want := min(tc.budget, cells); st.Candidates != want {
			t.Fatalf("budget %d: %d candidates, want %d", tc.budget, st.Candidates, want)
		}
		if tc.err == nil && st.Matches != 20*19*18*17*16*15*14*13*12*11*10*9 {
			t.Fatalf("count = %d", st.Matches)
		}
		if tc.budget < cells && c.factors[0].cells != nil {
			t.Fatal("cells allocated for a group the budget cannot pay for")
		}
	}
}

func TestBruteCountLimit(t *testing.T) {
	x, dict := figure1Tree(t)
	q := labeltree.MustParsePattern("laptop", dict)
	if got := bruteCount(x.Tree(), q, 1); got != 1 {
		t.Fatalf("limited brute = %d, want 1", got)
	}
}

func TestDeepChainPattern(t *testing.T) {
	// A 12-level chain of p's above one q.
	doc := strings.Repeat("<p>", 12) + "<q/>" + strings.Repeat("</p>", 12)
	tr, dict := parseDoc(t, doc)
	x := NewIndex(tr)
	p, _ := dict.Lookup("p")
	q, _ := dict.Lookup("q")
	chain := make([]labeltree.LabelID, 0, 13)
	for i := 0; i < 12; i++ {
		chain = append(chain, p)
	}
	chain = append(chain, q)
	if got := CountPattern(x, labeltree.PathPattern(chain...)); got != 1 {
		t.Fatalf("deep chain count = %d, want 1", got)
	}
	// Suffix chains: p/p/q occurs once, at the bottom.
	if got := CountPattern(x, labeltree.PathPattern(p, p, q)); got != 1 {
		t.Fatalf("short chain count = %d, want 1", got)
	}
}

// wideTree builds a document with n laptop subtrees, enough that the
// counter's periodic context poll fires at least once mid-scan.
func wideTree(t *testing.T, n int) (*Index, *labeltree.Dict) {
	t.Helper()
	tr, dict := parseDoc(t, "<computer><laptops>"+strings.Repeat("<laptop><brand/><price/></laptop>", n)+"</laptops></computer>")
	return NewIndex(tr), dict
}

// TestCountContextCancellation: a canceled or expired context stops the
// count with the right sentinel, while a live context counts as usual.
func TestCountContextCancellation(t *testing.T) {
	x, dict := wideTree(t, 2*budgetPollInterval)
	q := MustQuery(labeltree.MustParsePattern("laptop(brand,price)", dict), nil)

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithTimeout(context.Background(), -1)
	defer cancel2()

	for _, tc := range []struct {
		name    string
		ctx     context.Context
		wantErr error
	}{
		{"live", context.Background(), nil},
		{"canceled", canceled, context.Canceled},
		{"expired", expired, context.DeadlineExceeded},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, err := CountContext(tc.ctx, x, q, nil, nil)
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("CountContext err = %v, want %v", err, tc.wantErr)
			}
			if tc.wantErr == nil && st.Matches != int64(2*budgetPollInterval) {
				t.Fatalf("CountContext = %d, want %d", st.Matches, 2*budgetPollInterval)
			}
		})
	}
}

// TestCountAllContextCancellation: the parallel batch surfaces the
// context error after its workers drain.
func TestCountAllContextCancellation(t *testing.T) {
	x, dict := wideTree(t, 2*budgetPollInterval)
	qs := []labeltree.Pattern{
		labeltree.MustParsePattern("laptop(brand,price)", dict),
		labeltree.MustParsePattern("laptops(laptop)", dict),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 2} {
		if _, err := CountAllContext(ctx, x, qs, workers); !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want Canceled", workers, err)
		}
	}
}

// countdownCtx reports context.Canceled from its n-th Err call on.
type countdownCtx struct {
	context.Context
	n int
}

func (c *countdownCtx) Err() error {
	if c.n--; c.n <= 0 {
		return context.Canceled
	}
	return nil
}

// TestCounterMidCountCancel: a context canceled while the count runs
// stops it at the next poll, well before the scan ends.
func TestCounterMidCountCancel(t *testing.T) {
	x, dict := wideTree(t, 8*budgetPollInterval)
	q := MustParseQuery("//laptop(brand,price)", dict)
	full, err := CountContext(context.Background(), x, q, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The first Err call is the entry check; the second is the first poll.
	st, err := CountContext(&countdownCtx{context.Background(), 2}, x, q, nil, nil)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if st.Candidates > 2*budgetPollInterval || st.Candidates >= full.Candidates {
		t.Fatalf("stopped after %d of %d candidates", st.Candidates, full.Candidates)
	}
}
