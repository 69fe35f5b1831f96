package estimate

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/markov"
	"treelattice/internal/mine"
	"treelattice/internal/treetest"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

func parseDoc(t *testing.T, doc string) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return tr, dict
}

func mineK(t *testing.T, tr *labeltree.Tree, k int) *lattice.Summary {
	t.Helper()
	sum, err := mine.Mine(tr, k, mine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return sum
}

func TestAugment(t *testing.T) {
	if got := Augment(6, 4, 2); got != 12 {
		t.Fatalf("Augment = %v, want 12", got)
	}
	if got := Augment(6, 4, 0); got != 0 {
		t.Fatalf("Augment with zero common = %v, want 0", got)
	}
}

func TestExactRecallWithinLattice(t *testing.T) {
	// Queries no larger than K must be answered exactly from the summary.
	tr, dict := parseDoc(t, `<computer><laptops><laptop><brand/><price/></laptop><laptop><brand/><price/></laptop></laptops><desktops/></computer>`)
	sum := mineK(t, tr, 3)
	idx := twigjoin.NewIndex(tr)
	for _, est := range []Estimator{
		NewRecursive(sum, false),
		NewRecursive(sum, true),
		NewFixSized(sum),
	} {
		for _, qs := range []string{"laptop", "laptop(brand)", "laptop(brand,price)", "computer(laptops(laptop))"} {
			q := labeltree.MustParsePattern(qs, dict)
			want := float64(twigjoin.CountPattern(idx, q))
			if got := est.Estimate(q); got != want {
				t.Errorf("%s: Estimate(%s) = %v, want %v", est.Name(), qs, got, want)
			}
		}
	}
}

func TestZeroForUnseenLabels(t *testing.T) {
	tr, dict := parseDoc(t, `<a><b/><c/></a>`)
	sum := mineK(t, tr, 2)
	q := labeltree.MustParsePattern("a(b,zzz)", dict)
	for _, est := range []Estimator{NewRecursive(sum, false), NewRecursive(sum, true), NewFixSized(sum)} {
		if got := est.Estimate(q); got != 0 {
			t.Errorf("%s: Estimate = %v, want 0", est.Name(), got)
		}
	}
}

// uniformDoc builds a document of n identical fragments r(a(b,c,d)): the
// conditional independence assumption holds exactly, so decomposition must
// reproduce true counts for queries beyond the lattice level.
func uniformDoc(t *testing.T, n int) (*labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	var b strings.Builder
	b.WriteString("<root>")
	for i := 0; i < n; i++ {
		b.WriteString("<a><b/><c/><d/></a>")
	}
	b.WriteString("</root>")
	return parseDoc(t, b.String())
}

func TestDecompositionExactUnderIndependence(t *testing.T) {
	tr, dict := uniformDoc(t, 7)
	sum := mineK(t, tr, 3)
	idx := twigjoin.NewIndex(tr)
	queries := []string{
		"a(b,c,d)",       // size 4
		"root(a(b,c))",   // size 4
		"root(a(b,c,d))", // size 5
	}
	for _, est := range []Estimator{NewRecursive(sum, false), NewRecursive(sum, true), NewFixSized(sum)} {
		for _, qs := range queries {
			q := labeltree.MustParsePattern(qs, dict)
			want := float64(twigjoin.CountPattern(idx, q))
			got := est.Estimate(q)
			if math.Abs(got-want) > 1e-9*math.Max(1, want) {
				t.Errorf("%s: Estimate(%s) = %v, want %v", est.Name(), qs, got, want)
			}
		}
	}
}

func TestLemma4MarkovEquivalence(t *testing.T) {
	// On path queries, both decomposition estimators must produce exactly
	// the Markov-table estimate (Lemma 4).
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(31))
	for _, k := range []int{2, 3, 4} {
		tr := treetest.RandomTree(rng, 120, alphabet, dict)
		sum := mineK(t, tr, k)
		tb := markov.Build(tr, k)
		rec := NewRecursive(sum, false)
		vote := NewRecursive(sum, true)
		fix := NewFixSized(sum)
		checked := 0
		for trial := 0; trial < 200; trial++ {
			n := k + 1 + rng.Intn(4)
			path := make([]labeltree.LabelID, n)
			for i := range path {
				path[i] = alphabet[rng.Intn(len(alphabet))]
			}
			q := labeltree.PathPattern(path...)
			want := tb.Estimate(path)
			if want > 0 {
				checked++
			}
			for _, est := range []Estimator{rec, vote, fix} {
				got := est.Estimate(q)
				if math.Abs(got-want) > 1e-9*math.Max(1, want) {
					t.Fatalf("k=%d %s: path %v: got %v, markov %v", k, est.Name(), path, got, want)
				}
			}
		}
		if checked < 10 {
			t.Fatalf("k=%d: only %d positive paths; test is weak", k, checked)
		}
	}
}

func TestVotingAveragesPairs(t *testing.T) {
	// A hand-built asymmetric case: query a(b,c,d) with K=3 where the
	// voting estimate is the average of the three leaf-pair estimates.
	tr, dict := parseDoc(t, `<root><a><b/><c/></a><a><b/><d/></a><a><c/><d/></a><a><b/><c/><d/></a></root>`)
	sum := mineK(t, tr, 3)
	q := labeltree.MustParsePattern("a(b,c,d)", dict)

	count := func(qs string) float64 {
		c, _ := sum.Count(labeltree.MustParsePattern(qs, dict))
		return float64(c)
	}
	// Pairs of leaves {b,c,d}: removing (b,c), (b,d), (c,d).
	e1 := count("a(b,c)") * count("a(b,d)") / count("a(b)") // common a(b)
	e2 := count("a(b,c)") * count("a(c,d)") / count("a(c)")
	e3 := count("a(b,d)") * count("a(c,d)") / count("a(d)")
	want := (e1 + e2 + e3) / 3
	got := NewRecursive(sum, true).Estimate(q)
	if math.Abs(got-want) > 1e-12 {
		t.Fatalf("voting estimate = %v, want %v", got, want)
	}
	// Non-voting picks one canonical pair: the estimate must equal one of
	// the three pair estimates, and must be identical across isomorphic
	// renumberings of the query.
	gotSingle := NewRecursive(sum, false).Estimate(q)
	if math.Abs(gotSingle-e1) > 1e-12 && math.Abs(gotSingle-e2) > 1e-12 && math.Abs(gotSingle-e3) > 1e-12 {
		t.Fatalf("single-pair estimate = %v, not one of %v %v %v", gotSingle, e1, e2, e3)
	}
	iso := labeltree.MustParsePattern("a(d,c,b)", dict)
	if got := NewRecursive(sum, false).Estimate(iso); got != gotSingle {
		t.Fatalf("isomorphic query estimated differently: %v vs %v", got, gotSingle)
	}
}

func TestEstimateIsomorphismInvariant(t *testing.T) {
	// Estimates must depend only on the query's isomorphism class, for
	// all estimators.
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(61))
	tr := treetest.RandomTree(rng, 120, alphabet, dict)
	sum := mineK(t, tr, 3)
	ests := []Estimator{NewRecursive(sum, false), NewRecursive(sum, true), NewFixSized(sum)}
	for trial := 0; trial < 150; trial++ {
		q := treetest.RandomPattern(rng, 4+rng.Intn(4), alphabet)
		iso := treetest.ShufflePattern(rng, q)
		for _, est := range ests {
			a, b := est.Estimate(q), est.Estimate(iso)
			if math.Abs(a-b) > 1e-9*math.Max(1, math.Abs(a)) {
				t.Fatalf("%s: isomorphic estimates differ: %v vs %v for %s",
					est.Name(), a, b, q.String(dict))
			}
		}
	}
}

func TestMaxVotingPairsCaps(t *testing.T) {
	tr, dict := uniformDoc(t, 3)
	sum := mineK(t, tr, 3)
	q := labeltree.MustParsePattern("root(a(b,c,d))", dict)
	r := &Recursive{Sum: sum, Voting: true, MaxVotingPairs: 1}
	// With a cap of 1 the estimator still returns a sane estimate.
	if got := r.Estimate(q); got <= 0 {
		t.Fatalf("capped voting estimate = %v", got)
	}
}

func TestCoverProperties(t *testing.T) {
	dict, alphabet := treetest.Alphabet(4)
	_ = dict
	rng := rand.New(rand.NewSource(13))
	for trial := 0; trial < 300; trial++ {
		k := 2 + rng.Intn(3)
		n := k + rng.Intn(6)
		q := treetest.RandomPattern(rng, n, alphabet)
		cover := Cover(q, k)
		if len(cover) != n-k+1 {
			t.Fatalf("cover has %d steps, want %d", len(cover), n-k+1)
		}
		seen := make(map[int32]bool)
		for si, step := range cover {
			if len(step) != k {
				t.Fatalf("step %d has %d nodes, want %d", si, len(step), k)
			}
			// Each step must be a connected subtree (Subpattern panics
			// otherwise).
			_ = q.Subpattern(step)
			if si == 0 {
				for _, v := range step {
					seen[v] = true
				}
				continue
			}
			// All but the last node were already covered; the last is new.
			for _, v := range step[:k-1] {
				if !seen[v] {
					t.Fatalf("step %d uses uncovered node %d in overlap", si, v)
				}
			}
			newNode := step[k-1]
			if seen[newNode] {
				t.Fatalf("step %d re-covers node %d", si, newNode)
			}
			// Overlap must itself be connected.
			_ = q.Subpattern(step[:k-1])
			seen[newNode] = true
		}
		if len(seen) != n {
			t.Fatalf("cover visited %d of %d nodes", len(seen), n)
		}
	}
}

func TestCoverPanicsOnSmallPattern(t *testing.T) {
	_, alphabet := treetest.Alphabet(2)
	defer func() {
		if recover() == nil {
			t.Fatal("Cover on undersized pattern did not panic")
		}
	}()
	Cover(labeltree.SingleNode(alphabet[0]), 2)
}

func TestPruneDerivableLemma5(t *testing.T) {
	// δ=0 pruning must not change any estimate (Lemma 5).
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(41))
	tr := treetest.RandomTree(rng, 100, alphabet, dict)
	sum := mineK(t, tr, 4)
	pruned := PruneDerivable(sum, 0)
	if !pruned.Pruned() {
		t.Fatal("pruned summary not marked pruned")
	}
	if pruned.Len() > sum.Len() {
		t.Fatal("pruning grew the summary")
	}
	full := NewRecursive(sum, false)
	prunedEst := NewRecursive(pruned, false)
	fullVote := NewRecursive(sum, true)
	prunedVote := NewRecursive(pruned, true)
	fullFix := NewFixSized(sum)
	prunedFix := NewFixSized(pruned)
	idx := twigjoin.NewIndex(tr)
	checked := 0
	for trial := 0; trial < 400; trial++ {
		q := treetest.RandomPattern(rng, 1+rng.Intn(6), alphabet)
		// Lemma 5 applies to queries that occur in the data: every
		// connected subpattern of an occurring query also occurs, so all
		// decomposition lookups resolve identically. Queries with zero
		// true selectivity may estimate nonzero against a pruned summary
		// (the summary cannot distinguish "pruned as derivable" from
		// "never occurred") — the paper's negative-query caveat.
		if twigjoin.CountPattern(idx, q) == 0 {
			continue
		}
		checked++
		if a, b := full.Estimate(q), prunedEst.Estimate(q); math.Abs(a-b) > 1e-9*math.Max(1, a) {
			t.Fatalf("recursive: %s: full %v pruned %v", q.String(dict), a, b)
		}
		if a, b := fullVote.Estimate(q), prunedVote.Estimate(q); math.Abs(a-b) > 1e-9*math.Max(1, a) {
			t.Fatalf("voting: %s: full %v pruned %v", q.String(dict), a, b)
		}
		if a, b := fullFix.Estimate(q), prunedFix.Estimate(q); math.Abs(a-b) > 1e-9*math.Max(1, a) {
			t.Fatalf("fix-sized: %s: full %v pruned %v", q.String(dict), a, b)
		}
	}
	if checked < 30 {
		t.Fatalf("only %d positive queries checked; test is weak", checked)
	}
}

func TestPruneDerivableMonotoneInDelta(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	_ = dict
	rng := rand.New(rand.NewSource(43))
	tr := treetest.RandomTree(rng, 150, alphabet, dict)
	sum := mineK(t, tr, 4)
	prev := sum.Len() + 1
	for _, delta := range []float64{0, 0.1, 0.2, 0.3} {
		p := PruneDerivable(sum, delta)
		if p.Len() >= prev {
			t.Fatalf("delta=%v: size %d not smaller than %d", delta, p.Len(), prev)
		}
		prev = p.Len() + 1 // allow equality across deltas
	}
}

func TestPruneKeepsLevels1And2(t *testing.T) {
	dict, alphabet := treetest.Alphabet(3)
	_ = dict
	rng := rand.New(rand.NewSource(47))
	tr := treetest.RandomTree(rng, 80, alphabet, dict)
	sum := mineK(t, tr, 4)
	p := PruneDerivable(sum, 0.5)
	want := sum.LevelSizes()
	got := p.LevelSizes()
	if got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("levels 1-2 changed: got %v want %v", got, want)
	}
}

func TestEstimatorNames(t *testing.T) {
	dict := labeltree.NewDict()
	sum := lattice.New(2, dict)
	if NewRecursive(sum, false).Name() != "recursive" ||
		NewRecursive(sum, true).Name() != "recursive+voting" ||
		NewFixSized(sum).Name() != "fix-sized" {
		t.Fatal("estimator names changed")
	}
}

func TestVotingSchemes(t *testing.T) {
	// Asymmetric sibling correlations give three distinct pair estimates;
	// each scheme aggregates differently but all stay within the
	// [min, max] spread.
	tr, dict := parseDoc(t, `<root>`+
		strings.Repeat(`<a><b/><c/></a>`, 3)+
		`<a><b/><d/></a>`+
		strings.Repeat(`<a><c/><d/></a>`, 2)+
		`<a><b/><c/><d/></a>`+
		`</root>`)
	sum := mineK(t, tr, 3)
	q := labeltree.MustParsePattern("a(b,c,d)", dict)
	iv := mustInterval(t, sum, q)
	var values []float64
	for _, scheme := range []VotingScheme{Mean, Median, TrimmedMean} {
		r := &Recursive{Sum: sum, Voting: true, Scheme: scheme}
		got := r.Estimate(q)
		if !iv.Contains(got) {
			t.Fatalf("%s: %v outside spread %+v", scheme, got, iv)
		}
		values = append(values, got)
	}
	// Mean and median differ on this asymmetric case.
	if values[0] == values[1] {
		t.Fatalf("mean == median (%v); case not discriminating", values[0])
	}
}

func TestVotingSchemeStrings(t *testing.T) {
	if Mean.String() != "mean" || Median.String() != "median" || TrimmedMean.String() != "trimmed-mean" {
		t.Fatal("scheme names changed")
	}
}

func TestAggregate(t *testing.T) {
	votes := []float64{1, 2, 3, 100}
	if got := aggregate(votes, Mean); got != 26.5 {
		t.Fatalf("mean = %v", got)
	}
	if got := aggregate(votes, Median); got != 2.5 {
		t.Fatalf("median = %v", got)
	}
	if got := aggregate(votes, TrimmedMean); got != 2.5 {
		t.Fatalf("trimmed = %v", got)
	}
	if got := aggregate([]float64{5, 7, 9}, Median); got != 7 {
		t.Fatalf("odd median = %v", got)
	}
	// TrimmedMean falls back to mean below 4 votes.
	if got := aggregate([]float64{3, 6}, TrimmedMean); got != 4.5 {
		t.Fatalf("small trimmed = %v", got)
	}
	if got := aggregate([]float64{42}, Median); got != 42 {
		t.Fatalf("single vote = %v", got)
	}
}
