package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

func buildSample(t *testing.T, k int) (*Summary, *labeltree.Tree, *labeltree.Dict) {
	t.Helper()
	dict := labeltree.NewDict()
	doc := `<computer><laptops><laptop><brand/><price/></laptop><laptop><brand/><price/></laptop></laptops><desktops/></computer>`
	tr, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(tr, BuildOptions{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return sum, tr, dict
}

func TestBuildDefaults(t *testing.T) {
	dict := labeltree.NewDict()
	tr, err := xmlparse.Parse(strings.NewReader("<a><b/></a>"), dict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(tr, BuildOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if sum.K() != 4 {
		t.Fatalf("default K = %d, want 4", sum.K())
	}
	if sum.Patterns() == 0 || sum.SizeBytes() == 0 {
		t.Fatal("empty summary built")
	}
}

func TestEstimateQueryAllMethods(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	for _, m := range Methods() {
		got, err := sum.EstimateQuery("laptop(brand,price)", m)
		if err != nil {
			t.Fatalf("%s: %v", m, err)
		}
		if got != 2 {
			t.Fatalf("%s: estimate = %v, want 2", m, got)
		}
	}
}

func TestEstimateQueryErrors(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	if _, err := sum.EstimateQuery("a((", MethodRecursive); err == nil {
		t.Fatal("bad query accepted")
	}
	if _, err := sum.EstimateQuery("laptop", Method("bogus")); err == nil {
		t.Fatal("bad method accepted")
	}
	if _, err := sum.Estimator("bogus"); err == nil {
		t.Fatal("bad method accepted by Estimator")
	}
}

func TestSentinelErrors(t *testing.T) {
	sum, tr, _ := buildSample(t, 3)
	if _, err := sum.EstimateQuery("a((", MethodRecursive); !errors.Is(err, ErrBadQuery) {
		t.Fatalf("syntax error = %v, want ErrBadQuery", err)
	}
	if _, err := sum.EstimateQuery("never_seen_label", MethodRecursive); !errors.Is(err, ErrUnknownLabel) {
		t.Fatalf("unknown label = %v, want ErrUnknownLabel", err)
	}
	if _, err := sum.EstimateQuery("laptop", Method("bogus")); !errors.Is(err, ErrUnknownMethod) {
		t.Fatalf("bogus method = %v, want ErrUnknownMethod", err)
	}
	if _, err := Build(tr, BuildOptions{K: MaxK + 1}); !errors.Is(err, ErrKTooLarge) {
		t.Fatalf("K=%d accepted, err = %v, want ErrKTooLarge", MaxK+1, err)
	}
	if _, err := sum.Prune(0).Materialize(); !errors.Is(err, ErrPrunedSummary) {
		t.Fatalf("pruned Materialize = %v, want ErrPrunedSummary", err)
	}
	otherDict := labeltree.NewDict()
	other, err := xmlparse.Parse(strings.NewReader("<x><y/></x>"), otherDict, xmlparse.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := BuildForestContext(context.Background(), []*labeltree.Tree{tr, other}, BuildOptions{K: 3}); !errors.Is(err, ErrDictMismatch) {
		t.Fatalf("foreign dict forest = %v, want ErrDictMismatch", err)
	}
}

func TestBuildContextCanceled(t *testing.T) {
	_, tr, _ := buildSample(t, 3)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := BuildContext(ctx, tr, BuildOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled build returned %v, want context.Canceled", err)
	}
	if _, err := BuildForestContext(ctx, []*labeltree.Tree{tr}, BuildOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled forest build returned %v, want context.Canceled", err)
	}
}

// forestTrees parses several distinct documents sharing one dictionary.
func forestTrees(t *testing.T, n int) []*labeltree.Tree {
	t.Helper()
	dict := labeltree.NewDict()
	trees := make([]*labeltree.Tree, n)
	for i := range trees {
		var sb strings.Builder
		sb.WriteString("<computer><laptops>")
		for j := 0; j <= i%3; j++ {
			sb.WriteString("<laptop><brand/><price/></laptop>")
		}
		sb.WriteString("</laptops>")
		if i%2 == 0 {
			sb.WriteString(fmt.Sprintf("<desktops><desktop><tag%d/></desktop></desktops>", i))
		}
		sb.WriteString("</computer>")
		tr, err := xmlparse.Parse(strings.NewReader(sb.String()), dict, xmlparse.Options{})
		if err != nil {
			t.Fatal(err)
		}
		trees[i] = tr
	}
	return trees
}

// TestBuildForestEquivalence is the pipeline's core invariant: for any
// worker count the parallel build is bit-identical (serialized form) to
// mining each document alone and merging the lattices in order. Serialized equality also pins the
// candidate enumeration order: which isomorphism representative a summary
// stores for each key is decided by the byte-encoder's lexicographic
// candidate ordering in the miner, and must not shift with parallelism.
func TestBuildForestEquivalence(t *testing.T) {
	trees := forestTrees(t, 9)

	seq, err := Build(trees[0], BuildOptions{K: 4, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trees[1:] {
		inc, err := Build(tr, BuildOptions{K: 4, Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if err := seq.Lattice().Merge(inc.Lattice()); err != nil {
			t.Fatal(err)
		}
	}
	var want bytes.Buffer
	if _, err := seq.WriteTo(&want); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2, 4, 8} {
		par, err := BuildForestContext(context.Background(), trees, BuildOptions{K: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got bytes.Buffer
		if _, err := par.WriteTo(&got); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("workers=%d: parallel build differs from sequential build", workers)
		}
	}
}

func TestBuildForestRejectsMixedDicts(t *testing.T) {
	a := forestTrees(t, 1)
	b := forestTrees(t, 1)
	_, err := BuildForestContext(context.Background(), []*labeltree.Tree{a[0], b[0]}, BuildOptions{K: 3})
	if !errors.Is(err, ErrDictMismatch) {
		t.Fatalf("mixed dict forest = %v, want ErrDictMismatch", err)
	}
}

func TestPruneKeepsEstimates(t *testing.T) {
	sum, tr, dict := buildSample(t, 3)
	pruned := sum.Prune(0)
	if pruned.SizeBytes() > sum.SizeBytes() {
		t.Fatal("pruning grew the summary")
	}
	idx := twigjoin.NewIndex(tr)
	for _, qs := range []string{"laptop(brand,price)", "computer(laptops(laptop))", "laptops(laptop,laptop)"} {
		q := labeltree.MustParsePattern(qs, dict)
		want := float64(twigjoin.CountPattern(idx, q))
		got, err := pruned.Estimate(q, MethodRecursive)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(got-want) > 1e-9 {
			t.Fatalf("pruned estimate of %s = %v, want %v", qs, got, want)
		}
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	sum, _, _ := buildSample(t, 3)
	var buf bytes.Buffer
	if _, err := sum.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	dict2 := labeltree.NewDict()
	got, err := Read(&buf, dict2)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != sum.K() || got.Patterns() != sum.Patterns() {
		t.Fatal("round trip mismatch")
	}
	est, err := got.EstimateQuery("laptop(brand,price)", MethodFixSized)
	if err != nil {
		t.Fatal(err)
	}
	if est != 2 {
		t.Fatalf("estimate after reload = %v, want 2", est)
	}
}

func TestReadGarbage(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("nope")), labeltree.NewDict()); err == nil {
		t.Fatal("garbage accepted")
	}
}

func TestEstimateWithTrace(t *testing.T) {
	sum, _, dict := buildSample(t, 3)
	q := labeltree.MustParsePattern("computer(laptops(laptop(brand,price)))", dict)
	est, trace, err := sum.EstimateWithTrace(q, MethodRecursiveVoting)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sum.Estimate(q, MethodRecursiveVoting)
	if est != want {
		t.Fatalf("traced estimate %v != %v", est, want)
	}
	if trace.MaxDepth == 0 || trace.Augmentations == 0 {
		t.Fatalf("trace = %+v for an out-of-lattice query", trace)
	}
	if _, _, err := sum.EstimateWithTrace(q, MethodFixSized); err == nil {
		t.Fatal("fix-sized trace accepted")
	}
}

// TestEstimateIntervalFacade: Summary.Explain's one voting pass returns
// the served recursive+voting estimate, the trace EstimateWithTrace
// records, and an interval around the estimate.
func TestEstimateIntervalFacade(t *testing.T) {
	sum, _, dict := buildSample(t, 3)
	q := labeltree.MustParsePattern("computer(laptops(laptop(brand,price)))", dict)
	est, trace, iv, err := sum.Explain(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := sum.Estimate(q, MethodRecursiveVoting)
	_, wantTrace, _ := sum.EstimateWithTrace(q, MethodRecursiveVoting)
	if est != want || trace != wantTrace {
		t.Fatalf("explain %v %+v, want %v %+v", est, trace, want, wantTrace)
	}
	if !iv.Contains(est) {
		t.Fatalf("interval %+v does not contain estimate %v", iv, est)
	}
}

func TestValuePredicateEstimation(t *testing.T) {
	// The future-work value-predicate extension end to end: parse with
	// value buckets, query a bucketed predicate like price=42.
	dict := labeltree.NewDict()
	doc := `<shop>` +
		strings.Repeat(`<laptop><brand>apple</brand><price>42</price></laptop>`, 3) +
		strings.Repeat(`<laptop><brand>dell</brand><price>99</price></laptop>`, 2) +
		`</shop>`
	tree, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{ValueBuckets: 64})
	if err != nil {
		t.Fatal(err)
	}
	sum, err := Build(tree, BuildOptions{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	// laptop[price = 42] as a structural twig through the bucket label.
	q := "laptop(price(" + xmlparse.ValueLabel("42", 64) + "))"
	got, err := sum.EstimateQuery(q, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("value predicate estimate = %v, want 3", got)
	}
	// Combined structure + value predicate.
	q2 := "laptop(brand(" + xmlparse.ValueLabel("dell", 64) + "),price)"
	got2, err := sum.EstimateQuery(q2, MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != 2 {
		t.Fatalf("combined predicate estimate = %v, want 2", got2)
	}
}
