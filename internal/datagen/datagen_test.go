package datagen

import (
	"math"
	"testing"

	"treelattice/internal/labeltree"
)

func genTree(t *testing.T, p Profile, scale int, seed int64) *labeltree.Tree {
	t.Helper()
	dict := labeltree.NewDict()
	tr, err := Generate(Config{Profile: p, Scale: scale, Seed: seed}, dict)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateAllProfiles(t *testing.T) {
	for _, p := range AllProfiles() {
		tr := genTree(t, p, 5000, 1)
		s := tr.Stats()
		if s.Nodes < 5000 || s.Nodes > 7000 {
			t.Errorf("%s: %d nodes, want ~5000", p, s.Nodes)
		}
		if s.Labels < 15 {
			t.Errorf("%s: only %d labels", p, s.Labels)
		}
		if s.MaxDepth < 2 {
			t.Errorf("%s: depth %d too shallow", p, s.MaxDepth)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	for _, p := range AllProfiles() {
		t1 := genTree(t, p, 2000, 7)
		t2 := genTree(t, p, 2000, 7)
		if t1.Size() != t2.Size() {
			t.Fatalf("%s: sizes differ across runs", p)
		}
		for i := int32(0); int(i) < t1.Size(); i++ {
			if t1.Label(i) != t2.Label(i) || t1.Parent(i) != t2.Parent(i) {
				t.Fatalf("%s: node %d differs across runs", p, i)
			}
		}
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	t1 := genTree(t, NASA, 2000, 1)
	t2 := genTree(t, NASA, 2000, 2)
	if t1.Size() == t2.Size() {
		// Sizes can collide; require some structural difference.
		same := true
		for i := int32(0); int(i) < t1.Size(); i++ {
			if t1.Label(i) != t2.Label(i) {
				same = false
				break
			}
		}
		if same {
			t.Fatal("different seeds produced identical documents")
		}
	}
}

func TestGenerateErrors(t *testing.T) {
	dict := labeltree.NewDict()
	if _, err := Generate(Config{Profile: NASA, Scale: 0}, dict); err == nil {
		t.Fatal("zero scale accepted")
	}
	if _, err := Generate(Config{Profile: "bogus", Scale: 100}, dict); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

// fanoutVariance returns the variance of child counts across all nodes
// with the given label.
func fanoutVariance(tr *labeltree.Tree, dict *labeltree.Dict, label string) float64 {
	id, ok := dict.Lookup(label)
	if !ok {
		return 0
	}
	var n, sum, sumsq float64
	for _, v := range nodesLabeled(tr, id) {
		c := float64(len(tr.Children(v)))
		n++
		sum += c
		sumsq += c * c
	}
	if n == 0 {
		return 0
	}
	mean := sum / n
	return sumsq/n - mean*mean
}

func TestXMarkHasHighFanoutVariance(t *testing.T) {
	// The defining property: XMark's record-level fanout variance (bidders
	// per auction) dwarfs NASA's (children per dataset record). This is
	// what breaks average-multiplication synopses on XMark.
	xmDict := labeltree.NewDict()
	xm, err := Generate(Config{Profile: XMark, Scale: 20000, Seed: 3}, xmDict)
	if err != nil {
		t.Fatal(err)
	}
	naDict := labeltree.NewDict()
	na, err := Generate(Config{Profile: NASA, Scale: 20000, Seed: 3}, naDict)
	if err != nil {
		t.Fatal(err)
	}
	vx := fanoutVariance(xm, xmDict, "open_auction")
	vn := fanoutVariance(na, naDict, "dataset")
	if vx < 10*vn {
		t.Fatalf("xmark auction fanout variance %.1f not ≫ nasa dataset variance %.1f", vx, vn)
	}
	if xm.Stats().MaxFanout < 50 {
		t.Fatalf("xmark max fanout %d lacks a heavy tail", xm.Stats().MaxFanout)
	}
}

func TestIMDBSiblingCorrelation(t *testing.T) {
	// Cast size and keyword count must be positively correlated across
	// movies (the hidden popularity factor), violating conditional
	// independence. Compute the sample correlation of the two counts.
	dict := labeltree.NewDict()
	tr, err := Generate(Config{Profile: IMDB, Scale: 30000, Seed: 5}, dict)
	if err != nil {
		t.Fatal(err)
	}
	movie, _ := dict.Lookup("movie")
	actor, _ := dict.Lookup("actor")
	keyword, _ := dict.Lookup("keyword")
	var xs, ys []float64
	for _, m := range nodesLabeled(tr, movie) {
		var nc, nk float64
		for _, c := range tr.Children(m) {
			switch tr.Label(c) {
			case actor:
				nc++
			case keyword:
				nk++
			}
		}
		xs = append(xs, nc)
		ys = append(ys, nk)
	}
	if len(xs) < 50 {
		t.Fatalf("only %d movies generated", len(xs))
	}
	if corr := correlation(xs, ys); corr < 0.25 {
		t.Fatalf("actor/keyword correlation %.2f, want >= 0.25", corr)
	}
}

func TestNASASiblingIndependence(t *testing.T) {
	// NASA's per-record counts are drawn independently: author count and
	// reference count should be (nearly) uncorrelated.
	dict := labeltree.NewDict()
	tr, err := Generate(Config{Profile: NASA, Scale: 30000, Seed: 5}, dict)
	if err != nil {
		t.Fatal(err)
	}
	ds, _ := dict.Lookup("dataset")
	authors, _ := dict.Lookup("authors")
	refs, _ := dict.Lookup("references")
	var xs, ys []float64
	for _, m := range nodesLabeled(tr, ds) {
		var na, nr float64
		for _, c := range tr.Children(m) {
			switch tr.Label(c) {
			case authors:
				na = float64(len(tr.Children(c)))
			case refs:
				nr = float64(len(tr.Children(c)))
			}
		}
		xs = append(xs, na)
		ys = append(ys, nr)
	}
	if corr := correlation(xs, ys); corr > 0.15 || corr < -0.15 {
		t.Fatalf("author/reference correlation %.2f, want ~0", corr)
	}
}

func correlation(xs, ys []float64) float64 {
	n := float64(len(xs))
	var sx, sy, sxx, syy, sxy float64
	for i := range xs {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		syy += ys[i] * ys[i]
		sxy += xs[i] * ys[i]
	}
	cov := sxy/n - sx/n*sy/n
	vx := sxx/n - sx/n*sx/n
	vy := syy/n - sy/n*sy/n
	if vx <= 0 || vy <= 0 {
		return 0
	}
	return cov / math.Sqrt(vx*vy)
}

// nodesLabeled lists the nodes of tr carrying label, in node order.
func nodesLabeled(tr *labeltree.Tree, label labeltree.LabelID) []int32 {
	var out []int32
	for v := int32(0); int(v) < tr.Size(); v++ {
		if tr.Label(v) == label {
			out = append(out, v)
		}
	}
	return out
}
