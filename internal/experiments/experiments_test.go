package experiments

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/datagen"
)

// smallCfg keeps the full-suite smoke test fast.
func smallCfg() Config {
	return Config{
		Scale:        2500,
		Seed:         7,
		K:            3,
		Sizes:        []int{4, 5},
		PerSize:      10,
		SketchBudget: 8 << 10,
	}
}

func TestTable1(t *testing.T) {
	s := NewSuite(smallCfg())
	rows, err := s.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d, want 4", len(rows))
	}
	for _, r := range rows {
		if r.Elements < 2000 || r.FileKB <= 0 || r.Labels < 15 {
			t.Fatalf("implausible row %+v", r)
		}
	}
}

func TestTable2LevelsGrow(t *testing.T) {
	s := NewSuite(smallCfg())
	rows, err := s.Table2()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("levels = %d, want 5", len(rows))
	}
	for _, p := range s.Cfg.Profiles {
		if rows[0].Patterns[p] < 15 {
			t.Fatalf("%s: level-1 patterns = %d", p, rows[0].Patterns[p])
		}
		// Pattern counts blow up with level (Table 2's shape).
		if rows[4].Patterns[p] <= rows[1].Patterns[p] {
			t.Fatalf("%s: level 5 (%d) not larger than level 2 (%d)",
				p, rows[4].Patterns[p], rows[1].Patterns[p])
		}
	}
}

func TestTable3Shapes(t *testing.T) {
	s := NewSuite(smallCfg())
	rows, err := s.Table3()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.LatticeTime <= 0 || r.SketchTime <= 0 {
			t.Fatalf("missing timings: %+v", r)
		}
		if r.LatticeKB <= 0 || r.SketchKB <= 0 {
			t.Fatalf("missing sizes: %+v", r)
		}
	}
}

func TestFigure7ShapeOnXMark(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.XMark}
	cfg.Scale = 6000
	s := NewSuite(cfg)
	rows, err := s.Figure7()
	if err != nil {
		t.Fatal(err)
	}
	// The headline qualitative result: on XMark-like data the voting
	// estimator beats TreeSketches on average across sizes.
	var voting, sketch float64
	for _, r := range rows {
		switch r.Estimator {
		case "recursive+voting":
			voting += r.AvgErrPct
		case "treesketches":
			sketch += r.AvgErrPct
		}
	}
	if voting >= sketch {
		t.Fatalf("voting total error %.1f not below treesketches %.1f on xmark", voting, sketch)
	}
}

func TestFigure8Monotone(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.NASA}
	s := NewSuite(cfg)
	rows, err := s.Figure8()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		for i := 1; i < len(r.Points); i++ {
			if r.Points[i].CumPercent < r.Points[i-1].CumPercent {
				t.Fatalf("%s: CDF not monotone", r.Estimator)
			}
		}
		last := r.Points[len(r.Points)-1]
		if last.CumPercent < 50 {
			t.Fatalf("%s: CDF tops out at %.0f%%", r.Estimator, last.CumPercent)
		}
	}
}

func TestFigure9Positive(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.PSD}
	s := NewSuite(cfg)
	rows, err := s.Figure9()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		t.Fatal("no rows")
	}
	for _, r := range rows {
		if r.AvgTime < 0 {
			t.Fatalf("negative time: %+v", r)
		}
	}
}

func TestFigure10aSavings(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.NASA}
	s := NewSuite(cfg)
	rows, err := s.Figure10a()
	if err != nil {
		t.Fatal(err)
	}
	r := rows[0]
	if r.PrunedKB >= r.FullKB {
		t.Fatalf("0-derivable pruning saved nothing: %+v", r)
	}
}

func TestFigure10bRuns(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.NASA}
	s := NewSuite(cfg)
	rows, fullKB, optKB, err := s.Figure10b()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != len(cfg.Sizes) || fullKB <= 0 || optKB <= 0 {
		t.Fatalf("rows=%d fullKB=%v optKB=%v", len(rows), fullKB, optKB)
	}
}

func TestFigure10cdShapes(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.IMDB}
	s := NewSuite(cfg)
	cRows, dRows, err := s.Figure10cd(datagen.IMDB)
	if err != nil {
		t.Fatal(err)
	}
	if len(cRows) != 4 {
		t.Fatalf("cRows = %d", len(cRows))
	}
	for i := 1; i < len(cRows); i++ {
		if cRows[i].SizeKB > cRows[i-1].SizeKB {
			t.Fatalf("summary size grew with delta: %+v", cRows)
		}
	}
	if len(dRows) != 4*len(cfg.Sizes) {
		t.Fatalf("dRows = %d", len(dRows))
	}
}

func TestFigure11Example(t *testing.T) {
	r, err := Figure11()
	if err != nil {
		t.Fatal(err)
	}
	if r.TrueCount != 38 {
		t.Fatalf("true = %d, want 38", r.TrueCount)
	}
	if r.TreeLattice != 38 {
		t.Fatalf("treelattice = %v, want exact 38", r.TreeLattice)
	}
	if r.Sketch == 38 {
		t.Fatalf("treesketches unexpectedly exact (%v); example is vacuous", r.Sketch)
	}
}

func TestNegativeAccuracy(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.NASA}
	s := NewSuite(cfg)
	rows, err := s.Negative()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		if r.Queries == 0 {
			t.Fatalf("%s: no negative queries", r.Estimator)
		}
		// The paper reports >=99% for TreeLattice and 100% for
		// TreeSketches; at small scale allow a little slack.
		if r.ZeroPct < 90 {
			t.Fatalf("%s: only %.1f%% of negative queries answered 0", r.Estimator, r.ZeroPct)
		}
	}
}

func TestRunAllSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite in -short mode")
	}
	cfg := smallCfg()
	var buf bytes.Buffer
	if err := NewSuite(cfg).RunAll(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table 1", "Table 2", "Table 3", "Figure 7", "Figure 8",
		"Figure 9", "Figure 10a", "Figure 11", "Negative",
		"Estimation methods", "Online adaptation",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("report missing %q", want)
		}
	}
}

func TestAdaptation(t *testing.T) {
	cfg := smallCfg()
	cfg.Profiles = []datagen.Profile{datagen.IMDB}
	s := NewSuite(cfg)
	rows, err := s.Adaptation(2)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("rows = %d", len(rows))
	}
	if rows[0].Pass != 1 || rows[1].Pass != 2 {
		t.Fatalf("pass numbering wrong: %+v", rows)
	}
	if rows[1].AvgErrPct > rows[0].AvgErrPct {
		t.Fatalf("feedback increased error: %+v", rows)
	}
	if rows[1].Corrections == 0 && rows[0].AvgErrPct > 1 {
		t.Fatal("no corrections stored despite error")
	}
}

// TestMethodQErrorTable checks that the per-method table scores every
// registered method on every profile with a well-formed q-error.
func TestMethodQErrorTable(t *testing.T) {
	cfg := smallCfg()
	cfg.Scale = 1500
	cfg.PerSize = 6
	s := NewSuite(cfg)
	rows, err := s.Methods()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range datagen.AllProfiles() {
		for _, m := range core.RegisteredMethods() {
			var row *MethodRow
			for i := range rows {
				if rows[i].Dataset == p && rows[i].Method == m {
					row = &rows[i]
				}
			}
			if row == nil {
				t.Errorf("%s: no row for method %s", p, m)
				continue
			}
			for name, q := range map[string]float64{
				"mean": row.MeanQError, "median": row.MedianQError,
				"p95": row.P95QError, "max": row.MaxQError,
			} {
				if math.IsNaN(q) || q < 1 {
					t.Errorf("%s %s: %s q-error = %v, want >= 1", p, m, name, q)
				}
			}
		}
	}
}
