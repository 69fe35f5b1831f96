package online_test

import (
	"fmt"
	"log"
	"strings"

	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/online"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// ExampleTuner shows the feedback loop: an estimate drifts on correlated
// data, the executed query's true cardinality is fed back, and the next
// estimate is exact.
func ExampleTuner() {
	dict := labeltree.NewDict()
	// Correlated document: b and c always co-occur, d never joins them.
	doc := `<root>` +
		strings.Repeat(`<a><b/><c/></a>`, 8) +
		strings.Repeat(`<a><d/></a>`, 8) +
		`</root>`
	tree, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := mine.Mine(tree, 2, mine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	tuner := online.NewTuner(sum, 1024)
	q := labeltree.MustParsePattern("a(b,c)", dict)
	truth := twigjoin.CountPattern(twigjoin.NewIndex(tree), q)

	before := tuner.Estimate(q)
	tuner.Feedback(q, truth)
	after := tuner.Estimate(q)
	fmt.Printf("true %d: estimate %.0f before feedback, %.0f after\n", truth, before, after)
	// Output: true 8: estimate 4 before feedback, 8 after
}
