package estimate_test

import (
	"context"
	"fmt"
	"log"
	"strings"

	"treelattice/internal/estimate"
	"treelattice/internal/labeltree"
	"treelattice/internal/mine"
	"treelattice/internal/xmlparse"
)

// ExampleAugment applies Theorem 1 directly: two twigs with counts 6 and
// 4 sharing a common part with count 2 combine to an estimate of 12.
func ExampleAugment() {
	fmt.Println(estimate.Augment(6, 4, 2))
	// Output: 12
}

// ExampleRecursive_EstimateWithTrace shows the work record attached to an
// estimate: how many lattice lookups hit, and how deep the decomposition
// recursed (each level compounds one independence assumption).
func ExampleRecursive_EstimateWithTrace() {
	dict := labeltree.NewDict()
	doc := `<root>` + strings.Repeat(`<a><b/><c/><d/></a>`, 5) + `</root>`
	tree, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := mine.Mine(tree, 3, mine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	r := estimate.NewRecursive(sum, true)
	q := labeltree.MustParsePattern("root(a(b,c,d))", dict)
	est, trace := r.EstimateWithTrace(q)
	fmt.Printf("estimate %.0f after %d decomposition levels\n", est, trace.MaxDepth)
	// Output: estimate 5 after 2 decomposition levels
}

// ExampleEstimateInterval brackets an estimate by the spread of
// decomposition choices; a zero-width interval means every choice agrees.
func ExampleEstimateInterval() {
	dict := labeltree.NewDict()
	doc := `<root>` + strings.Repeat(`<a><b/><c/><d/></a>`, 4) + `</root>`
	tree, err := xmlparse.Parse(strings.NewReader(doc), dict, xmlparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	sum, err := mine.Mine(tree, 3, mine.Options{})
	if err != nil {
		log.Fatal(err)
	}
	iv, err := estimate.EstimateInterval(context.Background(), sum, labeltree.MustParsePattern("root(a(b,c,d))", dict))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("[%.0f, %.0f]\n", iv.Lo, iv.Hi)
	// Output: [4, 4]
}
