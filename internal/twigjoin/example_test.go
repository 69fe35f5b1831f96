package twigjoin_test

import (
	"fmt"
	"log"
	"strings"

	"treelattice/internal/labeltree"
	"treelattice/internal/twigjoin"
	"treelattice/internal/xmlparse"
)

// ExampleEnumerate streams every match of a twig query, in deterministic
// order.
func ExampleEnumerate() {
	dict := labeltree.NewDict()
	tree, err := xmlparse.Parse(strings.NewReader(
		`<site><item><name/><price/></item><item><name/><price/></item></site>`), dict, xmlparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	x := twigjoin.NewIndex(tree)
	q := twigjoin.MustParseQuery("//item(name,price)", dict)
	matches := 0
	twigjoin.Enumerate(x, q, nil, func(m twigjoin.Match) bool {
		matches++
		return true
	})
	fmt.Println(matches, "matches")
	// Output: 2 matches
}

// ExampleCount counts matches without enumerating them: six b children
// give 6·5·4 = 120 injective matches of a(b,b,b).
func ExampleCount() {
	dict := labeltree.NewDict()
	tree, err := xmlparse.Parse(strings.NewReader(
		`<a><b/><b/><b/><b/><b/><b/></a>`), dict, xmlparse.Options{})
	if err != nil {
		log.Fatal(err)
	}
	x := twigjoin.NewIndex(tree)
	fmt.Println(twigjoin.Count(x, twigjoin.MustParseQuery("//a(b,b,b)", dict)))
	// Output: 120
}
