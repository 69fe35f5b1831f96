package main

import (
	"fmt"
	"sort"
)

// The reference counter: the benchmark's own exact twig counter, against
// which it checks /v1/query answers and scores /v1/estimate answers.
//
// A match is an injective map from query nodes to data nodes that keeps
// labels, maps child edges to parent-child pairs and "//" edges to
// ancestor-descendant pairs; the root may map anywhere. cnt(u, v), the
// number of matches of u's subtree with u at v, is a product over u's
// children of their summed counts whenever injectivity holds for free:
// sibling labels distinct under child edges, or all labels distinct.
// Duplicate sibling labels under child edges need a subset DP over v's
// children (a matrix permanent). Twigs with a "//" edge are accepted only
// with pairwise distinct labels, where counts factorise.

// refCounter counts one twig across a corpus.
type refCounter struct {
	q    twig
	kids [][]int32 // per query node, its children
	// closedSets sums non-injective counts over every parent-closed
	// subset of the twig instead of counting the twig's matches.
	closedSets bool
	t          *tree
}

func newRefCounter(q twig, closedSets bool) *refCounter {
	c := &refCounter{q: q, kids: make([][]int32, len(q)), closedSets: closedSets}
	for i := 1; i < len(q); i++ {
		c.kids[q[i].parent] = append(c.kids[q[i].parent], int32(i))
	}
	return c
}

// refCount returns the exact number of matches of q in docs.
func refCount(docs []*doc, q twig) float64 { return countRoots(docs, newRefCounter(q, false), false) }

// refMatches reports whether q has any match in docs; it stops at the
// first matching root.
func refMatches(docs []*doc, q twig) bool { return countRoots(docs, newRefCounter(q, false), true) > 0 }

// countRoots sums c over every data node the root may bind to; with first,
// it stops once the sum is positive.
func countRoots(docs []*doc, c *refCounter, first bool) float64 {
	q := c.q
	if !c.closedSets && q.hasDesc() && !q.distinctLabels() {
		panic(fmt.Sprintf("refcount: twig %v has a // edge and repeated labels", q))
	}
	total := 0.0
	for _, d := range docs {
		c.t = d.t
		for _, v := range d.t.byLabel[q[0].label] {
			total += c.at(0, v)
			if first && total > 0 {
				return total
			}
		}
	}
	return total
}

func (c *refCounter) at(u, v int32) float64 {
	cs := c.kids[u]
	if len(cs) == 0 {
		return 1
	}
	if c.closedSets || c.siblingLabelsDistinct(cs) {
		prod := 1.0
		for _, ch := range cs {
			sum := 0.0
			l := c.q[ch].label
			if c.q[ch].desc {
				for _, w := range c.descendants(l, v) {
					sum += c.at(ch, w)
				}
			} else {
				for _, w := range c.t.kids[v] {
					if c.t.label[w] == l {
						sum += c.at(ch, w)
					}
				}
			}
			if c.closedSets {
				sum++
			}
			if sum == 0 {
				return 0
			}
			prod *= sum
		}
		return prod
	}
	// Duplicate sibling labels under child edges: assign the query
	// children to distinct data children, one data child at a time.
	dp := make([]float64, 1<<len(cs))
	dp[0] = 1
	vals := make([]float64, len(cs))
	for _, w := range c.t.kids[v] {
		any := false
		for j, ch := range cs {
			vals[j] = 0
			if c.q[ch].label == c.t.label[w] {
				vals[j] = c.at(ch, w)
				any = any || vals[j] > 0
			}
		}
		if !any {
			continue
		}
		for m := len(dp) - 1; m >= 0; m-- {
			if dp[m] == 0 {
				continue
			}
			for j := range cs {
				if m&(1<<j) == 0 && vals[j] > 0 {
					dp[m|1<<j] += dp[m] * vals[j]
				}
			}
		}
	}
	return dp[len(dp)-1]
}

func (c *refCounter) siblingLabelsDistinct(cs []int32) bool {
	for i := range cs {
		for j := i + 1; j < len(cs); j++ {
			if c.q[cs[i]].label == c.q[cs[j]].label {
				return false
			}
		}
	}
	return true
}

// descendants returns the nodes labelled l strictly below v.
func (c *refCounter) descendants(l, v int32) []int32 {
	nodes := c.t.byLabel[l]
	lo := sort.Search(len(nodes), func(i int) bool { return nodes[i] > v })
	hi := lo + sort.Search(len(nodes)-lo, func(i int) bool { return nodes[lo+i] >= c.t.end[v] })
	return nodes[lo:hi]
}

// candidateBound bounds the candidates a twig-join executor visits for q
// under any parent-before-child bind order. Binding node d of the order
// visits, for each match of the nodes bound before it, every data node
// that fits its edge: at most E(P), the non-injective count of that
// prefix P plus the node. The prefixes of an order are distinct
// parent-closed node sets containing the root, so the sum of E(S) over
// all such sets bounds every order. One DP computes that sum: with
// F(u, v) = Π over u's children c of (1 + Σ F(c, w)), each factor choosing
// to leave c's subtree out or to bind c at one of its candidates w, the
// bound is Σ F(root, v).
func candidateBound(docs []*doc, q twig) float64 {
	return countRoots(docs, newRefCounter(q, true), false)
}
