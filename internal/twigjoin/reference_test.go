package twigjoin

import (
	"math"

	"treelattice/internal/labeltree"
)

// This file keeps the two counters that preceded Counter as independent
// references: refCount, a sparse bottom-up DP over the data tree, and
// bruteCount, exhaustive enumeration of mappings. Both cover child-axis
// patterns only (Definition 1) and read the tree directly, never the
// region index.

// refCount counts the matches of p in t. For a pattern node p and data
// node v, cnt(p, v) is the number of matches of p's subtree mapping p to
// v; pattern children must map to distinct data children, which is a
// matrix permanent. It factorizes into a product of row sums when the
// children's labels are pairwise distinct and is otherwise computed by
// refPermanent. Counts saturate at math.MaxInt64.
func refCount(t *labeltree.Tree, p labeltree.Pattern) int64 {
	n := p.Size()
	children := make([][]int32, n)
	for i := int32(1); int(i) < n; i++ {
		children[p.Parent(i)] = append(children[p.Parent(i)], i)
	}
	nodesByLabel := func(l labeltree.LabelID) []int32 {
		var out []int32
		for v := int32(0); int(v) < t.Size(); v++ {
			if t.Label(v) == l {
				out = append(out, v)
			}
		}
		return out
	}
	// maps[i] holds cnt(i, ·) for internal pattern nodes; a leaf counts 1
	// on a label match.
	maps := make([]map[int32]int64, n)
	cnt := func(pc, w int32) int64 {
		if maps[pc] == nil {
			if p.Label(pc) == t.Label(w) {
				return 1
			}
			return 0
		}
		return maps[pc][w]
	}
	// Children have larger indices than parents, so descending index
	// order is a children-first traversal.
	for i := int32(n - 1); i >= 0; i-- {
		pcs := children[i]
		if len(pcs) == 0 {
			continue
		}
		dup := false
		seen := make(map[labeltree.LabelID]bool)
		for _, pc := range pcs {
			dup = dup || seen[p.Label(pc)]
			seen[p.Label(pc)] = true
		}
		maps[i] = make(map[int32]int64)
		for _, v := range nodesByLabel(p.Label(i)) {
			dcs := t.Children(v)
			if len(dcs) < len(pcs) {
				continue
			}
			rows := make([][]int64, len(pcs))
			for r, pc := range pcs {
				rows[r] = make([]int64, len(dcs))
				for j, w := range dcs {
					rows[r][j] = cnt(pc, w)
				}
			}
			var c int64
			if dup {
				c = refPermanent(rows)
			} else {
				c = 1
				for _, row := range rows {
					var s int64
					for _, a := range row {
						s = refAdd(s, a)
					}
					c = refMul(c, s)
				}
			}
			if c > 0 {
				maps[i][v] = c
			}
		}
	}
	if len(children[0]) == 0 {
		return int64(len(nodesByLabel(p.Label(0))))
	}
	var total int64
	for _, c := range maps[0] {
		total = refAdd(total, c)
	}
	return total
}

// refPermanent sums, over injective maps rows→columns, the product of the
// selected entries, by a subset DP in O(cols · 2^rows).
func refPermanent(rows [][]int64) int64 {
	m := len(rows)
	if m == 0 {
		return 1
	}
	full := (1 << m) - 1
	f := make([]int64, full+1)
	f[0] = 1
	for j := range rows[0] {
		for s := full; s >= 0; s-- {
			if f[s] == 0 {
				continue
			}
			for i := 0; i < m; i++ {
				if s&(1<<i) == 0 && rows[i][j] != 0 {
					t := s | 1<<i
					f[t] = refAdd(f[t], refMul(f[s], rows[i][j]))
				}
			}
		}
	}
	return f[full]
}

func refAdd(a, b int64) int64 {
	if a > math.MaxInt64-b {
		return math.MaxInt64
	}
	return a + b
}

func refMul(a, b int64) int64 {
	if a != 0 && b > math.MaxInt64/a {
		return math.MaxInt64
	}
	return a * b
}

// bruteCount counts matches by exhaustive enumeration of mappings; limit
// aborts once that many are found (0 = unlimited).
func bruteCount(t *labeltree.Tree, p labeltree.Pattern, limit int64) int64 {
	n := p.Size()
	assigned := make([]int32, n)
	used := make(map[int32]bool, n)
	var total int64
	var rec func(i int32) bool // false aborts
	rec = func(i int32) bool {
		if int(i) == n {
			total++
			return limit == 0 || total < limit
		}
		var candidates []int32
		if i == 0 {
			for v := int32(0); int(v) < t.Size(); v++ {
				candidates = append(candidates, v)
			}
		} else {
			candidates = t.Children(assigned[p.Parent(i)])
		}
		for _, v := range candidates {
			if used[v] || t.Label(v) != p.Label(i) {
				continue
			}
			used[v] = true
			assigned[i] = v
			ok := rec(i + 1)
			used[v] = false
			if !ok {
				return false
			}
		}
		return true
	}
	rec(0)
	return total
}
