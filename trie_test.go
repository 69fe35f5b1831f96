package treelattice_test

import (
	"math/rand"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/lattice"
	"treelattice/internal/treetest"
)

// trieStore is a byte-trie over canonical pattern keys, the alternative
// summary store the paper considered and rejected (Section 4.2: prefix
// trees lose to hash tables because of pointer chasing). It exists for
// BenchmarkAblationStore and as an executable record of that design
// decision.
type trieStore struct {
	root trieNode
	n    int
}

type trieNode struct {
	children map[byte]*trieNode
	count    int64
	present  bool
}

// trieFromSummary loads every entry of s into a trie store.
func trieFromSummary(s *lattice.Summary) *trieStore {
	t := &trieStore{}
	for _, e := range s.Entries(0) {
		t.Put(e.Pattern.Key(), e.Count)
	}
	return t
}

// Put stores count under key, replacing any previous value.
func (t *trieStore) Put(key labeltree.Key, count int64) {
	at := &t.root
	for i := 0; i < len(key); i++ {
		if at.children == nil {
			at.children = make(map[byte]*trieNode)
		}
		next, ok := at.children[key[i]]
		if !ok {
			next = &trieNode{}
			at.children[key[i]] = next
		}
		at = next
	}
	if !at.present {
		t.n++
	}
	at.present = true
	at.count = count
}

// Get returns the stored count for key and whether it is present.
func (t *trieStore) Get(key labeltree.Key) (int64, bool) {
	at := &t.root
	for i := 0; i < len(key); i++ {
		next, ok := at.children[key[i]]
		if !ok {
			return 0, false
		}
		at = next
	}
	return at.count, at.present
}

// Len reports the number of stored keys.
func (t *trieStore) Len() int { return t.n }

func TestTrieStoreBasics(t *testing.T) {
	tr := &trieStore{}
	if _, ok := tr.Get("missing"); ok {
		t.Fatal("empty trie reported a hit")
	}
	tr.Put("abc", 7)
	tr.Put("abd", 8)
	tr.Put("ab", 9) // prefix of an existing key
	if got, ok := tr.Get("abc"); !ok || got != 7 {
		t.Fatalf("Get(abc) = %d,%v", got, ok)
	}
	if got, ok := tr.Get("ab"); !ok || got != 9 {
		t.Fatalf("Get(ab) = %d,%v", got, ok)
	}
	if _, ok := tr.Get("a"); ok {
		t.Fatal("interior node reported present")
	}
	if tr.Len() != 3 {
		t.Fatalf("Len = %d, want 3", tr.Len())
	}
	tr.Put("abc", 70) // overwrite
	if got, _ := tr.Get("abc"); got != 70 || tr.Len() != 3 {
		t.Fatalf("overwrite failed: %d len=%d", got, tr.Len())
	}
}

func TestTrieStoreMatchesSummary(t *testing.T) {
	d, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(19))
	s := lattice.New(4, d)
	var patterns []labeltree.Pattern
	for i := 0; i < 100; i++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		s.Add(p, int64(i+1))
		patterns = append(patterns, p)
	}
	tr := trieFromSummary(s)
	if tr.Len() != s.Len() {
		t.Fatalf("trie has %d keys, summary %d", tr.Len(), s.Len())
	}
	for _, p := range patterns {
		want, _ := s.Count(p)
		got, ok := tr.Get(p.Key())
		if !ok || got != want {
			t.Fatalf("trie disagrees on %v: %d vs %d", p.Key(), got, want)
		}
	}
}
