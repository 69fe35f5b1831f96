package labeltree_test

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

func TestTreeSerializeRoundTrip(t *testing.T) {
	dict, alphabet := treetest.Alphabet(5)
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		tr := treetest.RandomTree(rng, 1+rng.Intn(300), alphabet, dict)
		var buf bytes.Buffer
		n, err := labeltree.WriteTree(&buf, tr)
		if err != nil {
			t.Fatal(err)
		}
		if n != int64(buf.Len()) {
			t.Fatalf("WriteTree reported %d bytes, wrote %d", n, buf.Len())
		}
		// Load into a fresh dict with shifted IDs.
		dict2 := labeltree.NewDict()
		dict2.Intern("shift")
		got, err := labeltree.ReadTree(&buf, dict2)
		if err != nil {
			t.Fatal(err)
		}
		if got.Size() != tr.Size() {
			t.Fatalf("size %d != %d", got.Size(), tr.Size())
		}
		for i := int32(0); int(i) < tr.Size(); i++ {
			if got.LabelName(i) != tr.LabelName(i) || got.Parent(i) != tr.Parent(i) {
				t.Fatalf("node %d differs", i)
			}
			// ReadTree lays out the child runs itself, not through a
			// Builder, so the runs are compared too.
			if !slices.Equal(got.Children(i), tr.Children(i)) {
				t.Fatalf("node %d children %v, want %v", i, got.Children(i), tr.Children(i))
			}
		}
	}
}

// storedTree returns a version-1 tree header, one label "a", and then vs
// as uvarints: the node count, labels and parents.
func storedTree(vs ...uint64) []byte {
	b := append([]byte("TLTR\x01\x01\x01"), 'a')
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// garbageTrees are inputs ReadTree must reject, one per check it makes.
func garbageTrees() [][]byte {
	return [][]byte{
		nil,
		[]byte("XXXX\x01"),
		[]byte("TLTR\x02"),     // bad version
		[]byte("TLTR\x01\x01"), // truncated label table
		binary.AppendUvarint([]byte("TLTR\x01"), 1<<24+1), // label count
		storedTree(0),             // no nodes
		storedTree(1<<31 + 1),     // node count
		storedTree(2, 0),          // truncated labels
		storedTree(1, 1),          // label index out of range
		storedTree(2, 0, 0),       // truncated parents
		storedTree(3, 0, 0, 0, 2), // forward parent
		storedTree(2, 0, 0, 1),    // parent is the node itself
	}
}

func TestReadTreeRejectsGarbage(t *testing.T) {
	dict := labeltree.NewDict()
	for _, data := range garbageTrees() {
		if _, err := labeltree.ReadTree(bytes.NewReader(data), dict); err == nil {
			t.Errorf("ReadTree(%q) succeeded", data)
		}
	}
	if _, err := labeltree.ReadTree(bytes.NewReader(storedTree(3, 0, 0, 0, 0, 1)), dict); err != nil {
		t.Errorf("ReadTree of a valid path a(a(a)): %v", err)
	}
}

// TestReadTreeHeaderCountsAllocateLittle: a header claiming 2^24 labels
// or nodes that the input does not hold fails without reserving memory
// for the claim.
func TestReadTreeHeaderCountsAllocateLittle(t *testing.T) {
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"nodes", storedTree(1 << 24)},
		{"labels", binary.AppendUvarint([]byte("TLTR\x01"), 1<<24)},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := labeltree.ReadTree(bytes.NewReader(tc.data), labeltree.NewDict())
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s: truncated %d-byte tree accepted", tc.name, len(tc.data))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s: truncated %d-byte tree allocated %d bytes before failing", tc.name, len(tc.data), n)
		}
	}
}

// FuzzReadTree: ReadTree never panics on arbitrary bytes (a corpus reads
// its .tltr files at open), and every tree it accepts, written again with
// WriteTree, reads back equal: the same labels by name and the same
// parents.
func FuzzReadTree(f *testing.F) {
	dict, alphabet := treetest.Alphabet(3)
	var buf bytes.Buffer
	if _, err := labeltree.WriteTree(&buf, treetest.RandomTree(rand.New(rand.NewSource(1)), 40, alphabet, dict)); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, data := range garbageTrees() {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		tr, err := labeltree.ReadTree(bytes.NewReader(data), labeltree.NewDict())
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := labeltree.WriteTree(&out, tr); err != nil {
			t.Fatal(err)
		}
		back, err := labeltree.ReadTree(&out, labeltree.NewDict())
		if err != nil {
			t.Fatalf("accepted tree does not read back after WriteTree: %v", err)
		}
		if back.Size() != tr.Size() {
			t.Fatalf("read back %d nodes, accepted %d", back.Size(), tr.Size())
		}
		for i := int32(0); int(i) < tr.Size(); i++ {
			if back.LabelName(i) != tr.LabelName(i) || back.Parent(i) != tr.Parent(i) {
				t.Fatalf("node %d read back as %s under %d, accepted as %s under %d",
					i, back.LabelName(i), back.Parent(i), tr.LabelName(i), tr.Parent(i))
			}
		}
	})
}

func TestReadTreeRobustAgainstCorruption(t *testing.T) {
	// Flip/truncate bytes of a valid serialization: every corruption must
	// produce an error or a valid tree, never a panic.
	dict, alphabet := treetest.Alphabet(3)
	rng := rand.New(rand.NewSource(9))
	tr := treetest.RandomTree(rng, 60, alphabet, dict)
	var buf bytes.Buffer
	if _, err := labeltree.WriteTree(&buf, tr); err != nil {
		t.Fatal(err)
	}
	orig := buf.Bytes()
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), orig...)
		switch trial % 3 {
		case 0: // flip a byte
			data[rng.Intn(len(data))] ^= byte(1 << rng.Intn(8))
		case 1: // truncate
			data = data[:rng.Intn(len(data))]
		case 2: // flip several
			for k := 0; k < 4; k++ {
				data[rng.Intn(len(data))] ^= 0xFF
			}
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("ReadTree panicked on corrupted input: %v", r)
				}
			}()
			d := labeltree.NewDict()
			_, _ = labeltree.ReadTree(bytes.NewReader(data), d)
		}()
	}
}
