package lattice

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"testing"

	"treelattice/internal/labeltree"
	"treelattice/internal/treetest"
)

func twoLabels() (*labeltree.Dict, labeltree.LabelID, labeltree.LabelID) {
	d := labeltree.NewDict()
	return d, d.Intern("a"), d.Intern("b")
}

func TestAddAndCount(t *testing.T) {
	d, a, b := twoLabels()
	s := New(4, d)
	p := labeltree.PathPattern(a, b)
	if err := s.Add(p, 7); err != nil {
		t.Fatal(err)
	}
	if got, ok := s.Count(p); !ok || got != 7 {
		t.Fatalf("Count = %d,%v", got, ok)
	}
	// Isomorphic pattern hits the same entry.
	q := labeltree.MustPattern([]labeltree.LabelID{a, b}, []int32{-1, 0})
	if got, ok := s.Count(q); !ok || got != 7 {
		t.Fatalf("isomorphic Count = %d,%v", got, ok)
	}
	if _, ok := s.Count(labeltree.SingleNode(a)); ok {
		t.Fatal("absent pattern reported present")
	}
}

func TestAddRejectsOversizeAndNegative(t *testing.T) {
	d, a, b := twoLabels()
	s := New(2, d)
	big := labeltree.PathPattern(a, b, a)
	if err := s.Add(big, 1); err == nil {
		t.Fatal("oversize pattern accepted")
	}
	if err := s.Add(labeltree.SingleNode(a), -1); err == nil {
		t.Fatal("negative count accepted")
	}
}

func TestNewPanicsOnTinyK(t *testing.T) {
	d, _, _ := twoLabels()
	defer func() {
		if recover() == nil {
			t.Fatal("K=1 accepted")
		}
	}()
	New(1, d)
}

func TestAddCountIncrementalAndDelete(t *testing.T) {
	d, a, _ := twoLabels()
	s := New(3, d)
	p := labeltree.SingleNode(a)
	if err := s.AddCount(p, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddCount(p, 3); err != nil {
		t.Fatal(err)
	}
	if got, _ := s.Count(p); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
	if err := s.AddCount(p, -8); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Count(p); ok {
		t.Fatal("zero-count entry not removed")
	}
	if err := s.AddCount(p, -1); err == nil {
		t.Fatal("negative total accepted")
	}
}

// TestKeyedAddsMatchUnkeyed pins the keyed-add contract: AddKeyed and
// AddCountKeyed with key == p.Key() behave exactly like Add and AddCount.
func TestKeyedAddsMatchUnkeyed(t *testing.T) {
	d, a, b := twoLabels()
	p := labeltree.PathPattern(a, b)
	plain, keyed := New(4, d), New(4, d)
	if err := plain.Add(p, 5); err != nil {
		t.Fatal(err)
	}
	if err := keyed.AddKeyed(p.Key(), p, 5); err != nil {
		t.Fatal(err)
	}
	if err := plain.AddCount(p, 3); err != nil {
		t.Fatal(err)
	}
	if err := keyed.AddCountKeyed(p.Key(), p, 3); err != nil {
		t.Fatal(err)
	}
	cp, okP := plain.Count(p)
	ck, okK := keyed.Count(p)
	if !okP || !okK || cp != ck || cp != 8 {
		t.Fatalf("keyed adds diverge: plain %d/%v keyed %d/%v", cp, okP, ck, okK)
	}
	// Keyed variants enforce the same bounds as the unkeyed ones.
	big := labeltree.PathPattern(a, b, a, b, a)
	if err := keyed.AddKeyed(big.Key(), big, 1); err == nil {
		t.Fatal("oversize AddKeyed accepted")
	}
	if err := keyed.AddCountKeyed(big.Key(), big, 1); err == nil {
		t.Fatal("oversize AddCountKeyed accepted")
	}
	if err := keyed.AddKeyed(p.Key(), p, -1); err == nil {
		t.Fatal("negative AddKeyed accepted")
	}
	if err := keyed.AddCountKeyed(p.Key(), p, -9); err == nil {
		t.Fatal("negative total AddCountKeyed accepted")
	}
}

func TestLevelSizesAndEntries(t *testing.T) {
	d, a, b := twoLabels()
	s := New(3, d)
	s.Add(labeltree.SingleNode(a), 10)
	s.Add(labeltree.SingleNode(b), 20)
	s.Add(labeltree.PathPattern(a, b), 5)
	sizes := s.LevelSizes()
	if sizes[1] != 2 || sizes[2] != 1 || sizes[3] != 0 {
		t.Fatalf("LevelSizes = %v", sizes)
	}
	if got := s.Entries(1); len(got) != 2 {
		t.Fatalf("Entries(1) = %d entries", len(got))
	}
	all := s.Entries(0)
	if len(all) != 3 || all[0].Pattern.Size() != 1 || all[2].Pattern.Size() != 2 {
		t.Fatalf("Entries(0) not ordered by size: %v", all)
	}
}

func TestEntriesDeterministicOrder(t *testing.T) {
	d, alphabet := treetest.Alphabet(4)
	rng := rand.New(rand.NewSource(3))
	s := New(4, d)
	for i := 0; i < 50; i++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		s.Add(p, int64(i+1))
	}
	first := s.Entries(0)
	second := s.Entries(0)
	for i := range first {
		if first[i].Pattern.Key() != second[i].Pattern.Key() {
			t.Fatal("Entries order not deterministic")
		}
	}
}

func TestFilterMarksPruned(t *testing.T) {
	d, a, b := twoLabels()
	s := New(3, d)
	s.Add(labeltree.SingleNode(a), 10)
	s.Add(labeltree.PathPattern(a, b), 5)
	kept := s.Filter(func(e Entry) bool { return e.Pattern.Size() == 1 })
	if kept.Len() != 1 || !kept.Pruned() {
		t.Fatalf("Filter: len=%d pruned=%v", kept.Len(), kept.Pruned())
	}
	if s.Pruned() {
		t.Fatal("Filter mutated receiver")
	}
	same := s.Filter(func(Entry) bool { return true })
	if same.Pruned() {
		t.Fatal("no-op filter marked pruned")
	}
}

func TestMerge(t *testing.T) {
	d, a, b := twoLabels()
	s1 := New(3, d)
	s1.Add(labeltree.SingleNode(a), 10)
	s2 := New(3, d)
	s2.Add(labeltree.SingleNode(a), 4)
	s2.Add(labeltree.SingleNode(b), 6)
	if err := s1.Merge(s2); err != nil {
		t.Fatal(err)
	}
	if got, _ := s1.Count(labeltree.SingleNode(a)); got != 14 {
		t.Fatalf("merged count = %d, want 14", got)
	}
	if got, _ := s1.Count(labeltree.SingleNode(b)); got != 6 {
		t.Fatalf("merged count = %d, want 6", got)
	}
	other := New(4, d)
	if err := s1.Merge(other); err == nil {
		t.Fatal("merge with different K accepted")
	}
	d2 := labeltree.NewDict()
	if err := s1.Merge(New(3, d2)); err == nil {
		t.Fatal("merge with different dict accepted")
	}
}

func TestSizeBytes(t *testing.T) {
	d, a, b := twoLabels()
	s := New(3, d)
	if s.SizeBytes() != 0 {
		t.Fatal("empty summary has nonzero size")
	}
	s.Add(labeltree.SingleNode(a), 1)     // 8 + 5
	s.Add(labeltree.PathPattern(a, b), 1) // 8 + 10
	if got := s.SizeBytes(); got != 31 {
		t.Fatalf("SizeBytes = %d, want 31", got)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	d, alphabet := treetest.Alphabet(5)
	rng := rand.New(rand.NewSource(11))
	s := New(4, d)
	for i := 0; i < 80; i++ {
		p := treetest.RandomPattern(rng, 1+rng.Intn(4), alphabet)
		s.Add(p, int64(rng.Intn(1000)+1))
	}
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	// Load into a fresh dictionary: labels must remap by name.
	d2 := labeltree.NewDict()
	d2.Intern("unrelated") // shift IDs to exercise remapping
	got, err := Read(&buf, d2)
	if err != nil {
		t.Fatal(err)
	}
	if got.K() != s.K() || got.Len() != s.Len() || got.Pruned() != s.Pruned() {
		t.Fatalf("round trip header mismatch: K=%d len=%d", got.K(), got.Len())
	}
	for _, e := range s.Entries(0) {
		// Rebuild the pattern against d2 via its string form.
		q := labeltree.MustParsePattern(e.Pattern.String(d), d2)
		c, ok := got.Count(q)
		if !ok || c != e.Count {
			t.Fatalf("entry %s: got %d,%v want %d", e.Pattern.String(d), c, ok, e.Count)
		}
	}
}

func TestSerializePrunedFlag(t *testing.T) {
	d, a, b := twoLabels()
	s := New(3, d)
	s.Add(labeltree.SingleNode(a), 10)
	s.Add(labeltree.PathPattern(a, b), 5)
	pruned := s.Filter(func(e Entry) bool { return e.Pattern.Size() == 1 })
	var buf bytes.Buffer
	if _, err := pruned.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf, d)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Pruned() {
		t.Fatal("pruned flag lost in round trip")
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	d, _, _ := twoLabels()
	for _, data := range [][]byte{
		nil,
		[]byte("XXXX"),
		[]byte("TLAT\x02"),     // bad version
		[]byte("TLAT\x01\x03"), // truncated after K
	} {
		if _, err := Read(bytes.NewReader(data), d); err == nil {
			t.Errorf("Read(%q) succeeded, want error", data)
		}
	}
}

// TestReadLabelCountAllocatesLittle: a TLAT or TLCZ header claiming 2^24
// labels that the input does not hold fails, under Read, ReadFrozen and
// OpenCompressed, without reserving memory for the claim.
func TestReadLabelCountAllocatesLittle(t *testing.T) {
	tlat := binary.AppendUvarint([]byte("TLAT\x01\x04\x00"), 1<<24)
	d, a, b := twoLabels()
	s := New(3, d)
	if err := s.Add(labeltree.PathPattern(a, b), 7); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := WriteCompressed(&buf, s); err != nil {
		t.Fatal(err)
	}
	tlcz := buf.Bytes()
	binary.LittleEndian.PutUint32(tlcz[16:], 1<<24) // the label count; the checksum covers only the sections
	for _, read := range []struct {
		name string
		size int
		fn   func() error
	}{
		{"Read", len(tlat), func() error { _, err := Read(bytes.NewReader(tlat), labeltree.NewDict()); return err }},
		{"ReadFrozen", len(tlat), func() error { _, err := ReadFrozen(bytes.NewReader(tlat), labeltree.NewDict()); return err }},
		{"OpenCompressed", len(tlcz), func() error { _, err := OpenCompressed(tlcz, labeltree.NewDict()); return err }},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := read.fn()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a %d-byte summary claiming 2^24 labels", read.name, read.size)
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s of a %d-byte summary claiming 2^24 labels allocated %d bytes before failing", read.name, read.size, n)
		}
	}
}

// TestReadKBound: a TLAT or TLCZ header claiming K = 2^20 fails, under
// Read, ReadFrozen and OpenCompressed, without sizing anything by the
// claim, while a summary at K = MaxK reads back under all three.
func TestReadKBound(t *testing.T) {
	// K = 2^20, not pruned, no labels, one entry claiming 2^20 nodes.
	tlat := binary.AppendUvarint([]byte("TLAT\x01"), 1<<20)
	tlat = append(tlat, 0, 0, 1)
	tlat = binary.AppendUvarint(tlat, 1<<20)

	d, a, b := twoLabels()
	s := New(MaxK, d)
	if err := s.Add(labeltree.PathPattern(a, b), 7); err != nil {
		t.Fatal(err)
	}
	var plain, packed bytes.Buffer
	if _, err := s.WriteTo(&plain); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteCompressed(&packed, s); err != nil {
		t.Fatal(err)
	}
	tlcz := bytes.Clone(packed.Bytes())
	binary.LittleEndian.PutUint32(tlcz[8:], 1<<20) // K; the checksum covers only the sections

	type reader struct {
		name string
		fn   func(data []byte) (int, error) // the K read back
	}
	readPlain := func(data []byte) (int, error) {
		s, err := Read(bytes.NewReader(data), labeltree.NewDict())
		if err != nil {
			return 0, err
		}
		return s.K(), nil
	}
	readFrozen := func(data []byte) (int, error) {
		f, err := ReadFrozen(bytes.NewReader(data), labeltree.NewDict())
		if err != nil {
			return 0, err
		}
		return f.K(), nil
	}
	openCompressed := func(data []byte) (int, error) {
		c, err := OpenCompressed(data, labeltree.NewDict())
		if err != nil {
			return 0, err
		}
		return c.K(), nil
	}
	for _, tc := range []struct {
		reader
		bad, good []byte
	}{
		{reader{"Read", readPlain}, tlat, plain.Bytes()},
		{reader{"ReadFrozen", readFrozen}, tlat, plain.Bytes()},
		{reader{"OpenCompressed", openCompressed}, tlcz, packed.Bytes()},
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := tc.fn(tc.bad)
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatalf("%s accepted a %d-byte summary claiming K = 2^20", tc.name, len(tc.bad))
		}
		if n := after.TotalAlloc - before.TotalAlloc; n >= 1<<20 {
			t.Errorf("%s of a %d-byte summary claiming K = 2^20 allocated %d bytes before failing", tc.name, len(tc.bad), n)
		}
		if k, err := tc.fn(tc.good); err != nil || k != MaxK {
			t.Errorf("%s of a K = %d summary: K %d, err %v", tc.name, MaxK, k, err)
		}
	}
}

type failingWriter struct{ after int }

func (f *failingWriter) Write(p []byte) (int, error) {
	if f.after <= 0 {
		return 0, errWrite
	}
	n := len(p)
	if n > f.after {
		n = f.after
	}
	f.after -= n
	if n < len(p) {
		return n, errWrite
	}
	return n, nil
}

var errWrite = errors.New("synthetic write failure")

func TestWriteToPropagatesErrors(t *testing.T) {
	d, a, b := twoLabels()
	s := New(3, d)
	s.Add(labeltree.SingleNode(a), 1)
	s.Add(labeltree.PathPattern(a, b), 2)
	for _, budget := range []int{0, 3, 10, 20} {
		if _, err := s.WriteTo(&failingWriter{after: budget}); err == nil {
			t.Fatalf("WriteTo with %d-byte writer succeeded", budget)
		}
	}
}
