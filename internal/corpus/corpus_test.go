package corpus

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"treelattice/internal/core"
	"treelattice/internal/labeltree"
)

const docA = `<computer><laptops><laptop><brand/><price/></laptop></laptops></computer>`
const docB = `<computer><laptops><laptop><brand/><price/></laptop><laptop><brand/></laptop></laptops></computer>`

func createCorpus(t *testing.T) *Corpus {
	t.Helper()
	c, err := Create(t.TempDir(), Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCreateAndAdd(t *testing.T) {
	c := createCorpus(t)
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("b", strings.NewReader(docB)); err != nil {
		t.Fatal(err)
	}
	got, err := c.EstimateQuery("laptop(brand)", core.MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("corpus estimate = %v, want 3", got)
	}
	q := labeltree.MustParsePattern("laptop(brand,price)", c.Dict())
	if exact := c.ExactCount(q); exact != 2 {
		t.Fatalf("ExactCount = %d, want 2", exact)
	}
	if docs := c.Docs(); len(docs) != 2 || docs[0] != "a" || docs[1] != "b" {
		t.Fatalf("Docs = %v", docs)
	}
	if _, ok := c.Doc("a"); !ok {
		t.Fatal("Doc(a) missing")
	}
}

func TestReopen(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3, ValueBuckets: 16, Attributes: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if re.Options() != c.Options() {
		t.Fatalf("options changed across reopen: %+v vs %+v", re.Options(), c.Options())
	}
	got, err := re.EstimateQuery("laptop(brand,price)", core.MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("reopened estimate = %v, want 1", got)
	}
	if len(re.Docs()) != 1 {
		t.Fatalf("reopened docs = %v", re.Docs())
	}
}

func TestRemove(t *testing.T) {
	c := createCorpus(t)
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("b", strings.NewReader(docB)); err != nil {
		t.Fatal(err)
	}
	if err := c.Remove("b"); err != nil {
		t.Fatal(err)
	}
	got, err := c.EstimateQuery("laptop", core.MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("after remove: %v, want 1", got)
	}
	if err := c.Remove("b"); err == nil {
		t.Fatal("double remove accepted")
	}
	// Removal persists across reopen.
	re, err := Open(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Docs()) != 1 {
		t.Fatalf("reopened docs after remove = %v", re.Docs())
	}
}

func TestCreateGuards(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Create(dir, Options{}); err == nil {
		t.Fatal("double create accepted")
	}
}

func TestOpenMissing(t *testing.T) {
	if _, err := Open(t.TempDir()); err == nil {
		t.Fatal("open of empty dir accepted")
	}
}

func TestAddGuards(t *testing.T) {
	c := createCorpus(t)
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("a", strings.NewReader(docB)); err == nil {
		t.Fatal("duplicate name accepted")
	}
	for _, bad := range []string{"", "x/y", "..", "a\\b", "a\nb", "a\rb", "a\x00b"} {
		if err := c.AddXML(bad, strings.NewReader(docA)); err == nil {
			t.Fatalf("bad name %q accepted", bad)
		}
	}
	if err := c.AddXML("broken", strings.NewReader("<a><b>")); err == nil {
		t.Fatal("broken XML accepted")
	}
	// A failed add must not corrupt the summary.
	got, err := c.EstimateQuery("laptop", core.MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("estimate after failed adds = %v, want 1", got)
	}
}

func TestValueBucketsFlowThrough(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3, ValueBuckets: 32})
	if err != nil {
		t.Fatal(err)
	}
	doc := `<shop><item><price>42</price></item><item><price>42</price></item><item><price>7</price></item></shop>`
	if err := c.AddXML("shop", strings.NewReader(doc)); err != nil {
		t.Fatal(err)
	}
	got, err := c.EstimateQuery("item(price)", core.MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("structural estimate = %v", got)
	}
}

func TestOpenCorruptedMeta(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []string{"k=1\n", "nonsense\n", "k=abc\n", "zzz=1\n"} {
		if err := os.WriteFile(filepath.Join(dir, "corpus.meta"), []byte(bad), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(dir); err == nil {
			t.Fatalf("corrupted meta %q accepted", bad)
		}
	}
}

func TestOpenCorruptedSummary(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(dir, Options{K: 3}); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "summary.tlat"), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupted summary accepted")
	}
}

func TestOpenCorruptedDoc(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "docs", "a.tltr"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); err == nil {
		t.Fatal("corrupted document accepted")
	}
}

func TestNonTltrFilesIgnored(t *testing.T) {
	dir := t.TempDir()
	c, err := Create(dir, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "docs", "README.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Docs()) != 1 {
		t.Fatalf("docs = %v", re.Docs())
	}
}

func TestAddXMLBatchMatchesSequential(t *testing.T) {
	docs := []struct{ name, xml string }{
		{"a", docA},
		{"b", docB},
		{"c", `<computer><desktops><desktop><brand/></desktop></desktops></computer>`},
	}

	seq := createCorpus(t)
	for _, d := range docs {
		if err := seq.AddXML(d.name, strings.NewReader(d.xml)); err != nil {
			t.Fatal(err)
		}
	}

	bat := createCorpus(t)
	bat.SetWorkers(4)
	batch := make([]BatchDoc, len(docs))
	for i, d := range docs {
		batch[i] = BatchDoc{Name: d.name, R: strings.NewReader(d.xml)}
	}
	if err := bat.AddXMLBatch(context.Background(), batch); err != nil {
		t.Fatal(err)
	}

	var wantBuf, gotBuf bytes.Buffer
	if _, err := seq.Summary().WriteTo(&wantBuf); err != nil {
		t.Fatal(err)
	}
	if _, err := bat.Summary().WriteTo(&gotBuf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wantBuf.Bytes(), gotBuf.Bytes()) {
		t.Fatal("batch summary differs from sequential adds")
	}
	if got := bat.Docs(); len(got) != 3 {
		t.Fatalf("Docs = %v", got)
	}
	tm := bat.BuildTimings()
	if tm == nil {
		t.Fatal("no build timings recorded")
	}
	ms := tm.Millis()
	for _, stage := range []string{"parse", "mine", "reduce", "merge", "persist"} {
		if _, ok := ms[stage]; !ok {
			t.Errorf("stage %q missing from timings %v", stage, ms)
		}
	}

	// The batch corpus must survive a reopen with identical contents.
	re, err := Open(bat.dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := re.EstimateQuery("laptop(brand)", core.MethodRecursive)
	if err != nil {
		t.Fatal(err)
	}
	if got != 3 {
		t.Fatalf("reopened batch estimate = %v, want 3", got)
	}
}

func TestAddXMLBatchAtomicOnError(t *testing.T) {
	c := createCorpus(t)
	if err := c.AddXML("a", strings.NewReader(docA)); err != nil {
		t.Fatal(err)
	}
	var before bytes.Buffer
	if _, err := c.Summary().WriteTo(&before); err != nil {
		t.Fatal(err)
	}

	for _, batch := range [][]BatchDoc{
		{{Name: "b", R: strings.NewReader(docB)}, {Name: "bad", R: strings.NewReader("<x><y>")}},
		{{Name: "a", R: strings.NewReader(docB)}},
		{{Name: "dup", R: strings.NewReader(docA)}, {Name: "dup", R: strings.NewReader(docB)}},
		{{Name: "../evil", R: strings.NewReader(docA)}},
	} {
		if err := c.AddXMLBatch(context.Background(), batch); err == nil {
			t.Fatalf("bad batch %v accepted", batch)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := c.AddXMLBatch(ctx, []BatchDoc{{Name: "b", R: strings.NewReader(docB)}})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled batch returned %v, want context.Canceled", err)
	}

	var after bytes.Buffer
	if _, err := c.Summary().WriteTo(&after); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before.Bytes(), after.Bytes()) {
		t.Fatal("failed batches mutated the summary")
	}
	if docs := c.Docs(); len(docs) != 1 || docs[0] != "a" {
		t.Fatalf("Docs after failed batches = %v", docs)
	}
}

func TestAddXMLBatchEmpty(t *testing.T) {
	c := createCorpus(t)
	if err := c.AddXMLBatch(context.Background(), nil); err != nil {
		t.Fatal(err)
	}
	if c.BuildTimings() != nil {
		t.Fatal("empty batch recorded timings")
	}
}

func TestSetWorkers(t *testing.T) {
	c := createCorpus(t)
	c.SetWorkers(3)
	if got := c.Workers(); got != 3 {
		t.Fatalf("Workers = %d, want 3", got)
	}
	c.SetWorkers(-1)
	if got := c.Workers(); got != 0 {
		t.Fatalf("Workers after negative set = %d, want 0", got)
	}
}
