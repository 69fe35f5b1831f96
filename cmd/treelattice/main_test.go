package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const testDoc = `<computer><laptops><laptop><brand/><price/></laptop><laptop><brand/><price/></laptop></laptops><desktops/></computer>`

func writeDoc(t *testing.T) (xmlPath, sumPath string) {
	t.Helper()
	dir := t.TempDir()
	xmlPath = filepath.Join(dir, "doc.xml")
	sumPath = filepath.Join(dir, "doc.tlat")
	if err := os.WriteFile(xmlPath, []byte(testDoc), 0o644); err != nil {
		t.Fatal(err)
	}
	return xmlPath, sumPath
}

func TestBuildEstimateExactStats(t *testing.T) {
	xmlPath, sumPath := writeDoc(t)
	var out bytes.Buffer
	if err := runBuild([]string{"-in", xmlPath, "-out", sumPath, "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "patterns (K=3)") {
		t.Fatalf("build output: %q", out.String())
	}

	out.Reset()
	if err := runEstimate([]string{"-summary", sumPath, "-query", "laptop(brand,price)"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "2.00" {
		t.Fatalf("estimate output: %q", out.String())
	}

	out.Reset()
	if err := runExact([]string{"-in", xmlPath, "-query", "laptop(brand,price)"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "2" {
		t.Fatalf("exact output: %q", out.String())
	}

	out.Reset()
	if err := runStats([]string{"-summary", sumPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "K=3") || !strings.Contains(out.String(), "level 1:") {
		t.Fatalf("stats output: %q", out.String())
	}
}

func TestBuildWithPruning(t *testing.T) {
	xmlPath, sumPath := writeDoc(t)
	var out bytes.Buffer
	if err := runBuild([]string{"-in", xmlPath, "-out", sumPath, "-k", "3", "-prune", "0"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pruned delta=0.00") {
		t.Fatalf("build output: %q", out.String())
	}
	out.Reset()
	if err := runStats([]string{"-summary", sumPath}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "pruned=true") {
		t.Fatalf("stats output: %q", out.String())
	}
	// Pruned summary still answers exactly for occurring queries.
	out.Reset()
	if err := runEstimate([]string{"-summary", sumPath, "-query", "laptop(brand,price)", "-method", "recursive"}, &out); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(out.String()) != "2.00" {
		t.Fatalf("estimate on pruned summary: %q", out.String())
	}
}

func TestMissingFlags(t *testing.T) {
	var out bytes.Buffer
	if err := runBuild(nil, &out); err == nil {
		t.Fatal("build without flags accepted")
	}
	if err := runEstimate(nil, &out); err == nil {
		t.Fatal("estimate without flags accepted")
	}
	if err := runExact(nil, &out); err == nil {
		t.Fatal("exact without flags accepted")
	}
	if err := runStats(nil, &out); err == nil {
		t.Fatal("stats without flags accepted")
	}
}

func TestBadInputs(t *testing.T) {
	xmlPath, sumPath := writeDoc(t)
	var out bytes.Buffer
	if err := runBuild([]string{"-in", "/nonexistent.xml", "-out", sumPath}, &out); err == nil {
		t.Fatal("missing input accepted")
	}
	if err := runEstimate([]string{"-summary", "/nonexistent.tlat", "-query", "a"}, &out); err == nil {
		t.Fatal("missing summary accepted")
	}
	if err := runBuild([]string{"-in", xmlPath, "-out", sumPath}, &out); err != nil {
		t.Fatal(err)
	}
	if err := runEstimate([]string{"-summary", sumPath, "-query", "a(("}, &out); err == nil {
		t.Fatal("bad query accepted")
	}
	if err := runEstimate([]string{"-summary", sumPath, "-query", "a", "-method", "bogus"}, &out); err == nil {
		t.Fatal("bad method accepted")
	}
}

func TestExplainCommand(t *testing.T) {
	xmlPath, sumPath := writeDoc(t)
	var out bytes.Buffer
	if err := runBuild([]string{"-in", xmlPath, "-out", sumPath, "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runExplain([]string{"-summary", sumPath, "-query", "computer(laptops(laptop(brand,price)))"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"estimate:", "spread:", "max depth:"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("explain output missing %q: %q", want, out.String())
		}
	}
	if err := runExplain(nil, &out); err == nil {
		t.Fatal("explain without flags accepted")
	}
}

func TestCorpusAddall(t *testing.T) {
	docsDir := t.TempDir()
	xmls := []string{
		`<computer><laptops><laptop><brand/></laptop></laptops></computer>`,
		`<computer><laptops><laptop><brand/><price/></laptop></laptops></computer>`,
		`<computer><desktops><desktop/></desktops></computer>`,
	}
	paths := make([]string, len(xmls))
	for i, doc := range xmls {
		paths[i] = filepath.Join(docsDir, fmt.Sprintf("doc%d.xml", i))
		if err := os.WriteFile(paths[i], []byte(doc), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	dir := filepath.Join(t.TempDir(), "corpus")
	var out bytes.Buffer
	if err := runCorpus([]string{"init", "-dir", dir, "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	args := append([]string{"addall", "-dir", dir, "-workers", "4"}, paths...)
	if err := runCorpus(args, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"added 3 documents", "parse=", "mine=", "persist="} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("addall output missing %q: %q", want, out.String())
		}
	}
	out.Reset()
	if err := runCorpus([]string{"stats", "-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"documents=3", "doc0", "doc1", "doc2"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("stats after addall missing %q: %q", want, out.String())
		}
	}
	// Re-adding the same files must fail on the duplicate names.
	if err := runCorpus(args, &out); err == nil {
		t.Fatal("duplicate addall accepted")
	}
	if err := runCorpus([]string{"addall", "-dir", dir}, &out); err == nil {
		t.Fatal("addall without files accepted")
	}
}

func TestCorpusCommands(t *testing.T) {
	xmlPath, _ := writeDoc(t)
	dir := filepath.Join(t.TempDir(), "corpus")
	var out bytes.Buffer
	if err := runCorpus([]string{"init", "-dir", dir, "-k", "3"}, &out); err != nil {
		t.Fatal(err)
	}
	if err := runCorpus([]string{"add", "-dir", dir, "-name", "doc1", "-in", xmlPath}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCorpus([]string{"stats", "-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "documents=1") || !strings.Contains(out.String(), "doc1") {
		t.Fatalf("corpus stats: %q", out.String())
	}
	if err := runCorpus([]string{"rm", "-dir", dir, "-name", "doc1"}, &out); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runCorpus([]string{"stats", "-dir", dir}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "documents=0") {
		t.Fatalf("corpus stats after rm: %q", out.String())
	}
	if err := runCorpus(nil, &out); err == nil {
		t.Fatal("bare corpus accepted")
	}
	if err := runCorpus([]string{"bogus"}, &out); err == nil {
		t.Fatal("unknown subcommand accepted")
	}
	if err := runServe(nil, &out); err == nil {
		t.Fatal("serve without corpus accepted")
	}
}
