// Command treelattice builds lattice summaries of XML documents and
// estimates twig-query selectivities from them.
//
// Usage:
//
//	treelattice build -in doc.xml -out doc.tlat [-k 4] [-prune DELTA]
//	treelattice estimate -summary doc.tlat -query "a(b,c(d))" [-method recursive+voting]
//	treelattice exact -in doc.xml -query "a(b,c(d))"
//	treelattice stats -summary doc.tlat
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"treelattice"
	"treelattice/internal/core"
	"treelattice/internal/fsx"
	"treelattice/internal/labeltree"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	var err error
	switch os.Args[1] {
	case "build":
		err = runBuild(os.Args[2:], os.Stdout)
	case "estimate":
		err = runEstimate(os.Args[2:], os.Stdout)
	case "exact":
		err = runExact(os.Args[2:], os.Stdout)
	case "stats":
		err = runStats(os.Args[2:], os.Stdout)
	case "explain":
		err = runExplain(os.Args[2:], os.Stdout)
	case "corpus":
		err = runCorpus(os.Args[2:], os.Stdout)
	case "serve":
		err = runServe(os.Args[2:], os.Stdout)
	case "shard":
		err = runShard(os.Args[2:], os.Stdout)
	default:
		usage()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "treelattice:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: treelattice <build|estimate|exact|stats|explain|corpus|serve|shard> [flags]

  build     mine a K-lattice summary from an XML document
  estimate  estimate a twig query's selectivity from a summary
  exact     count a twig query's true selectivity in a document
  stats     describe a summary file
  explain   estimate with trace and decomposition-spread interval
  corpus    manage a document corpus (init | add | addall | rm | stats)
  serve     expose a corpus over HTTP (graceful shutdown on SIGINT/SIGTERM)
  shard     split a corpus into N shard snapshots for fleet serving`)
	os.Exit(2)
}

func runBuild(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("build", flag.ExitOnError)
	in := fs.String("in", "", "input XML document")
	out := fs.String("out", "", "output summary file")
	k := fs.Int("k", 4, "lattice level")
	workers := fs.Int("workers", 0, "build parallelism (0 = all CPUs)")
	prune := fs.Float64("prune", -1, "prune delta-derivable patterns (e.g. 0 or 0.1); negative disables")
	fs.Parse(args)
	if *in == "" || *out == "" {
		return fmt.Errorf("build: -in and -out are required")
	}
	dict := treelattice.NewDict()
	tree, err := parseFile(*in, dict)
	if err != nil {
		return err
	}
	sum, err := treelattice.BuildContext(context.Background(), tree,
		treelattice.BuildOptions{K: *k, Workers: *workers})
	if err != nil {
		return err
	}
	if *prune >= 0 {
		before := sum.SizeBytes()
		sum = sum.Prune(*prune)
		fmt.Fprintf(stdout, "pruned delta=%.2f: %d -> %d bytes\n", *prune, before, sum.SizeBytes())
	}
	var n int64
	err = fsx.WriteFileAtomic(*out, func(w io.Writer) error {
		var werr error
		n, werr = sum.WriteTo(w)
		return werr
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "summary: %d patterns (K=%d), %d bytes on disk\n", sum.Patterns(), sum.K(), n)
	return nil
}

func runEstimate(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("estimate", flag.ExitOnError)
	summaryPath := fs.String("summary", "", "summary file from 'build'")
	query := fs.String("query", "", `twig query, e.g. "a(b,c(d))"`)
	method := fs.String("method", string(core.MethodRecursiveVoting), "recursive | recursive+voting | fix-sized")
	fs.Parse(args)
	if *summaryPath == "" || *query == "" {
		return fmt.Errorf("estimate: -summary and -query are required")
	}
	sum, err := loadSummary(*summaryPath)
	if err != nil {
		return err
	}
	est, err := sum.EstimateQuery(*query, core.Method(*method))
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%.2f\n", est)
	return nil
}

func runExact(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("exact", flag.ExitOnError)
	in := fs.String("in", "", "input XML document")
	query := fs.String("query", "", "twig query")
	fs.Parse(args)
	if *in == "" || *query == "" {
		return fmt.Errorf("exact: -in and -query are required")
	}
	dict := treelattice.NewDict()
	tree, err := parseFile(*in, dict)
	if err != nil {
		return err
	}
	q, err := labeltree.ParsePattern(*query, dict)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, treelattice.ExactCount(tree, q))
	return nil
}

func runStats(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	summaryPath := fs.String("summary", "", "summary file from 'build'")
	fs.Parse(args)
	if *summaryPath == "" {
		return fmt.Errorf("stats: -summary is required")
	}
	sum, err := loadSummary(*summaryPath)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "K=%d patterns=%d bytes=%d pruned=%v\n",
		sum.K(), sum.Patterns(), sum.SizeBytes(), sum.Lattice().Pruned())
	for level, n := range sum.Lattice().LevelSizes() {
		if level > 0 {
			fmt.Fprintf(stdout, "  level %d: %d patterns\n", level, n)
		}
	}
	return nil
}

func parseFile(path string, dict *treelattice.Dict) (*treelattice.Tree, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return treelattice.ParseXML(f, dict)
}

func loadSummary(path string) (*treelattice.Summary, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return treelattice.ReadSummary(f, treelattice.NewDict())
}
