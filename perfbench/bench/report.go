package main

import "fmt"

// qcacheCapacity is the whole-query cache size serve.NewHandlerOptions
// builds; the report compares the distinct-query count with it.
const qcacheCapacity = 4096

// inputReport states the workload properties a performance claim may
// cite: distinct queries against the qcache capacity, repeat and
// zero-selectivity shares of the ops sent, the query-size mix, and the
// documents and bytes written.
func inputReport(cfg config, in *inputs) map[string]any {
	r := map[string]any{
		"workload":        cfg.workload,
		"seed":            cfg.seed,
		"seconds":         cfg.seconds,
		"trace":           cfg.trace,
		"setup_docs":      len(in.docs),
		"setup_elements":  elements(in.docs),
		"setup_xml_bytes": xmlBytes(in.docs),
		"qcache_capacity": qcacheCapacity,
	}
	type sent struct {
		size int
		zero bool
	}
	var seq []int32
	var of func(i int32) sent
	switch cfg.workload {
	case "query":
		seq = in.execSeq
		of = func(i int32) sent { return sent{len(in.exec[i].q), in.exec[i].zero} }
		r["distinct_queries"] = len(in.exec)
		desc, limit := 0, 0
		for _, e := range in.exec {
			if e.q.hasDesc() {
				desc++
			}
			if e.limit > 0 {
				limit++
			}
		}
		r["desc_edge_share"] = float64(desc) / float64(len(in.exec))
		r["limit_share"] = float64(limit) / float64(len(in.exec))
	default:
		seq = in.estSeq
		of = func(i int32) sent { return sent{len(in.est[i].q), in.est[i].zero} }
		r["distinct_queries"] = len(in.est)
	}
	seen := make(map[int32]bool)
	repeats, zeros := 0, 0
	sizes := make(map[int]int)
	for _, qi := range seq {
		if seen[qi] {
			repeats++
		}
		seen[qi] = true
		s := of(qi)
		if s.zero {
			zeros++
		}
		sizes[s.size]++
	}
	n := float64(len(seq))
	r["distinct_sent"] = len(seen)
	r["repeat_share"] = float64(repeats) / n
	r["zero_selectivity_share"] = float64(zeros) / n
	mix := make(map[string]float64)
	for size, c := range sizes {
		mix[fmt.Sprint(size)] = float64(c) / n
	}
	r["query_size_mix"] = mix
	if cfg.workload == "ingest" {
		r["docs_written"] = len(in.writes)
		r["xml_bytes_written"] = xmlBytes(in.writes)
		r["refreeze_watermark_docs"] = ingestDeltaDocs
	}
	r["est_err_queries"] = len(in.errSet)
	return r
}

func elements(docs []*doc) int {
	n := 0
	for _, d := range docs {
		n += d.t.size()
	}
	return n
}

func xmlBytes(docs []*doc) int {
	n := 0
	for _, d := range docs {
		n += len(d.xml)
	}
	return n
}
