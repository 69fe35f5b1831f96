#!/usr/bin/env python3
"""Record benchmark runs and compare two sets of them.

    # ten seeds of every workload; with two checkouts, the sides alternate
    # which runs first on each seed
    python3 perfbench/benchcmp.py record --checkout . --out base.jsonl --seeds 1-10
    python3 perfbench/benchcmp.py record --checkout ../parent --checkout . \\
        --out parent.jsonl --out change.jsonl --seeds 1-10

    # spread of one set: quartile distance / median per workload x metric,
    # against the metric's bound and a third of it; exits 1 when any is
    # over its bound
    python3 perfbench/benchcmp.py spread base.jsonl

    # compare a parent set A with a change set B
    python3 perfbench/benchcmp.py compare parent.jsonl change.jsonl

A record is one JSON line per run: {"workload", "seed", "result", "report"},
the report being the run's workload-property line (host factors and
unscaled figures included). The comparison prints, per workload and
end-to-end metric, each side's median and quartiles, the pairs (same
workload and seed) B won, and a verdict: B
is better (or worse) when it wins (or loses) at least nine tenths of the
pairs, ties counting for neither, and the medians differ by more than A's
quartile distance; otherwise the result is unresolved. It also says whether B's median is
within the metric's bound of A's, the regression rule BENCHMARK.json
fixes.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def load_benchmark(path):
    with open(path) as f:
        return json.load(f)


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout, bench, workload, seed, trace):
    cmd = bench["command"] + ["--workload", workload, "--seed", str(seed),
                              "--seconds", str(bench["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"benchcmp: {' '.join(cmd)} in {checkout} exited {proc.returncode}")
    return json.loads(lines[-1]), json.loads(lines[-2]).get("report", {})


def record(args):
    if len(args.checkout) != len(args.out):
        raise SystemExit("benchcmp: give one --out per --checkout")
    bench = load_benchmark(os.path.join(args.checkout[0], "BENCHMARK.json"))
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in bench["workloads"]]
    outs = [open(p, "a") for p in args.out]
    try:
        for i, seed in enumerate(parse_seeds(args.seeds)):
            for w in workloads:
                sides = list(range(len(args.checkout)))
                if i % 2 == 1:
                    sides.reverse()
                for s in sides:
                    res, report = run_once(args.checkout[s], bench, w, seed, args.trace)
                    outs[s].write(json.dumps({"workload": w, "seed": seed, "result": res,
                                              "report": report}) + "\n")
                    outs[s].flush()
                    print(f"{args.out[s]}: {w} seed {seed} correct={res['correct']} "
                          f"failed={res['failed']}/{res['attempted']}", file=sys.stderr)
    finally:
        for f in outs:
            f.close()


def load_runs(path):
    runs = {}
    with open(path) as f:
        for line in f:
            if line.strip():
                r = json.loads(line)
                runs.setdefault(r["workload"], {})[r["seed"]] = r["result"]
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def values(runs, workload, metric):
    by_seed = runs.get(workload, {})
    return {s: r["metrics"][metric]["value"] for s, r in by_seed.items() if metric in r["metrics"]}


def spread(args):
    bench = load_benchmark(args.benchmark)
    runs = load_runs(args.runs)
    print(f"{'workload':10} {'metric':16} {'n':>3} {'median':>12} {'iqr/median':>10} {'bound':>6}  "
          f"{'<=bound':7} <=bound/3")
    ok = True
    for w in runs:
        bad = sum(1 for r in runs[w].values() if not r["correct"] or r["failed"])
        for m in bench["end_to_end"]:
            vals = list(values(runs, w, m["name"]).values())
            if not vals:
                continue
            q1, med, q3 = quartiles(vals)
            rel = (q3 - q1) / med if med else float("inf")
            within = rel <= m["bound"]
            ok = ok and within
            print(f"{w:10} {m['name']:16} {len(vals):3} {med:12.5g} {rel:10.4f} {m['bound']:6.2f}  "
                  f"{'yes' if within else 'NO':7} {'yes' if rel <= m['bound'] / 3 else 'no'}")
        if bad:
            print(f"{w:10} {bad} runs incorrect or with failed ops")
            ok = False
    return 0 if ok else 1


def compare(args):
    bench = load_benchmark(args.benchmark)
    a, b = load_runs(args.a), load_runs(args.b)
    print(f"{'workload':10} {'metric':16} {'A median':>11} {'A q1..q3':>23} {'B median':>11} "
          f"{'B q1..q3':>23} {'B won':>7}  {'verdict':11} within bound")
    all_within = True
    for w in sorted(set(a) & set(b)):
        for m in bench["end_to_end"]:
            va, vb = values(a, w, m["name"]), values(b, w, m["name"])
            if not va or not vb:
                continue
            lower = m["better"] == "lower"
            qa, qb = quartiles(list(va.values())), quartiles(list(vb.values()))
            pairs = sorted(set(va) & set(vb))
            won = sum(1 for s in pairs if (vb[s] < va[s]) == lower and vb[s] != va[s])
            lost = sum(1 for s in pairs if (vb[s] > va[s]) == lower and vb[s] != va[s])
            iqr_a = qa[2] - qa[0]
            diff = abs(qb[1] - qa[1])
            verdict = "unresolved"
            if pairs and won >= 0.9 * len(pairs) and diff > iqr_a:
                verdict = "better"
            elif pairs and lost >= 0.9 * len(pairs) and diff > iqr_a:
                verdict = "worse"
            worse_by = (qb[1] - qa[1]) / qa[1] if lower else (qa[1] - qb[1]) / qa[1]
            within = worse_by <= m["bound"]
            all_within = all_within and within
            print(f"{w:10} {m['name']:16} {qa[1]:11.5g} {qa[0]:11.5g}..{qa[2]:<10.5g} {qb[1]:11.5g} "
                  f"{qb[0]:11.5g}..{qb[2]:<10.5g} {won:3}/{len(pairs):<3}  {verdict:11} "
                  f"{'yes' if within else 'NO'} ({worse_by:+.3f} vs {m['bound']})")
    return 0 if all_within else 1


def main():
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("record", help="run the benchmark over seeds and append results")
    r.add_argument("--checkout", action="append", required=True, help="checkout root (repeat for two sides)")
    r.add_argument("--out", action="append", required=True, help="JSONL file per checkout")
    r.add_argument("--seeds", default="1-10")
    r.add_argument("--workloads", default="", help="comma-separated; default all")
    r.add_argument("--trace", type=int, default=0)
    s = sub.add_parser("spread", help="quartile distance over median of one set")
    s.add_argument("runs")
    s.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    c = sub.add_parser("compare", help="compare set A (parent) with set B (change)")
    c.add_argument("a")
    c.add_argument("b")
    c.add_argument("--benchmark", default=os.path.join(os.path.dirname(HERE), "BENCHMARK.json"))
    args = p.parse_args()
    return {"record": record, "spread": spread, "compare": compare}[args.cmd](args) or 0


if __name__ == "__main__":
    sys.exit(main())
