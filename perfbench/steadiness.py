#!/usr/bin/env python3
"""Runs the benchmark repeatedly and records how steady its metrics are.

Run from the repository root:

    python3 perfbench/steadiness.py --runs 10 --sets 2 --out perfbench/STEADINESS.json

For each set it runs every workload of BENCHMARK.json once per seed
(set 1 takes seeds 1..runs, set 2 the next runs seeds, and so on;
workloads interleaved), exactly as BENCHMARK.json's command with
--trace 0 and its run_seconds. It then makes one traced run per
workload. For every end-to-end metric it records each set's median,
quartiles and spread (the interquartile distance as a share of the
median, computed with statistics.quantiles(values, n=4)), and how far
the second set's median moved from the first's, beside the metric's
bound. A run that exits non-zero (every job in it errored) is kept as
aborted, with its stderr, and left out of the statistics; the record is
then not steady. Every run's host stamp is kept.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def run_once(cmd, workload, seed, seconds, trace):
    args = cmd + ["--workload", workload, "--seed", str(seed),
                  "--seconds", str(seconds), "--trace", str(trace)]
    t0 = time.time()
    out = subprocess.run(args, capture_output=True, text=True, timeout=900)
    elapsed = time.time() - t0
    if out.returncode != 0:
        sys.stderr.write(out.stderr)
        return {"workload": workload, "seed": seed, "trace": trace,
                "elapsed_s": round(elapsed, 2), "aborted": out.returncode,
                "stderr": out.stderr.splitlines()[-3:]}
    host = None
    for line in out.stdout.splitlines():
        if line.startswith("# host "):
            host = json.loads(line[len("# host "):])
    result = json.loads(out.stdout.strip().splitlines()[-1])
    failures = [l for l in out.stderr.splitlines() if "failed" in l]
    jobs = [l for l in out.stderr.splitlines() if "per job" in l]
    return {"jobs": jobs[-1:], "workload": workload, "seed": seed, "trace": trace,
            "elapsed_s": round(elapsed, 2), "host": host, "result": result,
            "failures": failures[:3]}


def summarize(values):
    if len(values) < 2:
        return {"values": values, "median": None, "q1": None, "q3": None, "spread": None}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--sets", type=int, default=2)
    ap.add_argument("--out", default="")
    a = ap.parse_args()

    bench = json.load(open("BENCHMARK.json"))
    cmd = bench["command"]
    seconds = bench["run_seconds"]
    workloads = [w["name"] for w in bench["workloads"]]
    bounds = {m["name"]: m for m in bench["end_to_end"]}

    runs = []
    for s in range(a.sets):
        for seed in range(s * a.runs + 1, (s + 1) * a.runs + 1):
            for w in workloads:
                r = run_once(cmd, w, seed, seconds, 0)
                r["set"] = s + 1
                runs.append(r)
                if "aborted" in r:
                    print(f"set {s+1} {w} seed {seed}: {r['elapsed_s']} s, ABORTED exit {r['aborted']}", flush=True)
                    continue
                res = r["result"]
                print(f"set {s+1} {w} seed {seed}: {r['elapsed_s']} s, correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} epoch_s={res['metrics']['epoch_s']['value']:.4f} "
                      f"setup_s={res['metrics']['setup_s']['value']:.5f}", flush=True)

    report = {"benchmark": bench, "seconds": seconds, "workloads": {}}
    worst_ok = True
    for w in workloads:
        entry = {"sets": [], "metrics": {}}
        aborted = [r["seed"] for r in runs if r["workload"] == w and "aborted" in r]
        if aborted:
            entry["aborted_seeds"] = aborted
            worst_ok = False
            print(f"{w:16s} ABORTED on seeds {aborted}")
        for name, decl in bounds.items():
            sets = []
            for s in range(a.sets):
                vals = [r["result"]["metrics"][name]["value"] for r in runs
                        if r["workload"] == w and r["set"] == s + 1 and "aborted" not in r]
                sets.append(summarize(vals))
            m = {"unit": decl["unit"], "better": decl["better"], "bound": decl["bound"], "sets": sets}
            if a.sets >= 2 and sets[0]["median"] and sets[1]["median"] is not None:
                shift = (sets[1]["median"] - sets[0]["median"]) / sets[0]["median"]
                worse = shift if decl["better"] == "lower" else -shift
                m["second_median_worse_by"] = worse
            entry["metrics"][name] = m
            spreads = " ".join(f"{x['spread']:.4f}" if x["spread"] is not None else "-" for x in sets)
            flag = ""
            if any(x["spread"] is None or x["spread"] > decl["bound"] / 3 for x in sets):
                flag, worst_ok = " SPREAD>bound/3", False
            if m.get("second_median_worse_by", 0) > decl["bound"] / 3:
                flag, worst_ok = flag + " SHIFT>bound/3", False
            print(f"{w:16s} {name:16s} median {sets[0]['median']} spreads {spreads} "
                  f"shift {m.get('second_median_worse_by', 0):+.4f} bound {decl['bound']}{flag}")
        entry["sets"] = [[r for r in runs if r["workload"] == w and r["set"] == s + 1] for s in range(a.sets)]
        report["workloads"][w] = entry

    for w in workloads:
        r = run_once(cmd, w, 1, seconds, 1)
        report["workloads"][w]["traced"] = r
        if "aborted" in r:
            worst_ok = False
            print(f"{w} traced: ABORTED exit {r['aborted']}", flush=True)
            continue
        met = r["result"]["metrics"]
        print(f"{w} traced: coverage {met['trace.coverage']['value']:.4f} "
              f"overhead {met['trace.overhead']['value']:+.4f} "
              f"subset_match {met['trace.subset_match']['value']:.4f}", flush=True)

    report["steady"] = worst_ok
    if a.out:
        with open(a.out, "w") as f:
            json.dump(report, f, indent=1)
            f.write("\n")


if __name__ == "__main__":
    main()
