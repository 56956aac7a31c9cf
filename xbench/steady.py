"""Steadiness check of the benchmark: two sets of runs of the same code.

    python3 xbench/steady.py [--runs 10] [--workloads a,b]

Runs ``xbench/run.py`` ``--runs`` times per workload in each of two sets, A
and B, each run with its own seed and ``run_seconds`` of BENCHMARK.json,
interleaving the sets in time (A B, then B A, ...) so that host drift falls
on both.  For every end-to-end metric it reports each set's
median and spread (quartile distance over the median) and how much worse
set B's median is than set A's, against the metric's bound in
BENCHMARK.json.  It exits 1 if a spread or a drift exceeds its bound, or if
the failed shares of the sets differ.  The runs are
saved under xbench/results/.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SET_SEEDS = (1, 101)  # first seed of set A and of set B
SETS = len(SET_SEEDS)


def run_once(workload: str, seed: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    args = ap.parse_args(argv)
    names = args.workloads.split(",")
    seconds = spec["run_seconds"]

    runs = {(w, s): [] for w in names for s in range(SETS)}
    for i in range(args.runs):
        for w in names:
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for s in order:
                res = run_once(w, SET_SEEDS[s] + i, seconds)
                runs[(w, s)].append(res)
                vals = " ".join(f"{k}={v['value']:.4g}" for k, v in res["metrics"].items())
                print(f"[{i + 1}/{args.runs}] {w} set {'AB'[s]} seed {SET_SEEDS[s] + i}: "
                      f"correct={res['correct']} failed={res['failed']}/{res['attempted']} {vals}",
                      flush=True)

    ok = True
    report = {"runs": {f"{w}/{'AB'[s]}": r for (w, s), r in runs.items()}, "summary": []}
    print(f"\n{'workload':10} {'metric':16} {'bound':>6} {'median A':>11} {'spread A':>9}"
          f" {'median B':>11} {'spread B':>9} {'B worse':>8}")
    for w in names:
        shares = {s: sum(r["failed"] for r in runs[(w, s)]) / sum(r["attempted"] for r in runs[(w, s)])
                  for s in range(SETS)}
        if not all(r["correct"] for s in range(SETS) for r in runs[(w, s)]):
            print(f"{w}: a run reported incorrect output")
            ok = False
        if len(set(shares.values())) > 1:
            print(f"{w}: failed shares differ between sets: {shares}")
            ok = False
        for m in spec["end_to_end"]:
            vals = [[r["metrics"][m["name"]]["value"] for r in runs[(w, s)]] for s in range(SETS)]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            row = {"workload": w, "metric": m["name"], "bound": m["bound"],
                   "median": meds, "spread": spreads}
            sign = 1.0 if m["better"] == "lower" else -1.0
            worse = sign * (meds[1] - meds[0]) / meds[0]
            row["b_worse"] = worse
            line = (f"{w:10} {m['name']:16} {m['bound']:6.3f} {meds[0]:11.5g} {spreads[0]:9.4f}"
                    f" {meds[1]:11.5g} {spreads[1]:9.4f} {worse:8.4f}")
            flags = []
            if max(spreads) > m["bound"]:
                flags.append("SPREAD")
            elif max(spreads) > m["bound"] / 3:
                flags.append("spread>bound/3")
            if worse > m["bound"]:
                flags.append("DRIFT")
            if any(f.isupper() for f in flags):
                ok = False
            row["flags"] = flags
            report["summary"].append(row)
            print(line + ("  " + " ".join(flags) if flags else ""))

    out_dir = BENCH_DIR / "results"
    out_dir.mkdir(exist_ok=True)
    out = out_dir / f"steady-{time.strftime('%Y%m%d-%H%M%S')}.json"
    out.write_text(json.dumps(report, indent=1))
    print(f"\n{'steady' if ok else 'NOT steady'}; runs saved to {out.relative_to(ROOT)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
