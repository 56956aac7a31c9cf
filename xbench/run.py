"""Benchmark of the xbound package: one workload per run, single-threaded.

    python3 xbench/run.py --workload {fuzz-2q,bound-nxn,oracle} --seed N \
        --seconds S --trace {0,1}

Run from the repository root; the package is imported from ./src.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
See xbench/README.md for what each workload and metric is.
"""
from __future__ import annotations

import os

# Single-threaded BLAS, fixed before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import re
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s is their median
MAX_ERRORS_SHOWN = 20
IMPORT_PROBE = "import xbound.cli"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


def fresh_import() -> None:
    """Import xbound.cli in a fresh interpreter, as every CLI call does."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=_child_env(), check=True)


def import_times_ms() -> dict[str, float]:
    """Cumulative import times of xbound.cli and scipy.optimize, fresh interpreter."""
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE],
                          env=_child_env(), check=True, capture_output=True, text=True)
    cumulative = {}
    for line in proc.stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+(\S+)$", line)
        if m:
            cumulative[m[2]] = int(m[1]) / 1e3
    return {"import.xbound_cli_ms": cumulative["xbound.cli"],
            "import.scipy_optimize_ms": cumulative["scipy.optimize"]}


def timed_pass(wl) -> tuple[list, np.ndarray]:
    """Run one pass, call by call; return the outputs and its segments' times.

    A clock mark is taken around every call and, where the workload takes
    them, inside calls; a segment is the time from one mark to the next, so
    the segments add up to the pass.
    """
    marks = wl.marks
    marks.clear()
    outputs = []
    marks.append(perf_counter())
    for call in wl.calls:
        outputs.append(call())
        marks.append(perf_counter())
    return outputs, np.diff(marks)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "xbound" / "__init__.py").is_file():
        print(f"error: no xbound package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(SRC))
    import workloads  # noqa: E402  (imports xbound from SRC)
    from tracing import Tracer  # noqa: E402

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    build = workloads.WORKLOADS[args.workload]
    workdir = BENCH_DIR / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        # Each set-up: a fresh interpreter importing the CLI, the inputs
        # generated (files written), and one warm-up pass.
        setups = []
        for _ in range(SETUPS):
            t0 = perf_counter()
            fresh_import()
            wl = build(args.seed, workdir)
            timed_pass(wl)
            setups.append(perf_counter() - t0)

        tracer = Tracer() if args.trace else None
        # Pass times of untraced and traced passes, and each segment's
        # fastest time over the untraced passes.
        times, traced_times, roofs = [], [], []
        fastest = None
        attempted = failed = n_errors = 0
        t_stop = perf_counter() + args.seconds
        while True:
            # With tracing, passes alternate untraced/traced so that host
            # drift falls on both halves of the overhead comparison.
            traced = tracer is not None and attempted % 2 == 1
            if traced:
                tracer.install()
            try:
                if traced:
                    out, segments = tracer.run_pass(lambda: timed_pass(wl))
                else:
                    out, segments = timed_pass(wl)
            except Exception:
                traceback.print_exc()
                out = None
            finally:
                if traced:
                    tracer.uninstall()
            attempted += 1
            if out is None:
                failed += 1
            else:
                # Only the times of passes that returned are kept.  Each
                # output is checked now, outside its pass's time, and
                # dropped, so that memory does not grow with the run.
                (traced_times if traced else times).append(float(segments.sum()))
                errors = wl.check(out)
                if not traced:
                    if fastest is None:
                        fastest = segments
                    elif fastest.shape == segments.shape:
                        np.minimum(fastest, segments, out=fastest)
                    else:
                        errors.append(f"pass {attempted} made {segments.size} clock segments "
                                      f"where the first made {fastest.size}: its work differs")
                for e in errors[:max(0, MAX_ERRORS_SHOWN - n_errors)]:
                    print(f"check failed: {e}", file=sys.stderr)
                n_errors += len(errors)
                if wl.roof_value_mean:
                    roofs.append(wl.roof_value_mean(out))
                del out
            if perf_counter() >= t_stop and (tracer is None or attempted >= 2):
                break
        if not times or (tracer is not None and not traced_times):
            print("error: no pass returned", file=sys.stderr)
            return 1

        if tracer is None:
            roof = statistics.median(roofs) if roofs else 1.0
            values = {
                # states completed per second spent in passes; the time
                # spent checking outputs between passes is not counted
                "states_per_s": len(times) * wl.states / sum(times),
                # the fastest pass the run could have made: each segment
                # at its fastest over the run's passes
                "op_ms_min": float(fastest.sum()) * 1e3,
                "setup_s": statistics.median(setups),
                "peak_rss_mb": peak_rss_mb(),
                "roof_value_mean": roof,
            }
            declared = spec["end_to_end"]
        else:
            names = [m["name"] for m in spec["per_layer"]]
            values = tracer.metrics(names)
            values.update(import_times_ms())
            values["trace.overhead_pct"] = 100.0 * (
                statistics.median(traced_times) / statistics.median(times) - 1.0)
            results = BENCH_DIR / "results"
            results.mkdir(exist_ok=True)
            tracer.save(results / f"trace-{args.workload}-seed{args.seed}.npz")
            declared = spec["per_layer"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    result = {
        "correct": n_errors == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
