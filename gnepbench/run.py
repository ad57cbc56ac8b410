"""gnepkit benchmark: one seeded workload per run, one JSON result line.

Run from the root of a checkout:

    python3 gnepbench/run.py --workload vi-jointly-convex --seed 1 --seconds 22 --trace 0

--trace 0 prints the end-to-end metrics, their times scaled to the reference
machine's speed by a kernel timed during the operations (calibration.py);
--trace 1 wraps the layers and prints the per-layer metrics instead (spans
go to gnepbench/out/).  The last
line of standard output is the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Steadiness mode repeats runs in fresh processes and prints each metric's
median and quartiles; with --other it alternates with a second checkout:

    python3 gnepbench/run.py --steady 10 --seconds 22 --workload oracle-grid [--other ../parent]
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")
WORKLOAD_NAMES = ("vi-jointly-convex", "qvi-moving-slices", "oracle-grid", "certify-cli")
SETUP_REPEATS = 3
CALIBRATION_PERIOD_S = 0.01  # a ~2 ms kernel every 10 ms of wall time
CALIBRATION_LEAST = 20  # fewest kernel samples one speed estimate averages
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
                "import gnepkit; print(time.perf_counter() - t)")


def _import_seconds_in_fresh_process() -> float:
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, SRC], capture_output=True,
                         text=True, timeout=120, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def harrell_davis_median(values) -> float:
    """Median as a Beta-weighted mean of the order statistics (Harrell & Davis
    1982).  Per-operation times cluster (5, 8, 15 ms, ...) with gaps between
    the clusters, so the plain sample median jumps across a gap when noise
    reorders two neighbours; the weighted form moves smoothly."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    a = (len(x) + 1) / 2.0
    return float(np.diff(betainc(a, a, np.arange(len(x) + 1) / len(x))) @ x)


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns the result dict."""
    t0 = time.perf_counter()
    import gnepkit  # noqa: F401  (timed: import is part of set-up)
    first_import_s = time.perf_counter() - t0
    if not os.path.abspath(gnepkit.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"gnepkit was imported from {gnepkit.__file__}, not {SRC}")
    import calibration
    import workloads

    workload = workloads.WORKLOADS[name]
    scratch = os.path.join(OUT, f"{name}-{os.getpid()}")
    tracer = None
    raw, scaled, states, problems, rounds = [], [], [], [], []
    iterations = restarts = 0
    calibration.start(CALIBRATION_PERIOD_S, CALIBRATION_LEAST)
    try:
        # set-up: this process's import, then fresh interpreters' imports,
        # each with one build of the inputs
        setup = []
        for r in range(SETUP_REPEATS):
            since = calibration.mark()
            import_s = first_import_s if r == 0 else _import_seconds_in_fresh_process()
            t0 = calibration.clock()
            items = workload.build(seed, scratch)
            setup.append(calibration.scale(import_s + calibration.clock() - t0, since))

        if trace:
            calibration.stop()  # kernel time would land in the spans' self times
            import tracing

            tracer = tracing.Tracer().install()
        op = workload.run(scratch)
        # whole rounds, started while one more fits in --seconds; a run of a
        # workload always attempts whole rounds of the same operations
        t_start = time.perf_counter()
        while not rounds or (time.perf_counter() - t_start
                             + statistics.mean(rounds) <= seconds):
            r0 = time.perf_counter()
            raw.append([])
            scaled.append([])
            for slot, item in enumerate(items):
                if tracer is not None:
                    tracer.op_id = len(states)
                since = calibration.mark()
                out = op(item, slot)
                raw[-1].append(out.seconds)
                scaled[-1].append(calibration.scale(out.seconds, since))
                states.append(out.state)
                problems.extend(out.problems if out.state != "ok" else [])
                iterations += out.iterations
                restarts += out.restarts
            rounds.append(time.perf_counter() - r0)
    finally:
        calibration.stop()
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(scratch, ignore_errors=True)

    attempted = len(states)
    n_failed = sum(s != "ok" for s in states)
    n_ok = attempted - n_failed
    for line in problems[:20]:
        print(f"problem: {line}", file=sys.stderr)
    if tracer is not None:
        os.makedirs(OUT, exist_ok=True)
        tracer.save(os.path.join(OUT, f"spans-{name}-seed{seed}.npz"))
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            per_layer = [(m["name"], m["unit"]) for m in json.load(fh)["per_layer"]]
        metrics = tracer.metrics(per_layer, attempted, iterations, restarts)
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "ops_per_s": {"value": n_ok / sum(map(sum, scaled)), "unit": "ops/s"},
            "op_s_p50": {"value": harrell_davis_median(
                [statistics.mean(col) for col in zip(*scaled)]), "unit": "s"},
            "peak_rss_mb": {
                "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                "unit": "MB",
            },
        }
    print(f"{name} seed={seed} trace={trace}: {attempted} ops in {len(rounds)} rounds of "
          f"{min(rounds):.3f}-{max(rounds):.3f} s, {n_ok / sum(map(sum, raw)):.4f} ops/s "
          f"unscaled", file=sys.stderr)
    return {
        "correct": "wrong" not in states,
        "attempted": attempted,
        "failed": n_failed,
        "metrics": metrics,
    }


# --------------------------------------------------------------------------
# steadiness mode


def _one_run(root, workload, seed, seconds, trace):
    cmd = [sys.executable, os.path.join(root, "gnepbench", "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=900)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {out.returncode}:\n{out.stderr}")
    return json.loads(out.stdout.strip().splitlines()[-1])


def _summary(results):
    rows = {}
    for key in results[0]["metrics"]:
        vals = [r["metrics"][key]["value"] for r in results]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4)
        rows[key] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][key]["unit"]}
    failed = sorted({r["failed"] / r["attempted"] for r in results})
    return {"runs": len(results), "failed_share": failed,
            "correct": all(r["correct"] for r in results), "metrics": rows}


def steadiness(args):
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    sides = [("this", ROOT)] + ([("other", os.path.abspath(args.other))] if args.other else [])
    report = {}
    for name in names:
        results = {label: [] for label, _ in sides}
        for i in range(args.steady):
            seed = args.seed + i
            order = sides if i % 2 == 0 else sides[::-1]  # alternate who goes first
            for label, root in order:
                res = _one_run(root, name, seed, args.seconds, args.trace)
                results[label].append(res)
                print(f"{name} {label} seed={seed}: " + ", ".join(
                    f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), file=sys.stderr)
        report[name] = {label: _summary(rs) for label, rs in results.items()}
        for label, summ in report[name].items():
            print(f"{name} [{label}] runs={summ['runs']} failed_share={summ['failed_share']}")
            for key, row in summ["metrics"].items():
                print(f"  {key:40s} median={row['median']:.6g} q1={row['q1']:.6g} "
                      f"q3={row['q3']:.6g} spread={row['spread']:.3%} {row['unit']}")
        if args.other:
            this, other = results["this"], results["other"]
            for key in this[0]["metrics"]:
                wins = sum(a["metrics"][key]["value"] < b["metrics"][key]["value"]
                           for a, b in zip(this, other))
                print(f"  {key:40s} this < other in {wins}/{len(this)} pairs")
    print(json.dumps(report, sort_keys=True))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--steady", type=int, default=0, metavar="N",
                    help="repeat N runs (seeds seed..seed+N-1) per workload and report spread")
    ap.add_argument("--other", metavar="CHECKOUT",
                    help="with --steady: alternate runs with this second checkout")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "gnepkit", "__init__.py")):
        print(f"error: no gnepkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.steady:
        steadiness(args)
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    sys.path.insert(0, SRC)
    result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")  # single-threaded program; BLAS threads only add noise
    sys.exit(main())
