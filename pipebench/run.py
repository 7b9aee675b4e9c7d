"""Pipeline benchmark for transportlab.

    python3 pipebench/run.py --workload lsg --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  Workloads (see workloads.py): ``lsg``, ``transport``,
``cex_grid``, ``cli``.  Each runs in a worker process of its own as a
closed loop with one client.

``--trace 0`` prints the end-to-end metrics.  The host's speed drifts by
tens of percent within a minute on a shared machine, so op times are
given in units of a fixed reference timed around each op (see
reference.py; an in-process kernel, or a fresh interpreter for the cli
workload): op_ref_p50 and op_ref_tail (op wall time over reference
time), ops_per_kref (ops per thousand reference times), setup_s (median
of five full set-ups, each in a fresh process, in seconds) and
peak_rss_mb.  The wall-clock figures are printed too, as a note.
``--trace 1`` prints the per-layer metrics from a traced run (see
tracing.py) and the tracing overhead.  Every op's output is checked
outside its timed span.  The last line of stdout is
one JSON object with the keys correct, attempted, failed and metrics;
the lines before it repeat each metric with its unit and the
environment stamp.  Exits 2 without a result when the checkout has no
library to run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from benchstats import tail
from tracing import TIME_METRICS

WORKLOADS = ("lsg", "transport", "cex_grid", "cli")
# set-ups per run, half before the timed run and half after it, so that
# their median does not hang on the host's speed of one moment
SETUPS = 5
DEADLINE_S = 170  # every worker of a run has ended by then

# which end-to-end metric each layer should move, on which workload
EXPECTED_MOVES = {
    "geom": "op_ref_p50 and peak_rss_mb on transport; negligible elsewhere",
    "measures": "op_ref_p50 on lsg (small)",
    "simplex": "op_ref_p50 on cex_grid; op_ref_tail on lsg; no move on transport",
    "ot": "op_ref_p50 and peak_rss_mb on transport",
    "kernels": "deposit: op_ref_p50 on transport and cex_grid; crossing_field: "
    "op_ref_p50/peak_rss_mb on lsg only; crossing_pairs: transport only",
    "density": "op_ref_p50 on transport",
    "leastgrad": "op_ref_p50 on lsg; no move on the other three",
    "cex": "op_ref_p50 on cex_grid",
    "cli": "op_ref_p50 on cli; cli.import_s also moves setup_s everywhere",
}


def _unit(name: str) -> str:
    if name == "cli.import_s":
        return "s"
    if name == "cli.bytes_written":
        return "B/op"
    if name == "trace.overhead_pct":
        return "%"
    return "s/op" if name in TIME_METRICS else "count/op"


def _worker(root: str, workdir: str, args, mode: str, deadline: float) -> dict:
    here = os.path.dirname(os.path.abspath(__file__))
    src = os.path.join(root, "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    # one client on one thread: keep BLAS pools from adding threads
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
    cmd = [
        sys.executable, os.path.join(here, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--mode", mode, "--src", src, "--t0", repr(t0),
    ]
    proc = subprocess.run(
        cmd, cwd=workdir, env=env, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args.workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res: dict, setups: list) -> tuple[dict, list]:
    # a tail needs 11 good ops; with fewer (correct is false anyway) use all
    good = res["ok"] if sum(res["ok"]) > 10 else [True] * len(res["ok"])
    times = [t for t, g in zip(res["times"], good) if g]
    refs = [r for r, g in zip(res["ref"], good) if g]
    # op time in reference times: steady while the host's speed drifts
    ratios = [t / r for t, r in zip(times, refs)]
    value, pct, n = tail(ratios)
    metrics = {
        "ops_per_kref": (1000.0 * len(ratios) / sum(ratios), "1/kref"),
        "op_ref_p50": (statistics.median(ratios), "ref"),
        "op_ref_tail": (value, "ref"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    wall_tail = tail(times)[0]
    notes = [
        f"op_ref_tail is percentile {pct:.1f} of {n} ops",
        "setup_s is the median of " + ", ".join(f"{s:.4f}" for s in setups),
        f"wall time, not gated: ops_per_s {len(times) / sum(res['times']):.6g} 1/s, "
        f"op_s_p50 {statistics.median(times):.6g} s, op_s_tail {wall_tail:.6g} s, "
        f"reference p50 {1e3 * statistics.median(refs):.6g} ms",
    ]
    return metrics, notes


def per_layer(res: dict) -> tuple[dict, list]:
    metrics = {k: (v, _unit(k)) for k, v in res["layers"].items()}
    notes = [
        f"layer times are per traced op over {res['traced_ops']} ops; counts "
        f"are per op over the first {res['window']} ops",
        f"counts identical on a traced replay: {res['deterministic']}",
    ]
    if res["missing_spans"]:
        notes.append("MISSING spans: " + ", ".join(res["missing_spans"]))
    if not res["deterministic"]:
        notes.append(f"counts {res['window_counts']} vs {res['replay_counts']}")
    notes += [f"expected move, {k}: {v}" for k, v in EXPECTED_MOVES.items()]
    return metrics, notes


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "transportlab", "__init__.py")):
        print("no src/transportlab here: run from a source checkout", file=sys.stderr)
        return 2
    scratch = os.path.join(root, ".pipebench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    deadline = time.monotonic() + DEADLINE_S
    try:
        if args.trace:
            res = _worker(root, workdir, args, "run", deadline)
            metrics, notes = per_layer(res)
            correct = not res["missing_spans"] and res["deterministic"]
        else:
            setups = [
                _worker(root, workdir, args, "setup", deadline)["setup_s"]
                for _ in range(SETUPS // 2)
            ]
            res = _worker(root, workdir, args, "run", deadline)
            setups.append(res["setup_s"])
            setups += [
                _worker(root, workdir, args, "setup", deadline)["setup_s"]
                for _ in range(SETUPS - 1 - SETUPS // 2)
            ]
            metrics, notes = end_to_end(res, setups)
            correct = True
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
        print(f"benchmark failed: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    attempted = len(res["ok"])
    failed = attempted - sum(res["ok"])
    correct = correct and failed == 0
    stamp = " ".join(f"{k}={v}" for k, v in res["env"].items())
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} {stamp}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} ops)")
    for line in notes + res["errors"]:
        print("# " + line.replace("\n", "\n# "))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
