"""One workload process: set up, then run ops back to back for a while.

Started by run.py, never directly.  ``--mode setup`` stops after the
warm-up op and reports only the set-up time; ``--mode run`` goes on to
the closed loop (one client, the next op starts when the previous one
and its output check are done).  With ``--trace 1`` every op runs twice,
once with the layer wrappers installed and once without, in alternating
order, and the first ops are replayed traced to check that their counts
repeat exactly.  The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

now = time.perf_counter
# no op sequence is cut before this many ops: a tail needs 11 samples
MIN_OPS = 12
# a run never measures longer than --seconds plus this much
OVERRUN_S = 60.0


def _args():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--mode", choices=("setup", "run"), default="run")
    ap.add_argument("--src", required=True, help="directory holding transportlab")
    # CLOCK_MONOTONIC reading taken by the parent just before it started us
    ap.add_argument("--t0", type=float, required=True)
    return ap.parse_args()


class Loop:
    """Closed loop: runs until the time budget is spent and min_ops are done."""

    def __init__(self, seconds: float, min_ops: int):
        self.seconds = seconds
        self.min_ops = min_ops
        self.start = now()

    def done(self, ops: int) -> bool:
        elapsed = now() - self.start
        if elapsed > self.seconds + OVERRUN_S:
            return True
        return ops >= self.min_ops and elapsed >= self.seconds


def _run_op(wl, i, errors):
    """(wall s, ok) for op i; a raise or failed check is not ok."""
    t0 = now()
    try:
        out = wl.op(i)
    except Exception:
        errors.append(f"op {i} raised:\n{traceback.format_exc()}")
        return now() - t0, False
    dt = now() - t0
    try:
        wl.check(i, out)
    except Exception:
        errors.append(f"op {i} check failed:\n{traceback.format_exc()}")
        return dt, False
    return dt, True


def timed_run(wl, seconds: float) -> dict:
    import reference

    reference_s = reference.fresh_interpreter_s if wl.fresh_process else reference.kernel_s
    times, ok, errors = [], [], []
    reference_s()  # warm-up
    # the host's speed just before and just after each op (and its check)
    refs = [reference_s()]
    loop = Loop(seconds, MIN_OPS)
    i = 0
    while True:
        dt, good = _run_op(wl, i, errors)
        refs.append(reference_s())
        times.append(dt)
        ok.append(good)
        i += 1
        if loop.done(i):
            break
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if wl.name == "cli" else resource.RUSAGE_SELF
    )
    return {
        "times": times,
        # reference time around each op: see reference.py
        "ref": [(a + b) / 2 for a, b in zip(refs, refs[1:])],
        "ok": ok,
        "errors": errors[:3],
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # ru_maxrss is KiB on Linux
    }


def _fresh_import_s(src: str, repeats: int = 3) -> float:
    """Median wall time of `import transportlab.cli` in a fresh interpreter."""
    code = (
        "import time; t = time.perf_counter(); import transportlab.cli; "
        "print(time.perf_counter() - t)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    samples = []
    for _ in range(repeats):
        out = subprocess.run(
            [sys.executable, "-c", code],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def traced_run(wl, seconds: float, src: str) -> dict:
    import tracing
    import workloads

    window = wl.window  # ops whose counts are reported and replayed
    tracer = tracing.Tracer(extra_namespaces=[workloads])
    errors = []
    traced_s, plain_s, window_counts, ok = [], [], [], []

    def traced_op(i, tr):
        tr.install()
        wl.tracer = tr
        try:
            dt, good = _run_op(wl, i, errors)
            return dt, good
        finally:
            wl.tracer = None
            tr.remove()

    loop = Loop(seconds, max(MIN_OPS, window))
    i = 0
    while True:
        for traced in ((True, False) if i % 2 == 0 else (False, True)):
            if traced:
                dt, good = traced_op(i, tracer)
                traced_s.append(dt)
                counts = tracer.take_counts()
                if i < window:
                    window_counts.append(counts)
            else:
                dt, good = _run_op(wl, i, errors)
                plain_s.append(dt)
            ok.append(good)
        i += 1
        if loop.done(i):
            break

    replay = tracing.Tracer(extra_namespaces=[workloads])
    replay_counts = []
    for k in range(window):
        ok.append(traced_op(k, replay)[1])
        replay_counts.append(replay.take_counts())

    layers = tracing.layer_metrics(tracer.spans, len(traced_s))
    for key in tracing.COUNT_METRICS:
        layers[key] = sum(c.get(key, 0) for c in window_counts) / window
    layers["cli.import_s"] = _fresh_import_s(src)
    layers["trace.overhead_pct"] = 100.0 * (sum(traced_s) / sum(plain_s) - 1.0)
    seen = {s[0] for s in tracer.spans}
    return {
        "layers": layers,
        "ok": ok,
        "errors": errors[:3],
        "traced_ops": len(traced_s),
        "window": window,
        "missing_spans": sorted(wl.required_spans - seen),
        "deterministic": replay_counts == window_counts,
        "window_counts": window_counts,
        "replay_counts": replay_counts,
    }


def main() -> int:
    args = _args()
    import numpy
    import scipy

    import transportlab

    where = os.path.dirname(os.path.abspath(transportlab.__file__))
    if os.path.dirname(where) != os.path.abspath(args.src):
        print(f"transportlab imported from {where}, not {args.src}", file=sys.stderr)
        return 2
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    # the traced cli run calls cli.main in this process, so spans can see it
    wl.in_process = bool(args.trace)
    # warm-up op: lazy imports, first-touch allocations, any jit compile
    out = wl.op(0)
    wl.check(0, out)
    setup_s = time.clock_gettime(time.CLOCK_MONOTONIC) - args.t0
    result = {
        "setup_s": setup_s,
        "env": {
            "backend": transportlab.backend_name(),
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
        },
    }
    if args.mode == "run":
        if args.trace:
            result.update(traced_run(wl, args.seconds, args.src))
        else:
            result.update(timed_run(wl, args.seconds))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
