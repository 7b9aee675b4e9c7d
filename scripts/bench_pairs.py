"""Alternating parent/change pairs of the pipeline benchmark, as a BENCH_*.json file.

    python3 scripts/bench_pairs.py --parent HEAD --seeds 9201-9210 \
        --traced-seed 9211 --out BENCH_25.json --what "what the change does"

Run from the root of a git checkout.  The parent side is a ``git archive``
of the given commit; the change side is a copy of the working tree's
files (tracked ones, and untracked ones that git does not ignore).  Both
copies are made once, in a fresh temporary directory, and removed at the
end.  Each run is ``python3 pipebench/run.py`` from the root of its side's
copy, with PYTHONDONTWRITEBYTECODE=1 and every ``__pycache__`` of both
copies deleted before it, so every run compiles what it imports.

Untraced runs take the ``run_seconds`` of BENCHMARK.json; traced runs take
10 s.  Pairs alternate which side runs first, from seed to seed and from
workload to workload.  The output holds every run's final JSON line in
the order run, then per workload and end-to-end metric each side's median
and quartiles (``statistics.quantiles``, n = 4), the count of pairs the
change won (ties count for neither side) and the ratio of the medians,
and the per-op metrics of the traced pair.  It is rewritten after every
run, so an interrupted run of the script keeps what it measured.

This is a measuring tool: no test or CI step runs it.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile

import numpy

WORKLOADS = ("lsg", "transport", "cex_grid", "cli")
TRACED_SECONDS = 10
RUN_TIMEOUT_S = 600  # pipebench ends its own workers within 170 s


def _git(*args) -> bytes:
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def _parent_copy(rev: str, dest: str) -> None:
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def _change_copy(dest: str) -> None:
    names = _git("ls-files", "-z", "--cached", "--others", "--exclude-standard")
    for name in names.decode().split("\0"):
        if name and os.path.isfile(name):  # a deleted tracked file is skipped
            os.makedirs(os.path.join(dest, os.path.dirname(name)), exist_ok=True)
            shutil.copy2(name, os.path.join(dest, name))


def _drop_pycache(*roots) -> None:
    for root in roots:
        for here, dirs, _ in os.walk(root):
            if "__pycache__" in dirs:
                shutil.rmtree(os.path.join(here, "__pycache__"))
                dirs.remove("__pycache__")


def _run(root: str, workload: str, seed: int, seconds: int, trace: int) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [
        "python3", "pipebench/run.py", "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    try:
        done = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"returncode": None, "final_line": None}
    lines = done.stdout.strip().splitlines()
    try:
        final = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        final = None
    return {"returncode": done.returncode, "final_line": final}


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _value(run: dict, metric: str):
    final = run["final_line"]
    if not final or metric not in final["metrics"]:
        return None
    return final["metrics"][metric]["value"]


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload: seeds, failed ops, correctness, and per end-to-end
    metric the medians, quartiles and pair wins of each side."""
    out = {}
    untraced = [r for r in runs if not r["trace"]]
    for workload in dict.fromkeys(r["workload"] for r in untraced):
        mine = [r for r in untraced if r["workload"] == workload]
        seeds = list(dict.fromkeys(r["seed"] for r in mine))
        side = {
            s: {r["seed"]: r for r in mine if r["side"] == s} for s in ("parent", "change")
        }
        pairs = [k for k in seeds if k in side["parent"] and k in side["change"]]
        row = {
            "seeds": seeds,
            "pairs": len(pairs),
            "failed_ops": {
                s: sum((r["final_line"] or {}).get("failed", 0) for r in side[s].values())
                for s in side
            },
            "all_correct": all(
                r["returncode"] == 0 and (r["final_line"] or {}).get("correct") for r in mine
            ),
        }
        for metric in end_to_end:
            name, higher = metric["name"], metric["better"] == "higher"
            vals = {s: [_value(side[s][k], name) for k in pairs] for s in side}
            if len(pairs) < 2 or any(v is None for s in vals for v in vals[s]):
                continue
            stats = {}
            for s in ("parent", "change"):
                q1, med, q3 = statistics.quantiles(vals[s], n=4)
                stats[f"{s}_median"] = round(med, 4)
                stats[f"{s}_q1_q3"] = [round(q1, 4), round(q3, 4)]
            wins = sum(
                (c > p) if higher else (c < p) for p, c in zip(vals["parent"], vals["change"])
            )
            stats["change_better_in_pairs"] = f"{wins}/{len(pairs)}"
            stats["change_over_parent_median"] = round(
                statistics.median(vals["change"]) / statistics.median(vals["parent"]), 4
            )
            row[name] = stats
        out[workload] = row
    return out


def traced(runs: list) -> dict:
    """Per workload and traced seed, each side's per-op metrics."""
    out = {}
    for r in runs:
        if r["trace"] and r["final_line"]:
            row = {"correct": r["final_line"]["correct"], "failed": r["final_line"]["failed"]}
            row.update(
                {k: round(v["value"], 6) for k, v in r["final_line"]["metrics"].items()}
            )
            out.setdefault(r["workload"], {}).setdefault(f"seed {r['seed']}", {})[r["side"]] = row
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, help="the parent commit, any git revision")
    ap.add_argument("--seeds", required=True, help="untraced pair seeds, N or N-M")
    ap.add_argument("--traced-seed", type=int, help="seed of one traced pair per workload")
    ap.add_argument("--out", required=True, help="the BENCH_*.json file to write")
    ap.add_argument("--what", required=True, help="what the two sides are")
    args = ap.parse_args()
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    doc = {
        "what": args.what,
        "command": (
            "PYTHONDONTWRITEBYTECODE=1 python3 pipebench/run.py --workload W --seed N "
            "--seconds S --trace T, each side from its own copy of the tree (an archive of "
            "the parent commit, and the working tree's files of the change), every "
            "__pycache__ in both copies deleted before each run; "
            f"S = {bench['run_seconds']} untraced, S = {TRACED_SECONDS} traced"
        ),
        "parent_commit": _git("rev-parse", "--short", args.parent).decode().strip(),
        "machine": (
            f"{os.cpu_count()}-vCPU, {platform.system()}, Python "
            f"{platform.python_version()}, numpy {numpy.__version__}"
        ),
        "order": (
            "pairs alternate which side runs first, from seed to seed and from workload "
            "to workload; runs are listed in the order they ran, the untraced pairs of "
            "every workload first, then the traced pairs"
        ),
        "summary": {},
        "traced_per_op": {},
        "runs": [],
    }
    plan = [
        (w, seed, bench["run_seconds"], 0, (k + n) % 2)
        for n, w in enumerate(WORKLOADS)
        for k, seed in enumerate(_seeds(args.seeds))
    ]
    if args.traced_seed is not None:
        plan += [
            (w, args.traced_seed, TRACED_SECONDS, 1, n % 2)
            for n, w in enumerate(WORKLOADS)
        ]
    work = tempfile.mkdtemp(prefix="bench-pairs-")
    roots = {"parent": os.path.join(work, "parent"), "change": os.path.join(work, "change")}
    try:
        _parent_copy(args.parent, roots["parent"])
        _change_copy(roots["change"])
        for workload, seed, seconds, trace, flip in plan:
            for side in ("change", "parent") if flip else ("parent", "change"):
                _drop_pycache(*roots.values())
                res = _run(roots[side], workload, seed, seconds, trace)
                doc["runs"].append({
                    "side": side, "workload": workload, "seed": seed, "trace": trace,
                    "seconds": seconds, **res,
                })
                doc["summary"] = summarize(doc["runs"], bench["end_to_end"])
                doc["traced_per_op"] = traced(doc["runs"])
                with open(args.out, "w") as fh:
                    json.dump(doc, fh, indent=1)
                    fh.write("\n")
                print(f"{side} {workload} seed={seed} trace={trace} rc={res['returncode']}",
                      file=sys.stderr, flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
