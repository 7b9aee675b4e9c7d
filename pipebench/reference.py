"""A fixed reference computation that measures how fast the host is right now.

On a shared virtual machine the CPU a process gets changes speed from
one ten-second stretch to the next: on a 2-vCPU VM the median time of
one fixed cex_grid op went from 0.095 to 0.155 s and back within 150 s,
so medians of whole runs disagree by more than any useful bound.  The
worker times a reference before the first op and after every op, and
the end-to-end times are reported as op time over the mean of the two
reference times around it.  Across ten-second stretches the spread of
that ratio (quartile distance over median) was 0.03 to 0.08 on the four
workloads, against 0.06 to 0.24 for the op times.  The reference is the
benchmark's own code, so a change to the library moves the ratio only
through the op.

The kernel mixes the three kinds of work the workloads do, in about
equal shares of time: interpreter loops (the simplex), many numpy calls
on small arrays (per-call overhead) and numpy passes over arrays of
megabytes (deposit, crossing tests).  Workloads whose ops are fresh
processes use a fresh interpreter as their reference instead.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

now = time.perf_counter

_rng = np.random.default_rng(0)
_SMALL = _rng.random(100)
_LARGE = _rng.random(1 << 19)  # 4 MiB


def _interpreter() -> float:
    table = {}
    acc = 0.0
    for k in range(6000):
        table[k & 255] = acc
        acc += (k % 7) * 0.5
    return acc


def _small_arrays() -> float:
    acc = 0.0
    for k in range(300):
        acc += float(np.argmin(_SMALL * 1.5 - k))
    return acc


def _large_arrays() -> float:
    return float((_LARGE * 1.0001 + 0.5).sum())


def kernel_s() -> float:
    """Wall seconds of one pass of the in-process kernel."""
    t0 = now()
    _interpreter()
    _small_arrays()
    _large_arrays()
    return now() - t0


def fresh_interpreter_s() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits.

    The reference for ops that are themselves fresh processes: start-up,
    imports and the loading of extension modules dominate those, and the
    in-process kernel follows the host's speed for that work less well.
    """
    t0 = now()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True, timeout=60)
    return now() - t0
