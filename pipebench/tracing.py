"""Spans and counts around the library's public functions.

The traced run replaces each wrapped function in *every* namespace that
holds it: the defining module, the package root, and every module (or
benchmark file) that imported it by name.  A name that is patched in
one place but still bound to the original elsewhere would lose spans
without any error, so :meth:`Tracer.install` rebinds every holder it
finds, and the worker fails a traced run that misses a span its
workload needs.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
import time
from collections import defaultdict

import numpy as np

from benchstats import self_times

now = time.perf_counter


def _n_cost_entries(args, kwargs, out):
    return {"geom.cost_entries": int(out.shape[0]) * int(out.shape[1])}


def _n_atoms(args, kwargs, out):
    f_plus, f_minus = out
    return {"measures.atoms": len(f_plus) + len(f_minus)}


def _n_pivots(args, kwargs, out):
    # solve_transport returns the iteration count last; the final
    # iteration is the optimality test, not a pivot
    return {"simplex.pivots": int(out[-1]) - 1}


def _n_pairs_tested(args, kwargs, out):
    k = args[0].n_entries
    return {"ot.pairs_tested": k * (k - 1) // 2}


def _n_deposit(args, kwargs, out):
    _, origin, cell, start, end, _ = args
    start = np.asarray(start, dtype=float)
    end = np.asarray(end, dtype=float)
    o = np.asarray(origin, dtype=float)
    i0 = np.floor((start - o) / cell)
    i1 = np.floor((end - o) / cell)
    # one visit for the start cell plus one per grid line crossed
    visits = len(start) + int(np.abs(i1 - i0).sum())
    return {
        "kernels.deposit_segments": len(start),
        "kernels.deposit_cell_visits": visits,
    }


def _n_crossing_tests(args, kwargs, out):
    centers, _, seg_a = args[:3]
    return {"kernels.crossing_tests": len(centers) * len(seg_a)}


def _n_density_cells(args, kwargs, out):
    return {"density.cells": out.nx * out.ny}


def _n_reconstruct(args, kwargs, out):
    flow = args[0]
    return {"leastgrad.rays": len(flow), "leastgrad.cells": out.nx * out.ny}


def _n_pairs(args, kwargs, out):
    return {"cex.pairs": int(out["pairs"])}


# (span name, module, attribute path, count function)
TARGETS = [
    ("geom.cost_matrix", "transportlab.geom", "ChordCost.matrix", _n_cost_entries),
    ("measures.tangential_derivative", "transportlab.measures", "tangential_derivative", _n_atoms),
    ("measures.remove_common_mass", "transportlab.measures", "remove_common_mass", None),
    ("simplex.boundary_stack_basis", "transportlab.simplex", "boundary_stack_basis", None),
    ("simplex.northwest_basis", "transportlab.simplex", "northwest_basis", None),
    ("simplex.solve_transport", "transportlab.simplex", "solve_transport", _n_pivots),
    ("ot.solve_kantorovich", "transportlab.ot", "solve_kantorovich", None),
    ("ot.dual_potentials", "transportlab.ot", "dual_potentials", None),
    ("ot.check_noncrossing", "transportlab.ot", "check_noncrossing", _n_pairs_tested),
    ("kernels.deposit_segments", "transportlab.kernels", "deposit_segments", _n_deposit),
    ("kernels.crossing_field", "transportlab.kernels", "crossing_field", _n_crossing_tests),
    ("kernels.crossing_pairs", "transportlab.kernels", "crossing_pairs", None),
    ("density.deposit_partial_density", "transportlab.density", "deposit_partial_density", _n_density_cells),
    ("density.lp_norm", "transportlab.density", "lp_norm", None),
    ("density.lp_bound_factors", "transportlab.density", "lp_bound_factors", None),
    ("density.write_csv", "transportlab.density", "write_csv", None),
    ("leastgrad.reconstruct_u", "transportlab.leastgrad", "reconstruct_u", _n_reconstruct),
    ("leastgrad.total_variation", "transportlab.leastgrad", "total_variation", None),
    ("leastgrad.trace_error", "transportlab.leastgrad", "trace_error", None),
    ("cex.run_counterexample", "transportlab.cex", "run_counterexample", _n_pairs),
    ("cex.pair_plan", "transportlab.cex", "pair_plan", None),
    ("cli.main", "transportlab.cli", "main", None),
]

# per-layer time metrics: sums of span totals ("total") or self times ("self")
TIME_METRICS = {
    "geom.cost_matrix_s": [("geom.cost_matrix", "total")],
    "measures.derivative_s": [
        ("measures.tangential_derivative", "total"),
        ("measures.remove_common_mass", "total"),
    ],
    "simplex.init_s": [
        ("simplex.boundary_stack_basis", "total"),
        ("simplex.northwest_basis", "total"),
    ],
    "simplex.solve_self_s": [("simplex.solve_transport", "self")],
    "ot.solve_self_s": [("ot.solve_kantorovich", "self")],
    "ot.noncrossing_s": [("ot.check_noncrossing", "total")],
    "ot.dual_s": [("ot.dual_potentials", "total")],
    "kernels.deposit_s": [("kernels.deposit_segments", "total")],
    "kernels.crossing_field_s": [("kernels.crossing_field", "total")],
    "kernels.crossing_pairs_s": [("kernels.crossing_pairs", "total")],
    "density.deposit_self_s": [("density.deposit_partial_density", "self")],
    "density.lp_s": [("density.lp_norm", "total"), ("density.lp_bound_factors", "total")],
    "leastgrad.reconstruct_self_s": [("leastgrad.reconstruct_u", "self")],
    "leastgrad.tv_trace_s": [
        ("leastgrad.total_variation", "total"),
        ("leastgrad.trace_error", "total"),
    ],
    "cex.run_self_s": [("cex.run_counterexample", "self")],
    "cex.pair_plan_s": [("cex.pair_plan", "total")],
    "cli.command_self_s": [("cli.main", "self")],
    "cli.write_s": [("density.write_csv", "total")],
}

# counts derived from input sizes or returned by the library; exact
COUNT_METRICS = [
    "geom.cost_entries",
    "measures.atoms",
    "simplex.pivots",
    "ot.pairs_tested",
    "kernels.deposit_segments",
    "kernels.deposit_cell_visits",
    "kernels.crossing_tests",
    "density.cells",
    "leastgrad.rays",
    "leastgrad.cells",
    "cex.pairs",
    "cli.bytes_written",
]


def _resolve(module_name: str, path: str):
    owner = importlib.import_module(module_name)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Records nested spans and counts while its wrappers are installed."""

    def __init__(self, extra_namespaces=()):
        self.spans = []  # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self._stack = []
        self._extra = list(extra_namespaces)
        self._originals = []  # (owner, attr, original, wrapper)
        for name, module_name, path, count in TARGETS:
            owner, attr = _resolve(module_name, path)
            original = getattr(owner, attr)
            self._originals.append(
                (owner, attr, original, self._wrap(name, original, count))
            )

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, now(), math.nan, self._stack[-1] if self._stack else -1]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = now()
                self._stack.pop()
            if count is not None:
                for key, value in count(args, kwargs, out).items():
                    self.counts[key] += value
            return out

        return traced

    def _namespaces(self):
        mods = [
            m for k, m in list(sys.modules.items())
            if k == "transportlab" or k.startswith("transportlab.")
        ]
        return [vars(m) for m in mods] + [vars(m) for m in self._extra]

    def _swap(self, install: bool) -> None:
        """Bind every holder of each wrapped name to the wrapper (or back)."""
        swap = {}
        for owner, attr, original, wrapper in self._originals:
            old, new = (original, wrapper) if install else (wrapper, original)
            if isinstance(owner, type):
                if owner.__dict__.get(attr) is old:
                    setattr(owner, attr, new)
            else:
                swap[id(old)] = new
        for ns in self._namespaces():
            for key, value in list(ns.items()):
                new = swap.get(id(value))
                if new is not None:
                    ns[key] = new

    def install(self) -> None:
        self._swap(True)

    def remove(self) -> None:
        self._swap(False)

    def take_counts(self) -> dict:
        out = dict(self.counts)
        self.counts.clear()
        return out

    def add_count(self, key: str, value: int) -> None:
        self.counts[key] += value


def span_totals(spans) -> tuple[dict, dict]:
    """Per span name: summed durations and summed self times."""
    selfs = self_times([(s[1], s[2], s[3]) for s in spans])
    total = defaultdict(float)
    own = defaultdict(float)
    for (name, start, end, _), st in zip(spans, selfs):
        total[name] += end - start
        own[name] += st
    return dict(total), dict(own)


def layer_metrics(spans, n_ops: int) -> dict:
    """Per-op layer times from the spans of n_ops traced ops."""
    total, own = span_totals(spans)
    out = {}
    for metric, parts in TIME_METRICS.items():
        value = 0.0
        for name, kind in parts:
            value += (total if kind == "total" else own).get(name, 0.0)
        out[metric] = value / n_ops
    return out
