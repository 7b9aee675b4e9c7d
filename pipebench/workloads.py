"""Seeded workloads: inputs, one op, and the output checks of each.

Each workload builds its inputs from the seed alone, and an op sees
only those generated inputs.  Ops call the library through module
attributes (``ot.solve_kantorovich``, not an imported name) so the
traced run's wrappers see every call.  Checks run outside the timed
span and raise :class:`CheckFailed`; the tolerances are the acceptance
battery's where it has one.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np

from transportlab import cex, cli, density, geom, leastgrad, measures, ot

# Sizes keep an op near 0.15 s (the cli op near 1 s) so that a 25 s run
# holds 100+ ops and its tail is a high percentile.  Pools of 256 inputs
# cover a run's ops, so inputs seldom repeat within a run.

GAP_RTOL = 1e-9  # acceptance criterion 2
DUAL_FEAS_TOL = 1e-8  # acceptance criterion 2
MASS_RTOL = 1e-9  # acceptance criterion 4
SPREAD_MAX = 10.0  # acceptance criterion 8
# discrete anisotropic TV of the reconstructed u over the plan cost
TV_BAND = (0.85, 1.2)


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _check_gap(plan) -> None:
    rel = abs(plan.gap) / max(plan.cost, 1.0)
    _require(rel <= GAP_RTOL, f"relative duality gap {rel:.3e}")


def harmonic_datum(rng, domain, n_samples: int, harmonics: int = 3):
    """g = sum of the first ``harmonics`` Fourier modes with seeded weights."""
    P = domain.perimeter
    s = (np.arange(n_samples) + rng.uniform(0.0, 1.0)) * (P / n_samples)
    theta = 2.0 * np.pi * s / P
    g = np.zeros(n_samples)
    for k in range(1, harmonics + 1):
        a, b = rng.normal(0.0, 1.0, 2) / k
        g += a * np.cos(k * theta) + b * np.sin(k * theta)
    return measures.BoundaryDatum(
        samples=np.stack([s, g], axis=1), jumps=None, perimeter=P
    )


def _aspect(domain) -> float:
    x0, y0, x1, y1 = domain.bbox()
    return max(x1 - x0, y1 - y0) / min(x1 - x0, y1 - y0)


class Lsg:
    """Least-gradient pipeline: datum -> derivative -> plan -> u, TV, trace.

    Both domains get grids of about grid_n**2 cells, so an op's cost does
    not split into one mode per domain.
    """

    name = "lsg"
    window = 2  # ops whose counts are reported: one disk, one ellipse
    fresh_process = False  # ops run in a fresh process: see reference.py
    samples = 300
    grid_n = 80
    pool = 256
    required_spans = {
        "measures.tangential_derivative",
        "measures.remove_common_mass",
        "geom.cost_matrix",
        "simplex.solve_transport",
        "ot.solve_kantorovich",
        "leastgrad.reconstruct_u",
        "kernels.crossing_field",
        "leastgrad.total_variation",
        "leastgrad.trace_error",
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        domains = [geom.disk(1.0), geom.ellipse(1.5, 1.0)]
        grids = [
            density.grid_for_domain(d, round(self.grid_n * math.sqrt(_aspect(d))))
            for d in domains
        ]
        self.phi = geom.LqNorm(3.0)
        self.inputs = [
            (harmonic_datum(rng, domains[k % 2], self.samples), domains[k % 2], grids[k % 2])
            for k in range(self.pool)
        ]

    def op(self, i: int):
        g, domain, grid = self.inputs[i % self.pool]
        return leastgrad.solve_least_gradient(g, domain, self.phi, grid=grid)

    def check(self, i: int, res) -> None:
        _check_gap(res.plan)
        ratio = res.tv / res.cost
        _require(TV_BAND[0] <= ratio <= TV_BAND[1], f"TV/cost {ratio:.4f}")
        _require(math.isfinite(res.trace_err), "trace error not finite")


class Transport:
    """Solve, certify and measure a plan: the `bound` pipeline plus checks."""

    name = "transport"
    window = 2
    fresh_process = False
    atoms = 350
    grid_n = 512
    p = 2.5
    pool = 256
    required_spans = {
        "geom.cost_matrix",
        "simplex.solve_transport",
        "ot.solve_kantorovich",
        "ot.dual_potentials",
        "ot.check_noncrossing",
        "kernels.crossing_pairs",
        "density.deposit_partial_density",
        "kernels.deposit_segments",
        "density.lp_norm",
        "density.lp_bound_factors",
    }

    def __init__(self, seed: int):
        from transportlab.instances import smooth_arc_instance

        rng = np.random.default_rng([seed, 2])
        domain = geom.ellipse(2.0, 1.0)
        self.cost = geom.ChordCost(domain, geom.LqNorm(3.0))
        self.grid = density.grid_for_domain(domain, self.grid_n)
        self.inputs = [
            (*smooth_arc_instance(rng, domain, self.atoms), rng.uniform(0.25, 1.0))
            for _ in range(self.pool)
        ]

    def op(self, i: int):
        f_plus, f_minus, tau = self.inputs[i % self.pool]
        plan = ot.solve_kantorovich(f_plus, f_minus, self.cost)
        pot = ot.dual_potentials(plan, self.cost)
        crossings = ot.check_noncrossing(plan)
        field = density.deposit_partial_density(plan, tau, self.grid)
        lp = density.lp_norm(field, self.p)
        factors = density.lp_bound_factors(plan, self.p, tau)
        return plan, pot, crossings, field, lp, factors

    def check(self, i: int, out) -> None:
        plan, pot, crossings, field, lp, (ti, da) = out
        tau = self.inputs[i % self.pool][2]
        _check_gap(plan)
        C = self.cost.matrix(plan.source.s, plan.target.s)
        viol = pot.feasibility_violation(C)
        _require(viol <= DUAL_FEAS_TOL, f"dual feasibility excess {viol:.3e}")
        _require(not crossings, f"{len(crossings)} crossing ray pairs")
        want = tau * plan.cost
        rel = abs(field.integral() - want) / want
        _require(rel <= MASS_RTOL, f"density mass defect {rel:.3e}")
        _require(math.isfinite(lp) and lp > 0, f"L^p norm {lp!r}")
        _require(math.isfinite(ti) and math.isfinite(da), "bound factor diverged")


class CexGrid:
    """Alternating-arc grid surrogate: many small plans and pair grids."""

    name = "cex_grid"
    window = 2
    fresh_process = False
    pairs = 8
    atoms_per_arc = 24
    grid_n = 16
    pool = 256
    required_spans = {
        "cex.run_counterexample",
        "cex.pair_plan",
        "ot.solve_kantorovich",
        "simplex.solve_transport",
        "geom.cost_matrix",
        "kernels.deposit_segments",
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 3])
        base = cex.build_arcs(self.pairs).eps
        self.inputs = [
            (base * rng.uniform(0.8, 1.2, self.pairs), rng.uniform(2.0, 3.0))
            for _ in range(self.pool)
        ]

    def op(self, i: int):
        eps, p = self.inputs[i % self.pool]
        return cex.run_counterexample(
            self.pairs,
            p,
            mode="grid",
            eps=list(eps),
            grid_n=self.grid_n,
            atoms_per_arc=self.atoms_per_arc,
        )

    def check(self, i: int, rep) -> None:
        eps, p = self.inputs[i % self.pool]
        vals = np.asarray(rep["per_pair"], dtype=float)
        _require(bool(np.all(np.isfinite(vals)) and np.all(vals > 0)), "bad pair value")
        r = vals / eps ** (3.0 - p)
        spread = r.max() / r.min()
        _require(spread <= SPREAD_MAX, f"per-pair profile spread {spread:.3f}")
        _require(
            abs(rep["partial_sum"] - vals.sum()) <= 1e-12 * vals.sum(),
            "partial sum disagrees with the pair values",
        )


class Cli:
    """One fresh `python -m transportlab.cli` process per op.

    Runs with the work directory as the current directory.
    """

    name = "cli"
    window = 6  # one op of each command
    fresh_process = True
    samples = 400
    grid_n = 64
    cex_pairs = 12
    required_spans = {
        "cli.main",
        "ot.solve_kantorovich",
        "density.deposit_partial_density",
        "density.write_csv",
        "leastgrad.reconstruct_u",
        "cex.run_counterexample",
    }

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 4])
        domain = geom.disk(1.0)
        # a rotated, scaled cos like acceptance criterion 11's datum: the
        # solver work is then about the same for every seed
        g = harmonic_datum(rng, domain, self.samples, harmonics=1)
        problem = {
            "domain": {"kind": "disk", "radius": 1.0},
            "norm": {"kind": "lq", "q": 3.0},
            "g": g.config(),
            "grid": {"n": self.grid_n},
            "seed": int(seed),
        }
        # paths are relative to the work directory, so reports and byte
        # counts do not depend on where it lives
        path = "problem.json"
        with open(path, "w") as fh:
            json.dump(problem, fh)
        tau = repr(float(rng.uniform(0.25, 0.75)))
        p_lp = repr(float(rng.uniform(1.5, 2.5)))
        p_bound = repr(float(rng.uniform(1.5, 2.5)))
        p_cex = repr(float(rng.uniform(2.0, 3.0)))
        self.commands = [
            ["solve", "--problem", path],
            ["density", "--problem", path, "--tau", tau, "--out", self._out("density")],
            ["lp-norm", "--problem", path, "--p", p_lp, "--tau", tau],
            ["bound", "--problem", path, "--p", p_bound, "--tau", tau],
            ["lsg", "--problem", path, "--out", self._out("lsg")],
            ["cex", "--pairs", str(self.cex_pairs), "--p", p_cex],
        ]
        self.first_report = {}
        self.in_process = False
        self.tracer = None

    def _out(self, command: str) -> str:
        return os.path.join("out", command)

    def _out_dir(self, argv):
        if "--out" not in argv:
            return None
        return argv[argv.index("--out") + 1]

    def _bytes_written(self, argv, report: bytes) -> int:
        total = len(report)
        out = self._out_dir(argv)
        if out is not None:
            for name in sorted(os.listdir(out)):
                total += os.path.getsize(os.path.join(out, name))
        return total

    def op(self, i: int):
        argv = self.commands[i % len(self.commands)]
        out = self._out_dir(argv)
        if out is not None:
            shutil.rmtree(out, ignore_errors=True)
        if self.in_process:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.main(list(argv))
            report = buf.getvalue().encode()
        else:
            proc = subprocess.run(
                [sys.executable, "-m", "transportlab.cli", *argv],
                capture_output=True,
                timeout=120,
            )
            code, report = proc.returncode, proc.stdout
        if self.tracer is not None:
            self.tracer.add_count("cli.bytes_written", self._bytes_written(argv, report))
        return code, report

    def check(self, i: int, out) -> None:
        code, report = out
        k = i % len(self.commands)
        argv = self.commands[k]
        _require(code == 0, f"`{argv[0]}` exited with {code}")
        if k in self.first_report:
            _require(report == self.first_report[k], f"`{argv[0]}` report changed on rerun")
            return
        rep = json.loads(report)
        if argv[0] == "solve":
            _require(abs(rep["gap"]) / max(rep["cost"], 1.0) <= GAP_RTOL, "duality gap")
        elif argv[0] == "density":
            want = rep["tau"] * rep["cost"]
            _require(abs(rep["integral"] - want) <= MASS_RTOL * want, "density mass")
        elif argv[0] == "lp-norm":
            _require(rep["lp_norm"] > 0, "L^p norm")
        elif argv[0] == "bound":
            _require(rep["ratio"] > 0 and rep["product"] > 0, "bound factors")
        elif argv[0] == "lsg":
            ratio = rep["tv"] / rep["cost"]
            _require(TV_BAND[0] <= ratio <= TV_BAND[1], f"TV/cost {ratio:.4f}")
        elif argv[0] == "cex":
            p = rep["p"]
            r = np.asarray(rep["per_pair"]) / np.asarray(rep["eps"]) ** (3.0 - p)
            _require(r.max() / r.min() <= SPREAD_MAX, "per-pair profile spread")
        self.first_report[k] = report


WORKLOADS = {w.name: w for w in (Lsg, Transport, CexGrid, Cli)}
