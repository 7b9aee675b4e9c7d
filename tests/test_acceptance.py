"""Acceptance battery: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured figure (run with -s to see the
lines for passing tests too)."""

import json
import math
import time

import numpy as np

from oracles import brute_force_plan
from transportlab.cex import exact_pair_lp, build_arcs, run_counterexample
from transportlab.cli import main as cli_main
from transportlab.density import (
    deposit_density,
    deposit_partial_density,
    grid_for_domain,
    lp_norm,
    lp_bound_factors,
)
from transportlab.geom import ChordCost, EuclideanNorm, LqNorm, disk, ellipse
from transportlab.instances import (
    cosine_datum,
    holder_half_measures,
    mirror_cosine_measures,
    random_atoms_instance,
    smooth_arc_instance,
)
from transportlab.leastgrad import interior_mask, solve_least_gradient
from transportlab.measures import BoundaryMeasure
from transportlab.ot import (
    check_noncrossing,
    dual_potentials,
    solve_kantorovich,
)

DISK = disk(1.0)
EUC = ChordCost(DISK, EuclideanNorm())


def _report(k: int, ok: bool, detail: str) -> None:
    print(f"criterion {k:2d}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {k}: {detail}"


def _random_measures(rng, domain, n, unit=False):
    per = domain.perimeter
    while True:
        w_a = np.ones(n) if unit else rng.uniform(0.1, 2.0, n)
        f_plus = BoundaryMeasure(rng.uniform(0, per, n), w_a, per)
        w_b = np.ones(n) if unit else rng.uniform(0.1, 2.0, n)
        w_b = w_b * (f_plus.total_mass / w_b.sum())
        f_minus = BoundaryMeasure(rng.uniform(0, per, n), w_b, per)
        if len(f_plus) == n and len(f_minus) == n:
            return f_plus, f_minus


def test_criterion_01_brute_force_oracle():
    costs = [
        ChordCost(DISK, EuclideanNorm()),
        ChordCost(DISK, LqNorm(3.0)),
        ChordCost(ellipse(2.0, 1.0), EuclideanNorm()),
        ChordCost(ellipse(2.0, 1.0), LqNorm(3.0)),
    ]
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(200):
        rng = np.random.default_rng(10_000 + trial)
        n = int(rng.integers(2, 8))
        cost = costs[trial % 4]
        f_plus, f_minus = _random_measures(rng, cost.domain, n, unit=True)
        got = solve_kantorovich(f_plus, f_minus, cost).cost
        ref = brute_force_plan(f_plus, f_minus, cost).cost
        worst = max(worst, abs(got - ref) / max(ref, 1e-30))
    elapsed = time.perf_counter() - t0
    _report(
        1,
        worst <= 1e-10 and elapsed < 10.0,
        f"200 instances, max rel cost error {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_duality_and_feasibility():
    sizes = []
    worst_gap = worst_viol = 0.0
    t_large = 0.0
    cases = [
        _random_measures(np.random.default_rng(7), DISK, 60),
        _random_measures(np.random.default_rng(8), DISK, 400),
        mirror_cosine_measures(500),
        mirror_cosine_measures(2000),
    ]
    for f_plus, f_minus in cases:
        t0 = time.perf_counter()
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        pot = dual_potentials(plan, EUC)
        C = EUC.matrix(plan.source.s, plan.target.s)
        dt = time.perf_counter() - t0
        n, m = C.shape
        sizes.append(n * m)
        if n * m == max(sizes):
            t_large = dt
        worst_gap = max(worst_gap, abs(plan.gap) / max(plan.cost, 1.0))
        worst_viol = max(worst_viol, pot.feasibility_violation(C))
    _report(
        2,
        worst_gap <= 1e-9 and worst_viol <= 1e-8 and t_large < 60.0,
        f"gap {worst_gap:.2e}, feasibility excess {worst_viol:.2e} over all "
        f"pairs (largest {max(sizes)}), {t_large:.1f}s at largest",
    )


def test_criterion_03_noncrossing_rays():
    costs = [
        ChordCost(DISK, EuclideanNorm()),
        ChordCost(DISK, LqNorm(3.0)),
        ChordCost(DISK, LqNorm(1.5)),
        ChordCost(ellipse(2.0, 1.0), EuclideanNorm()),
        ChordCost(ellipse(2.0, 1.0), LqNorm(3.0)),
    ]
    crossings = 0
    for trial in range(500):
        rng = np.random.default_rng(20_000 + trial)
        cost = costs[trial % 5]
        n = int(rng.integers(2, 30))
        f_plus, f_minus = _random_measures(rng, cost.domain, n)
        plan = solve_kantorovich(f_plus, f_minus, cost)
        crossings += len(check_noncrossing(plan))
    _report(3, crossings == 0, f"500 instances, {crossings} interior crossings")


def test_criterion_04_mass_identity():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(30_000 + trial)
        f_plus, f_minus = _random_measures(rng, DISK, int(rng.integers(3, 50)))
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        for n in (96, 257):
            sig = deposit_density(plan, grid_for_domain(DISK, n))
            worst = max(worst, abs(sig.integral() - plan.cost) / plan.cost)
    _report(
        4,
        worst <= 1e-9,
        f"10 instances x 2 grids, max rel mass defect {worst:.2e}",
    )


def test_criterion_05_splitting_identity():
    worst = 0.0
    for trial in range(10):
        rng = np.random.default_rng(40_000 + trial)
        f_plus, f_minus = _random_measures(rng, DISK, int(rng.integers(3, 40)))
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        grid = grid_for_domain(DISK, 128)
        full = deposit_density(plan, grid)
        fwd = deposit_partial_density(plan, 0.5, grid)
        bwd = deposit_partial_density(plan.reversed(), 0.5, grid)
        defect = np.abs(full.values - fwd.values - bwd.values).max()
        worst = max(worst, defect / full.values.max())
    _report(5, worst <= 1e-9, f"10 instances, max cell-wise defect {worst:.2e}")


def test_criterion_06_lp_stability_smooth_data():
    f_plus, f_minus = mirror_cosine_measures(2000)
    plan = solve_kantorovich(f_plus, f_minus, EUC)
    fields = {n: deposit_density(plan, grid_for_domain(DISK, n)) for n in (256, 512, 1024)}
    worst = 0.0
    details = []
    for p in (1.5, 2.0):
        v = [lp_norm(fields[n], p) for n in (256, 512, 1024)]
        ch = max(abs(v[1] - v[0]) / v[0], abs(v[2] - v[1]) / v[1])
        worst = max(worst, ch)
        details.append(f"p={p}: {ch:.3%}")
    _report(6, worst < 0.05, "norm drift between grids " + ", ".join(details))


def test_criterion_07_bound_ratio_band():
    ratios = []
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        f_plus, f_minus = smooth_arc_instance(rng, DISK)
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        sig = deposit_partial_density(plan, 0.5, grid_for_domain(DISK, 128))
        ti, da = lp_bound_factors(plan, 2.0, 0.5)
        ratios.append(lp_norm(sig, 2.0) ** 2 / (ti * da))
    spread = max(ratios) / min(ratios)
    _report(
        7,
        spread <= 10.0,
        f"50 instances, ratio in [{min(ratios):.3f}, {max(ratios):.3f}], "
        f"spread {spread:.2f}",
    )


def test_criterion_08_counterexample_scaling():
    t0 = time.perf_counter()
    arcs = build_arcs(200)
    ok = True
    details = []
    for p in (2.0, 2.5):
        vals = np.array([exact_pair_lp(arcs, n, p) for n in range(200)])
        r = vals / arcs.eps ** (3.0 - p)
        spread = r.max() / r.min()
        ok &= bool(spread <= 10.0)
        details.append(f"exact p={p} band spread {spread:.3f}")
    # exact integrals diverge for p = 3; the finite-resolution surrogate
    # must still show the flat per-pair profile
    p3 = [exact_pair_lp(arcs, n, 3.0) for n in range(200)]
    ok &= all(v == math.inf for v in p3)
    details.append("exact p=3 flagged infinite on all pairs")
    rep = run_counterexample(24, 3.0, mode="grid", grid_n=16, atoms_per_arc=64)
    g = np.array(rep["per_pair"])
    gs = g.max() / g.min()
    ok &= bool(gs <= 10.0)
    details.append(f"grid p=3 band spread {gs:.3f}")
    s20 = run_counterexample(20, 2.0, mode="exact")["partial_sum"]
    s200 = run_counterexample(200, 2.0, mode="exact")["partial_sum"]
    grow2 = (s200 - s20) / s20
    ok &= bool(abs(grow2) <= 0.10)
    s20 = run_counterexample(20, 2.5, mode="exact")["partial_sum"]
    s200 = run_counterexample(200, 2.5, mode="exact")["partial_sum"]
    grow25 = (s200 - s20) / s20
    ok &= bool(grow25 >= 0.50)
    details.append(f"partial sums N20->N200: p=2 {grow2:+.1%}, p=2.5 {grow25:+.1%}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 120.0
    _report(8, ok, "; ".join(details) + f"; {elapsed:.1f}s")


def test_criterion_09_least_gradient_benchmark():
    res = solve_least_gradient(
        cosine_datum(2000), DISK, EuclideanNorm(), grid_for_domain(DISK, 512)
    )
    mask = interior_mask(res.u, DISK)
    centers = res.u.centers()
    err = np.abs(res.u.values - centers[..., 0])[mask].max()
    ok = (
        err <= 0.05
        and 0.97 * math.pi <= res.tv <= 1.03 * math.pi
        and 0.99 * math.pi <= res.cost <= 1.01 * math.pi
        and res.trace_err <= 0.05
    )
    _report(
        9,
        ok,
        f"max|u - x| {err:.4f}, tv {res.tv:.4f}, cost {res.cost:.4f}, "
        f"trace {res.trace_err:.4f}",
    )


def test_criterion_10_holder_regime():
    f_plus, f_minus = holder_half_measures(4000)
    plan = solve_kantorovich(f_plus, f_minus, EUC)
    v = {
        n: lp_norm(deposit_density(plan, grid_for_domain(DISK, n)), 4.0)
        for n in (512, 1024)
    }
    change = abs(v[1024] - v[512]) / v[512]
    _report(10, change < 0.10, f"L4 norm drift 512 -> 1024: {change:.3%}")


def test_criterion_11_deterministic_reports(tmp_path, capsys):
    s = np.linspace(0, 2 * math.pi, 400, endpoint=False)
    cfg = {
        "domain": {"kind": "disk", "radius": 1.0},
        "norm": {"kind": "lq", "q": 3.0},
        "g": {"samples": [[float(a), float(math.cos(a))] for a in s]},
        "grid": {"n": 128},
        "seed": 7,
    }
    prob = tmp_path / "problem.json"
    prob.write_text(json.dumps(cfg))
    commands = [
        ["solve", "--problem", str(prob)],
        ["density", "--problem", str(prob), "--tau", "0.5"],
        ["lp-norm", "--problem", str(prob), "--p", "1.5"],
        ["bound", "--problem", str(prob), "--p", "2", "--tau", "0.5"],
        ["lsg", "--problem", str(prob)],
        ["cex", "--pairs", "12", "--p", "2.5"],
    ]
    ok = True
    for argv in commands:
        assert cli_main(list(argv)) == 0
        first = capsys.readouterr().out
        assert cli_main(list(argv)) == 0
        second = capsys.readouterr().out
        ok &= first.encode() == second.encode()
    _report(11, ok, f"{len(commands)} commands rerun byte-identical")
