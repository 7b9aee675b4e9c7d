import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from oracles import brute_force_plan, northwest_solve, plain_lifo_basis
from transportlab import simplex
from transportlab.errors import InfeasibleError
from transportlab.geom import ChordCost, EuclideanNorm, LqNorm, disk, ellipse
from transportlab.instances import mirror_cosine_measures
from transportlab.measures import BoundaryMeasure
from transportlab.ot import (
    check_noncrossing,
    displacement_lengths,
    dual_potentials,
    solve_kantorovich,
)

DISK = disk(1.0)
EUC = ChordCost(DISK, EuclideanNorm())
TWO_PI = 2 * math.pi


def measure(s, mass=None):
    s = np.atleast_1d(np.asarray(s, float))
    if mass is None:
        mass = np.ones_like(s)
    return BoundaryMeasure(s, mass, TWO_PI)


def random_instance(rng, domain, n, m=None):
    m = n if m is None else m
    per = domain.perimeter
    f_plus = measure(rng.uniform(0, per, n), rng.uniform(0.1, 2.0, n))
    mass_m = rng.uniform(0.1, 2.0, m)
    mass_m *= f_plus.total_mass / mass_m.sum()
    f_minus = BoundaryMeasure(rng.uniform(0, per, m), mass_m, per)
    if len(f_plus) < n or len(f_minus) < m:
        return random_instance(rng, domain, n, m)
    return f_plus, f_minus


class TestSmallExact:
    def test_two_by_two(self):
        # antipodal pairing costs 4, crossing-free pairing costs 2*sqrt(2)
        f_plus = measure([0.0, math.pi / 2])
        f_minus = measure([math.pi, 3 * math.pi / 2])
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        assert plan.cost == pytest.approx(2 * math.sqrt(2), rel=1e-12)
        pairs = {(int(a), int(b)) for a, b in zip(plan.i, plan.j)}
        assert pairs == {(0, 1), (1, 0)}
        assert plan.gap == pytest.approx(0.0, abs=1e-12)

    def test_single_pair(self):
        plan = solve_kantorovich(measure(0.0, [3.0]), measure(math.pi, [3.0]), EUC)
        assert plan.cost == pytest.approx(6.0, rel=1e-12)
        assert plan.n_entries == 1
        assert plan.entry_costs[0] == pytest.approx(2.0)

    def test_coincident_points_zero_cost(self):
        plan = solve_kantorovich(measure([1.0]), measure([1.0]), EUC)
        assert plan.cost == pytest.approx(0.0, abs=1e-15)


class TestAgainstBruteForce:
    @pytest.mark.parametrize("start", ["boundary", pytest.param("northwest", id="nw")])
    def test_random_instances(self, start):
        rng = np.random.default_rng(42)
        ell = ellipse(2.0, 1.0)
        costs = [EUC, ChordCost(ell, LqNorm(3.0))]
        for trial in range(60):
            n = int(rng.integers(2, 7))
            cost = costs[trial % 2]
            per = cost.domain.perimeter
            s_a = rng.uniform(0, per, n)
            s_b = rng.uniform(0, per, n)
            f_plus = BoundaryMeasure(s_a, np.ones(n), per)
            f_minus = BoundaryMeasure(s_b, np.ones(n), per)
            if len(f_plus) < n or len(f_minus) < n:
                continue
            if start == "boundary":
                got = solve_kantorovich(f_plus, f_minus, cost).cost
            else:
                # the positionless reference: the core from the corner
                C = cost.matrix(f_plus.s, f_minus.s)
                bi, bj, f = northwest_solve(C, np.ones(n), np.ones(n))[:3]
                got = float(np.dot(f, C[bi, bj]))
            ref = brute_force_plan(f_plus, f_minus, cost)
            assert got == pytest.approx(ref.cost, rel=1e-10), f"trial {trial}"

    def test_unequal_masses(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            f_plus, f_minus = random_instance(rng, DISK, int(rng.integers(2, 9)))
            plan = solve_kantorovich(f_plus, f_minus, EUC)
            plan.validate()
            assert plan.gap <= 1e-9 * max(plan.cost, 1.0)


class TestDuality:
    def test_potentials_tight_on_support(self):
        rng = np.random.default_rng(3)
        f_plus, f_minus = random_instance(rng, DISK, 12, 9)
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        pot = dual_potentials(plan, EUC)
        assert pot.slackness_violation(plan) <= 1e-10
        C = EUC.matrix(plan.source.s, plan.target.s)
        assert pot.feasibility_violation(C) <= 1e-9
        assert pot.objective(plan.source, plan.target) == pytest.approx(
            plan.cost, rel=1e-10
        )

    def test_plan_without_potentials_refused(self):
        plan = solve_kantorovich(measure([0.0]), measure([math.pi]), EUC)
        with pytest.raises(ValueError, match="potentials"):
            dual_potentials(dataclasses.replace(plan, potentials=None), EUC)

    def test_gap_reported(self):
        rng = np.random.default_rng(11)
        f_plus, f_minus = random_instance(rng, DISK, 40, 33)
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        assert abs(plan.gap) <= 1e-9 * max(plan.cost, 1.0)


class TestNoncrossing:
    def test_crossing_pairing_detected(self):
        # force the antipodal pairing by hand: segments cross at the center
        plan = solve_kantorovich(
            measure([0.0, math.pi / 2]), measure([math.pi, 3 * math.pi / 2]), EUC
        )
        crossed = plan.__class__(
            source=plan.source,
            target=plan.target,
            i=np.array([0, 1]),
            j=np.array([0, 1]),
            mass=np.array([1.0, 1.0]),
            cost=4.0,
            source_points=plan.source_points,
            target_points=plan.target_points,
            entry_costs=np.array([2.0, 2.0]),
        )
        assert len(check_noncrossing(crossed)) == 1
        assert check_noncrossing(plan) == []

    def test_random_plans_noncrossing(self):
        rng = np.random.default_rng(19)
        for _ in range(40):
            f_plus, f_minus = random_instance(rng, DISK, int(rng.integers(2, 25)))
            plan = solve_kantorovich(f_plus, f_minus, EUC)
            assert check_noncrossing(plan) == []

    def test_shared_endpoint_not_a_crossing(self):
        f_plus = measure([0.0], [2.0])
        f_minus = measure([math.pi / 2, 3 * math.pi / 2])
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        assert plan.n_entries == 2
        assert check_noncrossing(plan) == []

    def test_near_collinear_fan_not_a_crossing(self):
        # two chords into one target from sources 1.5e-6 apart share an
        # endpoint, so they do not cross, though the segments nearly overlap
        ell = ellipse(2.0, 1.0)
        s = 8.306916937794801
        f_plus = BoundaryMeasure([s, s + 1.5e-6], [1.0, 1.0], ell.perimeter)
        f_minus = BoundaryMeasure([0.325392107304296], [2.0], ell.perimeter)
        plan = solve_kantorovich(f_plus, f_minus, ChordCost(ell, EuclideanNorm()))
        assert plan.j.tolist() == [0, 0]
        assert check_noncrossing(plan) == []

    def test_large_plan_memory_linear(self):
        plan = solve_kantorovich(*mirror_cosine_measures(2000), EUC)
        assert plan.n_entries == 3997
        tracemalloc.start()
        try:
            assert check_noncrossing(plan) == []
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


class TestPlanMethods:
    def test_reversed_swaps_everything(self):
        rng = np.random.default_rng(2)
        f_plus, f_minus = random_instance(rng, DISK, 6, 4)
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        rev = plan.reversed()
        rev.validate()
        assert rev.cost == plan.cost
        assert np.array_equal(rev.i, plan.j) and np.array_equal(rev.j, plan.i)
        assert np.allclose(rev.marginal_source(), plan.marginal_target())
        # the swapped potentials certify the reversed plan as optimal
        pot = dual_potentials(rev, EUC)
        assert pot.slackness_violation(rev) <= 1e-10
        C = EUC.matrix(rev.source.s, rev.target.s)
        assert pot.feasibility_violation(C) <= 1e-9
        assert pot.objective(rev.source, rev.target) == pytest.approx(rev.cost, rel=1e-10)

    def test_displacement_lengths(self):
        f_plus = measure([0.0, math.pi / 2])
        f_minus = measure([math.pi, 3 * math.pi / 2])
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        D = displacement_lengths(plan)
        assert np.allclose(D, math.sqrt(2.0))

    def test_displacement_split_source(self):
        # one source split across two targets reports one displacement
        f_plus = measure([0.0], [2.0])
        f_minus = measure([math.pi / 2, 3 * math.pi / 2])
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        assert plan.n_entries == 2
        D = displacement_lengths(plan)
        assert D.shape == (1,)
        assert D[0] == pytest.approx(math.sqrt(2.0))

    def test_validate_rejects_bad_marginals(self):
        plan = solve_kantorovich(measure([0.0]), measure([math.pi]), EUC)
        plan.mass = plan.mass * 2
        with pytest.raises(ValueError):
            plan.validate()

    def test_config_shape(self):
        plan = solve_kantorovich(measure([0.0]), measure([math.pi]), EUC)
        cfg = plan.config()
        assert cfg["entries"] == [[0, 0, 1.0]]
        assert cfg["cost"] == pytest.approx(2.0)


class TestDeterminism:
    def test_rerun_identical(self):
        rng = np.random.default_rng(23)
        f_plus, f_minus = random_instance(rng, DISK, 15, 15)
        a = solve_kantorovich(f_plus, f_minus, EUC)
        b = solve_kantorovich(f_plus, f_minus, EUC)
        assert np.array_equal(a.i, b.i) and np.array_equal(a.j, b.j)
        assert np.array_equal(a.mass, b.mass)

    def test_tied_costs_resolved_consistently(self):
        # symmetric square instance: many optima, solver must pick one stably
        f_plus = measure([0.0, math.pi])
        f_minus = measure([math.pi / 2, 3 * math.pi / 2])
        runs = [solve_kantorovich(f_plus, f_minus, EUC) for _ in range(3)]
        for r in runs[1:]:
            assert np.array_equal(r.i, runs[0].i)
            assert np.array_equal(r.j, runs[0].j)


def plain_start(C, a, b, s_a, s_b):
    """boundary_stack_basis's lists without the tie cells or the seam
    search."""
    return (*plain_lifo_basis(C, a, b, s_a, s_b), 0)


class TestDegenerateEscape:
    def _instance(self):
        # mixed piecewise-linear + jump datum on an ellipse under an Lq
        # norm; quadrature atoms make the simplex heavily degenerate
        from transportlab.measures import BoundaryDatum, tangential_derivative

        dom = ellipse(1.3, 0.8)
        g = BoundaryDatum(
            samples=[[0.0, 0.0], [1.0, 1.0], [2.5, 1.0], [4.0, 0.0]],
            jumps=[[5.0, 0.5], [6.0, -0.5]],
            perimeter=dom.perimeter,
        )
        f_plus, f_minus = tangential_derivative(g, n_quad=200)
        return f_plus, f_minus, ChordCost(dom, LqNorm(3.0))

    def test_long_degenerate_run_does_not_stall(self, monkeypatch):
        # The certified start needs no pivot here, so the crawl runs
        # from the plain LIFO start.  A sticky Bland fallback used to
        # crawl into the iteration cap (hit at 360801 pivots); escaping
        # Bland mode on the first strict improvement solves it in a
        # couple of seconds.
        monkeypatch.setattr(simplex, "boundary_stack_basis", plain_start)
        plan = solve_kantorovich(*self._instance())
        plan.validate()
        assert abs(plan.gap) <= 1e-9 * (1.0 + plan.cost)
        assert plan.cost == pytest.approx(1.99932, abs=5e-4)
        # the crawl reaches Bland mode: without it the pivots differ
        monkeypatch.setattr(simplex, "STALL_LIMIT", 10**9)
        assert solve_kantorovich(*self._instance()).stats.pivots != plan.stats.pivots

    def test_certified_start_skips_the_crawl(self):
        plan = solve_kantorovich(*self._instance())
        assert plan.stats.start == "certified_seam"
        assert plan.stats.pivots == 0
        assert abs(plan.gap) <= 1e-9 * (1.0 + plan.cost)
        assert plan.cost == pytest.approx(1.99932, abs=5e-4)


class TestInfeasible:
    def test_unbalanced_rejected(self):
        with pytest.raises(InfeasibleError, match="unbalanced"):
            solve_kantorovich(measure([0.0], [1.0]), measure([math.pi], [2.0]), EUC)

    def test_empty_rejected(self):
        empty = BoundaryMeasure([], [], TWO_PI)
        with pytest.raises(InfeasibleError):
            solve_kantorovich(empty, empty, EUC)

    def test_tiny_imbalance_rescaled(self):
        plan = solve_kantorovich(
            measure([0.0], [1.0]), measure([math.pi], [1.0 + 1e-12]), EUC
        )
        plan.validate()
