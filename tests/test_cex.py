import math

import numpy as np
import pytest
from scipy.integrate import quad

from transportlab import cex
from transportlab.cex import (
    MAX_PAIR_CELLS,
    SERIES_SUM_BOUND,
    build_arcs,
    check_pair_grids,
    exact_pair_lps,
    pair_plan,
    run_counterexample,
)
from transportlab.errors import InfeasibleError
from transportlab.geom import disk
from transportlab.ot import check_noncrossing


class TestArcLayout:
    def test_lengths_follow_shape(self):
        arcs = build_arcs(6)
        n = np.arange(1, 7)
        expected = arcs.scale / (n * np.log1p(n) ** 2)
        assert np.allclose(arcs.eps, expected, rtol=1e-12)
        assert np.all(np.diff(arcs.eps) < 0)

    def test_pairs_abut_and_fit(self):
        arcs = build_arcs(10)
        for k in range(9):
            lo, hi = arcs.starts[k], arcs.starts[k] + 2 * arcs.eps[k]
            assert arcs.starts[k + 1] == pytest.approx(hi, rel=1e-12)
        total = arcs.starts[-1] + 2 * arcs.eps[-1]
        assert total <= arcs.domain.perimeter / 2

    def test_layout_independent_of_count(self):
        # adding pairs must not move the existing ones
        a = build_arcs(5)
        b = build_arcs(40)
        assert np.allclose(a.eps, b.eps[:5], rtol=1e-15)
        assert np.allclose(a.starts, b.starts[:5], rtol=1e-15)
        assert a.scale == b.scale

    def test_signs_alternate_within_and_across(self):
        arcs = build_arcs(4)
        assert arcs.plus_first.tolist() == [True, False, True, False]
        # junction between consecutive pairs carries equal signs
        for k in range(3):
            assert arcs.plus_first[k + 1] != arcs.plus_first[k]

    def test_intervals_partition_pair(self):
        arcs = build_arcs(3)
        (plo, phi_), (mlo, mhi) = arcs.intervals(1)
        assert phi_ - plo == pytest.approx(arcs.eps[1])
        assert mhi - mlo == pytest.approx(arcs.eps[1])
        # pair 1 is minus-first
        assert mlo < plo
        assert plo == pytest.approx(mhi)

    def test_series_bound_certified(self):
        n = np.arange(1, 2_000_000)
        partial = float(np.sum(1.0 / (n * np.log1p(n) ** 2)))
        tail = 1.0 / math.log(2_000_000)
        assert partial < SERIES_SUM_BOUND
        assert partial + tail < SERIES_SUM_BOUND + 0.08

    def test_custom_eps(self):
        arcs = build_arcs(3, eps=[0.1, 0.05, 0.02])
        assert arcs.scale == 1.0
        assert np.allclose(arcs.eps, [0.1, 0.05, 0.02])

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_nonfinite_eps_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            build_arcs(2, eps=[0.1, bad])

    def test_overflowing_eps_rejected(self):
        per = disk(1.0).perimeter
        with pytest.raises(InfeasibleError):
            build_arcs(2, eps=[per / 2, per / 2])

    def test_pair_measures_balanced(self):
        arcs = build_arcs(4)
        f_plus, f_minus = arcs.pair_measures(2, atoms_per_arc=32)
        assert f_plus.total_mass == pytest.approx(arcs.eps[2], rel=1e-12)
        assert f_minus.total_mass == pytest.approx(arcs.eps[2], rel=1e-12)


class TestExactIntegrals:
    def test_p_two_is_twice_eps(self):
        arcs = build_arcs(30)
        got = exact_pair_lps(arcs, [0, 7, 29], 2.0)
        assert got == pytest.approx(2 * arcs.eps[[0, 7, 29]], rel=1e-9)

    def test_p_one_closed_form(self):
        # L^1 mass of the fan equals 2 R^2 (1 - cos(eps / R))
        arcs = build_arcs(2, eps=[0.1, 0.05])
        assert exact_pair_lps(arcs, [0, 1], 1.0) == pytest.approx(
            [2 * (1 - math.cos(e)) for e in (0.1, 0.05)], rel=1e-9
        )

    def test_p_one_matches_transport_cost(self):
        arcs = build_arcs(2, eps=[0.1, 0.08])
        plan = pair_plan(arcs, 0, atoms_per_arc=400)
        assert plan.cost == pytest.approx(exact_pair_lps(arcs, [0], 1.0)[0], rel=1e-2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 2.9, 2.99])
    def test_matches_adaptive_quadrature(self, p):
        # the chart integrand in s, integrated by QUADPACK as exact mode
        # once did (relative tolerance 1e-9, 200 subintervals)
        arcs = build_arcs(200)
        R = arcs.domain.radius

        def integrand(s):
            ap = s / math.sqrt(R * R - s * s)
            return 2.0 * s * (1.0 + ap * ap) ** (p / 2.0) * ap ** (1.0 - p)

        got = exact_pair_lps(arcs, range(arcs.n_pairs), p)
        for n in range(arcs.n_pairs):
            s_max = R * math.sin(arcs.eps[n] / R)
            ref, _ = quad(integrand, 0.0, s_max, epsabs=0.0, epsrel=1e-9, limit=200)
            assert got[n] == pytest.approx(ref, rel=1e-11, abs=0)

    def test_divergence_at_p_three_and_beyond(self):
        arcs = build_arcs(3)
        assert exact_pair_lps(arcs, [0], 3.0) == [math.inf]
        assert exact_pair_lps(arcs, [1, 2], 4.5) == [math.inf, math.inf]

    def test_invalid_args(self):
        arcs = build_arcs(3)
        for p in (0.5, math.nan):
            with pytest.raises(ValueError, match="p must be >= 1"):
                exact_pair_lps(arcs, [0], p)
        # every index is checked, at p >= 3 too; a negative one does not wrap
        for p in (2.0, 3.0):
            for pairs in ([5], [-1], [0, 3], [2, -3]):
                with pytest.raises(IndexError):
                    exact_pair_lps(arcs, pairs, p)

    def test_values_unchanged_by_batching(self):
        # one rule for the batch gives each pair's value of its own call
        arcs = build_arcs(40)
        batch = exact_pair_lps(arcs, range(40), 2.5)
        assert batch == [exact_pair_lps(arcs, [n], 2.5)[0] for n in range(40)]


class TestPairPlans:
    def test_plan_noncrossing_and_local(self):
        arcs = build_arcs(6)
        plan = pair_plan(arcs, 3, atoms_per_arc=48)
        assert check_noncrossing(plan) == []
        (plo, phi_), (mlo, mhi) = arcs.intervals(3)
        lo = min(plo, mlo) - 1e-9
        hi = max(phi_, mhi) + 1e-9
        assert np.all((plan.source.s >= lo) & (plan.source.s <= hi))
        assert np.all((plan.target.s >= lo) & (plan.target.s <= hi))


class TestReports:
    def test_exact_p2_ratio_is_two(self):
        rep = run_counterexample(12, 2.0, mode="exact")
        assert rep["ratio"] == pytest.approx(2.0, rel=1e-9)
        assert not any(rep["diverged"])
        assert rep["partial_sum"] == pytest.approx(
            2 * sum(rep["eps"]), rel=1e-9
        )

    def test_exact_band_p25(self):
        rep = run_counterexample(40, 2.5, mode="exact")
        r = np.array(rep["per_pair"]) / np.array(rep["eps"]) ** 0.5
        assert r.max() / r.min() <= 10.0

    def test_exact_p3_diverges(self):
        rep = run_counterexample(5, 3.0, mode="exact")
        assert all(rep["diverged"])
        assert rep["partial_sum"] == math.inf
        assert rep["ratio"] == math.inf

    def test_grid_p3_finite_with_warning(self):
        rep = run_counterexample(6, 3.0, mode="grid", grid_n=12, atoms_per_arc=48)
        assert "warning" in rep
        assert all(math.isfinite(v) for v in rep["per_pair"])
        vals = np.array(rep["per_pair"])
        assert vals.max() / vals.min() <= 10.0
        assert rep["grid_n"] == 12

    def test_partial_sums_grow_slowly_at_p2(self):
        small = run_counterexample(10, 2.0, mode="exact")["partial_sum"]
        large = run_counterexample(100, 2.0, mode="exact")["partial_sum"]
        assert large / small <= 1.10

    @pytest.mark.parametrize("mode", ["exact", "grid"])
    @pytest.mark.parametrize("p", [math.nan, 0.5])
    def test_bad_exponent_refused_before_any_pair(self, monkeypatch, mode, p):
        def no_arcs(*args, **kwargs):
            raise AssertionError("built the arcs before checking p")

        monkeypatch.setattr(cex, "build_arcs", no_arcs)
        with pytest.raises(ValueError, match="p must be >= 1"):
            run_counterexample(3, p, mode=mode)

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            run_counterexample(2, 2.0, mode="fancy")


@pytest.mark.parametrize(
    "call",
    [
        lambda n: build_arcs(n),
        lambda n: run_counterexample(n, 2.0),
        lambda n: run_counterexample(3, 2.0, mode="grid", grid_n=n),
        lambda n: run_counterexample(3, 2.0, mode="grid", atoms_per_arc=n),
    ],
    ids=["build_arcs", "pairs", "grid_n", "atoms_per_arc"],
)
def test_counts_must_be_integers(call):
    for n in (2.5, np.float64(3.0)):
        with pytest.raises(TypeError):
            call(n)


def test_integer_counts_of_numpy_pass():
    two, four, eight = np.int64([2, 4, 8])
    rep = run_counterexample(two, 2.0, mode="grid", grid_n=four, atoms_per_arc=eight)
    assert rep == run_counterexample(2, 2.0, mode="grid", grid_n=4, atoms_per_arc=8)
    assert build_arcs(np.int64(3)).n_pairs == 3


class TestPairGridCap:
    def test_large_grid_refused_before_solving(self, monkeypatch):
        # pair 0 at grid 3000 is 11,467 x 3,004 cells, about 34.4 M
        def no_solve(*args, **kwargs):
            raise AssertionError("solved a pair before checking the grids")

        monkeypatch.setattr(cex, "pair_plan", no_solve)
        with pytest.raises(ValueError, match="11467 x 3004 cells"):
            run_counterexample(1, 2.0, mode="grid", grid_n=3000)

    @pytest.mark.parametrize("grid_n", [0, 10_000_000, 10**400, math.nan])
    def test_out_of_range_refused(self, grid_n):
        with pytest.raises(ValueError):
            check_pair_grids(build_arcs(1), grid_n)

    def test_exact_mode_ignores_grid(self):
        rep = run_counterexample(1, 2.0, mode="exact", grid_n=3000)
        assert rep["mode"] == "exact"

    def test_default_grids_fit(self):
        # the last of 24 pairs at grid 16 is 34,351 x 20 cells
        arcs = build_arcs(24)
        check_pair_grids(arcs, 16)
        _, _, nx, ny = cex._pair_grid(arcs, 23, 16)
        assert (nx, ny) == (34351, 20)
        assert nx * ny <= MAX_PAIR_CELLS
