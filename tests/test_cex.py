import math

import numpy as np
import pytest
from scipy.integrate import quad

from transportlab.cex import (
    SERIES_SUM_BOUND,
    build_arcs,
    exact_pair_lp,
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
        for n in (0, 7, 29):
            assert exact_pair_lp(arcs, n, 2.0) == pytest.approx(
                2 * arcs.eps[n], rel=1e-9
            )

    def test_p_one_closed_form(self):
        # L^1 mass of the fan equals 2 R^2 (1 - cos(eps / R))
        arcs = build_arcs(2, eps=[0.1, 0.05])
        for n, e in enumerate((0.1, 0.05)):
            assert exact_pair_lp(arcs, n, 1.0) == pytest.approx(
                2 * (1 - math.cos(e)), rel=1e-9
            )

    def test_p_one_matches_transport_cost(self):
        arcs = build_arcs(2, eps=[0.1, 0.08])
        plan = pair_plan(arcs, 0, atoms_per_arc=400)
        assert plan.cost == pytest.approx(exact_pair_lp(arcs, 0, 1.0), rel=1e-2)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 2.9, 2.99])
    def test_matches_adaptive_quadrature(self, p):
        # the chart integrand in s, integrated by QUADPACK as exact mode
        # once did (relative tolerance 1e-9, 200 subintervals)
        arcs = build_arcs(200)
        R = arcs.domain.radius

        def integrand(s):
            ap = s / math.sqrt(R * R - s * s)
            return 2.0 * s * (1.0 + ap * ap) ** (p / 2.0) * ap ** (1.0 - p)

        for n in range(arcs.n_pairs):
            s_max = R * math.sin(arcs.eps[n] / R)
            ref, _ = quad(integrand, 0.0, s_max, epsabs=0.0, epsrel=1e-9, limit=200)
            assert exact_pair_lp(arcs, n, p) == pytest.approx(ref, rel=1e-11, abs=0)

    def test_divergence_at_p_three_and_beyond(self):
        arcs = build_arcs(3)
        assert exact_pair_lp(arcs, 0, 3.0) == math.inf
        assert exact_pair_lp(arcs, 1, 4.5) == math.inf

    def test_invalid_args(self):
        arcs = build_arcs(2)
        with pytest.raises(ValueError):
            exact_pair_lp(arcs, 0, 0.5)
        with pytest.raises(IndexError):
            exact_pair_lp(arcs, 5, 2.0)


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

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            run_counterexample(2, 2.0, mode="fancy")
