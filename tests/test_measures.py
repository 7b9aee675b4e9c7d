import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab.errors import InfeasibleError
from transportlab.geom import ChordCost, EuclideanNorm, disk
from transportlab.measures import (
    BoundaryDatum,
    BoundaryMeasure,
    datum_from_config,
    measure_from_config,
    quadrature_atoms,
    remove_common_mass,
    tangential_derivative,
)
from transportlab.ot import solve_kantorovich

TWO_PI = 2 * math.pi


class TestBoundaryMeasure:
    def test_sorting_and_zero_drop(self):
        m = BoundaryMeasure([3.0, 1.0, 2.0], [1.0, 0.0, 2.0], TWO_PI)
        assert m.s.tolist() == [2.0, 3.0]
        assert m.mass.tolist() == [2.0, 1.0]
        assert m.total_mass == 3.0

    def test_wrapping(self):
        m = BoundaryMeasure([TWO_PI + 1.0], [1.0], TWO_PI)
        assert m.s[0] == pytest.approx(1.0)

    def test_position_rounding_to_perimeter_folds_to_zero(self):
        # mod(-1e-300, 2 pi) rounds to 2 pi, the same boundary point as 0
        m = BoundaryMeasure([-1e-300, 1.0], [1.0, 1.0], TWO_PI)
        assert m.s.tolist() == [0.0, 1.0]
        m = BoundaryMeasure([-1e-300, 1.0, 0.0], [1.0, 1.0, 2.0], TWO_PI)
        assert m.s.tolist() == [0.0, 1.0]
        assert m.mass.tolist() == [3.0, 1.0]

    def test_merge_across_the_seam(self):
        # 0 and 2 pi - 1e-14 are one boundary point, 1e-14 apart
        m = BoundaryMeasure([0.0, TWO_PI - 1e-14], [1.0, 1.0], TWO_PI)
        assert len(m) == 1
        assert m.mass.tolist() == [2.0]
        assert 0.0 <= m.s[0] < TWO_PI
        assert m.s[0] == pytest.approx(TWO_PI - 0.5e-14, abs=1e-15)
        m = BoundaryMeasure(
            [1e-14, 3.0, TWO_PI - 3e-14, 1.0],
            [1.0, 1.0, 3.0, 1.0],
            TWO_PI,
            sublength=[0.1, 0.2, 0.3, 0.4],
        )
        assert m.mass.tolist() == [1.0, 1.0, 4.0]
        assert m.sublength.tolist() == pytest.approx([0.4, 0.2, 0.4])
        assert m.s[:2].tolist() == [1.0, 3.0]
        # mass-weighted mean, one perimeter down, back in [0, 2 pi)
        assert m.s[2] == pytest.approx(TWO_PI - 2.0e-14, abs=1e-15)
        assert m.s[2] < TWO_PI

    def test_merge_of_near_duplicates(self):
        eps = 1e-14
        m = BoundaryMeasure([1.0, 1.0 + eps, 2.0], [1.0, 3.0, 1.0], TWO_PI)
        assert len(m) == 2
        assert m.mass[0] == pytest.approx(4.0)
        # merged position is the mass-weighted mean
        assert m.s[0] == pytest.approx((1.0 + 3.0 * (1.0 + eps)) / 4.0)

    def test_negative_mass_rejected(self):
        with pytest.raises(ValueError):
            BoundaryMeasure([1.0], [-1.0], TWO_PI)

    @pytest.mark.parametrize(
        "s, mass, sub",
        [
            ([0.1, 0.5, 1.0], [1.0, math.nan, 2.0], None),
            ([0.1, math.nan, 1.0], [1.0, 1.0, 2.0], None),
            ([0.1, 0.5], [1.0, math.inf], None),
            ([0.1, -math.inf], [1.0, 1.0], None),
            ([0.1, 0.5], [1.0, 1.0], [0.2, math.nan]),
        ],
        ids=["nan-mass", "nan-position", "inf-mass", "inf-position", "nan-sublength"],
    )
    def test_non_finite_rejected(self, s, mass, sub):
        with pytest.raises(ValueError, match="finite"):
            BoundaryMeasure(s, mass, TWO_PI, sub)

    @given(
        st.lists(
            st.tuples(st.floats(0, TWO_PI - 1e-9), st.floats(0, 10)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_total_mass_preserved(self, atoms):
        s = [a for a, _ in atoms]
        w = [b for _, b in atoms]
        m = BoundaryMeasure(s, w, TWO_PI)
        assert m.total_mass == pytest.approx(sum(w), rel=1e-12, abs=1e-12)
        assert np.all(np.diff(m.s) > 0)


class TestMeasureFromConfig:
    def test_pairs(self):
        m = measure_from_config([[0.5, 1.0], [1.0, 2.0]], TWO_PI)
        assert m.s.tolist() == [0.5, 1.0]
        assert m.mass.tolist() == [1.0, 2.0]

    def test_empty_list_is_no_atoms(self):
        assert len(measure_from_config([], TWO_PI)) == 0

    @pytest.mark.parametrize(
        "atoms", [[0.5, 1.0, 1.0, 1.0], [[0.5, 1.0, 1.0]]], ids=["flat", "three-columns"]
    )
    def test_atoms_need_shape_k_2(self, atoms):
        with pytest.raises(ValueError, match=r"atoms must have shape \(k, 2\)"):
            measure_from_config(atoms, TWO_PI)


class TestBoundaryDatum:
    def test_eval_linear_and_jumps(self):
        # continuous part 0, unit step up at 0 and down at pi
        g = BoundaryDatum(
            samples=np.array([[1.0, 0.0], [4.0, 0.0]]),
            jumps=np.array([[0.0, 1.0], [math.pi, -1.0]]),
            perimeter=TWO_PI,
        )
        vals = g.eval([0.5, 2.0, 4.0, 6.0])
        assert vals.tolist() == [1.0, 1.0, 0.0, 0.0]
        assert g.total_variation() == pytest.approx(2.0)

    def test_eval_periodic_interpolation(self):
        g = BoundaryDatum(
            samples=np.array([[0.0, 1.0], [math.pi, -1.0]]),
            jumps=None,
            perimeter=TWO_PI,
        )
        assert g.eval(math.pi / 2)[0] == pytest.approx(0.0)
        # wrap side: halfway between (pi, -1) and (2pi, 1)
        assert g.eval(1.5 * math.pi)[0] == pytest.approx(0.0)
        assert g.eval(0.0)[0] == pytest.approx(1.0)

    def test_nonclosing_jumps_rejected(self):
        with pytest.raises(InfeasibleError, match="close"):
            BoundaryDatum(
                samples=np.array([[1.0, 0.0]]),
                jumps=np.array([[0.0, 1.0]]),
                perimeter=TWO_PI,
            )

    @pytest.mark.parametrize(
        "samples, jumps",
        [
            ([[0.0, 1.0], [1.0, math.nan]], None),
            ([[0.0, 1.0], [math.inf, 0.0]], None),
            ([[0.0, 1.0], [1.0, 0.0]], [[0.5, math.inf], [2.0, -math.inf]]),
            ([[0.0, 1.0], [1.0, 0.0]], [[math.nan, 1.0], [2.0, -1.0]]),
        ],
        ids=["nan-value", "inf-position", "inf-height", "nan-jump-position"],
    )
    def test_non_finite_rejected(self, samples, jumps):
        with pytest.raises(ValueError, match="samples and jumps must be finite"):
            BoundaryDatum(samples=samples, jumps=jumps, perimeter=TWO_PI)

    def test_duplicate_samples_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BoundaryDatum(
                samples=np.array([[1.0, 0.0], [1.0, 2.0]]),
                jumps=None,
                perimeter=TWO_PI,
            )


    def test_position_rounding_to_perimeter_folds_to_zero(self):
        # mod(-1e-300, 2 pi) rounds to 2 pi, the same boundary point as 0
        g = BoundaryDatum(
            samples=np.array([[-1e-300, 1.0], [3.0, 2.0]]),
            jumps=np.array([[-1e-300, 1.0], [2.0, -1.0]]),
            perimeter=TWO_PI,
        )
        assert g.samples[:, 0].tolist() == [0.0, 3.0]
        assert g.jumps[:, 0].tolist() == [0.0, 2.0]
        with pytest.raises(ValueError, match="duplicate"):
            BoundaryDatum(
                samples=np.array([[-1e-300, 1.0], [0.0, 1.0], [3.0, 2.0]]),
                jumps=None,
                perimeter=TWO_PI,
            )

    def test_caller_arrays_untouched(self):
        samples = np.array([[7.0, 1.0], [3.0, 2.0]])
        jumps = np.array([[-1.0, 1.0], [2.0, -1.0]])
        g = BoundaryDatum(samples, jumps, TWO_PI)
        assert samples.tolist() == [[7.0, 1.0], [3.0, 2.0]]
        assert jumps.tolist() == [[-1.0, 1.0], [2.0, -1.0]]
        assert g.samples[:, 0].tolist() == [7.0 - TWO_PI, 3.0]
        assert g.jumps[:, 0].tolist() == [2.0, TWO_PI - 1.0]

    @pytest.mark.parametrize(
        "samples, jumps, name",
        [
            ([0.0, 1.0, 3.0, -1.0], None, "samples"),
            ([[0.0, 1.0, 3.0], [3.0, -1.0, 0.0]], None, "samples"),
            ([[0.0, 1.0], [3.0, -1.0]], [0.5, 1.0, 2.0, -1.0], "jumps"),
            ([[0.0, 1.0], [3.0, -1.0]], [[[0.5, 1.0]], [[2.0, -1.0]]], "jumps"),
        ],
        ids=["flat-samples", "three-columns", "flat-jumps", "three-dims"],
    )
    def test_pairs_need_shape_k_2(self, samples, jumps, name):
        # a flat list of even length is not read as pairs
        with pytest.raises(ValueError, match=rf"{name} must have shape \(k, 2\)"):
            BoundaryDatum(samples, jumps, TWO_PI)

    @pytest.mark.parametrize("jumps", [None, [], np.empty((0, 2))], ids=["none", "list", "array"])
    def test_no_jumps(self, jumps):
        g = BoundaryDatum([[0.0, 1.0], [3.0, -1.0]], jumps, TWO_PI)
        assert g.jumps.shape == (0, 2)

    def test_from_config(self):
        g = datum_from_config({"samples": [[0.0, 1.0], [3.0, -1.0]]}, TWO_PI)
        assert g.samples.tolist() == [[0.0, 1.0], [3.0, -1.0]]
        assert g.jumps.shape == (0, 2)
        with pytest.raises(ValueError, match="samples must have shape"):
            datum_from_config({"samples": [0.0, 1.0, 3.0, -1.0]}, TWO_PI)

    def test_duplicate_across_the_seam_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BoundaryDatum(
                samples=np.array([[0.0, 1.0], [3.0, 2.0], [TWO_PI - 1e-14, 1.0]]),
                jumps=None,
                perimeter=TWO_PI,
            )


class TestTangentialDerivative:
    def test_two_jump_datum(self):
        g = BoundaryDatum(
            samples=np.array([[1.0, 0.0], [4.0, 0.0]]),
            jumps=np.array([[0.0, 1.0], [math.pi, -1.0]]),
            perimeter=TWO_PI,
        )
        f_plus, f_minus = tangential_derivative(g)
        assert len(f_plus) == 1 and len(f_minus) == 1
        assert f_plus.s[0] == pytest.approx(0.0)
        assert f_plus.mass[0] == pytest.approx(1.0)
        assert f_minus.s[0] == pytest.approx(math.pi)
        assert f_minus.mass[0] == pytest.approx(1.0)

    def test_cosine_masses(self):
        n = 2000
        s = np.linspace(0, TWO_PI, n, endpoint=False)
        g = BoundaryDatum(
            samples=np.stack([s, np.cos(s)], axis=1), jumps=None, perimeter=TWO_PI
        )
        f_plus, f_minus = tangential_derivative(g, n_quad=1)
        # int_0^pi sin = 2 on each side
        assert f_plus.total_mass == pytest.approx(2.0, rel=1e-5)
        assert f_minus.total_mass == pytest.approx(2.0, rel=1e-5)
        # decreasing part of cos lives on (0, pi)
        assert np.all(f_minus.s < math.pi)
        assert np.all(f_plus.s > math.pi)

    def test_default_one_atom_per_piece(self):
        # a finely sampled datum gives one atom per linear piece, few
        # enough for the dense solver
        rng = np.random.default_rng(5)
        n = 300
        s = (np.arange(n) + rng.uniform()) * (TWO_PI / n)
        g_vals = sum(
            (rng.normal(size=2) / k) @ [np.cos(k * s), np.sin(k * s)] for k in (1, 2, 3)
        )
        g = BoundaryDatum(
            samples=np.stack([s, g_vals], axis=1), jumps=None, perimeter=TWO_PI
        )
        f_plus, f_minus = tangential_derivative(g)
        assert len(f_plus) + len(f_minus) <= 600
        plan = solve_kantorovich(f_plus, f_minus, ChordCost(disk(1.0), EuclideanNorm()))
        assert abs(plan.gap) <= 1e-9 * max(plan.cost, 1.0)

    def test_jump_at_a_piece_midpoint(self):
        # the rise on [0, 2] has its atom at 1, where a jump of the same
        # sign sits: they merge, and only the piece carries a sublength
        g = BoundaryDatum(
            samples=np.array([[0.0, 0.0], [2.0, 1.0], [4.0, 1.0]]),
            jumps=np.array([[1.0, 0.5], [3.0, -0.5]]),
            perimeter=TWO_PI,
        )
        f_plus, f_minus = tangential_derivative(g)
        assert (f_plus.s.tolist(), f_plus.mass.tolist()) == ([1.0], [1.5])
        assert f_plus.sublength.tolist() == [2.0]
        # the fall runs from 4 across the seam to 2 pi
        assert f_minus.s.tolist() == [3.0, 4.0 + 0.5 * (TWO_PI - 4.0)]
        assert f_minus.mass.tolist() == [0.5, 1.0]
        assert f_minus.sublength.tolist() == [0.0, TWO_PI - 4.0]

    def test_constant_datum_empty(self):
        g = BoundaryDatum(
            samples=np.array([[0.0, 5.0], [3.0, 5.0]]), jumps=None, perimeter=TWO_PI
        )
        f_plus, f_minus = tangential_derivative(g)
        assert len(f_plus) == 0 and len(f_minus) == 0

    @given(
        st.lists(st.floats(-5, 5), min_size=2, max_size=12),
        st.integers(1, 4),
    )
    @settings(max_examples=100, deadline=None)
    def test_balance(self, values, n_quad):
        s = np.linspace(0, TWO_PI, len(values), endpoint=False)
        g = BoundaryDatum(
            samples=np.stack([s, values], axis=1), jumps=None, perimeter=TWO_PI
        )
        f_plus, f_minus = tangential_derivative(g, n_quad=n_quad)
        tv = max(g.total_variation(), 1.0)
        assert abs(f_plus.total_mass - f_minus.total_mass) <= 1e-10 * tv


class TestRemoveCommonMass:
    def test_partial_cancellation(self):
        f_plus = BoundaryMeasure([1.0], [2.0], TWO_PI)
        f_minus = BoundaryMeasure([1.0, 2.0], [1.0, 1.0], TWO_PI)
        a, b = remove_common_mass(f_plus, f_minus)
        assert a.s.tolist() == [1.0] and a.mass.tolist() == [1.0]
        assert b.s.tolist() == [2.0] and b.mass.tolist() == [1.0]

    def test_disjoint_unchanged(self):
        f_plus = BoundaryMeasure([1.0], [2.0], TWO_PI)
        f_minus = BoundaryMeasure([2.0], [2.0], TWO_PI)
        a, b = remove_common_mass(f_plus, f_minus)
        assert a.config() == f_plus.config()
        assert b.config() == f_minus.config()

    def test_full_cancellation(self):
        f = BoundaryMeasure([1.0, 2.0], [1.0, 3.0], TWO_PI)
        a, b = remove_common_mass(f, f)
        assert len(a) == 0 and len(b) == 0

    def test_idempotent(self):
        rng = np.random.default_rng(5)
        s = rng.uniform(0, TWO_PI, 20)
        f_plus = BoundaryMeasure(s[:12], rng.uniform(0.1, 2, 12), TWO_PI)
        f_minus = BoundaryMeasure(
            np.concatenate([s[:6], s[12:]]), rng.uniform(0.1, 2, 14), TWO_PI
        )
        a1, b1 = remove_common_mass(f_plus, f_minus)
        a2, b2 = remove_common_mass(a1, b1)
        assert a1.config() == a2.config()
        assert b1.config() == b2.config()

    @pytest.mark.parametrize("plus_at_zero", [True, False])
    def test_cancellation_across_the_seam(self, plus_at_zero):
        # 0 and 2 pi - 1e-13 are one boundary point
        near, far = [0.0, 2.0], [TWO_PI - 1e-13, 3.0]
        if not plus_at_zero:
            near, far = far, near
        a, b = remove_common_mass(
            BoundaryMeasure(near, [1.0, 1.0], TWO_PI), BoundaryMeasure(far, [1.5, 1.0], TWO_PI)
        )
        assert a.config() == [[near[1], 1.0]]
        assert b.config() == sorted([[far[0], 0.5], [far[1], 1.0]])

    def test_seam_jumps_cancel(self):
        # jumps +h at 0 and -h just below 2 pi leave no derivative mass
        g = BoundaryDatum(
            samples=np.array([[1.0, 0.0], [4.0, 0.0]]),
            jumps=np.array([[0.0, 1.0], [TWO_PI - 1e-13, -1.0]]),
            perimeter=TWO_PI,
        )
        f_plus, f_minus = remove_common_mass(*tangential_derivative(g))
        assert len(f_plus) == 0 and len(f_minus) == 0

    def test_difference_preserved(self):
        f_plus = BoundaryMeasure([1.0, 2.0], [2.0, 1.0], TWO_PI)
        f_minus = BoundaryMeasure([1.0, 3.0], [0.5, 2.0], TWO_PI)
        a, b = remove_common_mass(f_plus, f_minus)
        assert a.total_mass - b.total_mass == pytest.approx(
            f_plus.total_mass - f_minus.total_mass
        )


class TestQuadratureAtoms:
    def test_uniform_density(self):
        m = quadrature_atoms(lambda s: np.ones_like(s), (0.0, 1.0), 4, TWO_PI)
        assert np.allclose(m.mass, 0.25)
        assert np.allclose(m.s, [0.125, 0.375, 0.625, 0.875])
        assert np.allclose(m.sublength, 0.25)

    def test_linear_density_mass(self):
        m = quadrature_atoms(lambda s: 2 * s, (0.0, 1.0), 2000, TWO_PI)
        assert m.total_mass == pytest.approx(1.0, abs=1e-7)

    def test_sine_density_mass(self):
        m = quadrature_atoms(np.sin, (0.0, math.pi), 1000, TWO_PI)
        assert m.total_mass == pytest.approx(2.0, abs=1e-5)

    def test_wrapping_interval(self):
        m = quadrature_atoms(
            lambda s: np.ones_like(s), (TWO_PI - 0.5, TWO_PI + 0.5), 10, TWO_PI
        )
        assert m.total_mass == pytest.approx(1.0)
        assert np.all(m.s < TWO_PI)

    def test_negative_density_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            quadrature_atoms(lambda s: -np.ones_like(s), (0.0, 1.0), 4, TWO_PI)

    @pytest.mark.parametrize(
        "density, got",
        [(lambda s: 1.0, r"\(\)"), (lambda s: np.ones((2, 4)), r"\(2, 4\)")],
        ids=["scalar", "wrong-shape"],
    )
    def test_density_must_be_vectorized(self, density, got):
        with pytest.raises(ValueError, match=r"shape \(4,\), got " + got):
            quadrature_atoms(density, (0.0, 1.0), 4, TWO_PI)
