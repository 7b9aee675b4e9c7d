import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from transportlab.errors import InfeasibleError
from transportlab.measures import (
    BoundaryDatum,
    BoundaryMeasure,
    quadrature_atoms,
    remove_common_mass,
    tangential_derivative,
)

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

    def test_duplicate_samples_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            BoundaryDatum(
                samples=np.array([[1.0, 0.0], [1.0, 2.0]]),
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
