import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.interpolate import CubicSpline

from oracles import dense_cost_matrix, newton_param_of_arclength
from transportlab import cli, geom
from transportlab.errors import SchemaError
from transportlab.geom import (
    ChordCost,
    EuclideanNorm,
    LqNorm,
    QuadraticNorm,
    disk,
    ellipse,
    radial,
)
from transportlab.instances import mirror_cosine_measures


@pytest.mark.parametrize("bad", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "build",
    [disk, lambda x: ellipse(x, 1.0), lambda x: ellipse(1.0, x), lambda x: radial(lambda t: x)],
    ids=["disk", "ellipse-a", "ellipse-b", "radial"],
)
def test_non_finite_size_rejected(build, bad):
    with pytest.raises(ValueError, match=f"positive and finite, got .*{bad}"):
        build(bad)


class TestDisk:
    def test_basics(self):
        d = disk(2.0)
        assert d.perimeter == pytest.approx(4 * math.pi)
        assert d.diameter == 4.0
        p = d.boundary_point([0.0, math.pi])  # s = R*theta, so theta = 0, pi/2
        assert np.allclose(p[0], [2.0, 0.0])
        assert np.allclose(p[1], [0.0, 2.0])

    def test_contains(self):
        d = disk(1.0)
        assert d.contains([[0.0, 0.0], [0.999, 0.0], [1.2, 0.0]]).tolist() == [
            True,
            True,
            False,
        ]

    def test_normal_points_inward(self):
        d = disk(1.0)
        s = np.linspace(0, d.perimeter, 17, endpoint=False)
        p, n = d.frame(s)
        assert np.array_equal(p, d.boundary_point(s))
        assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0)
        assert d.contains(p + 1e-3 * n).all()


class TestEllipse:
    def test_perimeter_against_quadrature(self):
        e = ellipse(2.0, 1.0)
        ref, _ = quad(
            lambda t: math.sqrt((2 * math.sin(t)) ** 2 + math.cos(t) ** 2),
            0.0,
            2 * math.pi,
            limit=200,
        )
        assert e.perimeter == pytest.approx(ref, rel=1e-10)

    def test_quarter_arclength_lands_on_minor_vertex(self):
        e = ellipse(2.0, 1.0)
        quarter, _ = quad(
            lambda t: math.sqrt((2 * math.sin(t)) ** 2 + math.cos(t) ** 2),
            0.0,
            math.pi / 2,
            limit=200,
        )
        p = e.boundary_point(quarter)
        assert np.allclose(p[0], [0.0, 1.0], atol=1e-9)

    def test_vertex_curvatures(self):
        e = ellipse(2.0, 1.0)
        # the inward normal turns at the rate kappa per unit arclength:
        # kappa = a/b^2 at (a, 0) and b/a^2 at (0, b)
        h = 1e-4
        for s, kappa in ((0.0, 2.0), (e.perimeter / 4, 0.25)):
            n = e.frame([s - h, s + h])[1]
            assert np.linalg.norm(n[1] - n[0]) / (2 * h) == pytest.approx(kappa, rel=1e-6)

    def test_arclength_roundtrip(self):
        # the inverted parameters, integrated back by adaptive quadrature
        for dom in (
            ellipse(2.0, 1.0),
            ellipse(5.0, 1.0),
            radial(lambda t: 1.0 + 0.05 * math.cos(3 * t)),
        ):
            s = np.linspace(0.0, dom.perimeter, 65, endpoint=False)
            t = dom._table.param_of_arclength(s)
            speed = lambda x: float(dom._speed(np.array([x]))[0])
            pieces = [quad(speed, t0, t1, epsabs=1e-14, epsrel=1e-14)[0] for t0, t1 in zip(t, t[1:])]
            back = np.concatenate([[0.0], np.cumsum(pieces)])
            assert np.max(np.abs(back - s)) < 1e-10 * dom.perimeter

    def test_normal_points_inward(self):
        e = ellipse(2.0, 1.0)
        s = np.linspace(0, e.perimeter, 33, endpoint=False)
        p, n = e.frame(s)
        assert np.array_equal(p, e.boundary_point(s))
        assert np.allclose(np.hypot(n[:, 0], n[:, 1]), 1.0)
        assert e.contains(p + 1e-4 * n).all()


class TestNewtonStop:
    """A point stops at its Newton fixed point and keeps the t that all
    4 steps give (``oracles.newton_param_of_arclength``), bit for bit."""

    @pytest.mark.parametrize(
        "dom",
        [ellipse(2.0, 1.0), ellipse(1.5, 1.0), radial(lambda t: 1.0 + 0.05 * math.cos(3 * t))],
        ids=["ellipse-2", "ellipse-1.5", "radial"],
    )
    def test_matches_four_steps(self, dom):
        table = dom._table
        total = table.total
        rng = np.random.default_rng(5)
        s = np.concatenate([
            [0.0, -0.0, total, -total, 2.5 * total, -1.0, -1e-300, np.nextafter(total, 0.0)],
            table.cumulative[::97],  # knots
            rng.uniform(-total, 2.0 * total, 3000),
        ])
        assert np.array_equal(table.param_of_arclength(s), newton_param_of_arclength(table, s))
        for x in s[:8]:
            assert np.array_equal(table.param_of_arclength(x), newton_param_of_arclength(table, x))


class _CubicSplineProfile:
    """Periodic CubicSpline through the same samples, as radial domains
    once built it: the reference for the FFT spline."""

    def __init__(self, vals, period):
        theta = np.linspace(0.0, period, len(vals) + 1)
        self.spline = CubicSpline(theta, np.append(vals, vals[0]), bc_type="periodic")

    def __call__(self, t):
        return self.spline(t), self.spline(t, 1), self.spline(t, 2)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


class TestRadial:
    @pytest.mark.parametrize(
        "rho",
        [
            lambda t: 1.0 + 0.05 * math.cos(3 * t),
            lambda t: 1.0 + 0.1 * math.sin(t) + 0.02 * math.cos(5 * t),
            lambda t: 1.0,
        ],
        ids=["flower", "two-mode", "constant"],
    )
    def test_matches_periodic_cubicspline(self, rho, monkeypatch):
        dom = radial(rho)
        monkeypatch.setattr(geom, "_PeriodicCubic", _CubicSplineProfile)
        ref = radial(rho)
        s = np.linspace(0.0, dom.perimeter, 1001, endpoint=False)
        assert dom.perimeter == pytest.approx(ref.perimeter, rel=1e-13, abs=0)
        (p, n), (ref_p, ref_n) = dom.frame(s), ref.frame(s)
        assert np.array_equal(p, dom.boundary_point(s))
        assert _rel(p, ref_p) <= 1e-13
        assert _rel(n, ref_n) <= 1e-12
        # second differences at h = 2 pi / 4096 carry ~1e-10 of roundoff
        # in either spline, so the convexity check's curvature agrees
        # only to that level
        th = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        assert _rel(dom._curvature(th), ref._curvature(th)) <= 1e-9

    def test_circle_profile(self):
        r = radial(lambda t: 1.0)
        assert r.perimeter == pytest.approx(2 * math.pi, rel=1e-8)
        th = np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)
        assert np.max(np.abs(r._curvature(th) - 1.0)) < 1e-6

    def test_flower_profile_convex(self):
        r = radial(lambda t: 1.0 + 0.05 * math.cos(3 * t))
        assert r._curvature(np.linspace(0.0, 2 * math.pi, 4096, endpoint=False)).min() > 0
        s = np.linspace(0, r.perimeter, 50, endpoint=False)
        p, n = r.frame(s)
        assert np.array_equal(p, r.boundary_point(s))
        assert r.contains(p + 1e-4 * n).all()

    def test_nonconvex_profile_rejected(self):
        with pytest.raises(ValueError, match="not uniformly convex"):
            radial(lambda t: 1.0 + 0.3 * math.cos(3 * t))

    def test_nonpositive_profile_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            radial(lambda t: math.cos(t))


QUAD = QuadraticNorm([[2.0, 0.3], [0.3, 1.0]])


class TestNorms:
    @pytest.mark.parametrize(
        "shape", [(7,), (3, 5), (80, 80), (300, 280), (1000, 1000)], ids=str
    )
    def test_quadratic_matches_einsum(self, shape):
        rng = np.random.default_rng(3)
        v = rng.normal(size=(*shape, 2))
        ref = np.sqrt(np.einsum("...i,ij,...j->...", v, QUAD.a, v))
        assert np.array_equal(QUAD(v[..., 0], v[..., 1]), ref)

    def test_quadratic_matrix_peak(self):
        # the cost matrix hands each norm one row block at a time, so the
        # quadratic norm's temporaries are block-sized and its cost
        # matrix peaks as the euclidean one
        f_plus, f_minus = mirror_cosine_measures(1000)
        peaks = []
        for norm in (EuclideanNorm(), QUAD):
            cost = ChordCost(disk(1.0), norm)
            tracemalloc.start()
            try:
                cost.matrix(f_plus.s, f_minus.s)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= peaks[0] + 1e6

    @pytest.mark.parametrize(
        "norm", [EuclideanNorm(), LqNorm(3.0), QUAD], ids=["euclid", "lq3", "quad"]
    )
    def test_components_untouched(self, norm):
        dx = np.array([3.0, -1.0, 0.5])
        dy = np.array([-4.0, 2.0, 0.0])
        want = norm(dx.copy(), dy.copy())
        assert np.array_equal(norm(dx, dy), want)
        assert dx.tolist() == [3.0, -1.0, 0.5] and dy.tolist() == [-4.0, 2.0, 0.0]
        assert norm(3.0, -4.0) == want[0]

    def test_lq_requires_open_range(self):
        with pytest.raises(ValueError):
            LqNorm(1.0)
        with pytest.raises(ValueError):
            LqNorm(math.inf)

    def test_quadratic_requires_spd(self):
        with pytest.raises(ValueError):
            QuadraticNorm([[1.0, 2.0], [2.0, 1.0]])  # indefinite
        with pytest.raises(ValueError):
            QuadraticNorm([[1.0, 0.5], [0.0, 1.0]])  # asymmetric

    @pytest.mark.parametrize(
        "norm",
        [EuclideanNorm(), LqNorm(2.5), QuadraticNorm([[2.0, 0.3], [0.3, 1.0]])],
        ids=["euclid", "lq2.5", "quad"],
    )
    def test_rotated_is_quarter_turn(self, norm):
        rng = np.random.default_rng(1)
        v = rng.normal(size=(20, 2))
        # R_{-pi/2} (x, y) = (y, -x)
        assert np.allclose(norm.rotated()(v[:, 0], v[:, 1]), norm(v[:, 1], -v[:, 0]))

    @pytest.mark.parametrize(
        "norm",
        [EuclideanNorm(), LqNorm(2.5), QuadraticNorm([[2.0, 0.3], [0.3, 1.0]])],
        ids=["euclid", "lq2.5", "quad"],
    )
    def test_rotated_twice_is_identity(self, norm):
        rng = np.random.default_rng(2)
        v = rng.normal(size=(20, 2))
        assert np.allclose(norm.rotated().rotated()(v[:, 0], v[:, 1]), norm(v[:, 0], v[:, 1]))

    @given(
        x=st.floats(-50, 50),
        y=st.floats(-50, 50),
        u=st.floats(-50, 50),
        w=st.floats(-50, 50),
        c=st.floats(-10, 10),
        q=st.floats(1.1, 8.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_norm_axioms(self, x, y, u, w, c, q):
        for norm in (EuclideanNorm(), LqNorm(q), QuadraticNorm([[2.0, 0.3], [0.3, 1.0]])):
            na, nb, nab = norm(x, y), norm(u, w), norm(x + u, y + w)
            assert nab <= na + nb + 1e-9 * (1 + na + nb)
            assert norm(c * x, c * y) == pytest.approx(abs(c) * na, rel=1e-9, abs=1e-12)


class TestChordCost:
    def test_diameter_chord(self):
        cost = ChordCost(disk(1.0), EuclideanNorm())
        assert cost.matrix([0.0], [math.pi])[0, 0] == pytest.approx(2.0)

    def test_matrix_matches_pointwise(self):
        dom = ellipse(2.0, 1.0)
        sa = np.array([0.0, 1.0, 2.5])
        sb = np.array([3.0, 4.5])
        p, q = dom.boundary_point(sa), dom.boundary_point(sb)
        for norm in (EuclideanNorm(), LqNorm(3.0), QUAD):
            M = ChordCost(dom, norm).matrix(sa, sb)
            for i in range(len(sa)):
                for j in range(len(sb)):
                    dx, dy = p[i] - q[j]
                    assert M[i, j] == pytest.approx(float(norm(dx, dy)), rel=1e-15)

    @pytest.mark.parametrize(
        "norm", [EuclideanNorm(), LqNorm(3.0), LqNorm(1.7), QUAD],
        ids=["euclid", "l3", "l1.7", "quad"],
    )
    @pytest.mark.parametrize(
        "shape",
        # one entry; one row wider than a block; 3 full blocks of 54 rows
        # and a block of 7; no rows
        [(1, 1), (1, geom._BLOCK + 3), (3 * (geom._BLOCK // 300) + 7, 300), (0, 4)],
        ids=str,
    )
    def test_row_blocks_match_dense(self, norm, shape):
        dom = ellipse(2.0, 1.0)
        rng = np.random.default_rng(6)
        sa, sb = (rng.uniform(0.0, dom.perimeter, k) for k in shape)
        cost = ChordCost(dom, norm)
        got = cost.matrix(sa, sb)
        assert got.shape == shape
        assert np.array_equal(got, dense_cost_matrix(cost, sa, sb))
        points = dom.boundary_point(sa), dom.boundary_point(sb)
        assert np.array_equal(cost.matrix(*points), got)

    @pytest.mark.parametrize(
        "norm", [EuclideanNorm(), LqNorm(3.0), QUAD], ids=["euclid", "l3", "quad"]
    )
    def test_matrix_is_the_one_large_array(self, norm):
        # from points, the matrix is the only n x m array allocated: the
        # differences live in row blocks of about geom._BLOCK elements
        f_plus, f_minus = mirror_cosine_measures(1000)
        cost = ChordCost(disk(1.0), norm)
        p, q = cost.domain.boundary_point(f_plus.s), cost.domain.boundary_point(f_minus.s)
        tracemalloc.start()
        try:
            C = cost.matrix(p, q)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= C.nbytes + (1 << 20)


class TestConfig:
    # a radial domain lives in code alone: no problem file names one,
    # and no report echoes one
    def test_radial_not_serializable(self, tmp_path):
        path = tmp_path / "problem.json"
        path.write_text('{"domain": {"kind": "radial"}, "f_plus": [], "f_minus": []}')
        with pytest.raises(SchemaError):
            cli.load_problem(str(path))

    def test_radial_config_refused(self):
        assert "RadialDomain" not in {name for name, _ in cli._KINDS["domain"].values()}
        with pytest.raises(SchemaError, match="code-only"):
            cli._check_kind({"domain": {"kind": "radial"}}, "domain")


def test_gauss_legendre_literals_are_exact():
    nodes, weights = np.polynomial.legendre.leggauss(12)
    assert np.array_equal(geom._GL_NODES, nodes)
    assert np.array_equal(geom._GL_WEIGHTS, weights)
