import math

import numpy as np
import pytest

from transportlab.density import (
    GridField,
    deposit_density,
    deposit_partial_density,
    grid_for_domain,
    lp_norm,
    lp_bound_factors,
    read_csv,
    time_factor,
    write_csv,
    write_pgm,
)
from transportlab.geom import ChordCost, EuclideanNorm, LqNorm, disk
from transportlab.measures import BoundaryMeasure
from transportlab.ot import solve_kantorovich

DISK = disk(1.0)
EUC = ChordCost(DISK, EuclideanNorm())
TWO_PI = 2 * math.pi


def measure(s, mass=None, sub=None):
    s = np.atleast_1d(np.asarray(s, float))
    if mass is None:
        mass = np.ones_like(s)
    return BoundaryMeasure(s, mass, TWO_PI, sublength=sub)


def diameter_plan():
    return solve_kantorovich(measure([0.0]), measure([math.pi]), EUC)


def random_plan(seed, n, cost=EUC):
    rng = np.random.default_rng(seed)
    per = cost.domain.perimeter
    f_plus = BoundaryMeasure(rng.uniform(0, per, n), rng.uniform(0.1, 2, n), per)
    w = rng.uniform(0.1, 2, n)
    w *= f_plus.total_mass / w.sum()
    f_minus = BoundaryMeasure(rng.uniform(0, per, n), w, per)
    return solve_kantorovich(f_plus, f_minus, cost)


class TestGrid:
    def test_grid_covers_domain(self):
        g = grid_for_domain(DISK, 64)
        assert g.nx == 64 and g.ny == 64
        assert g.cell == pytest.approx(2.0 / 64)
        x0, y0 = g.origin
        assert x0 <= -1.0 and y0 <= -1.0
        assert x0 + g.nx * g.cell >= 1.0

    def test_centers_shape(self):
        g = grid_for_domain(DISK, 8)
        c = g.centers()
        assert c.shape == (8, 8, 2)
        assert c[0, 0] @ c[0, 0] > c[4, 4] @ c[4, 4]

    def test_bad_values_shape_rejected(self):
        with pytest.raises(ValueError):
            GridField(origin=(0.0, 0.0), cell=1.0, nx=3, ny=2, values=np.zeros((3, 2)))


class TestDeposit:
    def test_partial_integral_half(self):
        g = grid_for_domain(DISK, 128)
        sig = deposit_partial_density(diameter_plan(), 0.5, g)
        assert sig.integral() == pytest.approx(1.0, rel=1e-9)

    def test_full_integral(self):
        g = grid_for_domain(DISK, 128)
        sig = deposit_density(diameter_plan(), g)
        assert sig.integral() == pytest.approx(2.0, rel=1e-9)

    def test_integral_matches_cost_for_anisotropic_norm(self):
        # deposit weight rescales by the norm cost, so mass = tau * cost
        cost = ChordCost(DISK, LqNorm(4.0))
        plan = random_plan(2, 8, cost)
        g = grid_for_domain(DISK, 96)
        for tau in (0.25, 1.0):
            sig = deposit_partial_density(plan, tau, g)
            assert sig.integral() == pytest.approx(tau * plan.cost, rel=1e-9)

    def test_integral_resolution_independent(self):
        plan = random_plan(3, 10)
        for n in (64, 192, 512):
            sig = deposit_density(plan, grid_for_domain(DISK, n))
            assert sig.integral() == pytest.approx(plan.cost, rel=1e-9)

    def test_support_near_segment(self):
        g = grid_for_domain(DISK, 128)
        sig = deposit_partial_density(diameter_plan(), 0.5, g)
        ys, xs = np.nonzero(sig.values)
        centers = g.centers()[ys, xs]
        # first half of the diameter from (1,0) toward (-1,0)
        assert centers[:, 0].min() >= -g.cell
        assert np.abs(centers[:, 1]).max() <= g.cell

    def test_bad_tau_rejected(self):
        g = grid_for_domain(DISK, 16)
        for tau in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                deposit_partial_density(diameter_plan(), tau, g)

    def test_splitting_identity(self):
        # full density = forward half plus reversed-plan half, cell by cell
        plan = random_plan(4, 15)
        g = grid_for_domain(DISK, 128)
        full = deposit_density(plan, g)
        fwd = deposit_partial_density(plan, 0.5, g)
        bwd = deposit_partial_density(plan.reversed(), 0.5, g)
        scale = full.values.max()
        err = np.abs(full.values - fwd.values - bwd.values).max()
        assert err <= 1e-9 * scale


class TestNorms:
    def test_constant_field_norms(self):
        vals = np.full((4, 5), 3.0)
        f = GridField(origin=(0.0, 0.0), cell=0.5, nx=5, ny=4, values=vals)
        area = 20 * 0.25
        assert lp_norm(f, 1) == pytest.approx(3.0 * area)
        assert lp_norm(f, 2) == pytest.approx(3.0 * math.sqrt(area))
        assert lp_norm(f, math.inf) == pytest.approx(3.0)

    def test_field_left_unchanged(self):
        vals = np.array([[0.0, 2.0], [0.5, 0.0]])
        f = GridField(origin=(0.0, 0.0), cell=1.0, nx=2, ny=2, values=vals.copy())
        assert lp_norm(f, 2.5) == np.sum(vals**2.5) ** (1.0 / 2.5)
        assert np.array_equal(f.values, vals)

    def test_p_below_one_rejected(self):
        f = GridField(origin=(0.0, 0.0), cell=1.0, nx=2, ny=2, values=np.ones((2, 2)))
        with pytest.raises(ValueError):
            lp_norm(f, 0.5)

    def test_function_kind_rejected(self):
        f = GridField(
            origin=(0.0, 0.0), cell=1.0, nx=2, ny=2,
            values=np.ones((2, 2)), kind="function",
        )
        with pytest.raises(ValueError):
            lp_norm(f, 2)


class TestTimeFactor:
    def test_p_two_closed_form(self):
        assert time_factor(2.0, 0.5) == pytest.approx(math.log(2.0), rel=1e-12)

    def test_general_closed_form(self):
        # integral of (1-t)^(1-p) from 0 to tau
        assert time_factor(1.5, 1.0) == pytest.approx(2.0, rel=1e-12)
        assert time_factor(3.0, 0.5) == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("p", [2.0 - 1e-12, 2.0 + 1e-12], ids=["below", "above"])
    def test_continuous_at_p_two(self, p):
        # the plain closed form cancels here, 2.1e-5 off relative
        assert abs(time_factor(p, 0.5) - math.log(2.0)) <= 1e-11

    def test_divergence_at_full_time(self):
        assert time_factor(2.0, 1.0) == math.inf
        assert time_factor(4.0, 1.0) == math.inf

    def test_large_and_infinite_p(self):
        # (1 - tau)**(2 - p) leaves the float range at p = 2000, and the
        # integral diverges for an infinite p
        assert time_factor(200.0, 0.5) == pytest.approx((2.0**198 - 1.0) / 198.0, rel=1e-12)
        assert time_factor(2000.0, 0.5) == math.inf
        assert time_factor(math.inf, 0.5) == math.inf
        assert time_factor(math.inf, 1.0) == math.inf

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            time_factor(1.0, 0.5)
        with pytest.raises(ValueError):
            time_factor(2.0, 0.0)


class TestBoundFactors:
    def test_single_pair_data_term(self):
        f_plus = measure([0.0], sub=[0.5])
        f_minus = measure([math.pi], sub=[0.5])
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        ti, da = lp_bound_factors(plan, 1.5, 0.5)
        # (m/sub)^p * sub * D^(2-p) with m=1, sub=1/2, D=2
        assert da == pytest.approx(2.0, rel=1e-12)
        assert ti == pytest.approx(time_factor(1.5, 0.5), rel=1e-12)

    def test_quadratic_data_matches_density_integral(self):
        from transportlab.measures import quadrature_atoms

        n = 4000
        f_minus = quadrature_atoms(np.sin, (0.0, math.pi), n, TWO_PI)
        f_plus = quadrature_atoms(
            lambda s: np.sin(s - math.pi), (math.pi, TWO_PI), n, TWO_PI
        )
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        _, da = lp_bound_factors(plan, 2.0, 0.5)
        # at p=2 the data term is the integral of the squared density
        assert da == pytest.approx(math.pi / 2, rel=1e-4)

    def test_large_p_data_term(self):
        # a short chord of low density: at p = 200 its density power
        # underflows to 0 and its displacement power overflows to inf,
        # and its term, about 8e-145, comes from logarithms; the
        # diameter's term is (1/0.5)^p * 0.5 * 2^(2-p) = 2, and at
        # p = 2000 its powers leave the float range too
        f_plus = measure([0.0, 1.0], mass=[1.0, 1e-3], sub=[0.5, 0.5])
        f_minus = measure([math.pi, 1.01], mass=[1.0, 1e-3], sub=[0.5, 0.5])
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        for p in (200.0, 2000.0):
            assert lp_bound_factors(plan, p, 0.5)[1] == pytest.approx(2.0, rel=1e-12)

    def test_atoms_without_sublength_diverge(self):
        ti, da = lp_bound_factors(diameter_plan(), 2.0, 0.5)
        assert da == math.inf
        assert math.isfinite(ti)

    def test_bound_comparable_to_lp_power(self):
        # the grid lp norm of an atomic plan only tracks the continuum value
        # while cells stay coarser than the atom spacing, so compare there
        from transportlab.instances import smooth_arc_instance

        rng = np.random.default_rng(8)
        f_plus, f_minus = smooth_arc_instance(rng, DISK)
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        tau, p = 0.5, 2.0
        sig = deposit_partial_density(plan, tau, grid_for_domain(DISK, 128))
        ti, da = lp_bound_factors(plan, p, tau)
        assert math.isfinite(da) and da > 0
        ratio = lp_norm(sig, p) ** p / (ti * da)
        assert 0.1 < ratio < 10.0


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: lp_norm(GridField((0.0, 0.0), 1.0, 2, 2, np.ones((2, 2))), math.nan), "be >= 1"),
        (lambda: time_factor(math.nan, 0.5), "exceed 1"),
        (lambda: lp_bound_factors(diameter_plan(), math.nan, 0.5), "exceed 1"),
    ],
    ids=["lp_norm", "time_factor", "lp_bound_factors"],
)
def test_nan_exponent_rejected(call, message):
    with pytest.raises(ValueError, match=f"^p must {message}, got nan$"):
        call()


class TestSerialization:
    def test_csv_roundtrip_exact(self, tmp_path):
        plan = random_plan(6, 7)
        sig = deposit_density(plan, grid_for_domain(DISK, 32))
        path = tmp_path / "density.csv"
        write_csv(sig, path)
        back = read_csv(path)
        assert back.origin == sig.origin
        assert back.cell == sig.cell
        assert back.kind == sig.kind
        assert np.array_equal(back.values, sig.values)

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "junk.csv"
        path.write_text("1,2,3\n")
        with pytest.raises(ValueError):
            read_csv(path)

    def test_pgm_header_and_orientation(self, tmp_path):
        vals = np.zeros((2, 3))
        vals[1, 0] = 1.0  # largest y, smallest x
        f = GridField(origin=(0.0, 0.0), cell=1.0, nx=3, ny=2, values=vals)
        path = tmp_path / "density.pgm"
        write_pgm(f, path)
        raw = path.read_bytes()
        assert raw.startswith(b"P5")
        # top-left pixel of the image is the max-y row
        body = raw.split(b"255\n", 1)[1]
        assert body[0] == 255 and body[3] == 0
