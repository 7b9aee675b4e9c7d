import math
import tracemalloc

import numpy as np
import pytest

from instances import cosine_datum
from transportlab.density import grid_for_domain
from transportlab.geom import EuclideanNorm, LqNorm, QuadraticNorm, disk
from transportlab.leastgrad import (
    gradient_norm_field,
    interior_mask,
    reconstruct_u,
    solve_least_gradient,
    total_variation,
    trace_error,
)
from transportlab.measures import BoundaryDatum, BoundaryMeasure
from transportlab.ot import solve_kantorovich
from transportlab.geom import ChordCost

DISK = disk(1.0)
EUC = ChordCost(DISK, EuclideanNorm())
TWO_PI = 2 * math.pi


def step_datum(height=1.0):
    return BoundaryDatum(
        samples=np.array([[1.0, 0.0], [4.0, 0.0]]),
        jumps=np.array([[0.0, height], [math.pi, -height]]),
        perimeter=TWO_PI,
    )


def random_plan(seed, n):
    rng = np.random.default_rng(seed)
    f_plus = BoundaryMeasure(rng.uniform(0, TWO_PI, n), rng.uniform(0.1, 2, n), TWO_PI)
    w = rng.uniform(0.1, 2, n)
    w *= f_plus.total_mass / w.sum()
    f_minus = BoundaryMeasure(rng.uniform(0, TWO_PI, n), w, TWO_PI)
    return solve_kantorovich(f_plus, f_minus, EUC)


class TestFlow:
    def test_divergence_identity(self):
        # pairing the plan's rays against smooth test functions telescopes
        # to the boundary data: sum m (psi(a) - psi(b)) = <psi, f+> - <psi, f->
        plan = random_plan(2, 20)
        a, b = plan.entry_segments()
        polys = [
            lambda x, y: np.ones_like(x),
            lambda x, y: x,
            lambda x, y: y,
            lambda x, y: x * y,
            lambda x, y: x**2 - 3 * y**2 + 2 * x,
        ]
        src = plan.source_points
        tgt = plan.target_points
        for psi in polys:
            lhs = np.sum(plan.mass * (psi(*a.T) - psi(*b.T)))
            rhs = np.sum(plan.source.mass * psi(*src.T)) - np.sum(
                plan.target.mass * psi(*tgt.T)
            )
            assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


class TestReconstruction:
    def test_single_jump_indicator(self):
        res = solve_least_gradient(
            step_datum(), DISK, EuclideanNorm(), grid_for_domain(DISK, 64)
        )
        g = res.u
        c = g.centers()
        mask = interior_mask(g, DISK)
        off_chord = mask & (np.abs(c[..., 1]) > 2 * g.cell)
        upper = off_chord & (c[..., 1] > 0)
        lower = off_chord & (c[..., 1] < 0)
        assert np.allclose(g.values[upper], 1.0)
        assert np.allclose(g.values[lower], 0.0)
        assert res.cost == pytest.approx(2.0, rel=1e-12)

    def test_scaled_jump(self):
        res = solve_least_gradient(
            step_datum(2.5), DISK, EuclideanNorm(), grid_for_domain(DISK, 48)
        )
        assert res.cost == pytest.approx(5.0, rel=1e-12)
        vals = res.u.values[interior_mask(res.u, DISK)]
        assert vals.max() == pytest.approx(2.5)

    def test_constant_datum(self):
        g = BoundaryDatum(
            samples=np.array([[0.0, 7.0], [3.0, 7.0]]), jumps=None, perimeter=TWO_PI
        )
        res = solve_least_gradient(g, DISK, EuclideanNorm(), grid_for_domain(DISK, 32))
        assert res.plan is None
        assert res.cost == 0.0
        assert np.allclose(res.u.values, 7.0)
        assert res.tv == pytest.approx(0.0, abs=1e-12)

    def test_anchor_choice_irrelevant(self):
        plan = solve_least_gradient(
            step_datum(), DISK, EuclideanNorm(), grid_for_domain(DISK, 48)
        ).plan
        rays = (*plan.entry_segments(), plan.mass)
        grid = grid_for_domain(DISK, 48)
        u0 = reconstruct_u(*rays, step_datum(), grid, DISK, anchor_s=0.5)
        u1 = reconstruct_u(*rays, step_datum(), grid, DISK, anchor_s=4.5)
        assert np.allclose(u0.values, u1.values, atol=1e-12)

    def test_cosine_matches_linear_function(self):
        # boundary values cos(s) = x extend to u(x, y) = x
        res = solve_least_gradient(
            cosine_datum(800), DISK, EuclideanNorm(), grid_for_domain(DISK, 256)
        )
        mask = interior_mask(res.u, DISK)
        c = res.u.centers()
        err = np.abs(res.u.values - c[..., 0])[mask]
        assert err.max() <= 0.05
        assert res.cost == pytest.approx(math.pi, rel=1e-2)


class TestVariation:
    def test_tv_of_linear_function(self):
        res = solve_least_gradient(
            cosine_datum(800), DISK, EuclideanNorm(), grid_for_domain(DISK, 512)
        )
        # |grad u| = 1 on the disk, area pi
        assert res.tv == pytest.approx(math.pi, rel=0.02)
        assert res.trace_err <= 0.05

    def test_tv_of_step(self):
        res = solve_least_gradient(
            step_datum(1.5), DISK, EuclideanNorm(), grid_for_domain(DISK, 256)
        )
        # jump of height 1.5 across a chord of length 2
        assert res.tv == pytest.approx(3.0, rel=0.05)

    def test_tv_close_to_transport_cost(self):
        res = solve_least_gradient(
            cosine_datum(800), DISK, EuclideanNorm(), grid_for_domain(DISK, 512)
        )
        assert res.tv == pytest.approx(res.cost, rel=0.02)

    def test_anisotropic_norm_changes_cost(self):
        from transportlab.geom import QuadraticNorm

        iso = solve_least_gradient(step_datum(), DISK, EuclideanNorm(), grid_for_domain(DISK, 32))
        phi = QuadraticNorm(np.array([[1.0, 0.0], [0.0, 4.0]]))
        aniso = solve_least_gradient(step_datum(), DISK, phi, grid_for_domain(DISK, 32))
        # rotation maps the horizontal chord onto the doubled axis
        assert iso.cost == pytest.approx(2.0, rel=1e-12)
        assert aniso.cost == pytest.approx(4.0, rel=1e-12)

    def test_gradient_field_kind_checks(self):
        res = solve_least_gradient(step_datum(), DISK, EuclideanNorm(), grid_for_domain(DISK, 32))
        gf = gradient_norm_field(res.u, EuclideanNorm(), DISK)
        assert gf.kind == "density"
        with pytest.raises(ValueError):
            gradient_norm_field(gf, EuclideanNorm(), DISK)

    @pytest.mark.parametrize(
        "phi", [EuclideanNorm(), LqNorm(3.0), QuadraticNorm([[2.0, 0.3], [0.3, 1.0]])],
        ids=["euclidean", "lq3", "quadratic"],
    )
    def test_gradient_field_is_phi_of_differences(self, phi):
        # the forward differences over h, phi of them, zero outside; u
        # is left as it was
        domain = disk(1.0)
        u = grid_for_domain(domain, 40).copy_empty(kind="function")
        u.values[:] = np.random.default_rng(2).normal(size=u.values.shape)
        before = u.values.copy()
        gx = np.zeros_like(before)
        gy = np.zeros_like(before)
        gx[:, :-1] = (before[:, 1:] - before[:, :-1]) / u.cell
        gy[:-1, :] = (before[1:, :] - before[:-1, :]) / u.cell
        want = phi(gx, gy)
        want[~domain.contains(u.centers())] = 0.0
        gf = gradient_norm_field(u, phi, domain)
        assert np.array_equal(gf.values, want)
        assert (gf.origin, gf.cell, gf.nx, gf.ny) == (u.origin, u.cell, u.nx, u.ny)
        assert np.array_equal(u.values, before)

    @pytest.mark.parametrize(
        "phi", [EuclideanNorm(), QuadraticNorm([[2.0, 0.3], [0.3, 1.0]])],
        ids=["euclidean", "quadratic"],
    )
    @pytest.mark.parametrize("warm", [False, True], ids=["new-grid", "kept-mask"])
    def test_gradient_field_peak(self, phi, warm):
        # the two differences, the norm's temporaries and the mask: at
        # most five field-sized arrays, whether or not the domain has the
        # grid's mask yet
        domain = disk(1.0)
        u = grid_for_domain(domain, 512).copy_empty(kind="function")
        u.values[:] = np.random.default_rng(4).normal(size=u.values.shape)
        if warm:
            interior_mask(u, domain)
        tracemalloc.start()
        try:
            gradient_norm_field(u, phi, domain)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * u.values.nbytes

    def test_total_variation_additive_in_height(self):
        grid = grid_for_domain(DISK, 128)
        r1 = solve_least_gradient(step_datum(1.0), DISK, EuclideanNorm(), grid=grid)
        r2 = solve_least_gradient(step_datum(2.0), DISK, EuclideanNorm(), grid=grid)
        assert total_variation(r2.u, EuclideanNorm(), DISK) == pytest.approx(
            2 * total_variation(r1.u, EuclideanNorm(), DISK), rel=1e-9
        )


class TestTrace:
    def test_constant_trace_exact(self):
        g = BoundaryDatum(
            samples=np.array([[0.0, 3.0], [1.0, 3.0]]), jumps=None, perimeter=TWO_PI
        )
        res = solve_least_gradient(g, DISK, EuclideanNorm(), grid_for_domain(DISK, 32))
        assert trace_error(res.u, g, DISK) == pytest.approx(0.0, abs=1e-12)

    def test_interior_mask_excludes_outside(self):
        grid = grid_for_domain(DISK, 32)
        mask = interior_mask(grid, DISK)
        c = grid.centers()
        r = np.hypot(c[..., 0], c[..., 1])
        assert not mask[r > 1.0].any()
        assert mask[r < 0.9].all()

