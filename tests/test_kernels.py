"""Kernel tests.  Where a jit kernel has a numpy fallback the two must
agree (bit-identical for the simplex, tight float agreement for the
geometric accumulators); the crossing field is compared cell by cell
with the scan-path kernel it replaced, kept here as the reference."""

import math

import numpy as np
import pytest

from transportlab import kernels, simplex
from transportlab.density import grid_for_domain
from transportlab.geom import EuclideanNorm, disk, ellipse, radial
from transportlab.leastgrad import _generic_anchor, interior_mask, solve_least_gradient
from transportlab.measures import BoundaryDatum


def random_segments(rng, n, lo=-1.0, hi=1.0):
    a = rng.uniform(lo, hi, (n, 2))
    b = rng.uniform(lo, hi, (n, 2))
    keep = np.hypot(*(b - a).T) > 1e-6
    return a[keep], b[keep]


class TestDeposit:
    def test_hand_computed_cells(self):
        values = np.zeros((4, 4))
        a = np.array([[0.25, 0.5]])
        e = np.array([[2.75, 0.5]])
        lam = np.array([2.0])
        kernels.deposit_segments(values, (0.0, 0.0), 1.0, a, e, lam)
        assert values[0, 0] == pytest.approx(1.5)
        assert values[0, 1] == pytest.approx(2.0)
        assert values[0, 2] == pytest.approx(1.5)
        assert values.sum() == pytest.approx(5.0)

    def test_backends_agree(self):
        rng = np.random.default_rng(0)
        a, b = random_segments(rng, 60)
        lam = rng.uniform(0.1, 3.0, len(a))
        args = (-1.0, -1.0, 2.0 / 64)
        v_nb = np.zeros((64, 64))
        v_np = np.zeros((64, 64))
        kernels._deposit_nb(v_nb, *args, a[:, 0], a[:, 1], b[:, 0], b[:, 1], lam)
        kernels._deposit_np(v_np, *args, a[:, 0], a[:, 1], b[:, 0], b[:, 1], lam)
        scale = v_nb.max()
        assert np.allclose(v_nb, v_np, atol=1e-12 * scale, rtol=1e-12)

    def test_mass_conserved(self):
        rng = np.random.default_rng(1)
        a, b = random_segments(rng, 40, -0.9, 0.9)
        lam = rng.uniform(0.1, 3.0, len(a))
        values = np.zeros((97, 97))
        cell = 2.0 / 97
        kernels.deposit_segments(values, (-1.0, -1.0), cell, a, b, lam)
        expect = np.sum(lam * np.hypot(*(b - a).T))
        assert values.sum() * cell * cell == pytest.approx(expect, rel=1e-12)

    def test_degenerate_segment_ignored(self):
        values = np.zeros((8, 8))
        a = np.array([[0.5, 0.5]])
        kernels.deposit_segments(values, (0.0, 0.0), 1.0, a, a.copy(), np.array([5.0]))
        assert values.sum() == 0.0


def _reference_legs(p0, pts, a, b, mass):
    """Scan-path crossing sums for a block of targets, plus the pieces
    the endpoint-hit test reuses."""
    d = b - a
    rx = pts[:, 0] - p0[0]
    ry = pts[:, 1] - p0[1]
    d1 = d[:, 0] * (p0[1] - a[:, 1]) - d[:, 1] * (p0[0] - a[:, 0])
    d2 = d[:, 0, None] * (pts[None, :, 1] - a[:, 1, None]) - d[:, 1, None] * (
        pts[None, :, 0] - a[:, 0, None]
    )
    wax = a[:, 0, None] - p0[0]
    way = a[:, 1, None] - p0[1]
    wbx = b[:, 0, None] - p0[0]
    wby = b[:, 1, None] - p0[1]
    d3 = rx[None, :] * way - ry[None, :] * wax
    d4 = rx[None, :] * wby - ry[None, :] * wbx
    straddle_seg = ((d1[:, None] > 0) & (d2 < 0)) | ((d1[:, None] < 0) & (d2 > 0))
    straddle_ray = ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    s = d[:, 0, None] * ry[None, :] - d[:, 1, None] * rx[None, :]
    contrib = np.where(s > 0, -mass[:, None], mass[:, None])
    acc = np.sum(contrib * (straddle_seg & straddle_ray), axis=0)
    return acc, (rx, ry, wax, way, wbx, wby, d3, d4)


def reference_crossing_field(centers, anchor, a, b, mass, eps_hit, detour):
    """The general scan-path kernel that the half-plane sweep replaced.

    It runs a segment-intersection test on every (center, segment) pair;
    paths passing within ``eps_hit`` of a segment endpoint take a two-leg
    detour through a waypoint shifted by ``detour`` off the midpoint.
    Centers are an (n, 2) array; the result has shape (n,).
    """
    p0 = np.asarray(anchor, dtype=float)
    acc, (rx, ry, wax, way, wbx, wby, d3, d4) = _reference_legs(p0, centers, a, b, mass)
    rlen = np.hypot(rx, ry)
    tol_c = eps_hit * rlen
    hi_t = rlen * rlen + tol_c
    dta = wax * rx[None, :] + way * ry[None, :]
    dtb = wbx * rx[None, :] + wby * ry[None, :]
    hit_a = (np.abs(d3) <= tol_c) & (dta >= -tol_c) & (dta <= hi_t)
    hit_b = (np.abs(d4) <= tol_c) & (dtb >= -tol_c) & (dtb <= hi_t)
    out = acc.copy()
    rn = np.where(rlen > 0, rlen, 1.0)
    for t in np.nonzero((hit_a | hit_b).any(axis=0))[0]:
        cpt = centers[t]
        wpt = 0.5 * (p0 + cpt) + detour * np.array(
            [-(cpt[1] - p0[1]), cpt[0] - p0[0]]
        ) / rn[t]
        acc1, _ = _reference_legs(p0, wpt[None, :], a, b, mass)
        acc2, _ = _reference_legs(wpt, cpt[None, :], a, b, mass)
        out[t] = acc1[0] + acc2[0]
    return out


def smooth_datum(domain, n, jumps=None):
    """Boundary values of x + y**2 / 2 sampled at n arclengths."""
    s = np.linspace(0.0, domain.perimeter, n, endpoint=False)
    p = domain.boundary_point(s)
    return BoundaryDatum(
        samples=np.stack([s, p[:, 0] + 0.5 * p[:, 1] ** 2], axis=1),
        jumps=jumps,
        perimeter=domain.perimeter,
    )


def tensor_centers(xs, ys):
    out = np.empty((len(ys), len(xs), 2))
    out[..., 0] = np.asarray(xs, dtype=float)[None, :]
    out[..., 1] = np.asarray(ys, dtype=float)[:, None]
    return out


class TestCrossingField:
    """The half-plane sweep against the scan-path reference, cell by cell."""

    def _compare(self, centers, inside, anchor, normal, a, b, mass):
        field = kernels.crossing_field(centers, anchor, a, b, mass, inside, normal)
        ref = reference_crossing_field(
            centers.reshape(-1, 2), anchor, a, b, mass, eps_hit=2e-12, detour=2e-9
        ).reshape(field.shape)
        assert field.shape == inside.shape
        assert np.abs(field - ref).max() <= 1e-12 * mass.sum()
        return field

    def _compare_on_grid(self, domain, a, b, mass, anchor_s, n):
        grid = grid_for_domain(domain, n)
        anchor = domain.boundary_point(anchor_s).reshape(2)
        normal = domain.inward_normal(anchor_s).reshape(2)
        inside = interior_mask(grid, domain)
        assert inside.any() and not inside.all()
        return self._compare(grid.centers(), inside, anchor, normal, a, b, mass)

    def test_single_crossing_sign(self):
        # upward disk chord; paths from the anchor at (-1, 0) cross it left
        # to right and add +mass, inside and outside the disk alike
        a = np.array([[0.0, -1.0]])
        b = np.array([[0.0, 1.0]])
        mass = np.array([2.5])
        centers = tensor_centers([-0.5, 0.5, 1.5], [0.0])
        inside = np.array([[True, True, False]])
        field = self._compare(
            centers, inside, np.array([-1.0, 0.0]), np.array([1.0, 0.0]), a, b, mass
        )
        assert field.tolist() == [[0.0, 2.5, 2.5]]

    @pytest.mark.parametrize(
        "domain",
        [
            disk(1.0),
            ellipse(2.0, 1.0),
            radial(lambda t: 1.0 + 0.05 * math.cos(3 * t)),
        ],
        ids=["disk", "ellipse", "radial"],
    )
    def test_matches_reference_on_real_plans(self, domain):
        # a smooth datum plus a jump pair: the jump atoms send fans of
        # rays that share an endpoint
        per = domain.perimeter
        jumps = np.array([[0.1 * per, 0.8], [0.55 * per, -0.8]])
        for g in (smooth_datum(domain, 160), smooth_datum(domain, 160, jumps)):
            flow = solve_least_gradient(g, domain, EuclideanNorm(), grid_n=8).flow
            assert len(flow) > 50
            for s0 in (0.0, 0.37 * per):
                s = _generic_anchor(s0, flow, domain, clear=1e-8 * domain.diameter)
                self._compare_on_grid(domain, flow.a, flow.b, flow.mass, s, 64)

    def test_horizontal_and_vertical_rays(self):
        dom = disk(1.0)
        h, k = math.sqrt(1.0 - 0.3**2), math.sqrt(1.0 - 0.45**2)
        a = np.array([[-h, 0.3], [0.3, h], [k, -0.45], [-0.45, -k]])
        b = np.array([[h, 0.3], [0.3, -h], [-k, -0.45], [-0.45, k]])
        mass = np.array([1.0, 0.5, 2.0, 0.25])
        for s0 in (0.2, 2.0, 4.0, 5.5):
            self._compare_on_grid(dom, a, b, mass, s0, 48)

    def test_fans_sharing_an_endpoint(self):
        dom = ellipse(2.0, 1.0)
        per = dom.perimeter
        hub = dom.boundary_point(0.1 * per)
        rim = dom.boundary_point(per * np.linspace(0.3, 0.8, 7))
        # one fan out of the hub and one fan into it
        a = np.concatenate([np.repeat(hub, 4, axis=0), rim[4:]])
        b = np.concatenate([rim[:4], np.repeat(hub, 3, axis=0)])
        mass = np.linspace(0.2, 1.4, 7)
        for s0 in (0.0, 0.6 * per, 0.9 * per):
            self._compare_on_grid(dom, a, b, mass, s0, 50)

    def test_center_on_ray_line_is_right_continuous(self):
        # centers on a ray's line take the value just beyond it in +x
        # (in +y for horizontal rays); the scan path counts no crossing
        # there, so the reference keeps the anchor side's value instead
        anchor = np.array([-1.0, 0.0])
        normal = np.array([1.0, 0.0])
        centers = tensor_centers([-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5])
        inside = np.ones((3, 3), dtype=bool)
        up = (np.array([[0.0, -1.0]]), np.array([[0.0, 1.0]]))
        field = kernels.crossing_field(centers, anchor, *up, np.array([1.0]), inside, normal)
        assert field.tolist() == [[0.0, 1.0, 1.0]] * 3
        down = (up[1], up[0])
        field = kernels.crossing_field(centers, anchor, *down, np.array([1.0]), inside, normal)
        assert field.tolist() == [[0.0, -1.0, -1.0]] * 3
        # a horizontal ray through the middle row, pointing in -x: +y is
        # its right side, the anchor lies on its line's extension
        anchor = np.array([0.0, -1.0])
        normal = np.array([0.0, 1.0])
        west = (np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        field = kernels.crossing_field(centers, anchor, *west, np.array([1.0]), inside, normal)
        assert field.tolist() == [[0.0] * 3, [1.0] * 3, [1.0] * 3]

    def test_path_through_endpoint_crosses_nothing_there(self):
        # the path from (-1, 0) to (1.5, 0) leaves the disk through the
        # ray's endpoint (1, 0) and does not cross the ray; the one to
        # (1.5, 0.01) leaves just above it and crosses from right to left
        a = np.array([[0.0, 1.0]])
        b = np.array([[1.0, 0.0]])
        centers = tensor_centers([0.5, 1.5], [0.0, 0.01])
        inside = np.array([[True, False], [True, False]])
        field = kernels.crossing_field(
            centers, np.array([-1.0, 0.0]), a, b, np.array([1.0]), inside,
            np.array([1.0, 0.0]),
        )
        assert field.tolist() == [[0.0, 0.0], [0.0, -1.0]]


class TestCrossingPairs:
    def _both(self, a, b, tol=1e-10):
        res = []
        for impl in (kernels._crossing_pairs_nb, kernels._crossing_pairs_np):
            i, j = impl(
                np.ascontiguousarray(a[:, 0]),
                np.ascontiguousarray(a[:, 1]),
                np.ascontiguousarray(b[:, 0]),
                np.ascontiguousarray(b[:, 1]),
                tol,
            )
            res.append(set(zip(np.asarray(i).tolist(), np.asarray(j).tolist())))
        return res

    def test_x_crossing(self):
        a = np.array([[-1.0, -1.0], [-1.0, 1.0]])
        b = np.array([[1.0, 1.0], [1.0, -1.0]])
        nb, npy = self._both(a, b)
        assert nb == npy == {(0, 1)}

    def test_shared_endpoint_excluded(self):
        a = np.array([[0.0, 0.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        nb, npy = self._both(a, b)
        assert nb == npy == set()

    def test_t_junction_excluded(self):
        a = np.array([[-1.0, 0.0], [0.0, 0.0]])
        b = np.array([[1.0, 0.0], [0.0, 1.0]])
        nb, npy = self._both(a, b)
        assert nb == npy == set()

    def test_collinear_overlap_counted(self):
        a = np.array([[0.0, 0.0], [1.0, 0.0]])
        b = np.array([[2.0, 0.0], [3.0, 0.0]])
        nb, npy = self._both(a, b)
        assert nb == npy == {(0, 1)}

    def test_backends_agree_random(self):
        rng = np.random.default_rng(3)
        a, b = random_segments(rng, 80)
        nb, npy = self._both(a, b)
        assert nb == npy
        assert len(nb) > 0  # dense random segments do cross


class TestSimplexCores:
    def _instance(self, rng, n, m):
        C = rng.uniform(0.0, 3.0, (n, m))
        a = rng.uniform(0.1, 2.0, n)
        b = rng.uniform(0.1, 2.0, m)
        b *= a.sum() / b.sum()
        return np.ascontiguousarray(C), a, b

    def test_cores_bit_identical(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(2, 30))
            C, a, b = self._instance(rng, n, m)
            bi0, bj0, f0 = simplex.northwest_basis(a, b)
            tol = 1e-12 * (1.0 + float(np.abs(C).max()))
            theta_tol = 1e-14 * (1.0 + float(max(a.max(), b.max())))
            cap = 400 * (n + m) + 200000
            state = []
            for core in (simplex._solve_core_nb, simplex._solve_core_np):
                bi, bj, f = bi0.copy(), bj0.copy(), f0.copy()
                u, v = np.zeros(n), np.zeros(m)
                status, iters = core(C, bi, bj, f, u, v, tol, theta_tol, cap)
                assert status == 0
                state.append((iters, bi, bj, f, u, v))
            it_nb, *nb = state[0]
            it_np, *npy = state[1]
            assert it_nb == it_np, f"trial {trial}"
            for x, y in zip(nb, npy):
                assert np.array_equal(x, y), f"trial {trial}"

    def test_wrapper_matches_cores(self):
        rng = np.random.default_rng(5)
        C, a, b = self._instance(rng, 12, 17)
        bi, bj, f, u, v, iters = simplex.solve_transport(C, a, b, init="northwest")
        flows = np.zeros_like(C)
        flows[bi, bj] = f
        assert np.allclose(flows.sum(axis=1), a, rtol=1e-12)
        assert np.allclose(flows.sum(axis=0), b, rtol=1e-12)
        red = C - u[:, None] - v[None, :]
        assert red.min() >= -1e-9
        assert math.isfinite(iters)
