"""Each boundary arclength is inverted once, each grid mask built once.

On ellipses and radial domains a boundary point x(s) costs a Newton
inversion of the arclength table.  A transport solve inverts its source
and target positions once, together, for the costs and the plan's chords
alike, and a domain inverts its trace ring once.  A domain also keeps the
interior mask of the last grid geometry it was asked about, and a
least-gradient solve builds its gradient norm field once, for its TV and
the CLI's L^p norms alike.  Reusing an inversion, a mask or a field must
not change a bit of any result, so every comparison here is exact.
"""

import copy
import json
import math
import pickle

import numpy as np
import pytest

from oracles import point_and_frame
from transportlab import cli, geom, leastgrad
from transportlab.density import GridField, grid_for_domain
from transportlab.geom import (
    ChordCost,
    EuclideanNorm,
    LqNorm,
    QuadraticNorm,
    disk,
    ellipse,
    radial,
)
from transportlab.instances import smooth_arc_instance
from transportlab.leastgrad import gradient_norm_field, interior_mask, solve_least_gradient
from transportlab.measures import BoundaryDatum
from transportlab.ot import solve_kantorovich

DOMAINS = {
    "disk": disk(1.0),
    "ellipse": ellipse(2.0, 1.0),
    "radial": radial(lambda t: 1.0 + 0.05 * math.cos(3 * t)),
}
NORMS = {
    "euclidean": EuclideanNorm(),
    "l3": LqNorm(3.0),
    "quadratic": QuadraticNorm([[2.0, 0.3], [0.3, 1.0]]),
}


@pytest.fixture
def inversions(monkeypatch):
    """List that gets one entry per arclength-table inversion."""
    calls = []
    invert = geom._ArclengthTable.param_of_arclength

    def counted(self, s):
        calls.append(len(np.atleast_1d(s)))
        return invert(self, s)

    monkeypatch.setattr(geom._ArclengthTable, "param_of_arclength", counted)
    return calls


def smooth_datum(domain, n):
    """Boundary values of x + y**2 / 2 sampled at n arclengths."""
    s = np.linspace(0.0, domain.perimeter, n, endpoint=False)
    p = domain.boundary_point(s)
    return BoundaryDatum(
        samples=np.stack([s, p[:, 0] + 0.5 * p[:, 1] ** 2], axis=1),
        jumps=None,
        perimeter=domain.perimeter,
    )


class TestInversionCounts:
    def test_least_gradient_solve(self, inversions):
        dom = ellipse(1.5, 1.0)
        g = smooth_datum(dom, 120)
        inversions.clear()
        solve_least_gradient(g, dom, EuclideanNorm(), grid_for_domain(dom, 32))
        # sources and targets together, the anchor and the trace ring
        assert len(inversions) == 3
        inversions.clear()
        solve_least_gradient(g, dom, EuclideanNorm(), grid_for_domain(dom, 32))
        # the ring is the domain's, built by the first solve
        assert len(inversions) == 2

    def test_transport_solve(self, inversions):
        dom = ellipse(2.0, 1.0)
        f_plus, f_minus = smooth_arc_instance(np.random.default_rng(3), dom, 60)
        inversions.clear()
        solve_kantorovich(f_plus, f_minus, ChordCost(dom, EuclideanNorm()))
        # both sides in one call
        assert inversions == [len(f_plus) + len(f_minus)]


class TestGridOnce:
    def test_least_gradient_solve(self, monkeypatch):
        # a solve builds the centers once and the mask once; another
        # solve and the gradient field on the same grid reuse the mask
        dom = ellipse(1.5, 1.0)
        g = smooth_datum(dom, 120)
        grid = grid_for_domain(dom, 32)
        calls = []
        for owner, name in ((GridField, "centers"), (type(dom), "contains")):
            def counted(*args, _fn=getattr(owner, name), _name=name):
                calls.append(_name)
                return _fn(*args)

            monkeypatch.setattr(owner, name, counted)
        res = solve_least_gradient(g, dom, EuclideanNorm(), grid)
        assert calls == ["centers", "contains"]
        calls.clear()
        solve_least_gradient(g, dom, EuclideanNorm(), grid)
        gradient_norm_field(res.u, EuclideanNorm(), dom)
        assert calls == ["centers"]

    def test_least_gradient_result_holds_the_gradient_field(self):
        dom = ellipse(1.5, 1.0)
        grid = grid_for_domain(dom, 32)
        res = solve_least_gradient(smooth_datum(dom, 120), dom, EuclideanNorm(), grid)
        fresh = gradient_norm_field(res.u, EuclideanNorm(), dom)
        assert np.array_equal(res.grad.values, fresh.values)
        assert res.tv == fresh.integral()

    def test_cli_lsg_builds_the_gradient_field_once(self, tmp_path, capsys, monkeypatch):
        # the report's TV and its L^p norms read one field
        calls = []
        build = leastgrad.gradient_norm_field

        def counted(*args):
            calls.append(1)
            return build(*args)

        monkeypatch.setattr(leastgrad, "gradient_norm_field", counted)
        g = smooth_datum(ellipse(1.5, 1.0), 120)
        problem = tmp_path / "problem.json"
        problem.write_text(json.dumps({
            "domain": {"kind": "ellipse", "a": 1.5, "b": 1.0},
            "norm": {"kind": "euclidean"},
            "g": {"samples": g.samples.tolist()},
        }))
        assert cli.main(["lsg", "--problem", str(problem), "--grid", "32"]) == 0
        assert set(json.loads(capsys.readouterr().out)["lp_norms"]) == {"1.5", "2.0"}
        assert len(calls) == 1


@pytest.mark.parametrize("domain", DOMAINS.values(), ids=DOMAINS.keys())
class TestCellMask:
    def test_equals_fresh_contains(self, domain):
        grid = grid_for_domain(domain, 40)
        mask = interior_mask(grid, domain)
        assert np.array_equal(mask, domain.contains(grid.centers()))
        assert mask.shape == (grid.ny, grid.nx)
        assert interior_mask(grid, domain) is mask
        # an equal geometry in another field is the same key
        assert interior_mask(grid.copy_empty(kind="function"), domain) is mask

    def test_read_only(self, domain):
        mask = interior_mask(grid_for_domain(domain, 40), domain)
        with pytest.raises(ValueError):
            mask[0, 0] = not mask[0, 0]

    def test_new_geometry_replaces(self, domain):
        first, second = grid_for_domain(domain, 40), grid_for_domain(domain, 41)
        mask = interior_mask(first, domain)
        other = interior_mask(second, domain)
        assert np.array_equal(other, domain.contains(second.centers()))
        again = interior_mask(first, domain)
        assert again is not mask and np.array_equal(again, mask)
        # the origin is part of the key
        shifted = GridField(
            (first.origin[0] + first.cell, first.origin[1]), first.cell, first.nx,
            first.ny, np.zeros((first.ny, first.nx)),
        )
        assert np.array_equal(
            interior_mask(shifted, domain), domain.contains(shifted.centers())
        )


# a radial domain holds its profile function, which need not pickle
@pytest.mark.parametrize("kind", ["disk", "ellipse"])
@pytest.mark.parametrize("route", ["deepcopy", "pickle"])
def test_copied_mask_is_rebuilt(kind, route):
    domain = DOMAINS[kind]
    grid = grid_for_domain(domain, 40)
    mask = interior_mask(grid, domain)
    if route == "deepcopy":
        twin = copy.deepcopy(domain)
    else:
        twin = pickle.loads(pickle.dumps(domain))
    again = interior_mask(grid, twin)
    assert again is not mask and not again.flags.writeable
    assert np.array_equal(again, mask)


@pytest.mark.parametrize("domain", DOMAINS.values(), ids=DOMAINS.keys())
class TestExactReuse:
    @pytest.mark.parametrize("norm", NORMS.values(), ids=NORMS.keys())
    def test_matrix_of_points_equals_matrix_of_arclengths(self, domain, norm):
        rng = np.random.default_rng(7)
        sa = rng.uniform(0.0, domain.perimeter, 40)
        sb = rng.uniform(0.0, domain.perimeter, 30)
        cost = ChordCost(domain, norm)
        points = cost.matrix(domain.boundary_point(sa), domain.boundary_point(sb))
        assert np.array_equal(points, cost.matrix(sa, sb))
        # one side each way, and a scalar arclength
        assert np.array_equal(cost.matrix(sa, domain.boundary_point(sb)), points)
        assert np.array_equal(cost.matrix(sa[3], sb), points[3:4])

    @pytest.mark.parametrize("norm", NORMS.values(), ids=NORMS.keys())
    def test_plan_points_are_boundary_points(self, domain, norm):
        rng = np.random.default_rng(11)
        f_plus, f_minus = smooth_arc_instance(rng, domain, 50)
        cost = ChordCost(domain, norm)
        plan = solve_kantorovich(f_plus, f_minus, cost)
        assert np.array_equal(plan.source_points, domain.boundary_point(f_plus.s))
        assert np.array_equal(plan.target_points, domain.boundary_point(f_minus.s))
        C = cost.matrix(f_plus.s, f_minus.s)
        assert np.array_equal(plan.entry_costs, C[plan.i, plan.j])

    @pytest.mark.parametrize("s", ["ladder", "scalar"])
    def test_points_and_frames_equal_the_restated_formulas(self, domain, s):
        # bytes, so that the sign of a zero counts too; a scalar is the
        # anchor's single-point call
        per = domain.perimeter
        if s == "ladder":
            s = np.concatenate([np.linspace(-per, 2.0 * per, 3001), [0.0, -0.0, per]])
        else:
            s = 0.3 * per
        point, frame = point_and_frame(domain, s)
        for got, want in zip((domain.boundary_point(s), *domain.frame(s)), (point, *frame)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_ring_equals_fresh_frame(self, domain):
        s, points, normals = domain.trace_ring
        fresh = np.linspace(0.0, domain.perimeter, 1024, endpoint=False)
        fresh_points, fresh_normals = domain.frame(fresh)
        assert np.array_equal(s, fresh)
        assert np.array_equal(points, fresh_points)
        assert np.array_equal(normals, fresh_normals)
        assert domain.trace_ring is domain.trace_ring

    def test_ring_is_read_only(self, domain):
        for a in domain.trace_ring:
            with pytest.raises(ValueError):
                a[0] = 0.0


@pytest.mark.parametrize("route", ["deepcopy", "pickle"])
def test_copied_ring_is_read_only(route):
    # a copy made after the ring is built rebuilds its own
    domain = ellipse(2.0, 1.0)
    ring = domain.trace_ring
    if route == "deepcopy":
        twin = copy.deepcopy(domain)
    else:
        twin = pickle.loads(pickle.dumps(domain))
    for a, b in zip(twin.trace_ring, ring):
        assert not a.flags.writeable
        assert np.array_equal(a, b)
