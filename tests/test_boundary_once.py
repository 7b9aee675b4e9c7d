"""Each boundary arclength is inverted once.

On ellipses and radial domains a boundary point x(s) costs a Newton
inversion of the arclength table.  A transport solve inverts its source
and target positions once, for the costs and the plan's chords alike,
and a domain inverts its trace ring once.  Reusing an inversion must not
change a bit of any result, so every comparison here is exact.
"""

import copy
import math
import pickle

import numpy as np
import pytest

from transportlab import geom
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
from transportlab.leastgrad import solve_least_gradient
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
        solve_least_gradient(g, dom, EuclideanNorm(), grid_n=32)
        # sources, targets, the anchor and the trace ring
        assert len(inversions) == 4
        inversions.clear()
        solve_least_gradient(g, dom, EuclideanNorm(), grid_n=32)
        # the ring is the domain's, built by the first solve
        assert len(inversions) == 3

    def test_transport_solve(self, inversions):
        dom = ellipse(2.0, 1.0)
        f_plus, f_minus = smooth_arc_instance(np.random.default_rng(3), dom, 60)
        inversions.clear()
        solve_kantorovich(f_plus, f_minus, ChordCost(dom, EuclideanNorm()))
        assert inversions == [len(f_plus), len(f_minus)]


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
