"""Reference solvers and starts that the tests compare the library against."""

import itertools

import numpy as np

from transportlab import simplex
from transportlab.geom import ChordCost
from transportlab.measures import BoundaryMeasure
from transportlab.ot import TransportPlan


def brute_force_plan(
    f_plus: BoundaryMeasure,
    f_minus: BoundaryMeasure,
    cost: ChordCost,
) -> TransportPlan:
    """Reference solver: enumerate all assignments of equal-mass atoms.

    Only for oracle testing; requires n == m <= 8 and equal masses.
    """
    n, m = len(f_plus), len(f_minus)
    if n != m or n > 8:
        raise ValueError(f"brute force needs n == m <= 8 atoms, got {n}, {m}")
    masses = np.concatenate([f_plus.mass, f_minus.mass])
    if np.max(masses) - np.min(masses) > 1e-12 * np.max(masses):
        raise ValueError("brute force needs equal atom masses")
    unit = float(f_plus.mass[0])
    C = cost.matrix(f_plus.s, f_minus.s)
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    costs = C[np.arange(n)[None, :], perms].sum(axis=1)
    best = perms[int(np.argmin(costs))]
    i = np.arange(n, dtype=np.int64)
    j = best.astype(np.int64)
    entry_costs = C[i, j]
    plan = TransportPlan(
        source=f_plus,
        target=f_minus,
        i=i,
        j=j,
        mass=np.full(n, unit),
        cost=float(unit * entry_costs.sum()),
        source_points=cost.domain.boundary_point(f_plus.s),
        target_points=cost.domain.boundary_point(f_minus.s),
        entry_costs=entry_costs,
    )
    return plan


def plain_lifo_basis(C, a, b, s_a, s_b):
    """The LIFO forest from the seam at s = 0 with the plain joins: the
    uncertified boundary start, from which degenerate crawls are long."""
    kinds, idxs = simplex._events(s_a, s_b)
    entries, k, comp, _, _ = simplex._lifo_forest(C, a, b, kinds, idxs)
    return simplex._as_basis(*entries, simplex._plain_joins(len(a), k, comp))


def lifo_seam_costs(C, a, b, s_a, s_b):
    """Cost of the LIFO plan from a seam before each event, one full
    walk per seam: the reference for ``simplex._seam_costs``."""
    kinds, idxs = simplex._events(s_a, s_b)
    costs = []
    for seam in range(len(kinds)):
        ei, ej, ef = simplex._lifo(a, b, np.roll(kinds, -seam), np.roll(idxs, -seam))
        costs.append(float(np.dot(ef, C[ei, ej])))
    return np.array(costs)
