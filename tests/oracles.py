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


def grouped_certify(C, k, comp, u, v, tol):
    """``simplex._certify`` for any number of components, one tree
    included: reduced costs grouped by component, block minima and
    Bellman-Ford over the offsets.  The reference for its single-tree
    shortcut."""
    n, m = C.shape
    ro, has_s, r0 = simplex._groups(comp[:n])
    co, has_t, c0 = simplex._groups(comp[n:])
    R = C[ro[:, None], co]
    R -= u[ro, None]
    R -= v[co]
    W = np.full((k, k), np.inf)
    W[has_s[:, None], has_t] = np.minimum.reduceat(
        np.minimum.reduceat(R, r0, axis=0), c0, axis=1
    )
    if np.diagonal(W).min() < -tol:
        return None, "a component's plan is not optimal on its own"
    root = int(np.flatnonzero(np.isfinite(np.diagonal(W)))[0])
    off = W.copy()
    np.fill_diagonal(off, np.inf)
    dist = np.full(k, np.inf)
    dist[root] = 0.0
    pred = np.full(k, -1, dtype=np.int64)
    for sweep in range(simplex.CERTIFY_SWEEPS):
        for c in range(k) if sweep % 2 == 0 else range(k - 1, -1, -1):
            row = off[c] + dist
            p = int(row.argmin())
            if row[p] < dist[c] - tol and c != root:
                dist[c] = row[p]
                pred[c] = p
        tree, why = simplex._offset_tree(W, root, dist, pred, tol)
        if tree is not None:
            break
        if why:
            return None, why
    else:
        return None, f"no feasible offsets after {simplex.CERTIFY_SWEEPS} Bellman-Ford sweeps"
    rlo = np.zeros(k, dtype=np.int64)
    clo = np.zeros(k, dtype=np.int64)
    rlo[has_s], clo[has_t] = r0, c0
    rhi = np.full(k, n, dtype=np.int64)
    chi = np.full(k, m, dtype=np.int64)
    rhi[has_s[:-1]] = r0[1:]
    chi[has_t[:-1]] = c0[1:]
    rlo, rhi, clo, chi = rlo.tolist(), rhi.tolist(), clo.tolist(), chi.tolist()
    joins = []
    for A, B in tree:
        f, w = divmod(int(R[rlo[A] : rhi[A], clo[B] : chi[B]].argmin()), chi[B] - clo[B])
        joins.append((int(ro[rlo[A] + f]), int(co[clo[B] + w])))
    return joins, ""
