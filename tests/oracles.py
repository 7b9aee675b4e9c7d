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


# the start tuple solve_transport gave input without boundary
# positions before it required them
NORTHWEST = ("northwest", -1, "no boundary positions")


def simplex_limits(C, a, b):
    """solve_transport's pricing tolerance, degenerate-pivot tolerance
    and iteration cap, as (tol, theta_tol, max_iter)."""
    n, m = C.shape
    tol = 1e-12 * (1.0 + float(np.abs(C).max(initial=0.0)))
    theta_tol = 1e-14 * (1.0 + float(max(np.max(a), np.max(b))))
    return tol, theta_tol, 400 * (n + m) + 200000


def northwest_solve(C, a, b):
    """The positionless reference solve: ``simplex._solve_core`` from
    ``simplex.northwest_basis`` under solve_transport's limits.  Returns
    solve_transport's tuple (bi, bj, f, u, v, NORTHWEST, iterations)."""
    C = np.ascontiguousarray(C, dtype=np.float64)
    n, m = C.shape
    bi, bj, f = simplex.northwest_basis(a, b)
    u, v = np.zeros(n), np.zeros(m)
    tol, _, cap = simplex_limits(C, a, b)
    status, iters = simplex._solve_core(C, a, b, bi, bj, f, u, v, tol, cap)
    assert status == 0, f"the northwest solve ended with status {status}"
    return bi, bj, f, u, v, NORTHWEST, iters


def plain_lifo(a, b, kinds, idxs):
    """The LIFO walk without tie cells: an arrival that exactly empties
    the stack top is finished with it.  Returns the matched (i, j, mass)
    lists; the reference for the positive cells of ``simplex._lifo``."""
    stack = []  # [kind, idx, remaining]
    ei, ej, ef = [], [], []
    for kind, idx in zip(kinds.tolist(), idxs.tolist()):
        rem = float(a[idx] if kind == 0 else b[idx])
        while rem > 0 and stack and stack[-1][0] != kind:
            top = stack[-1]
            c = min(rem, top[2])
            if kind == 0:
                ei.append(idx)
                ej.append(top[1])
            else:
                ei.append(top[1])
                ej.append(idx)
            ef.append(c)
            rem -= c
            if top[2] - c <= 0:
                stack.pop()
                rem = max(rem, 0.0)
            else:
                top[2] -= c
                rem = 0.0
        if rem > 0:
            stack.append([kind, idx, rem])
    return ei, ej, ef


def plain_lifo_forest(C, a, b, kinds, idxs):
    """The walk's forest without tie cells: (entries, K, comp, u, v),
    one component per exact tie and per atom left on the stack."""
    ei, ej, ef = plain_lifo(a, b, kinds, idxs)
    return ((ei, ej, ef), *simplex._forest(C, ei, ej))


def plain_joins(n, k, comp):
    """Zero-flow cells joining a forest into a tree, blind to the costs.

    The root is the first component holding atoms of both kinds; every
    other component joins it through its first source and the root's
    first target, or, holding targets only, through its first target
    and the root's first source.
    """
    fs, ft = {}, {}
    for x, c in enumerate(comp.tolist()):
        if x < n:
            fs.setdefault(c, x)
        else:
            ft.setdefault(c, x - n)
    root = next(c for c in range(k) if c in fs and c in ft)
    return [(fs[c], ft[root]) if c in fs else (fs[root], ft[c]) for c in range(k) if c != root]


def plain_lifo_basis(C, a, b, s_a, s_b):
    """The LIFO forest from the seam at s = 0 with the plain joins: the
    uncertified boundary start, from which degenerate crawls are long."""
    kinds, idxs = simplex._events(s_a, s_b)
    entries, k, comp, _, _ = plain_lifo_forest(C, a, b, kinds, idxs)
    return simplex._as_basis(*entries, plain_joins(len(a), k, comp))


def lifo_seam_costs(C, a, b, s_a, s_b):
    """Cost of the LIFO plan from a seam before each event, one full
    walk per seam: the reference for ``simplex._seam_costs``."""
    kinds, idxs = simplex._events(s_a, s_b)
    costs = []
    for seam in range(len(kinds)):
        ei, ej, ef = plain_lifo(a, b, np.roll(kinds, -seam), np.roll(idxs, -seam))
        costs.append(float(np.dot(ef, C[ei, ej])))
    return np.array(costs)
