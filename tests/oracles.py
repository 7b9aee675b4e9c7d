"""Reference solvers and starts that the tests compare the library against."""

import itertools

import numpy as np

from transportlab import measures, simplex
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
    """The pricing tolerance, degenerate-pivot tolerance and iteration
    cap that ``simplex._solve_core`` sets itself, as (tol, theta_tol,
    max_iter): the copy that ``test_kernels.reference_simplex_core``,
    which takes its limits as arguments, is run under."""
    n, m = C.shape
    tol = 1e-12 * (1.0 + float(np.abs(C).max(initial=0.0)))
    theta_tol = 1e-14 * (1.0 + float(max(np.max(a), np.max(b))))
    return tol, theta_tol, 400 * (n + m) + 200000


def northwest_solve(C, a, b):
    """The positionless reference solve: ``simplex._solve_core``, under
    its own limits, pivots the lists of ``simplex.northwest_basis``.
    Returns solve_transport's tuple (bi, bj, f, u, v, NORTHWEST,
    iterations), the basis as int64 and float64 arrays; a failed solve
    raises the core's SolverError."""
    C = np.ascontiguousarray(C, dtype=np.float64)
    bi, bj, f = simplex.northwest_basis(a, b)
    u, v, iters = simplex._solve_core(C, a, b, bi, bj, f)
    bi, bj = np.array(bi, dtype=np.int64), np.array(bj, dtype=np.int64)
    return bi, bj, np.array(f), u, v, NORTHWEST, iters


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
    uncertified boundary start, from which degenerate crawls are long.
    Returns the (bi, bj, f) lists, the zero-flow joins last."""
    kinds, idxs = simplex._events(s_a, s_b)
    (bi, bj, f), k, comp, _, _ = plain_lifo_forest(C, a, b, kinds, idxs)
    joins = plain_joins(len(a), k, comp)
    return bi + [i for i, _ in joins], bj + [j for _, j in joins], f + [0.0] * len(joins)


def lifo_seam_costs(C, a, b, s_a, s_b):
    """Cost of the LIFO plan from a seam before each event, one full
    walk per seam: the reference for ``simplex._seam_costs``."""
    kinds, idxs = simplex._events(s_a, s_b)
    costs = []
    for seam in range(len(kinds)):
        ei, ej, ef = plain_lifo(a, b, np.roll(kinds, -seam), np.roll(idxs, -seam))
        costs.append(float(np.dot(ef, C[ei, ej])))
    return np.array(costs)


def stack_lifo(a, b, kinds, idxs):
    """``simplex._lifo`` as it was written with one stack of
    [kind, index, remaining] items and masses read from the arrays: the
    reference for the walk that keeps a one-kind stack of parallel
    lists.  Returns the same (i, j, mass) lists and tie cells."""
    stack = []  # [kind, idx, remaining]
    ei, ej, ef, ties = [], [], [], []
    for kind, idx in zip(kinds.tolist(), idxs.tolist()):
        rem = float(a[idx] if kind == 0 else b[idx])
        while stack and stack[-1][0] != kind:
            top = stack[-1]
            c = min(rem, top[2])
            i, j = (idx, top[1]) if kind == 0 else (top[1], idx)
            if c > 0:
                ei.append(i)
                ej.append(j)
                ef.append(c)
            else:
                ties.append((i, j))
            if top[2] - c <= 0:
                stack.pop()
                rem -= c
            else:
                top[2] -= c
                break
        else:
            stack.append([kind, idx, rem])
    return ei, ej, ef, ties


def newton_param_of_arclength(table, s):
    """``geom._ArclengthTable.param_of_arclength`` with 4 Newton steps
    for every point: the reference for the inversion that stops a point
    at its fixed point."""
    s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), table.total)
    t = np.interp(s, table.cumulative, table.knots)
    for _ in range(4):
        k = np.clip(
            np.searchsorted(table.knots, t, side="right") - 1, 0, len(table.knots) - 2
        )
        resid = table.cumulative[k] + table._length_from_knot(k, t) - s
        t = t - resid / table.speed(t)
    return t


def dense_cost_matrix(cost, sources, targets):
    """``ChordCost.matrix`` from one (n, m) difference array per axis:
    the reference for the matrix written in row blocks."""
    p, q = (
        x if x.ndim == 2 else cost.domain.boundary_point(x)
        for x in (np.asarray(sources, dtype=float), np.asarray(targets, dtype=float))
    )
    dx = p[:, 0, None] - q[None, :, 0]
    dy = p[:, 1, None] - q[None, :, 1]
    return cost.norm._in_place(dx, dy)


def one_array_interior_field(centers, anchor, seg_a, seg_b, mass):
    """The interior values of ``kernels.crossing_field`` from one (ny, k)
    array of x* and one concatenated bincount input: the reference for
    the field built chord by chord into preallocated arrays.  Only the
    cells in the domain hold the kernel's values."""
    from transportlab.kernels import _left_of

    ny, nx = centers.shape[:2]
    xs, ys = centers[0, :, 0], centers[:, 0, 1]
    d = seg_b - seg_a
    slanted = d[:, 1] != 0.0
    ds, a_s = d[slanted], seg_a[slanted]
    x_star = a_s[:, 0] + (ys[:, None] - a_s[:, 1]) * (ds[:, 0] / ds[:, 1])
    col = np.searchsorted(xs, x_star.ravel(), side="left").reshape(ny, -1)
    up = ds[:, 1] > 0.0
    step = np.where(up, -mass[slanted], mass[slanted])
    level = ~slanted
    row_left = _left_of(d[level], centers[:, :1] - seg_a[level])
    base = mass[slanted][up].sum() + row_left @ mass[level]
    rows = np.arange(ny)[:, None] * (nx + 1)
    steps = np.bincount(
        np.concatenate([rows[:, 0], (rows + col).ravel()]),
        weights=np.concatenate([base, np.broadcast_to(step, col.shape).ravel()]),
        minlength=ny * (nx + 1),
    ).reshape(ny, nx + 1)
    anchor_left = _left_of(d, anchor - seg_a)
    return mass @ anchor_left - np.cumsum(steps, axis=1)[:, :nx]


def interleaved_pairs(s_a, s_b):
    """Pairs (p, q), p < q, of chords whose ends strictly interleave in
    arclength order, by testing every pair: the definition that
    ``kernels.crossing_pairs`` sweeps for, in O(k**2) time."""
    lo, hi = np.minimum(s_a, s_b).tolist(), np.maximum(s_a, s_b).tolist()
    k = len(lo)
    return [
        (p, q)
        for p in range(k)
        for q in range(p + 1, k)
        if lo[p] < lo[q] < hi[p] < hi[q] or lo[q] < lo[p] < hi[q] < hi[p]
    ]


def merged_atoms(s, mass, perimeter, sublength):
    """The (s, mass, sublength) arrays of a ``BoundaryMeasure`` from a
    pass that always filters, sorts and merges, as the constructor did
    before it skipped the steps with no work: its reference.  Takes
    finite float arrays of one length, masses nonnegative."""
    s = measures._wrap(np.array(s, dtype=float), perimeter)
    keep = mass > 0
    s, mass, sub = s[keep], mass[keep], sublength[keep]
    order = np.argsort(s, kind="stable")
    s, mass, sub = s[order], mass[order], sub[order]
    if len(s) > 1:
        tol = measures.MERGE_TOL * perimeter
        group = np.concatenate([[0], np.cumsum(np.diff(s) > tol)])
        first = np.concatenate([[0], np.flatnonzero(np.diff(group)) + 1])
        s0 = s[first]
        n = group[-1] + 1
        if n > 1 and s[0] + perimeter - s[-1] <= tol:
            seam = group == n - 1
            s = np.where(seam, s - perimeter, s)
            group[seam] = 0
            n -= 1
        mass_merged = np.bincount(group, weights=mass, minlength=n)
        off = np.bincount(group, weights=(s - s0[group]) * mass, minlength=n)
        s = measures._wrap(s0[:n] + off / mass_merged, perimeter)
        sub = np.bincount(group, weights=sub, minlength=n)
        mass = mass_merged
        order = np.argsort(s, kind="stable")
        s, mass, sub = s[order], mass[order], sub[order]
    return s, mass, sub
