"""Reference solvers and starts that the tests compare the library against."""

import itertools

import numpy as np

from transportlab import measures, simplex
from transportlab.geom import ChordCost, Disk, Ellipse, RadialDomain
from transportlab.measures import BoundaryMeasure
from transportlab.ot import DualPotentials, TransportPlan


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


def reversed_plan(plan: TransportPlan) -> TransportPlan:
    """Same plan transported the other way (targets become sources)."""
    return TransportPlan(
        source=plan.target,
        target=plan.source,
        i=plan.j.copy(),
        j=plan.i.copy(),
        mass=plan.mass.copy(),
        cost=plan.cost,
        source_points=plan.target_points,
        target_points=plan.source_points,
        entry_costs=plan.entry_costs.copy(),
        gap=plan.gap,
        # u_i + v_j = c_ij reads v_j + u_i = c'_ji for the reversed plan
        potentials=None if plan.potentials is None else plan.potentials[::-1],
        stats=plan.stats,
    )


def dual_objective(
    pot: DualPotentials, source: BoundaryMeasure, target: BoundaryMeasure
) -> float:
    """Kantorovich dual objective of ``pot`` on the two measures."""
    return float(
        np.dot(pot.phi_source, source.mass) - np.dot(pot.phi_target, target.mass)
    )


def slackness_violation(pot: DualPotentials, plan: TransportPlan) -> float:
    """max over support entries of |c_ij - (phi_source_i - phi_target_j)|."""
    diff = pot.phi_source[plan.i] - pot.phi_target[plan.j]
    return float(np.max(np.abs(diff - plan.entry_costs), initial=0.0))


# the start words solve_transport gave input without boundary positions
# before it required them; northwest_solve reports no seam as -1
NORTHWEST = {"start": "northwest", "seam": -1, "fallback": "no boundary positions"}


def start_words(seam, certified):
    """The (start, seam, fallback) words of a boundary start from
    ``seam``, as ``simplex.solve_transport`` returned them before
    ``SolverStats`` derived them: the reference table of its words."""
    why = "its first pricing finds a negative reduced cost"
    if not seam:
        return ("certified", 0, "") if certified else ("lifo", 0, f"seam 0: {why}; no cheaper seam")
    cheaper = f"seam 0: seam {seam} is cheaper"
    if certified:
        return ("certified_seam", seam, cheaper)
    return ("lifo", seam, f"{cheaper}; seam {seam}: {why}")


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
    Returns solve_transport's tuple (bi, bj, f, u, v, -1, iterations),
    the basis as int64 and float64 arrays; a failed solve raises the
    core's SolverError."""
    C = np.ascontiguousarray(C, dtype=np.float64)
    bi, bj, f = simplex.northwest_basis(a, b)
    u, v, iters = simplex._solve_core(C, a, b, bi, bj, f)
    bi, bj = np.array(bi, dtype=np.int64), np.array(bj, dtype=np.int64)
    return bi, bj, np.array(f), u, v, -1, iters


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


def masked_remove_common_mass(f_plus, f_minus):
    """``measures.remove_common_mass`` as it was when it rebuilt its
    results with ``_reweighted``, which masks the zero-mass atoms out of
    the input's arrays and skips the constructor: the reference for
    the rebuild through the constructor."""
    per = f_plus.perimeter
    tol = measures.MERGE_TOL * per
    # scalar work on python floats is cheaper than on arrays, and exact
    sp, sm = f_plus.s.tolist(), f_minus.s.tolist()
    mp, mm = f_plus.mass.tolist(), f_minus.mass.tolist()
    i = j = 0
    while i < len(sp) and j < len(sm):
        d = sp[i] - sm[j]
        if abs(d) <= tol:
            c = min(mp[i], mm[j])
            mp[i] -= c
            mm[j] -= c
            if mp[i] <= 0:
                i += 1
            if mm[j] <= 0:
                j += 1
        elif d < 0:
            i += 1
        else:
            j += 1
    # the last atom of one measure and the first of the other may meet
    # across the seam at 0
    if len(mp) and len(mm):
        for i, j, gap in (
            (-1, 0, sm[0] + per - sp[-1]),
            (0, -1, sp[0] + per - sm[-1]),
        ):
            if gap <= tol:
                c = min(mp[i], mm[j])
                mp[i] -= c
                mm[j] -= c
    return _reweighted(f_plus, np.array(mp)), _reweighted(f_minus, np.array(mm))


def _reweighted(measure, mass):
    """``measure`` with new masses on its atoms, zero-mass atoms dropped.

    Its positions are already wrapped, sorted and merged, and dropping
    atoms keeps them so, which is all the constructor would redo.
    """
    keep = mass > 0
    out = object.__new__(BoundaryMeasure)
    out.s = measure.s[keep]
    out.mass = mass[keep]
    out.perimeter = measure.perimeter
    out.sublength = measure.sublength[keep]
    return out


def _disk_point(self, th):
    return self.radius * np.cos(th), self.radius * np.sin(th)


def _disk_frame(self, th):
    cos, sin = np.cos(th), np.sin(th)
    return self.radius * cos, self.radius * sin, -cos, -sin


def _ellipse_point(self, t):
    return self.a * np.cos(t), self.b * np.sin(t)


def _ellipse_frame(self, t):
    cos, sin = np.cos(t), np.sin(t)
    speed = self._speed(t)
    # tangent (-a sin, b cos)/speed rotated by +pi/2
    return self.a * cos, self.b * sin, -self.b * cos / speed, -self.a * sin / speed


def _radial_point(self, th):
    r = self._spline(th)[0]
    return r * np.cos(th), r * np.sin(th)


def _radial_frame(self, th):
    r, r1, _ = self._spline(th)
    cos, sin = np.cos(th), np.sin(th)
    # derivative of (r cos, r sin) with respect to theta, normalized
    tx = r1 * cos - r * sin
    ty = r1 * sin + r * cos
    speed = np.hypot(tx, ty)
    return r * cos, r * sin, -ty / speed, tx / speed


_POINT_AND_FRAME = {
    Disk: (_disk_point, _disk_frame),
    Ellipse: (_ellipse_point, _ellipse_frame),
    RadialDomain: (_radial_point, _radial_frame),
}


def point_and_frame(domain, s):
    """``domain.boundary_point(s)`` and ``domain.frame(s)`` as they were
    when each domain restated its point formula in a ``_frame`` that
    gave the point and the inward normal together: the reference for
    the frame stacked from ``_point`` and ``_normal``.  The per-domain
    functions above are those methods, verbatim."""
    point, frame = _POINT_AND_FRAME[type(domain)]
    t = domain._param_of_s(s)
    x, y, nx, ny = frame(domain, t)
    return (
        np.stack(point(domain, t), axis=-1),
        (np.stack([x, y], axis=-1), np.stack([nx, ny], axis=-1)),
    )
