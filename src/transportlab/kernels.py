"""Grid and chord kernels: segment deposition, crossing fields, chord crossings.

Segment deposition dispatches to a numba loop implementation or a
vectorized numpy implementation according to
:mod:`transportlab.backend`.  Both variants visit segments in input
order and touch each cell at most once per segment, so results agree to
floating-point roundoff.  The crossing field and the chord-crossing
check are single numpy/Python sweeps in either case; the check compares
arclength positions exactly, with no geometry and no tolerance.
"""

from __future__ import annotations

import math

import numpy as np

from .backend import USE_NUMBA, njit


# ---------------------------------------------------------------------------
# exact segment-to-grid deposition


@njit(cache=True)
def _deposit_nb(values, ox, oy, cell, ax, ay, ex, ey, lam):
    ny, nx = values.shape
    inv_area = 1.0 / (cell * cell)
    for k in range(ax.shape[0]):
        x0 = ax[k]
        y0 = ay[k]
        dx = ex[k] - x0
        dy = ey[k] - y0
        seg_len = math.sqrt(dx * dx + dy * dy)
        if seg_len <= 0.0:
            continue
        w = lam[k] * inv_area
        ix = int(math.floor((x0 - ox) / cell))
        iy = int(math.floor((y0 - oy) / cell))
        if ix < 0:
            ix = 0
        elif ix > nx - 1:
            ix = nx - 1
        if iy < 0:
            iy = 0
        elif iy > ny - 1:
            iy = ny - 1
        step_x = 1 if dx > 0.0 else (-1 if dx < 0.0 else 0)
        step_y = 1 if dy > 0.0 else (-1 if dy < 0.0 else 0)
        if step_x > 0:
            t_max_x = (ox + (ix + 1) * cell - x0) / dx
            t_dx = cell / dx
        elif step_x < 0:
            t_max_x = (ox + ix * cell - x0) / dx
            t_dx = -cell / dx
        else:
            t_max_x = math.inf
            t_dx = math.inf
        if step_y > 0:
            t_max_y = (oy + (iy + 1) * cell - y0) / dy
            t_dy = cell / dy
        elif step_y < 0:
            t_max_y = (oy + iy * cell - y0) / dy
            t_dy = -cell / dy
        else:
            t_max_y = math.inf
            t_dy = math.inf
        t = 0.0
        guard = 4 * (nx + ny) + 8
        while guard > 0:
            guard -= 1
            t_next = t_max_x if t_max_x < t_max_y else t_max_y
            if t_next > 1.0:
                t_next = 1.0
            if t_next > t:
                values[iy, ix] += w * (t_next - t) * seg_len
            if t_next >= 1.0:
                break
            advance_x = t_max_x <= t_max_y
            advance_y = t_max_y <= t_max_x
            if advance_x:
                ix += step_x
                t_max_x += t_dx
                if ix < 0:
                    ix = 0
                elif ix > nx - 1:
                    ix = nx - 1
            if advance_y:
                iy += step_y
                t_max_y += t_dy
                if iy < 0:
                    iy = 0
                elif iy > ny - 1:
                    iy = ny - 1
            t = t_next


def _deposit_np(values, ox, oy, cell, ax, ay, ex, ey, lam):
    ny, nx = values.shape
    inv_area = 1.0 / (cell * cell)
    for k in range(ax.shape[0]):
        x0, y0 = ax[k], ay[k]
        dx, dy = ex[k] - x0, ey[k] - y0
        seg_len = math.hypot(dx, dy)
        if seg_len <= 0.0:
            continue
        cuts = [np.array([0.0, 1.0])]
        if dx != 0.0:
            gx0 = math.floor((min(x0, x0 + dx) - ox) / cell) + 1
            gx1 = math.ceil((max(x0, x0 + dx) - ox) / cell)
            lines = ox + np.arange(gx0, gx1) * cell
            cuts.append((lines - x0) / dx)
        if dy != 0.0:
            gy0 = math.floor((min(y0, y0 + dy) - oy) / cell) + 1
            gy1 = math.ceil((max(y0, y0 + dy) - oy) / cell)
            lines = oy + np.arange(gy0, gy1) * cell
            cuts.append((lines - y0) / dy)
        t = np.unique(np.clip(np.concatenate(cuts), 0.0, 1.0))
        mids = 0.5 * (t[:-1] + t[1:])
        lens = np.diff(t) * seg_len
        ix = np.clip(np.floor((x0 + mids * dx - ox) / cell).astype(np.int64), 0, nx - 1)
        iy = np.clip(np.floor((y0 + mids * dy - oy) / cell).astype(np.int64), 0, ny - 1)
        np.add.at(values, (iy, ix), lam[k] * inv_area * lens)


def deposit_segments(values, origin, cell, start, end, lam):
    """Add line measures to a grid, exactly splitting each segment by cell.

    ``lam`` is the measure per unit euclidean length of each segment; the
    per-cell increment is lam * length_in_cell / cell_area.  Accumulation
    order is fixed (segments in order, cells along each segment), so the
    result is reproducible bit for bit.
    """
    ax = np.ascontiguousarray(start[:, 0], dtype=np.float64)
    ay = np.ascontiguousarray(start[:, 1], dtype=np.float64)
    ex = np.ascontiguousarray(end[:, 0], dtype=np.float64)
    ey = np.ascontiguousarray(end[:, 1], dtype=np.float64)
    lam = np.ascontiguousarray(lam, dtype=np.float64)
    impl = _deposit_nb if USE_NUMBA else _deposit_np
    impl(values, float(origin[0]), float(origin[1]), float(cell), ax, ay, ex, ey, lam)
    return values


# ---------------------------------------------------------------------------
# signed crossing accumulation for least-gradient reconstruction


def _left_of(d, v):
    """Whether offsets v lie left of directions d.

    An offset exactly on the line counts as if nudged by (+eps, +eps**2),
    which makes every left-indicator right-continuous along x (along y
    for horizontal lines).
    """
    c = d[:, 0] * v[..., 1] - d[:, 1] * v[..., 0]
    tie = np.where(d[:, 1] != 0.0, -d[:, 1], d[:, 0])
    return (c > 0.0) | ((c == 0.0) & (tie > 0.0))


def crossing_field(centers, anchor, seg_a, seg_b, mass, inside, normal):
    """Signed mass crossed by straight paths from an anchor to each center.

    The segments are chords a -> b of a convex domain, ``anchor`` is a
    boundary point off every chord's line and ``normal`` is the inward
    unit normal there.  ``centers`` is a tensor grid of shape (ny, nx, 2)
    (rows of equal y, x increasing along each row) and ``inside`` marks
    the centers in the closed domain.  A path crossing a segment from
    its left side to its right side contributes +mass.

    Inside the domain a path crosses chord k exactly when the center and
    the anchor lie on opposite sides of the chord's line, so the field is
    sum_k m_k ([anchor left of k] - [center left of k]).  Along a row
    each indicator is one step in x, so the steps are binned per row and
    summed up by a cumulative sum.  A center exactly on a chord's line
    takes the value just beyond it in +x (in +y for horizontal chords):
    the field is right-continuous, like the boundary datum.

    Outside the domain the path leaves through the chord from the anchor
    to its exit point, and crosses chord k exactly when its direction
    lies strictly between the directions to a_k and b_k.  Directions are
    angles from ``normal``, which lie in [-pi/2, pi/2] for every boundary
    point, so they never wrap; a path through an endpoint crosses
    nothing there.
    """
    centers = np.asarray(centers, dtype=np.float64)
    p0 = np.asarray(anchor, dtype=np.float64)
    normal = np.asarray(normal, dtype=np.float64)
    a = np.asarray(seg_a, dtype=np.float64)
    b = np.asarray(seg_b, dtype=np.float64)
    d = b - a
    mass = np.asarray(mass, dtype=np.float64)
    ny, nx = inside.shape
    xs = centers[0, :, 0]
    ys = centers[:, 0, 1]
    anchor_left = _left_of(d, p0 - a)
    out = np.empty((ny, nx))

    # inside: one step per (row, non-horizontal chord) at x* on its line
    slanted = d[:, 1] != 0.0
    ds, a_s = d[slanted], a[slanted]
    x_star = a_s[:, 0] + (ys[:, None] - a_s[:, 1]) * (ds[:, 0] / ds[:, 1])
    col = np.searchsorted(xs, x_star.ravel(), side="left").reshape(ny, -1)
    # left of the line before the step when the chord points up, after it
    # when it points down
    up = ds[:, 1] > 0.0
    step = np.where(up, -mass[slanted], mass[slanted])
    level = ~slanted
    row_left = _left_of(d[level], centers[:, :1] - a[level])
    # column 0 of each row starts from the mass left of the row's first step
    base = mass[slanted][up].sum() + row_left @ mass[level]
    rows = np.arange(ny)[:, None] * (nx + 1)
    steps = np.bincount(
        np.concatenate([rows[:, 0], (rows + col).ravel()]),
        weights=np.concatenate([base, np.broadcast_to(step, col.shape).ravel()]),
        minlength=ny * (nx + 1),
    ).reshape(ny, nx + 1)
    left_mass = np.cumsum(steps, axis=1)[:, :nx]
    out[inside] = (mass @ anchor_left - left_mass)[inside]

    # outside: [lo < theta < hi] = [lo < theta] - [hi <= theta], each read
    # off a cumulative sum over the chords sorted by that endpoint angle
    tangent = np.array([-normal[1], normal[0]])

    def angle(v):
        return np.arctan2(v @ tangent, v @ normal)

    ang = np.stack([angle(a - p0), angle(b - p0)])
    lo, hi = ang.min(axis=0), ang.max(axis=0)
    w = np.where(anchor_left, mass, -mass)
    theta = angle(centers[~inside] - p0)
    field = np.zeros(theta.shape)
    for edge, side, sign in ((lo, "left", 1.0), (hi, "right", -1.0)):
        order = np.argsort(edge, kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(w[order])])
        field += sign * cum[np.searchsorted(edge[order], theta, side=side)]
    out[~inside] = field
    return out


# ---------------------------------------------------------------------------
# interior crossings of boundary chords


def crossing_pairs(s_a, s_b):
    """Pairs of boundary chords that cross in the interior of the domain.

    Chord k joins the boundary points at arclengths ``s_a[k]`` and
    ``s_b[k]``.  The domain is strictly convex, so two chords cross
    exactly when their ends strictly interleave in arclength order; the
    test is an exact comparison, free of tolerances.  Chords sharing an
    endpoint never cross, a zero-length chord crosses nothing, and
    coincident chords (the same two positions) do not cross each other.

    One stack sweep over the sorted ends lists every crossing in
    O(k log k + crossings) time and O(k) memory.  At one position
    closes come before opens, closes go innermost first, opens
    outermost first, and identical chords nest by index, so a chord
    below the top of the stack when it closes crosses exactly the
    chords above it.  Returns int64 arrays (i, j) with i < j, in
    lexicographic order.
    """
    s_a = np.asarray(s_a, dtype=np.float64)
    s_b = np.asarray(s_b, dtype=np.float64)
    lo, hi = np.minimum(s_a, s_b), np.maximum(s_a, s_b)
    idx = np.flatnonzero(lo < hi)
    lo, hi = lo[idx], hi[idx]
    # event keys, most significant last: position, close (0) or open (1),
    # then innermost-first closes and outermost-first opens
    n = len(idx)
    events = np.lexsort((
        np.concatenate([-idx, idx]),
        np.concatenate([-lo, -hi]),
        np.repeat([0, 1], n),
        np.concatenate([hi, lo]),
    ))
    stack, pairs = [], []
    for e in events.tolist():
        if e >= n:
            stack.append(e - n)
            continue
        at = len(stack) - 1
        while stack[at] != e:
            at -= 1
        pairs.extend((e, c) for c in stack[at + 1:])
        del stack[at]
    ij = idx[np.array(pairs, dtype=np.int64).reshape(-1, 2)]
    i, j = ij.min(axis=1), ij.max(axis=1)
    order = np.lexsort((j, i))
    return i[order], j[order]
