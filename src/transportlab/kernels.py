"""Grid and chord kernels: segment deposition, crossing fields, chord crossings.

All three are single numpy passes with no per-item Python loop.  The
deposit splits every segment exactly at the grid lines it crosses, rows
first and then columns, and sums the pieces with one ``bincount``; the
crossing field sums per-row steps; the chord-crossing check compares
arclength positions exactly, with no geometry and no tolerance.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# exact segment-to-grid deposition

# most (segment, row, column) visits that one chunk of segments expands
# to; bounds the deposit's scratch memory to a few MB
MAX_VISITS = 1 << 14


def _cell_index(coord, origin, cell, n):
    """Index of the grid cell holding each coordinate, clamped to [0, n-1]."""
    # np.clip's values, from plain ufuncs into one temporary
    x = np.subtract(coord, origin)
    x /= cell
    np.floor(x, out=x)
    np.maximum(x, 0.0, out=x)
    np.minimum(x, n - 1, out=x)
    return x.astype(np.int64)


def _split(lo, hi, i0, i1, p0, d, origin, cell):
    """Cut t-intervals into one piece per grid cell along one axis.

    Interval q runs over [lo[q], hi[q]] of the line p0[q] + t * d[q] and
    through cells i0[q] .. i1[q] in order; ``lo`` and ``hi`` may be
    scalars shared by every interval.  Returns the number of pieces per
    interval, the first piece of each interval and whether it runs up
    (i1 > i0), and per piece its line index and its end t.  A piece ends
    at the t of the grid line to the next cell, clipped to [lo, hi]; the
    interval's last piece ends at hi and each piece starts where the one
    before ended (the first at lo).  So pieces tile their interval and
    never have negative length.

    The line index is the piece's cell index plus ``up``: the grid line
    it leaves its cell by, at ``line * cell + origin``.  The pieces of
    one interval are contiguous, so per-piece copies of per-interval
    values are repeats, never gathers, and the line index is exact
    integer arithmetic on the running piece number.
    """
    step = np.sign(i1 - i0)
    count = np.abs(i1 - i0) + 1
    end = count.cumsum()
    first = end - count
    up = step > 0
    line = np.arange(end[-1])
    line *= step.repeat(count)
    line += (i0 - first * step + up).repeat(count)
    t = line * cell
    t += origin
    bounds = (lo, hi) if np.ndim(lo) == 0 else (lo.repeat(count), hi.repeat(count))
    # only a last piece can divide by d == 0, and hi overwrites it below
    with np.errstate(divide="ignore", invalid="ignore"):
        t -= p0.repeat(count)
        t /= d.repeat(count)
        np.maximum(bounds[0], t, out=t)
        np.minimum(bounds[1], t, out=t)
    t[end - 1] = hi
    return count, first, up, line, t


def deposit_segments(values, origin, cell, start, end, weight):
    """Add line measures to a grid, exactly splitting each segment by cell.

    Segment k carries total measure ``weight[k]``, spread uniformly along
    its length, so a cell gains weight * (fraction of the segment inside
    it) / cell_area.  Cells are half-open, [x_i, x_i + cell); parts of a
    segment outside the grid land in the nearest border cell, as if the
    outermost rows and columns extended to infinity.  Zero-length
    segments deposit nothing.

    Each segment is cut at the horizontal grid lines into rows, and each
    row piece at the vertical lines into cells (the Amanatides-Woo
    traversal, batched); a segment visits |rows crossed| + |columns
    crossed| + 1 cells.  A row piece starts where the one before it
    ended, so its first column is the last column of the row piece
    before it (the segment's first is its start's column).  Per-piece
    values are repeats of per-segment and per-row values, with no
    gathers, and the ``bincount`` column of a piece is its line index
    plus its row piece's base, which takes ``up`` off again.  Segments
    go in chunks of at most ``MAX_VISITS`` visits (a longer segment goes
    alone), and the pieces are summed by ``np.bincount`` in a fixed
    order, so the result is reproducible bit for bit.
    """
    ny, nx = values.shape
    ox, oy = float(origin[0]), float(origin[1])
    start = np.asarray(start, dtype=np.float64).reshape(-1, 2)
    end = np.asarray(end, dtype=np.float64).reshape(-1, 2)
    d = end - start
    keep = np.flatnonzero((d[:, 0] != 0.0) | (d[:, 1] != 0.0))
    x0, y0 = start[keep, 0], start[keep, 1]
    dx, dy = d[keep, 0], d[keep, 1]
    w = np.asarray(weight, dtype=np.float64)[keep] / (cell * cell)
    r0 = _cell_index(y0, oy, cell, ny)
    r1 = _cell_index(y0 + dy, oy, cell, ny)
    # column ends from x(t) = x0 + t dx, the formula the row pieces use
    c0 = _cell_index(x0, ox, cell, nx)
    c1 = _cell_index(x0 + dx, ox, cell, nx)
    cum = np.cumsum(np.abs(r1 - r0) + np.abs(c1 - c0) + 1)
    lo = 0
    while lo < len(keep):
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + MAX_VISITS, side="right")))
        part = slice(lo, hi)
        ra, rb = r0[part], r1[part]
        rc, rfirst, rup, row, t1 = _split(0.0, 1.0, ra, rb, y0[part], dy[part], oy, cell)
        t0 = np.empty_like(t1)
        t0[1:] = t1[:-1]
        t0[rfirst] = 0.0
        xs, xd = x0[part].repeat(rc), dx[part].repeat(rc)
        x1 = t1 * xd
        x1 += xs
        c_out = _cell_index(x1, ox, cell, nx)
        c_in = np.empty_like(c_out)
        c_in[1:] = c_out[:-1]
        c_in[rfirst] = c0[part]
        cc, cfirst, cup, col, t = _split(t0, t1, c_in, c_out, xs, xd, ox, cell)
        length = np.empty_like(t)
        np.subtract(t[1:], t[:-1], out=length[1:])
        length[cfirst] = t[cfirst] - t0
        length *= w[part].repeat(rc).repeat(cc)
        # sum over the rows this chunk spans only, not the whole grid; a
        # row piece's base is (row - r_lo) * nx - up of its column split
        r_lo = min(ra.min(), rb.min())
        r_hi = max(ra.max(), rb.max()) + 1
        row -= rup.repeat(rc)
        row -= r_lo
        row *= nx
        row -= cup
        col += row.repeat(cc)
        values[r_lo:r_hi] += np.bincount(
            col, weights=length, minlength=(r_hi - r_lo) * nx
        ).reshape(-1, nx)
        lo = hi
    return values


def power_sum(values, p, overwrite=False):
    """``np.sum(values**p)``, with the power taken on nonzero cells only.

    0**p is exactly 0 for p > 0, so skipping the zero cells leaves the
    sum bit for bit as it was; a negative cell still gives NaN.  With
    ``overwrite`` the powers replace ``values`` in place.
    """
    if not p > 0.0:
        raise ValueError(f"p must be positive, got {p!r}")
    out = values if overwrite else np.zeros_like(values)
    return np.sum(np.power(values, p, out=out, where=values != 0.0))


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
    outside = ~inside

    # inside: one step per (row, non-horizontal chord) at x* on its line,
    # computed chord by chord: down the rows a chord's x* is monotone,
    # which the binary searches of searchsorted exploit
    slanted = d[:, 1] != 0.0
    ds, a_s = d[slanted], a[slanted]
    k = len(ds)
    x_star = np.subtract(ys, a_s[:, 1, None])
    x_star *= (ds[:, 0] / ds[:, 1])[:, None]
    x_star += a_s[:, 0, None]
    col = np.searchsorted(xs, x_star.ravel(), side="left").reshape(k, ny)
    # left of the line before the step when the chord points up, after it
    # when it points down
    up = ds[:, 1] > 0.0
    step = np.where(up, -mass[slanted], mass[slanted])
    level = ~slanted
    row_left = _left_of(d[level], centers[:, :1] - a[level])
    # the bincount sums in this order, row bases first and then each
    # row's steps chord by chord; column 0 of each row starts from the
    # mass left of the row's first step
    rows = np.arange(ny) * (nx + 1)
    at = np.empty(ny * (k + 1), dtype=np.intp)
    at[:ny] = rows
    np.add(col.T, rows[:, None], out=at[ny:].reshape(ny, k))
    weights = np.empty(ny * (k + 1))
    np.add(mass[slanted][up].sum(), row_left @ mass[level], out=weights[:ny])
    weights[ny:].reshape(ny, k)[:] = step
    steps = np.bincount(at, weights=weights, minlength=ny * (nx + 1)).reshape(ny, nx + 1)
    out = np.subtract(mass @ anchor_left, np.cumsum(steps, axis=1)[:, :nx])

    # outside: [lo < theta < hi] = [lo < theta] - [hi <= theta], each read
    # off a cumulative sum over the chords sorted by that endpoint angle
    tangent = np.array([-normal[1], normal[0]])

    def angle(v):
        return np.arctan2(v @ tangent, v @ normal)

    ang = np.stack([angle(a - p0), angle(b - p0)])
    lo, hi = ang.min(axis=0), ang.max(axis=0)
    w = np.where(anchor_left, mass, -mass)
    theta = angle(centers[outside] - p0)
    field = np.zeros(theta.shape)
    for edge, side, sign in ((lo, "left", 1.0), (hi, "right", -1.0)):
        order = np.argsort(edge, kind="stable")
        cum = np.concatenate([[0.0], np.cumsum(w[order])])
        field += sign * cum[np.searchsorted(edge[order], theta, side=side)]
    out[outside] = field
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
    chords above it.  A chord that closes on top of the stack crosses
    nothing and pops in O(1); optimal rays never cross, so on the chords
    of an optimal plan every close is such a pop.  Returns int64 arrays
    (i, j) with i < j, in lexicographic order.
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
        elif stack[-1] == e:
            stack.pop()
        else:
            at = len(stack) - 2
            while stack[at] != e:
                at -= 1
            pairs.extend((e, c) for c in stack[at + 1:])
            del stack[at]
    ij = idx[np.array(pairs, dtype=np.int64).reshape(-1, 2)]
    i, j = ij.min(axis=1), ij.max(axis=1)
    order = np.lexsort((j, i))
    return i[order], j[order]
