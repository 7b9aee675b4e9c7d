"""Transportation simplex on dense cost matrices.

The solver keeps a spanning-tree basis of n + m - 1 cells, prices with
dual potentials (u_i + v_j = c_ij on basic cells), enters the most
negative reduced cost with lexicographic tie-breaking, and falls back
to Bland's rule after a run of degenerate pivots so it can never cycle.
Bland mode ends at the next strictly improving pivot; a pure-Bland tail
is kept only while the degeneracy persists, which is all that
termination needs.

The boundary start matches atoms last-in-first-out along the boundary
(optimal rays never cross, so optimal plans pair mass at equal levels
of the cumulative signed mass).  An exact mass tie in the walk keeps
the emptying arrival alive with mass 0, and its zero-flow cell joins
the matching, so a walk that ends with one atom on its stack leaves
one spanning tree.  When float dust leaves more atoms on the stack,
each further tree hangs from the first tree holding both kinds by the
cell of least reduced cost between them.  Every start runs the core,
whose first pricing is the certificate: if no cell prices in, the
start is certified and the solve makes no pivot.

Each start search walks once.  Separated supports (sources on one
arc, targets on the other) pair the same atoms from every seam, so
they walk from s = 0 alone.  Any other input is first swept for the
seam with the cheapest LIFO plan, in one pass over the levels, and
walks from it, or from s = 0 when no seam is cheaper.

One core: numpy pricing and python tree bookkeeping.  The basis tree
hangs from node 0 and persists across pivots.  A pivot re-hangs only
the subtree that the leaving cell cuts off, from the entering cell's
end outside it, and recomputes that subtree's parents, depths and
potentials top down, on python lists of the basic costs and the
potentials.  A tree rooted at 0 gives every node one path to the
root, so the potentials are the same floats a full rebuild gives.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

STALL_LIMIT = 64


def _solve_core(C, a, b, bi, bj, f, u, v, tol, max_iter):
    n, m = C.shape
    nn = n + m
    # scalar reads and writes on lists are cheaper than on arrays; the
    # basis goes back into bi, bj, f on return, and the potentials into
    # u, v before each pricing
    ei, ej, fl = bi.tolist(), bj.tolist(), f.tolist()
    cl = C[bi, bj].tolist()  # the basic cells' costs
    ul, vl = [0.0] * n, [0.0] * m
    adj = [set() for _ in range(nn)]
    for e in range(nn - 1):
        adj[ei[e]].add(e)
        adj[n + ej[e]].add(e)
    parent_node = [-1] * nn
    parent_edge = [-1] * nn
    depth = [0] * nn
    reduced = np.empty_like(C)
    flat_reduced = reduced.ravel()
    root = 0  # the whole tree hangs from node 0 at the start
    bland = False
    degen = 0
    it = 0
    while True:
        it += 1
        if it > max_iter:
            status = 1
            break
        # walk the subtree under root top down: parents, depths and the
        # potentials u_i + v_j = c_ij along its tree edges
        walked = 0
        stack = [root]
        while stack:
            x = stack.pop()
            walked += 1
            if walked > nn:
                break  # a cycle in the start basis
            pe = parent_edge[x]
            d = depth[x] + 1
            if x < n:
                ux = ul[x]
                for e in adj[x]:
                    if e != pe:
                        j = ej[e]
                        parent_node[n + j] = x
                        parent_edge[n + j] = e
                        depth[n + j] = d
                        vl[j] = cl[e] - ux
                        stack.append(n + j)
            else:
                vx = vl[x - n]
                for e in adj[x]:
                    if e != pe:
                        i = ei[e]
                        parent_node[i] = x
                        parent_edge[i] = e
                        depth[i] = d
                        ul[i] = cl[e] - vx
                        stack.append(i)
        if it == 1 and walked != nn:
            status = 2  # the start basis is not a spanning tree
            break
        u[:] = ul
        v[:] = vl
        np.subtract(C, u[:, None], out=reduced)
        reduced -= v
        if bland:
            mask = flat_reduced < -tol
            if not mask.any():
                status = 0
                break
            flat = int(np.argmax(mask))
        else:
            flat = int(np.argmin(flat_reduced))
            if flat_reduced[flat] >= -tol:
                status = 0
                break
        be_i, be_j = divmod(flat, m)
        # cycle: tree path between source be_i and target node n + be_j
        x, y = be_i, n + be_j
        path1, path2 = [], []
        while depth[x] > depth[y]:
            path1.append(parent_edge[x])
            x = parent_node[x]
        while depth[y] > depth[x]:
            path2.append(parent_edge[y])
            y = parent_node[y]
        while x != y:
            path1.append(parent_edge[x])
            x = parent_node[x]
            path2.append(parent_edge[y])
            y = parent_node[y]
        # cycle order: entering edge, then path2 (from the target up),
        # then path1 reversed; signs alternate starting +
        odd = (len(path1) + len(path2) - 1) % 2
        minus = path2[0::2] + path1[odd::2]
        plus = path2[1::2] + path1[1 - odd :: 2]
        if not minus:
            status = 3  # unbounded; cannot happen on balanced instances
            break
        if it == 1:  # the first pivot; no pricing reads theta_tol
            theta_tol = 1e-14 * (1.0 + float(max(np.max(a), np.max(b))))
        # cells of a tree are distinct, so (flow, cell) has one minimum
        leave = min(minus, key=lambda e: (fl[e], ei[e], ej[e]))
        theta = fl[leave]
        for e in minus:
            fl[e] -= theta
        for e in plus:
            fl[e] += theta
        # re-hang the subtree cut off by the leaving edge from the end
        # of the entering edge outside it; the next walk starts there
        adj[ei[leave]].remove(leave)
        adj[n + ej[leave]].remove(leave)
        ei[leave] = be_i
        ej[leave] = be_j
        fl[leave] = theta
        cl[leave] = C.item(flat)
        adj[be_i].add(leave)
        adj[n + be_j].add(leave)
        if leave in path1:
            root, top = be_i, n + be_j
            ul[be_i] = cl[leave] - vl[be_j]
        else:
            root, top = n + be_j, be_i
            vl[be_j] = cl[leave] - ul[be_i]
        parent_node[root] = top
        parent_edge[root] = leave
        depth[root] = depth[top] + 1
        if theta <= theta_tol:
            degen += 1
            if degen > STALL_LIMIT:
                bland = True
        else:
            # leave Bland mode on strict improvement; any infinite run
            # of pivots must end in an all-degenerate tail where Bland
            # stays on, so termination is preserved
            degen = 0
            bland = False
    if it > 1:  # only pivots change the basis
        bi[:] = ei
        bj[:] = ej
        f[:] = fl
    return status, it


def northwest_basis(a, b):
    """Northwest-corner starting basis: n + m - 1 cells, staircase tree.

    No solve starts here: every plan pairs atoms at known boundary
    positions.  It is the tests' positionless reference start, and the
    benchmark's tracer still times it by name.
    """
    n, m = len(a), len(b)
    nb = n + m - 1
    bi = np.zeros(nb, dtype=np.int64)
    bj = np.zeros(nb, dtype=np.int64)
    f = np.zeros(nb)
    ar = np.array(a, dtype=float)
    br = np.array(b, dtype=float)
    i = j = 0
    for e in range(nb):
        bi[e] = i
        bj[e] = j
        t = min(ar[i], br[j])
        f[e] = t
        ar[i] -= t
        br[j] -= t
        if ar[i] <= 0.0 and i < n - 1:
            i += 1
        elif br[j] <= 0.0 and j < m - 1:
            j += 1
        elif i < n - 1:
            i += 1
        elif j < m - 1:
            j += 1
    return bi, bj, f


def _events(s_a, s_b):
    """Atoms in boundary order, sources before targets at equal
    positions: (kind, index) arrays, kind 0 for a source."""
    n = len(s_a)
    s = np.concatenate([np.asarray(s_a, dtype=float), np.asarray(s_b, dtype=float)])
    kind = np.repeat(np.array([0, 1], dtype=np.int64), [n, len(s_b)])
    idx = np.concatenate([np.arange(n), np.arange(len(s_b))])
    order = np.lexsort((idx, kind, s))
    return kind[order], idx[order]


def _lifo(a, b, kinds, idxs):
    """Last-in-first-out matching of opposite-kind atoms in walk order.

    Returns the positive cells as (i, j, mass) lists and the zero-flow
    cells of the walk's exact ties as a list of (i, j).  An arrival
    that exactly empties the stack top stays alive with mass 0: it
    takes a zero-flow cell with the next stack item, or, on an empty
    stack, it is pushed with mass 0 and the next arrival of the other
    kind takes a zero-flow cell with it.  Every cell thus finishes
    exactly one atom, and the cells form one tree per atom left on the
    stack: a spanning tree when one is left (Charnes' perturbation of a
    degenerate transportation basis).  The positive cells and their
    masses are the walk's without tie cells, since the subtractions
    are the same.  The stack's leftover float dust at the end of the
    walk is dropped; it is bounded by the balance tolerance enforced
    before solving.
    """
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


def _forest(C, ei, ej):
    """Components of a matching forest and each one's tree potentials.

    Components are numbered by their least node (sources 0..n-1, then
    targets); each is rooted there with potential 0, and
    u_i + v_j = c_ij holds on its edges.  Returns (K, comp, u, v).
    """
    n, m = C.shape
    adj = [[] for _ in range(n + m)]
    for i, j, c in zip(ei, ej, C[ei, ej].tolist()):
        adj[i].append((n + j, c))
        adj[n + j].append((i, c))
    comp = [-1] * (n + m)
    pot = [0.0] * (n + m)
    k = 0
    for r in range(n + m):
        if comp[r] >= 0:
            continue
        comp[r] = k
        stack = [r]
        while stack:
            x = stack.pop()
            for y, c in adj[x]:
                if comp[y] < 0:
                    comp[y] = k
                    pot[y] = c - pot[x]
                    stack.append(y)
        k += 1
    # a LIFO walk cannot trip this: each of its cells finishes one atom
    # and joins it to one that is finished later or never
    if len(ei) != n + m - k:
        raise SolverError("boundary matching produced a cycle")
    pot = np.array(pot)
    return k, np.array(comp, dtype=np.int64), pot[:n], pot[n:]


def _joins(C, k, comp, u, v):
    """Zero-flow cells hanging every tree of a forest from the first
    tree that holds both kinds.

    A tree joins at the least reduced cost of its own block: its
    sources against the root tree's targets, or, holding targets only,
    the root tree's sources against its targets.  Each tree's reduced
    costs are taken under its own potentials, which a join may shift by
    an offset without changing the block's argmin; the first least
    cell is taken.
    """
    n = len(u)
    cs, ct = comp[:n], comp[n:]
    both = (np.bincount(cs, minlength=k) > 0) & (np.bincount(ct, minlength=k) > 0)
    root = int(np.argmax(both))
    rs, rt = np.flatnonzero(cs == root), np.flatnonzero(ct == root)
    joins = []
    for c in range(k):
        if c == root:
            continue
        rows, cols = np.flatnonzero(cs == c), np.flatnonzero(ct == c)
        rows, cols = (rows, rt) if len(rows) else (rs, cols)
        R = C[rows[:, None], cols]
        R -= u[rows, None]
        R -= v[cols]
        f, w = divmod(int(R.argmin()), len(cols))
        joins.append((int(rows[f]), int(cols[w])))
    return joins


def _seam_costs(C, a, b, kinds, idxs):
    """Cost of the LIFO plan from a seam before each event.

    F, the cumulative signed mass along the walk, crosses each level t
    alternately upward (a source) and downward (a target).  A seam at
    level L pairs every up-crossing of a level t > L with the next
    down-crossing and every up-crossing of t < L with the previous one,
    cyclically; so with the levels cut into bands between the values F
    takes, the cost of a seam is a prefix sum of per-band costs.  Bands
    crossed an odd number of times lie between 0 and F's final value,
    which is float dust; they are counted as costing nothing.  The sweep
    holds one row per (event, band) crossing: a few per band for smooth
    data, about n * m / 10 for random masses.
    """
    mass = np.concatenate([a, b])[idxs + kinds * len(a)]
    w = np.where(kinds == 0, mass, -mass)
    F = np.cumsum(w)
    seam_level = np.concatenate([[0.0], F[:-1]])
    # distinct levels, sorted; np.unique would import numpy.ma
    levels = np.sort(np.concatenate([[0.0], F]))
    levels = levels[np.diff(levels, prepend=-np.inf) > 0]
    width = np.diff(levels)
    lo = np.searchsorted(levels, np.minimum(seam_level, F))
    cnt = np.searchsorted(levels, np.maximum(seam_level, F)) - lo
    # one row per (event, band it crosses), in boundary order per band
    ev = np.repeat(np.arange(len(w)), cnt)
    band = lo[ev] + np.arange(len(ev)) - np.repeat(np.cumsum(cnt) - cnt, cnt)
    order = np.argsort(band, kind="stable")
    ev, band = ev[order], band[order]
    per = np.bincount(band, minlength=len(width))
    first = np.cumsum(per) - per
    at = np.flatnonzero((kinds[ev] == 0) & (per[band] % 2 == 0))
    bt = band[at]
    rank = at - first[bt]
    nxt = np.where(rank + 1 < per[bt], at + 1, first[bt])
    prv = np.where(rank > 0, at - 1, first[bt] + per[bt] - 1)
    src = idxs[ev[at]]
    up = width * np.bincount(bt, weights=C[src, idxs[ev[nxt]]], minlength=len(width))
    down = width * np.bincount(bt, weights=C[src, idxs[ev[prv]]], minlength=len(width))
    below = np.concatenate([[0.0], np.cumsum(down)])
    above = np.concatenate([np.cumsum(up[::-1])[::-1], [0.0]])
    t = np.searchsorted(levels, seam_level)
    return below[t] + above[t]


def _as_basis(ei, ej, ef, joins):
    n_b = len(ei) + len(joins)
    bi = np.array(ei + [j[0] for j in joins], dtype=np.int64)
    bj = np.array(ej + [j[1] for j in joins], dtype=np.int64)
    f = np.zeros(n_b)
    f[: len(ef)] = ef
    return bi, bj, f


def boundary_stack_basis(C, a, b, s_a, s_b):
    """Non-crossing LIFO matching along the boundary, as a spanning tree.

    Walking the boundary from a seam, opposite-kind atoms match
    last-in-first-out, which never produces crossing chords.  Its
    positive cells and the zero-flow cells of its exact ties
    (:func:`_lifo`) form a forest of n + m - (number of cells) trees;
    when float dust leaves more than one, the joins of :func:`_joins`
    make it one spanning tree.

    Each start search walks once.  When the supports are separated
    (the sources fill one arc and the targets the other, so the event
    kinds form at most two runs around the boundary), the cumulative
    signed mass F is unimodal: every level is crossed once upward and
    once downward, and every seam pairs the same atoms, whatever C is.
    The walk from s = 0 is then the only one.  Any other input is swept
    first (:func:`_seam_costs`), and the walk starts at the cheapest
    seam when its LIFO plan beats seam 0's by more than the sweep's
    rounding, else at s = 0.

    Returns (bi, bj, f, seam), ``seam`` the event index the walk
    started at.
    """
    kinds, idxs = _events(s_a, s_b)
    seam = 0
    if np.count_nonzero(kinds[1:] != kinds[:-1]) > 2:
        costs = _seam_costs(C, a, b, kinds, idxs)
        cheapest = int(np.argmin(costs))
        # the sweep is exact to ~1e-14 relative; a seam not cheaper by
        # more than that pairs the levels as seam 0 does, up to rounding
        if costs[cheapest] < costs[0] - 1e-12 * abs(costs[0]):
            seam = cheapest
            kinds, idxs = np.roll(kinds, -seam), np.roll(idxs, -seam)
    ei, ej, ef, joins = _lifo(a, b, kinds, idxs)
    if len(a) + len(b) - len(ei) - len(joins) > 1:
        cells = ei + [i for i, _ in joins], ej + [j for _, j in joins]
        joins = joins + _joins(C, *_forest(C, *cells))
    return (*_as_basis(ei, ej, ef, joins), seam)


def _start(seam, certified):
    """The (kind, seam, reason) tuple of a start."""
    why = "its first pricing finds a negative reduced cost"
    if not seam:
        return ("certified", 0, "") if certified else ("lifo", 0, f"seam 0: {why}; no cheaper seam")
    cheaper = f"seam 0: seam {seam} is cheaper"
    if certified:
        return ("certified_seam", seam, cheaper)
    return ("lifo", seam, f"{cheaper}; seam {seam}: {why}")


def solve_transport(C, a, b, s_a, s_b):
    """Run the simplex; returns (bi, bj, f, u, v, start, iterations).

    The start is :func:`boundary_stack_basis` on the boundary positions
    ``s_a`` and ``s_b``.  It is certified when the core stops at its
    first pricing.  ``start`` is the tuple (kind, seam, reason) that
    :class:`ot.SolverStats` records.

    The reason of a start from seam 0 is "" when it certified, else
    "seam 0: " and its verdict, then "; no cheaper seam".  A start from
    a cheaper seam S gives "seam 0: seam S is cheaper", since seam 0
    was not walked, and adds "; seam S: " and its verdict when it did
    not certify.
    """
    C = np.ascontiguousarray(C, dtype=np.float64)
    n, m = C.shape
    bi, bj, f, seam = boundary_stack_basis(C, a, b, s_a, s_b)
    u, v = np.zeros(n), np.zeros(m)
    tol = 1e-12 * (1.0 + float(np.abs(C).max(initial=0.0)))
    max_iter = 400 * (n + m) + 200000
    status, iters = _solve_core(C, a, b, bi, bj, f, u, v, tol, max_iter)
    if status == 1:
        raise SolverError(f"simplex hit the iteration cap after {iters} pivots")
    if status == 2:
        raise SolverError("the start basis is not a spanning tree")
    if status == 3:
        raise SolverError("no leaving cell: the transportation problem is unbounded")
    return bi, bj, f, u, v, _start(seam, iters == 1), iters
