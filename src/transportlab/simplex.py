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

One core: numpy pricing and python bookkeeping, since scalar reads
and writes are cheaper on lists than on arrays.  Every start hands the
core its basis as lists of sources, targets and flows; the core pivots
them in place under its own limits and raises :class:`SolverError` on
failure, and :func:`solve_transport` returns them as arrays.  A basis
tree is one adjacency list, each node's edges mapped to their other
ends (sources 0..n-1, then targets), and one python list of
potentials, u then v.  One walk, :func:`_hang`, sets parents, depths
and potentials top down under a root.  The core's first walk hangs the
whole tree from node 0, and the tree persists across pivots: a pivot
re-hangs only the subtree that the leaving cell cuts off, from the
entering cell's end outside it.  The start's forest is hung by the
same walk, once per tree.  A tree rooted at 0 gives every node one
path to the root, so the potentials are the same floats a full
rebuild gives.
"""

from __future__ import annotations

from itertools import islice

import numpy as np

from .errors import SolverError

STALL_LIMIT = 64


def _adjacency(n, nn, ei, ej):
    """The graph of cells (ei[e], ej[e]) on nodes 0..nn-1: ``adj[x]``
    maps each edge at node x to its other end, target j being node
    n + j."""
    adj = [{} for _ in range(nn)]
    for e, (i, j) in enumerate(zip(ei, ej)):
        adj[i][e] = n + j
        adj[n + j][e] = i
    return adj


def _hang(root, adj, cl, pot, parent_node, parent_edge, depth):
    """Hang the tree under ``root`` top down: each node y reached from x
    over edge e gets parent x, edge e, depth one more than x's, and the
    potential ``pot[y] = cl[e] - pot[x]``, so u_i + v_j = c_ij holds on
    every edge walked.  The walk never goes back over a node's parent
    edge, root's included.  Returns the nodes reached in walk order,
    root first.  A cycle makes the walk endless, so it walks on from at
    most as many nodes as ``adj`` has: reaching more means a cycle.
    """
    order = [root]  # the walk's queue: it walks on from what it appends
    for x in islice(order, len(adj)):
        pe = parent_edge[x]
        d = depth[x] + 1
        px = pot[x]
        for e, y in adj[x].items():
            if e != pe:
                parent_node[y] = x
                parent_edge[y] = e
                depth[y] = d
                pot[y] = cl[e] - px
                order.append(y)
    return order


def _solve_core(C, a, b, bi, bj, f):
    """Pivot the basis lists (bi, bj, f), n + m - 1 cells, in place to an
    optimal spanning tree; returns (u, v, iterations): the last
    pricing's potentials as arrays and the number of pricings, 1 when
    the start prices out.  The pricing tolerance scales with the largest
    cost, the iteration cap with n + m and the degenerate-pivot
    tolerance with the largest mass.  Raises :class:`SolverError` when
    the start is not a spanning tree, when a cycle has no leaving cell,
    or at the iteration cap.
    """
    n, m = C.shape
    nn = n + m
    tol = 1e-12 * (1.0 + float(np.abs(C).max(initial=0.0)))
    max_iter = 400 * nn + 200000
    # the basic cells' costs; fromiter converts lists faster than np.array
    cl = C[np.fromiter(bi, np.int64), np.fromiter(bj, np.int64)].tolist()
    pot = [0.0] * nn  # u, then v
    adj = _adjacency(n, nn, bi, bj)
    parent_node = [-1] * nn
    parent_edge = [-1] * nn
    depth = [0] * nn
    u, v = np.zeros(n), np.zeros(m)
    reduced = np.empty_like(C)
    flat_reduced = reduced.ravel()
    root = 0  # the whole tree hangs from node 0 at the start
    bland = False
    degen = 0
    for it in range(1, max_iter + 1):
        walked = _hang(root, adj, cl, pot, parent_node, parent_edge, depth)
        if it == 1 and len(walked) != nn:
            raise SolverError("the start basis is not a spanning tree")
        u[:] = pot[:n]
        v[:] = pot[n:]
        np.subtract(C, u[:, None], out=reduced)
        reduced -= v
        if bland:
            mask = flat_reduced < -tol
            if not mask.any():
                return u, v, it
            flat = int(np.argmax(mask))
        else:
            flat = int(np.argmin(flat_reduced))
            if flat_reduced[flat] >= -tol:
                return u, v, it
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
        if not minus:  # cannot happen on balanced instances
            raise SolverError("no leaving cell: the transportation problem is unbounded")
        if it == 1:  # the first pivot; no pricing reads theta_tol
            theta_tol = 1e-14 * (1.0 + float(max(np.max(a), np.max(b))))
        # cells of a tree are distinct, so (flow, cell) has one minimum
        leave = min(minus, key=lambda e: (f[e], bi[e], bj[e]))
        theta = f[leave]
        for e in minus:
            f[e] -= theta
        for e in plus:
            f[e] += theta
        # re-hang the subtree cut off by the leaving edge from the end
        # of the entering edge outside it; the next walk starts there
        del adj[bi[leave]][leave]
        del adj[n + bj[leave]][leave]
        bi[leave] = be_i
        bj[leave] = be_j
        f[leave] = theta
        cl[leave] = C.item(flat)
        adj[be_i][leave] = n + be_j
        adj[n + be_j][leave] = be_i
        root, top = (be_i, n + be_j) if leave in path1 else (n + be_j, be_i)
        pot[root] = cl[leave] - pot[top]
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
    raise SolverError(f"simplex hit the iteration cap after {max_iter + 1} pivots")


def northwest_basis(a, b):
    """Northwest-corner starting basis: n + m - 1 cells, staircase tree,
    as the (bi, bj, f) lists that :func:`_solve_core` takes.

    No solve starts here: every plan pairs atoms at known boundary
    positions.  It is the tests' positionless reference start, and the
    benchmark's tracer still times it by name.
    """
    n, m = len(a), len(b)
    ar = np.array(a, dtype=float).tolist()
    br = np.array(b, dtype=float).tolist()
    bi, bj, f = [], [], []
    i = j = 0
    for _ in range(n + m - 1):
        bi.append(i)
        bj.append(j)
        t = min(ar[i], br[j])
        f.append(t)
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

    The stack never holds both kinds, since an arrival of the other
    kind is matched against it before anything is pushed, so it is one
    kind and parallel lists of indices and remaining masses; the masses
    are read from python lists.
    """
    mass = (np.asarray(a, dtype=float).tolist(), np.asarray(b, dtype=float).tolist())
    held = -1  # the kind of every atom on the stack
    at, left = [], []  # the stack: atom indices and remaining masses
    ei, ej, ef, ties = [], [], [], []
    for kind, idx in zip(kinds.tolist(), idxs.tolist()):
        rem = mass[kind][idx]
        if kind == held:
            at.append(idx)
            left.append(rem)
            continue
        while at:
            top = left[-1]
            c = min(rem, top)
            i, j = (idx, at[-1]) if kind == 0 else (at[-1], idx)
            if c > 0:
                ei.append(i)
                ej.append(j)
                ef.append(c)
            else:
                ties.append((i, j))
            top -= c
            if top <= 0:
                at.pop()
                left.pop()
                rem -= c
            else:
                left[-1] = top
                break
        else:
            held = kind
            at.append(idx)
            left.append(rem)
    return ei, ej, ef, ties


def _forest(C, ei, ej):
    """Components of a matching forest and each one's tree potentials.

    Components are numbered by their least node (sources 0..n-1, then
    targets); each is rooted there with potential 0, and
    u_i + v_j = c_ij holds on its edges.  Returns (K, comp, u, v).
    """
    n, m = C.shape
    nn = n + m
    adj = _adjacency(n, nn, ei, ej)
    cl = C[ei, ej].tolist()
    pot = [0.0] * nn
    parent_node, parent_edge, depth = [-1] * nn, [-1] * nn, [0] * nn
    comp = [-1] * nn
    k = 0
    for r in range(nn):
        if comp[r] < 0:
            for y in _hang(r, adj, cl, pot, parent_node, parent_edge, depth):
                comp[y] = k
            k += 1
    # a LIFO walk cannot trip this: each of its cells finishes one atom
    # and joins it to one that is finished later or never
    if len(ei) != nn - k:
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

    Returns (bi, bj, f, seam): the basis lists, zero-flow cells last,
    and ``seam`` the event index the walk started at.
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
    bi, bj, f, joins = _lifo(a, b, kinds, idxs)
    if len(a) + len(b) - len(bi) - len(joins) > 1:
        cells = bi + [i for i, _ in joins], bj + [j for _, j in joins]
        joins += _joins(C, *_forest(C, *cells))
    bi += [i for i, _ in joins]
    bj += [j for _, j in joins]
    f += [0.0] * len(joins)
    return bi, bj, f, seam


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
    ``s_a`` and ``s_b``, certified when the core stops at its first
    pricing; the core's lists come back as int64 cells and float64
    flows.  ``start`` is the tuple (kind, seam, reason) that
    :class:`ot.SolverStats` records.

    The reason of a start from seam 0 is "" when it certified, else
    "seam 0: " and its verdict, then "; no cheaper seam".  A start from
    a cheaper seam S gives "seam 0: seam S is cheaper", since seam 0
    was not walked, and adds "; seam S: " and its verdict when it did
    not certify.
    """
    C = np.ascontiguousarray(C, dtype=np.float64)
    bi, bj, f, seam = boundary_stack_basis(C, a, b, s_a, s_b)
    u, v, iters = _solve_core(C, a, b, bi, bj, f)
    bi, bj = np.fromiter(bi, np.int64), np.fromiter(bj, np.int64)
    return bi, bj, np.fromiter(f, float), u, v, _start(seam, iters == 1), iters
