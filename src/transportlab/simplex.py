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
the matching into one spanning tree whenever the walk ends with one
atom on its stack.  That tree is priced once and is the start when it
certifies.  Otherwise (float dust left on the stack, or a tie tree
that prices a cell in) the forest of positive cells is joined into a
basis through cells that certify it optimal when it is, found by
Bellman-Ford over the components' potential offsets.  A certified
start makes the first pricing find no entering cell, so the solve
makes no pivot.

Each start search walks once.  Separated supports (sources on one
arc, targets on the other) pair the same atoms from every seam, so
they walk from s = 0 alone.  Any other input is first swept for the
seam with the cheapest LIFO plan, in one pass over the levels, and
walks from it, or from s = 0 when no seam is cheaper.  A start that
does not certify keeps that walk's tie tree when its tie cells span,
else plain joins of its forest; a cheaper seam's forest of several
trees gives way to seam 0's, the one case that walks twice.  Input
without boundary positions starts from the northwest corner.  Every
start is priced once.  A certified single tree (a tie tree, or a
forest of one component) is priced by its certificate, whose
potentials and reduced costs are the core's own; every other start is
priced by the core.

One core: numpy pricing and python tree bookkeeping.  The basis tree
hangs from node 0 and persists across pivots.  A pivot re-hangs only
the subtree that the leaving cell cuts off, from the entering cell's
end outside it, and recomputes that subtree's parents, depths and
potentials top down.  A tree rooted at 0 gives every node one path to
the root, so the potentials are the same floats a full rebuild gives.
"""

from __future__ import annotations

import numpy as np

from .errors import SolverError

STALL_LIMIT = 64
# Gauss-Seidel sweeps the certificate's Bellman-Ford may take, each
# O(K^2) in the number K of forest components, before it gives up
CERTIFY_SWEEPS = 8


def _solve_core(C, bi, bj, f, u, v, tol, theta_tol, max_iter):
    n, m = C.shape
    nn = n + m
    # scalar reads and writes on lists are cheaper than on arrays; the
    # basis goes back into bi, bj, f on return
    ei, ej, fl = bi.tolist(), bj.tolist(), f.tolist()
    adj = [set() for _ in range(nn)]
    for e in range(nn - 1):
        adj[ei[e]].add(e)
        adj[n + ej[e]].add(e)
    parent_node = [-1] * nn
    parent_edge = [-1] * nn
    depth = [0] * nn
    reduced = np.empty_like(C)
    flat_reduced = reduced.ravel()
    u[0] = 0.0
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
                ux = u[x]
                for e in adj[x]:
                    if e != pe:
                        j = ej[e]
                        parent_node[n + j] = x
                        parent_edge[n + j] = e
                        depth[n + j] = d
                        v[j] = C[x, j] - ux
                        stack.append(n + j)
            else:
                vx = v[x - n]
                for e in adj[x]:
                    if e != pe:
                        i = ei[e]
                        parent_node[i] = x
                        parent_edge[i] = e
                        depth[i] = d
                        u[i] = C[i, x - n] - vx
                        stack.append(i)
        if it == 1 and walked != nn:
            status = 2  # the start basis is not a spanning tree
            break
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
        adj[be_i].add(leave)
        adj[n + be_j].add(leave)
        if leave in path1:
            root, top = be_i, n + be_j
            u[be_i] = C[be_i, be_j] - v[be_j]
        else:
            root, top = n + be_j, be_i
            v[be_j] = C[be_i, be_j] - u[be_i]
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
    bi[:] = ei
    bj[:] = ej
    f[:] = fl
    return status, it


def northwest_basis(a, b):
    """Northwest-corner starting basis: n + m - 1 cells, staircase tree."""
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


def _price_tol(C) -> float:
    return 1e-12 * (1.0 + float(np.abs(C).max(initial=0.0)))


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


def _groups(labels):
    """A stable order that groups equal labels, the labels present and
    where each one's group starts in that order."""
    order = np.argsort(labels, kind="stable")
    ranked = labels[order]
    start = np.flatnonzero(np.diff(ranked, prepend=-1))
    return order, ranked[start], start


def _first(labels, k):
    """First index holding each label, -1 where a label is absent."""
    order, found, start = _groups(labels)
    first = np.full(k, -1, dtype=np.int64)
    first[found] = order[start]
    return first


def _plain_joins(n, k, comp):
    """Zero-flow cells joining the forest into a tree, the old way.

    The root is the first component holding atoms of both kinds; every
    other component joins it through its first source and the root's
    first target, or, holding targets only, through its first target
    and the root's first source.
    """
    fs, ft = _first(comp[:n], k), _first(comp[n:], k)
    root = int(np.flatnonzero((fs >= 0) & (ft >= 0))[0])
    return [
        (int(fs[c]), int(ft[root])) if fs[c] >= 0 else (int(fs[root]), int(ft[c]))
        for c in range(k)
        if c != root
    ]


def _offset_tree(W, root, dist, pred, tol):
    """The (source component, target component) blocks of the tree
    that Bellman-Ford's predecessors span, if its offsets certify.

    A component holding targets only has no constraint from below but
    d_T >= d_A - W_AT: it hangs from the maximiser of d_A - W_AT.  The
    offsets are recomputed along the tree by pointer doubling, and
    every block is checked.  Returns (blocks, ""), or (None, reason):
    a cycle among the predecessors proves a negative cycle, a failed
    block only that Bellman-Ford has not settled.
    """
    k = len(W)
    up = pred.copy()
    step = np.zeros(k)  # d_c - d_up[c] along each tree edge
    has = up >= 0
    step[has] = W[has, up[has]]
    lone = np.flatnonzero(~np.isfinite(dist))
    if len(lone):
        # finite blocks pair a lone target with source components, all
        # of which Bellman-Ford reached
        ok = np.isfinite(W[:, lone])
        lift = np.where(ok, dist[:, None], -np.inf) - np.where(ok, W[:, lone], 0.0)
        up[lone] = lift.argmax(axis=0)
        step[lone] = -W[up[lone], lone]
    up[root] = root
    step[root] = 0.0
    d, top = step, up
    for _ in range(max(k - 1, 1).bit_length()):
        d = d + d[top]
        top = top[top]
    # every component holding sources is reached from the root, which
    # holds targets, so one whose chain misses it sits on a cycle
    if np.any(top != root):
        return None, "negative cycle between components"
    if not np.all(d[:, None] - d[None, :] <= W + tol):
        return None, ""
    up, pred = up.tolist(), pred.tolist()
    tree = [c for c in range(k) if c != root]
    return [(c, up[c]) if pred[c] >= 0 else (up[c], c) for c in tree], ""


def _certify(C, k, comp, u, v, tol):
    """Zero-flow joins under which the forest's plan is provably optimal.

    Component A's potentials may shift by an offset d_A (u + d_A on its
    sources, v - d_A on its targets) without breaking u_i + v_j = c_ij
    on its edges.  The cells between A's sources and B's targets stay
    priced out exactly when d_A - d_B <= W_AB, the least reduced cost
    c_ij - u_i - v_j over the block.  Bellman-Ford over these difference
    constraints gives the offsets; the block minima along its
    shortest-path tree are tight, so joining the components through
    them yields a basis whose potentials are the offset ones.  The
    offsets are recomputed along that tree and every block is checked
    against ``tol`` before the joins are returned.

    A single tree (K = 1) has no offsets to find: its reduced costs
    are computed as the core's first pricing computes them, and it
    certifies when none is below ``-tol``.

    Returns (joins, "") or (None, reason).
    """
    if k == 1:
        R = C - u[:, None]
        R -= v
        if R.min() >= -tol:
            return [], ""
        return None, "a component's plan is not optimal on its own"
    n, m = C.shape
    ro, has_s, r0 = _groups(comp[:n])
    co, has_t, c0 = _groups(comp[n:])
    # reduced costs with rows and columns grouped by component
    R = C[ro[:, None], co]
    R -= u[ro, None]
    R -= v[co]
    W = np.full((k, k), np.inf)
    W[has_s[:, None], has_t] = np.minimum.reduceat(
        np.minimum.reduceat(R, r0, axis=0), c0, axis=1
    )
    if np.diagonal(W).min() < -tol:
        return None, "a component's plan is not optimal on its own"
    # Bellman-Ford from the first component holding both kinds, in
    # Gauss-Seidel sweeps of alternating direction; a component holding
    # sources only is reached through the root
    root = int(np.flatnonzero(np.isfinite(np.diagonal(W)))[0])
    off = W.copy()
    np.fill_diagonal(off, np.inf)
    dist = np.full(k, np.inf)
    dist[root] = 0.0
    pred = np.full(k, -1, dtype=np.int64)
    for sweep in range(CERTIFY_SWEEPS):
        for c in range(k) if sweep % 2 == 0 else range(k - 1, -1, -1):
            row = off[c] + dist  # row[B]: reach c from B through W_cB
            p = int(row.argmin())
            if row[p] < dist[c] - tol and c != root:
                dist[c] = row[p]
                pred[c] = p
        tree, why = _offset_tree(W, root, dist, pred, tol)
        if tree is not None:
            break
        if why:
            return None, why
    else:
        return None, f"no feasible offsets after {CERTIFY_SWEEPS} Bellman-Ford sweeps"
    # the joins: the first least cell of each tree block
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


def _walk_start(C, a, b, kinds, idxs, tol):
    """The start one walk gives: (entries, joins, why, trees, pot).

    When the walk's positive and tie cells form one tree, that tree is
    priced once; if it certifies, its ties are the joins and ``pot`` its
    potentials.  Otherwise the forest of positive cells goes to
    :func:`_certify`.  ``why`` is "" for a certified start, else the
    forest's reason.  The joins are then the fallback's: the tie cells
    when they span, a tree the core leaves in few pivots, else
    :func:`_plain_joins`; and ``trees`` counts the trees that the
    walk's positive and tie cells leave.
    """
    n, m = C.shape
    ei, ej, ef, ties = _lifo(a, b, kinds, idxs)
    if ties and len(ei) + len(ties) == n + m - 1:
        ti, tj = zip(*ties)
        _, comp, u, v = _forest(C, ei + list(ti), ej + list(tj))
        if _certify(C, 1, comp, u, v, tol)[0] is not None:
            return (ei, ej, ef), ties, "", 1, (u, v)
    k, comp, u, v = _forest(C, ei, ej)
    joins, why = _certify(C, k, comp, u, v, tol)
    if joins is None:
        # each tie joins two components: the walk leaves K - len(ties) trees
        trees = k - len(ties)
        joins = ties if trees == 1 else _plain_joins(n, k, comp)
        return (ei, ej, ef), joins, why, trees, None
    return (ei, ej, ef), joins, "", 1, (u, v) if k == 1 else None


def _as_basis(ei, ej, ef, joins):
    n_b = len(ei) + len(joins)
    bi = np.array(ei + [j[0] for j in joins], dtype=np.int64)
    bj = np.array(ej + [j[1] for j in joins], dtype=np.int64)
    f = np.zeros(n_b)
    f[: len(ef)] = ef
    return bi, bj, f


def boundary_stack_basis(C, a, b, s_a, s_b):
    """Non-crossing LIFO matching along the boundary, as a certified basis.

    Walking the boundary from a seam, opposite-kind atoms match
    last-in-first-out, which never produces crossing chords.  When the
    walk ends with one atom on its stack, its positive cells and the
    zero-flow cells of its exact ties form one spanning tree
    (:func:`_lifo`), which is priced once and is the start when it
    certifies.  Otherwise the forest of positive cells is joined into
    a spanning tree by zero-flow cells chosen by :func:`_certify`, so
    that when the LIFO plan is optimal the first pricing finds no
    entering cell.

    Each start search walks once.  When the supports are separated
    (the sources fill one arc and the targets the other, so the event
    kinds form at most two runs around the boundary), the cumulative
    signed mass F is unimodal: every level is crossed once upward and
    once downward, and every seam pairs the same atoms, whatever C is.
    The walk from s = 0 is then the only one.  Any other input is swept
    first (:func:`_seam_costs`), and the walk starts at the cheapest
    seam when its LIFO plan beats seam 0's by more than the sweep's
    rounding, else at s = 0.  A start that does not certify falls back
    to a walk's cells with the joins of :func:`_walk_start`: the
    cheaper seam's when its positive and tie cells form one tree (the
    cheaper plan is then the whole basis), else seam 0's, walked only
    now, because with several trees the joins, not the seam, set the
    pivot count.

    The fallback reason starts with seam 0's: the verdict of its walk
    when it ran, else "seam 0: seam S is cheaper", since the sweep
    found a strictly cheaper plan.  A start walked from seam 0 alone
    adds "; no cheaper seam"; one walked from seam S after seam 0
    adds "; seam S: " and that walk's verdict.

    Returns (bi, bj, f, start, potentials) with ``start`` the tuple
    (kind, seam, reason) that :class:`ot.SolverStats` records.
    ``potentials`` is the tree's (u, v) when a single tree (a tie tree,
    or a forest of one component) certified, else None.  That tree is
    rooted at node 0 with potential 0, as the core's first walk is, so
    these are the core's potentials and the certificate was its first
    pricing; every other start is left to the core to price.
    """
    kinds, idxs = _events(s_a, s_b)
    # half the pricing tolerance: across several components the core's
    # own potentials differ from the certificate's by rounding, and must
    # still price nothing in
    tol = 0.5 * _price_tol(C)
    tail = "; no cheaper seam"
    if np.count_nonzero(kinds[1:] != kinds[:-1]) > 2:
        costs = _seam_costs(C, a, b, kinds, idxs)
        seam = int(np.argmin(costs))
        # the sweep is exact to ~1e-14 relative; a seam not cheaper by
        # more than that pairs the levels as seam 0 does, up to rounding
        if costs[seam] < costs[0] - 1e-12 * abs(costs[0]):
            entries, joins, why, trees, pot = _walk_start(
                C, a, b, np.roll(kinds, -seam), np.roll(idxs, -seam), tol
            )
            reason = f"seam 0: seam {seam} is cheaper"
            if not why:
                return (*_as_basis(*entries, joins), ("certified_seam", seam, reason), pot)
            tail = f"; seam {seam}: {why}"
            if trees == 1:
                return (*_as_basis(*entries, joins), ("lifo", seam, reason + tail), None)
    entries, joins, why, _, pot = _walk_start(C, a, b, kinds, idxs, tol)
    if not why:
        return (*_as_basis(*entries, joins), ("certified", 0, ""), pot)
    return (*_as_basis(*entries, joins), ("lifo", 0, f"seam 0: {why}{tail}"), None)


def solve_transport(C, a, b, s_a=None, s_b=None):
    """Run the simplex; returns (bi, bj, f, u, v, start, iterations).

    With the boundary positions ``s_a`` and ``s_b`` the start is
    :func:`boundary_stack_basis`; without them it is
    :func:`northwest_basis`.  ``start`` is the tuple (kind, seam,
    reason) of the start used.  A certified single tree comes with the
    core's own potentials and has passed its first pricing at half its
    tolerance, so it is returned after that one iteration without
    running the core.
    """
    C = np.ascontiguousarray(C, dtype=np.float64)
    n, m = C.shape
    if s_a is None or s_b is None:
        bi, bj, f = northwest_basis(a, b)
        start, pot = ("northwest", -1, "no boundary positions"), None
    else:
        bi, bj, f, start, pot = boundary_stack_basis(C, a, b, s_a, s_b)
    if pot is not None:
        return bi, bj, f, *pot, start, 1
    u = np.zeros(n)
    v = np.zeros(m)
    tol = _price_tol(C)
    theta_tol = 1e-14 * (1.0 + float(max(np.max(a), np.max(b))))
    max_iter = 400 * (n + m) + 200000
    status, iters = _solve_core(C, bi, bj, f, u, v, tol, theta_tol, max_iter)
    if status == 1:
        raise SolverError(f"simplex hit the iteration cap after {iters} pivots")
    if status != 0:
        raise SolverError(f"simplex failed with internal status {status}")
    return bi, bj, f, u, v, start, iters
