"""Transportation simplex on dense cost matrices.

The solver keeps a spanning-tree basis of n + m - 1 cells, prices with
dual potentials (u_i + v_j = c_ij on basic cells), enters the most
negative reduced cost with lexicographic tie-breaking, and falls back
to Bland's rule after a run of degenerate pivots so it can never cycle.
Bland mode ends at the next strictly improving pivot; a pure-Bland tail
is kept only while the degeneracy persists, which is all that
termination needs.

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


def boundary_stack_basis(a, b, s_a, s_b):
    """Non-crossing greedy matching by boundary position, as a basis.

    Walks the boundary once; opposite-kind atoms match last-in-first-out,
    which can never produce crossing chords.  The resulting forest is
    joined into a spanning tree with zero-flow connector cells.
    """
    n, m = len(a), len(b)
    events = sorted(
        [(s_a[i], 0, i) for i in range(n)] + [(s_b[j], 1, j) for j in range(m)]
    )
    stack = []  # (kind, idx, remaining)
    entries = []
    for _, kind, idx in events:
        rem = float(a[idx] if kind == 0 else b[idx])
        while rem > 0 and stack and stack[-1][0] != kind:
            tk, ti, tr = stack[-1]
            c = min(rem, tr)
            pair = (idx, ti) if kind == 0 else (ti, idx)
            entries.append((pair[0], pair[1], c))
            rem -= c
            if tr - c <= 0:
                stack.pop()
                rem = max(rem, 0.0)
            else:
                stack[-1] = (tk, ti, tr - c)
                rem = 0.0
        if rem > 0:
            stack.append((kind, idx, rem))
    # leftover stack dust from float imbalance is dropped here; it is
    # bounded by the balance tolerance enforced before solving
    parent = list(range(n + m))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    kept = []
    for i, j, c in entries:
        ri, rj = find(i), find(n + j)
        if ri == rj:
            raise SolverError("boundary matching produced a cycle")
        parent[ri] = rj
        kept.append((i, j, c))
    comps = {}
    for x in range(n + m):
        comps.setdefault(find(x), []).append(x)
    groups = sorted(comps.values(), key=min)
    first = groups[0]
    j0 = min(x for x in first if x >= n) - n
    for g in groups[1:]:
        i0 = min(x for x in g if x < n)
        kept.append((i0, j0, 0.0))
        parent[find(i0)] = find(n + j0)
    if len(kept) != n + m - 1:
        raise SolverError("boundary matching basis has wrong size")
    bi = np.array([e[0] for e in kept], dtype=np.int64)
    bj = np.array([e[1] for e in kept], dtype=np.int64)
    f = np.array([e[2] for e in kept], dtype=float)
    return bi, bj, f


def solve_transport(C, a, b, init="boundary", s_a=None, s_b=None):
    """Run the simplex; returns (bi, bj, f, u, v, iterations)."""
    C = np.ascontiguousarray(C, dtype=np.float64)
    n, m = C.shape
    if init == "northwest" or s_a is None or s_b is None:
        bi, bj, f = northwest_basis(a, b)
    else:
        try:
            bi, bj, f = boundary_stack_basis(a, b, s_a, s_b)
        except SolverError:
            bi, bj, f = northwest_basis(a, b)
    u = np.zeros(n)
    v = np.zeros(m)
    tol = 1e-12 * (1.0 + float(np.abs(C).max(initial=0.0)))
    theta_tol = 1e-14 * (1.0 + float(max(np.max(a), np.max(b))))
    max_iter = 400 * (n + m) + 200000
    status, iters = _solve_core(C, bi, bj, f, u, v, tol, theta_tol, max_iter)
    if status == 1:
        raise SolverError(f"simplex hit the iteration cap after {iters} pivots")
    if status != 0:
        raise SolverError(f"simplex failed with internal status {status}")
    return bi, bj, f, u, v, iters
