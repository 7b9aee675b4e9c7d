"""Optimal transport between boundary measures.

Plans are basic feasible solutions of the balanced transportation
problem with cost ||x(s_i) - y(s_j)|| for a strictly convex norm.  The
solver certifies itself: dual potentials read off the final basis tree
give a duality gap at floating-point level, and supports of optimal
plans never contain chords crossing in the interior of the domain.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import kernels, simplex
from .errors import InfeasibleError
from .geom import ChordCost
from .measures import BoundaryMeasure

BALANCE_RTOL = 1e-9
MARGINAL_RTOL = 1e-10
COST_RTOL = 1e-12


@dataclass
class TransportPlan:
    """Finite transport plan between two boundary measures.

    ``i``, ``j``, ``mass`` list the strictly positive entries; ``basis``
    optionally keeps the solver's full spanning-tree basis (including
    degenerate zero cells) so exact dual potentials can be recovered.
    """

    source: BoundaryMeasure
    target: BoundaryMeasure
    i: np.ndarray
    j: np.ndarray
    mass: np.ndarray
    cost: float
    source_points: np.ndarray
    target_points: np.ndarray
    entry_costs: np.ndarray
    gap: float = math.nan
    basis: tuple = None

    @property
    def n_entries(self) -> int:
        return len(self.mass)

    def entry_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of every support chord."""
        return self.source_points[self.i], self.target_points[self.j]

    def entry_lengths(self) -> np.ndarray:
        """Euclidean chord lengths of the support entries."""
        a, b = self.entry_segments()
        return np.hypot(*(b - a).T)

    def marginal_source(self) -> np.ndarray:
        return np.bincount(self.i, weights=self.mass, minlength=len(self.source))

    def marginal_target(self) -> np.ndarray:
        return np.bincount(self.j, weights=self.mass, minlength=len(self.target))

    def reversed(self) -> "TransportPlan":
        """Same plan transported the other way (targets become sources)."""
        return TransportPlan(
            source=self.target,
            target=self.source,
            i=self.j.copy(),
            j=self.i.copy(),
            mass=self.mass.copy(),
            cost=self.cost,
            source_points=self.target_points,
            target_points=self.source_points,
            entry_costs=self.entry_costs.copy(),
            gap=self.gap,
            basis=None,
        )

    def validate(self) -> None:
        """Check marginals, cost recomputation, and support size."""
        if np.any(self.mass <= 0):
            raise ValueError("plan entries must carry positive mass")
        ms = self.marginal_source()
        mt = self.marginal_target()
        scale_s = max(self.source.total_mass, 1e-300)
        scale_t = max(self.target.total_mass, 1e-300)
        if np.max(np.abs(ms - self.source.mass)) > MARGINAL_RTOL * scale_s:
            raise ValueError("plan does not match the source marginal")
        if np.max(np.abs(mt - self.target.mass)) > MARGINAL_RTOL * scale_t:
            raise ValueError("plan does not match the target marginal")
        recomputed = float(np.dot(self.mass, self.entry_costs))
        if abs(recomputed - self.cost) > COST_RTOL * max(1.0, abs(self.cost)):
            raise ValueError(
                f"stored cost {self.cost!r} disagrees with entries {recomputed!r}"
            )
        if self.basis is not None:
            limit = len(self.source) + len(self.target) - 1
            if self.n_entries > limit:
                raise ValueError(
                    f"basic plan has {self.n_entries} entries, more than {limit}"
                )

    def config(self) -> dict:
        return {
            "entries": [
                [int(a), int(b), float(m)]
                for a, b, m in zip(self.i, self.j, self.mass)
            ],
            "cost": float(self.cost),
            "gap": float(self.gap),
        }


@dataclass
class DualPotentials:
    """Kantorovich potentials on source and target atoms."""

    phi_source: np.ndarray
    phi_target: np.ndarray

    def objective(self, source: BoundaryMeasure, target: BoundaryMeasure) -> float:
        return float(
            np.dot(self.phi_source, source.mass) - np.dot(self.phi_target, target.mass)
        )

    def feasibility_violation(self, cost_matrix: np.ndarray) -> float:
        """max over all pairs of phi_source_i - phi_target_j - c_ij."""
        excess = self.phi_source[:, None] - self.phi_target[None, :] - cost_matrix
        return float(excess.max())

    def slackness_violation(self, plan: TransportPlan) -> float:
        """max over support entries of |c_ij - (phi_source_i - phi_target_j)|."""
        diff = self.phi_source[plan.i] - self.phi_target[plan.j]
        return float(np.max(np.abs(diff - plan.entry_costs), initial=0.0))


def _check_balanced(f_plus: BoundaryMeasure, f_minus: BoundaryMeasure) -> float:
    if len(f_plus) == 0 or len(f_minus) == 0:
        raise InfeasibleError("both measures need at least one atom")
    ta, tb = f_plus.total_mass, f_minus.total_mass
    if abs(ta - tb) > BALANCE_RTOL * max(ta, tb):
        raise InfeasibleError(
            f"measures are unbalanced: {ta!r} vs {tb!r} "
            f"(relative gap {abs(ta - tb) / max(ta, tb):.2e})"
        )
    return ta


def solve_kantorovich(
    f_plus: BoundaryMeasure,
    f_minus: BoundaryMeasure,
    cost: ChordCost,
    init: str = "boundary",
) -> TransportPlan:
    """Exact optimal transport via the transportation simplex.

    ``init`` picks the starting basis: "boundary" (non-crossing greedy
    matching along the boundary, usually a handful of pivots from
    optimal) or "northwest" (classic corner rule).
    """
    _check_balanced(f_plus, f_minus)
    a = f_plus.mass.astype(float)
    b = f_minus.mass.astype(float)
    # rebalance exactly so basic solutions satisfy both marginals
    b = b * (a.sum() / b.sum())
    C = cost.matrix(f_plus.s, f_minus.s)
    bi, bj, f, u, v, _ = simplex.solve_transport(
        C, a, b, init=init, s_a=f_plus.s, s_b=f_minus.s
    )
    keep = f > 0
    i = bi[keep]
    j = bj[keep]
    mass = f[keep]
    entry_costs = C[i, j]
    total_cost = float(np.dot(mass, entry_costs))
    dual_obj = float(np.dot(u, a) + np.dot(v, b))
    plan = TransportPlan(
        source=f_plus,
        target=f_minus,
        i=i,
        j=j,
        mass=mass,
        cost=total_cost,
        source_points=cost.points(f_plus.s),
        target_points=cost.points(f_minus.s),
        entry_costs=entry_costs,
        gap=total_cost - dual_obj,
        basis=(bi, bj, f),
    )
    plan.validate()
    return plan


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
        source_points=cost.points(f_plus.s),
        target_points=cost.points(f_minus.s),
        entry_costs=entry_costs,
        basis=None,
    )
    return plan


def dual_potentials(plan: TransportPlan, cost: ChordCost) -> DualPotentials:
    """Potentials satisfying phi_source - phi_target = cost on the support.

    Uses the solver's basis tree when available (then the potentials are
    globally feasible at optimality).  Otherwise each connected component
    of the support graph is anchored by zeroing the potential of its
    smallest target atom.
    """
    n, m = len(plan.source), len(plan.target)
    if plan.basis is not None:
        ei, ej = plan.basis[0], plan.basis[1]
        ec = cost(plan.source.s[ei], plan.target.s[ej])
    else:
        ei, ej, ec = plan.i, plan.j, plan.entry_costs
    adj = [[] for _ in range(n + m)]
    for i, j, c in zip(ei, ej, np.atleast_1d(ec)):
        adj[int(i)].append((n + int(j), float(c)))
        adj[n + int(j)].append((int(i), float(c)))
    phi = np.full(n + m, np.nan)
    for seed_target in range(m):
        node = n + seed_target
        if not math.isnan(phi[node]):
            continue
        if not adj[node]:
            phi[node] = 0.0
            continue
        phi[node] = 0.0
        stack = [node]
        while stack:
            x = stack.pop()
            for y, c in adj[x]:
                if math.isnan(phi[y]):
                    # phi_source - phi_target = c on support edges
                    phi[y] = phi[x] + c if y < n else phi[x] - c
                    stack.append(y)
    for i in range(n):
        if math.isnan(phi[i]):  # sources always touch an entry; safety anchor
            phi[i] = 0.0
    return DualPotentials(phi_source=phi[:n], phi_target=phi[n:])


def check_noncrossing(plan: TransportPlan) -> list[tuple[int, int]]:
    """Entry pairs whose chords cross in the interior of the domain.

    Exact: two chords cross when their ends strictly interleave in
    arclength (see :func:`kernels.crossing_pairs`), so shared endpoints,
    zero-length chords and coincident chords never count.
    """
    i, j = kernels.crossing_pairs(plan.source.s[plan.i], plan.target.s[plan.j])
    return list(zip(i.tolist(), j.tolist()))


def displacement_lengths(plan: TransportPlan) -> tuple[np.ndarray, np.ndarray]:
    """Per-source euclidean displacement D and a multiplicity flag.

    Sources split across several targets report the largest displacement
    among their positive-mass entries and are flagged.
    """
    n = len(plan.source)
    lengths = plan.entry_lengths()
    D = np.zeros(n)
    counts = np.zeros(n, dtype=np.int64)
    np.maximum.at(D, plan.i, lengths)
    np.add.at(counts, plan.i, 1)
    return D, counts > 1
