"""Optimal transport between boundary measures.

Plans are basic feasible solutions of the balanced transportation
problem with cost ||x(s_i) - y(s_j)|| for a strictly convex norm.  The
solver certifies itself: the dual potentials of its final basis tree
give a duality gap at floating-point level, and supports of optimal
plans never contain chords crossing in the interior of the domain.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import simplex
from .errors import InfeasibleError
from .geom import ChordCost
from .measures import BoundaryMeasure

BALANCE_RTOL = 1e-9
MARGINAL_RTOL = 1e-10
COST_RTOL = 1e-12


@dataclass(frozen=True)
class SolverStats:
    """Deterministic record of how the simplex reached a plan.

    ``start`` is the starting basis used: "certified" (the LIFO tree
    from the seam at s = 0, at which the simplex stopped at its first
    pricing), "certified_seam" (the same from the cheapest seam) or
    "lifo" (a LIFO tree that made pivots); see
    :func:`simplex.solve_transport`.  ``seam`` is the event index the
    boundary walk starts at, ``fallback`` why a certified start was not
    used ("" when it was), ``pivots`` the simplex pivots and
    ``b_scale`` the factor sum(a) / sum(b) that rebalanced the target
    masses.

    ``fallback`` gives seam 0's reason first: its walk's verdict, or
    "seam 0: seam S is cheaper" when the seam sweep found a strictly
    cheaper plan and seam 0 was not walked.  Then "; no cheaper seam"
    (separated supports, or no seam cheaper) or "; seam S: " and the
    cheaper seam's verdict follows when that start did not certify.
    """

    start: str
    seam: int
    fallback: str
    pivots: int
    b_scale: float

    def config(self) -> dict:
        return asdict(self)


@dataclass
class TransportPlan:
    """Finite transport plan between two boundary measures.

    ``i``, ``j``, ``mass`` list the strictly positive entries, which the
    solver sorts by (i, j); ``potentials`` are its final dual potentials
    ``(u, v)``, with u_i + v_j = c_ij on every basic cell, and ``stats``
    its :class:`SolverStats`.
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
    potentials: tuple = None
    stats: SolverStats = None

    @property
    def n_entries(self) -> int:
        return len(self.mass)

    def entry_segments(self) -> tuple[np.ndarray, np.ndarray]:
        """Start and end points of every support chord."""
        return self.source_points[self.i], self.target_points[self.j]

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
            # u_i + v_j = c_ij reads v_j + u_i = c'_ji for the reversed plan
            potentials=None if self.potentials is None else self.potentials[::-1],
            stats=self.stats,
        )

    def validate(self) -> None:
        """Check positive masses, marginals and the cost recomputation."""
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
) -> TransportPlan:
    """Exact optimal transport via the transportation simplex.

    The simplex starts from the non-crossing LIFO matching along the
    boundary, joined into one tree, which is often optimal: the simplex
    then stops at its first pricing without a pivot (see
    :func:`simplex.solve_transport`).
    The target masses are rescaled by sum(a) / sum(b), recorded in the
    plan's ``stats``, so basic solutions satisfy both marginals.
    """
    _check_balanced(f_plus, f_minus)
    a = f_plus.mass.astype(float)
    b = f_minus.mass.astype(float)
    b_scale = float(a.sum() / b.sum())
    b = b * b_scale
    # each position is inverted once, for the costs and the plan's chords,
    # and both sides in one call: an inversion is elementwise, so the
    # points are those of two calls
    PQ = cost.domain.boundary_point(np.concatenate([f_plus.s, f_minus.s]))
    P, Q = PQ[: len(f_plus)], PQ[len(f_plus) :]
    C = cost.matrix(P, Q)
    bi, bj, f, u, v, start, iters = simplex.solve_transport(
        C, a, b, s_a=f_plus.s, s_b=f_minus.s
    )
    keep = np.flatnonzero(f > 0)
    keep = keep[np.lexsort((bj[keep], bi[keep]))]
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
        source_points=P,
        target_points=Q,
        entry_costs=entry_costs,
        gap=total_cost - dual_obj,
        potentials=(u, v),
        stats=SolverStats(*start, pivots=iters - 1, b_scale=b_scale),
    )
    plan.validate()
    return plan


def dual_potentials(plan: TransportPlan, cost: ChordCost) -> DualPotentials:
    """Potentials satisfying phi_source - phi_target = cost on the support.

    These are the simplex's own potentials, phi_source = u and
    phi_target = -v, which are globally feasible at optimality.  A plan
    without potentials (one built by hand) raises ``ValueError``.
    ``cost`` is not read: the support's costs are the plan's
    ``entry_costs``.
    """
    if plan.potentials is None:
        raise ValueError("plan carries no dual potentials")
    u, v = plan.potentials
    return DualPotentials(phi_source=u.copy(), phi_target=-v)


def check_noncrossing(plan: TransportPlan) -> list[tuple[int, int]]:
    """Entry pairs whose chords cross in the interior of the domain.

    Exact: two chords cross when their ends strictly interleave in
    arclength (see :func:`kernels.crossing_pairs`), so shared endpoints,
    zero-length chords and coincident chords never count.
    """
    from . import kernels

    i, j = kernels.crossing_pairs(plan.source.s[plan.i], plan.target.s[plan.j])
    return list(zip(i.tolist(), j.tolist()))


def displacement_lengths(plan: TransportPlan) -> np.ndarray:
    """Per-source euclidean displacement D.

    A source split across several targets reports the largest
    displacement among its positive-mass entries.
    """
    a, b = plan.entry_segments()
    D = np.zeros(len(plan.source))
    np.maximum.at(D, plan.i, np.hypot(*(b - a).T))
    return D
