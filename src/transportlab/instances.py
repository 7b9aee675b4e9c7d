"""The seeded smooth-arc instance generator of the benchmark and the tests.

It takes an explicit numpy Generator so runs can be replayed; nothing
here draws from global randomness.
"""

from __future__ import annotations

import numpy as np

from .geom import Domain
from .measures import BoundaryMeasure, quadrature_atoms


def smooth_arc_instance(
    rng: np.random.Generator,
    domain: Domain,
    n_atoms: int = 400,
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """Bounded smooth densities on two disjoint random arcs.

    Each side carries a raised-cosine bump (so the density vanishes at
    the arc ends and stays in L^infty), discretized by midpoint
    quadrature; the minus side is rescaled to balance exactly.
    """
    P = domain.perimeter
    # two disjoint arcs: split the circle at a random phase into four
    # blocks gap/arc/gap/arc with random proportions
    phase = rng.uniform(0.0, P)
    w = rng.uniform(0.35, 1.0, 4)
    w = w / w.sum() * P
    a_lo = phase + w[0]
    a_hi = a_lo + w[1]
    b_lo = a_hi + w[2]
    b_hi = b_lo + w[3]
    amp_p = rng.uniform(0.5, 2.0)
    amp_m = rng.uniform(0.5, 2.0)

    def bump(lo, hi, amp):
        return lambda s: amp * (1.0 - np.cos(2 * np.pi * (s - lo) / (hi - lo))) / 2.0

    f_plus = quadrature_atoms(bump(a_lo, a_hi, amp_p), (a_lo, a_hi), n_atoms, P)
    f_minus = quadrature_atoms(bump(b_lo, b_hi, amp_m), (b_lo, b_hi), n_atoms, P)
    f_minus = BoundaryMeasure(
        f_minus.s,
        f_minus.mass * (f_plus.total_mass / f_minus.total_mass),
        P,
        sublength=f_minus.sublength,
    )
    return f_plus, f_minus
