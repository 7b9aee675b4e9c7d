"""Seeded and closed-form instances of the test suites and the golden corpus.

Every random generator takes an explicit numpy Generator so suites can
be replayed; nothing here draws from global randomness.  The smooth-arc
generator that the benchmark shares is ``transportlab.instances``.
"""

import numpy as np

from transportlab.geom import Domain, disk
from transportlab.measures import BoundaryDatum, BoundaryMeasure, quadrature_atoms


def random_atoms_instance(
    rng: np.random.Generator, domain: Domain, n: int
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """n unit-mass atoms per side at distinct random boundary positions."""
    P = domain.perimeter
    while True:
        s = rng.uniform(0.0, P, 2 * n)
        f_plus = BoundaryMeasure(s[:n], np.ones(n), P)
        f_minus = BoundaryMeasure(s[n:], np.ones(n), P)
        # merge tolerance may collapse colliding draws; just redraw
        if len(f_plus) == n and len(f_minus) == n:
            return f_plus, f_minus


def cosine_datum(n_samples: int, radius: float = 1.0) -> BoundaryDatum:
    """g = cos(angle) sampled on the boundary of a disk of given radius.

    The least-gradient solution for this datum on the unit disk is
    u(x, y) = x, with vertical level chords; it anchors the benchmark
    and convergence suites.
    """
    P = disk(radius).perimeter
    s = np.linspace(0.0, P, n_samples, endpoint=False)
    theta = s / radius
    return BoundaryDatum(
        samples=np.stack([s, np.cos(theta)], axis=1), jumps=None, perimeter=P
    )


def mirror_cosine_measures(
    n_per_side: int, radius: float = 1.0
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """Quadrature of f+ = cos^+ and f- = cos^- on a disk boundary.

    The optimal plan reflects across the vertical axis; used for the
    large-instance duality and runtime checks.
    """
    R = radius
    P = disk(R).perimeter
    half = np.pi * R / 2.0
    f_plus = quadrature_atoms(
        lambda s: np.cos(s / R), (-half, half), n_per_side, P
    )
    f_minus = quadrature_atoms(
        lambda s: -np.cos(s / R), (half, 3 * half), n_per_side, P
    )
    return f_plus, f_minus


def holder_half_measures(
    n_per_side: int, radius: float = 1.0
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """Quadrature of the sqrt(|sin|) density split by sign pattern.

    The generating boundary datum has derivative -sign(sin)*|sin|^(1/2),
    which is Holder continuous of exponent 1/2 at its zeros; its
    transport density is the marginal L^4 test case.
    """
    R = radius
    P = disk(R).perimeter
    dens = lambda s: np.sqrt(np.abs(np.sin(s / R)))
    f_minus = quadrature_atoms(dens, (0.0, np.pi * R), n_per_side, P)
    f_plus = quadrature_atoms(dens, (np.pi * R, 2 * np.pi * R), n_per_side, P)
    return f_plus, f_minus
