"""Boundary measures and boundary data.

A :class:`BoundaryMeasure` is a finite nonnegative atomic measure on the
boundary of a domain, stored as sorted arclength positions with strictly
positive masses.  Atoms produced by quadrature of a density remember the
boundary sublength they represent, so a local density ``mass/sublength``
can be recovered later; atoms produced by jumps carry no sublength.

A :class:`BoundaryDatum` is a real function on the boundary given by
piecewise-linear samples plus optional explicit jump discontinuities.
Its tangential derivative splits into a positive and a negative boundary
measure with equal total mass (the datum closes up around the boundary).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InfeasibleError

MERGE_TOL = 1e-12
BALANCE_TOL = 1e-10


@dataclass
class BoundaryMeasure:
    """Atomic measure on a boundary of given perimeter.

    Positions are reduced to [0, perimeter) and sorted; positions within
    ``1e-12 * perimeter`` of each other are merged (masses and sublengths
    add); zero-mass atoms are dropped.
    """

    s: np.ndarray
    mass: np.ndarray
    perimeter: float
    sublength: np.ndarray = None

    def __post_init__(self):
        s = np.mod(np.asarray(self.s, dtype=float).ravel(), self.perimeter)
        # mod rounds tiny negative positions up to the perimeter itself,
        # which is the boundary point at 0
        s[s == self.perimeter] = 0.0
        mass = np.asarray(self.mass, dtype=float).ravel()
        if s.shape != mass.shape:
            raise ValueError(f"positions and masses differ in length: {s.shape} vs {mass.shape}")
        if np.any(mass < 0):
            raise ValueError("atom masses must be nonnegative")
        if self.sublength is None:
            sub = np.zeros_like(mass)
        else:
            sub = np.asarray(self.sublength, dtype=float).ravel()
            if sub.shape != mass.shape:
                raise ValueError("sublengths must match masses in length")
        keep = mass > 0
        s, mass, sub = s[keep], mass[keep], sub[keep]
        order = np.argsort(s, kind="stable")
        s, mass, sub = s[order], mass[order], sub[order]
        if len(s) > 1:
            tol = MERGE_TOL * self.perimeter
            group = np.concatenate([[0], np.cumsum(np.diff(s) > tol)])
            n = group[-1] + 1 if len(group) else 0
            mass_merged = np.bincount(group, weights=mass, minlength=n)
            # every kept atom has mass > 0, so each group total is > 0
            first = np.concatenate([[0], np.flatnonzero(np.diff(group)) + 1])
            s0 = s[first]
            # weighted mean as offset from the group's first position:
            # exact for singletons, and for real groups the offsets are
            # bounded by tol, so subnormal-mass underflow cannot move an
            # atom by more than the merge tolerance
            off = np.bincount(group, weights=(s - s0[group]) * mass, minlength=n)
            s = s0 + off / mass_merged
            sub = np.bincount(group, weights=sub, minlength=n)
            mass = mass_merged
        self.s = s
        self.mass = mass
        self.sublength = sub

    def __len__(self) -> int:
        return len(self.s)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.mass))

    def config(self) -> list:
        return [[float(a), float(m)] for a, m in zip(self.s, self.mass)]


@dataclass
class BoundaryDatum:
    """Piecewise-linear boundary function with explicit jumps.

    ``samples`` is a list of (arclength, value) pairs; the function is
    linear between consecutive samples and wraps from the last sample to
    the first.  ``jumps`` is a list of (arclength, height) pairs adding a
    step at each location.  The jump heights must sum to zero (within
    1e-12 of the total variation scale), otherwise the function would not
    close up around the boundary.
    """

    samples: np.ndarray
    jumps: np.ndarray
    perimeter: float
    check_closure: bool = True

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float).reshape(-1, 2)
        if len(samples) < 1:
            raise ValueError("datum needs at least one sample")
        samples[:, 0] = np.mod(samples[:, 0], self.perimeter)
        samples = samples[np.argsort(samples[:, 0], kind="stable")]
        gaps = np.diff(samples[:, 0])
        if np.any(gaps <= MERGE_TOL * self.perimeter):
            raise ValueError("duplicate sample positions in boundary datum")
        if self.jumps is None:
            jumps = np.zeros((0, 2))
        else:
            jumps = np.asarray(self.jumps, dtype=float).reshape(-1, 2)
            jumps[:, 0] = np.mod(jumps[:, 0], self.perimeter)
            jumps = jumps[np.argsort(jumps[:, 0], kind="stable")]
        self.samples = samples
        self.jumps = jumps
        if self.check_closure:
            imbalance = float(np.sum(jumps[:, 1]))
            scale = max(1.0, self.total_variation())
            if abs(imbalance) > MERGE_TOL * scale:
                raise InfeasibleError(
                    f"boundary datum does not close up: jump heights sum to "
                    f"{imbalance:.3e} (must vanish)"
                )

    def total_variation(self) -> float:
        v = self.samples[:, 1]
        incr = np.abs(np.diff(np.concatenate([v, v[:1]])))
        return float(np.sum(incr) + np.sum(np.abs(self.jumps[:, 1])))

    def eval(self, s) -> np.ndarray:
        """Evaluate the datum (right-continuous at jump locations)."""
        s = np.mod(np.atleast_1d(np.asarray(s, dtype=float)), self.perimeter)
        xs = self.samples[:, 0]
        vs = self.samples[:, 1]
        # periodic linear interpolation: extend one sample on each side
        xs_ext = np.concatenate([[xs[-1] - self.perimeter], xs, [xs[0] + self.perimeter]])
        vs_ext = np.concatenate([[vs[-1]], vs, [vs[0]]])
        out = np.interp(s, xs_ext, vs_ext)
        # jump heights sum to zero, so plain steps stay periodic
        for sj, h in self.jumps:
            out = out + np.where(s >= sj, h, 0.0)
        return out

    def config(self) -> dict:
        cfg = {"samples": [[float(a), float(v)] for a, v in self.samples]}
        if len(self.jumps):
            cfg["jumps"] = [[float(a), float(h)] for a, h in self.jumps]
        return cfg


def tangential_derivative(
    datum: BoundaryDatum, n_quad: int = 64
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """Split the derivative of a boundary datum into positive/negative parts.

    Linear pieces contribute ``n_quad`` midpoint atoms each with mass
    slope * sublength; jumps contribute single atoms of mass |height|.
    The two returned measures balance to within 1e-10 of the datum's
    total variation.
    """
    if n_quad < 1:
        raise ValueError(f"n_quad must be >= 1, got {n_quad}")
    per = datum.perimeter
    xs = datum.samples[:, 0]
    vs = datum.samples[:, 1]
    pos_s, pos_m, pos_l = [], [], []
    neg_s, neg_m, neg_l = [], [], []
    n_seg = len(xs)
    for k in range(n_seg):
        s0, v0 = xs[k], vs[k]
        s1 = xs[(k + 1) % n_seg] + (per if k + 1 == n_seg else 0.0)
        v1 = vs[(k + 1) % n_seg]
        length = s1 - s0
        if length <= 0 or v1 == v0:
            continue
        slope = (v1 - v0) / length
        sub = length / n_quad
        mids = s0 + (np.arange(n_quad) + 0.5) * sub
        masses = np.full(n_quad, abs(slope) * sub)
        if slope > 0:
            pos_s.append(mids)
            pos_m.append(masses)
            pos_l.append(np.full(n_quad, sub))
        else:
            neg_s.append(mids)
            neg_m.append(masses)
            neg_l.append(np.full(n_quad, sub))
    for sj, h in datum.jumps:
        if h > 0:
            pos_s.append([sj])
            pos_m.append([h])
            pos_l.append([0.0])
        elif h < 0:
            neg_s.append([sj])
            neg_m.append([-h])
            neg_l.append([0.0])

    def build(ss, mm, ll):
        if not ss:
            return BoundaryMeasure(np.empty(0), np.empty(0), per, np.empty(0))
        return BoundaryMeasure(
            np.concatenate(ss), np.concatenate(mm), per, np.concatenate(ll)
        )

    f_plus = build(pos_s, pos_m, pos_l)
    f_minus = build(neg_s, neg_m, neg_l)
    scale = max(datum.total_variation(), 1.0)
    gap = abs(f_plus.total_mass - f_minus.total_mass)
    if gap > BALANCE_TOL * scale:
        raise InfeasibleError(
            f"tangential derivative does not balance: |f+| - |f-| = {gap:.3e}"
        )
    return f_plus, f_minus


def remove_common_mass(
    f_plus: BoundaryMeasure, f_minus: BoundaryMeasure
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """Cancel mass shared at coinciding atom positions.

    The difference f_plus - f_minus is preserved atom by atom; applying
    the operation twice changes nothing.
    """
    per = f_plus.perimeter
    tol = MERGE_TOL * per
    mp = f_plus.mass.copy()
    mm = f_minus.mass.copy()
    i = j = 0
    while i < len(f_plus) and j < len(f_minus):
        d = f_plus.s[i] - f_minus.s[j]
        if abs(d) <= tol:
            c = min(mp[i], mm[j])
            mp[i] -= c
            mm[j] -= c
            if mp[i] <= 0:
                i += 1
            if mm[j] <= 0:
                j += 1
        elif d < 0:
            i += 1
        else:
            j += 1
    return (
        BoundaryMeasure(f_plus.s, mp, per, f_plus.sublength),
        BoundaryMeasure(f_minus.s, mm, per, f_minus.sublength),
    )


def quadrature_atoms(
    density, interval: tuple[float, float], n: int, perimeter: float
) -> BoundaryMeasure:
    """Discretize a nonnegative density on an arclength interval.

    Uses the midpoint rule with n atoms: atom k sits at the midpoint of
    its subinterval and carries mass density(midpoint) * sublength, so
    the total mass matches the integral to O(n^-2) for smooth densities.
    The interval may wrap past the perimeter (hi > perimeter).
    """
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError(f"empty quadrature interval [{lo}, {hi}]")
    if n < 1:
        raise ValueError(f"need at least one atom, got n={n}")
    sub = (hi - lo) / n
    mids = lo + (np.arange(n) + 0.5) * sub
    try:
        vals = np.asarray(density(mids), dtype=float)
        if vals.shape != mids.shape:
            raise TypeError
    except TypeError:
        vals = np.asarray([float(density(m)) for m in mids])
    if np.any(vals < 0):
        k = int(np.argmin(vals))
        raise ValueError(f"density is negative ({vals[k]:.3e}) at s={mids[k]:.6f}")
    return BoundaryMeasure(mids, vals * sub, perimeter, np.full(n, sub))


def measure_from_config(atoms: list, perimeter: float) -> BoundaryMeasure:
    arr = np.asarray(atoms, dtype=float).reshape(-1, 2)
    return BoundaryMeasure(arr[:, 0], arr[:, 1], perimeter)


def datum_from_config(cfg: dict, perimeter: float) -> BoundaryDatum:
    return BoundaryDatum(
        np.asarray(cfg["samples"], dtype=float),
        np.asarray(cfg.get("jumps", []), dtype=float).reshape(-1, 2),
        perimeter,
    )
