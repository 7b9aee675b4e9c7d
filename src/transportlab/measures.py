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

import operator
from dataclasses import dataclass

import numpy as np

from .errors import FloatRangeError, InfeasibleError

MERGE_TOL = 1e-12
BALANCE_TOL = 1e-10


def _check_perimeter(perimeter) -> None:
    """Refuse a perimeter outside (0, inf), as the domains refuse their sizes."""
    if not 0 < perimeter < np.inf:  # NaN fails too
        raise ValueError(f"perimeter must be positive and finite, got {perimeter}")


def _wrap(s, perimeter):
    """Arclength positions reduced to [0, perimeter)."""
    s = np.mod(s, perimeter)
    # mod rounds tiny negative positions up to the perimeter itself,
    # which is the boundary point at 0
    s[s == perimeter] = 0.0
    return s


def _pairs(items, name: str) -> np.ndarray:
    """A new float array of shape (k, 2) holding items; [] gives k = 0.

    A flat list of even length is refused, not read as pairs.
    """
    arr = np.array(items, dtype=float)
    if arr.shape == (0,):
        arr = arr.reshape(0, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"{name} must have shape (k, 2), got shape {arr.shape}")
    return arr


@dataclass
class BoundaryMeasure:
    """Atomic measure on a boundary of given perimeter, in (0, inf).

    Positions are reduced to [0, perimeter) and sorted; positions within
    ``1e-12 * perimeter`` of each other, also across the seam at 0, are
    merged (masses and sublengths add); zero-mass atoms are dropped.
    Each step runs only when it has work to do: the filter when a mass
    is zero, the sort when positions are out of order, the merge when
    two neighbours lie within the tolerance.  A merge sums every
    sublength onto 0.0, so a caller's sublength of -0.0 stays -0.0
    only when nothing merges.
    """

    s: np.ndarray
    mass: np.ndarray
    perimeter: float
    sublength: np.ndarray = None

    def __post_init__(self):
        _check_perimeter(self.perimeter)
        s = np.asarray(self.s, dtype=float).ravel()
        # copies: a measure shares no array with its caller
        mass = np.array(self.mass, dtype=float).ravel()
        if s.shape != mass.shape:
            raise ValueError(f"positions and masses differ in length: {s.shape} vs {mass.shape}")
        if self.sublength is None:
            sub = np.zeros_like(mass)
        else:
            sub = np.array(self.sublength, dtype=float).ravel()
            if sub.shape != mass.shape:
                raise ValueError("sublengths must match masses in length")
        if not (np.isfinite(s).all() and np.isfinite(mass).all() and np.isfinite(sub).all()):
            raise ValueError("atom positions, masses and sublengths must be finite")
        if np.any(mass < 0):
            raise ValueError("atom masses must be nonnegative")
        s = _wrap(s, self.perimeter)
        if not np.all(mass > 0):
            keep = mass > 0
            s, mass, sub = s[keep], mass[keep], sub[keep]
        if np.any(s[1:] < s[:-1]):
            order = np.argsort(s, kind="stable")
            s, mass, sub = s[order], mass[order], sub[order]
        tol = MERGE_TOL * self.perimeter
        gap = np.diff(s)
        if len(s) > 1 and (np.any(gap <= tol) or s[0] + self.perimeter - s[-1] <= tol):
            group = np.concatenate([[0], np.cumsum(gap > tol)])
            first = np.concatenate([[0], np.flatnonzero(np.diff(group)) + 1])
            s0 = s[first]
            n = group[-1] + 1
            if n > 1 and s[0] + self.perimeter - s[-1] <= tol:
                # the last group runs into the seam: it joins the first,
                # one perimeter down
                seam = group == n - 1
                s = np.where(seam, s - self.perimeter, s)
                group[seam] = 0
                n -= 1
            mass_merged = np.bincount(group, weights=mass, minlength=n)
            # every kept atom has mass > 0, so each group total is > 0;
            # weighted mean as offset from the group's first position:
            # exact for singletons, and for real groups the offsets are
            # bounded by tol, so subnormal-mass underflow cannot move an
            # atom by more than the merge tolerance
            off = np.bincount(group, weights=(s - s0[group]) * mass, minlength=n)
            s = _wrap(s0[:n] + off / mass_merged, self.perimeter)
            sub = np.bincount(group, weights=sub, minlength=n)
            mass = mass_merged
            order = np.argsort(s, kind="stable")
            s, mass, sub = s[order], mass[order], sub[order]
        self.s = s
        self.mass = mass
        self.sublength = sub

    def __len__(self) -> int:
        return len(self.s)

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.mass))


@dataclass
class BoundaryDatum:
    """Piecewise-linear boundary function with explicit jumps.

    ``samples`` holds (arclength, value) pairs, shape (k, 2); the
    function is linear between consecutive samples and wraps from the
    last sample to the first.  ``jumps`` holds (arclength, height) pairs,
    shape (k, 2) or empty, adding a step at each location.  The jump heights must sum to zero (within
    1e-12 of the total variation scale), otherwise the function would not
    close up around the boundary.
    """

    samples: np.ndarray
    jumps: np.ndarray
    perimeter: float

    def __post_init__(self):
        _check_perimeter(self.perimeter)
        # copies: the positions are wrapped in place below
        samples = _pairs(self.samples, "samples")
        jumps = _pairs([] if self.jumps is None else self.jumps, "jumps")
        if len(samples) < 1:
            raise ValueError("datum needs at least one sample")
        if not (np.isfinite(samples).all() and np.isfinite(jumps).all()):
            raise ValueError("datum samples and jumps must be finite")
        samples[:, 0] = _wrap(samples[:, 0], self.perimeter)
        samples = samples[np.argsort(samples[:, 0], kind="stable")]
        # the last gap runs across the seam back to the first sample
        gaps = np.diff(samples[:, 0], append=samples[0, 0] + self.perimeter)
        if np.any(gaps <= MERGE_TOL * self.perimeter):
            raise ValueError("duplicate sample positions in boundary datum")
        jumps[:, 0] = _wrap(jumps[:, 0], self.perimeter)
        jumps = jumps[np.argsort(jumps[:, 0], kind="stable")]
        self.samples = samples
        self.jumps = jumps
        imbalance = float(np.sum(jumps[:, 1]))
        scale = max(1.0, self.total_variation())
        if abs(imbalance) > MERGE_TOL * scale:
            raise InfeasibleError(
                f"boundary datum does not close up: jump heights sum to "
                f"{imbalance:.3e} (must vanish)"
            )

    def total_variation(self) -> float:
        v = self.samples[:, 1]
        # finite samples may still rise by more than a float holds
        with np.errstate(over="ignore"):
            incr = np.abs(np.diff(np.concatenate([v, v[:1]])))
            tv = float(np.sum(incr) + np.sum(np.abs(self.jumps[:, 1])))
        if tv == np.inf:
            raise FloatRangeError("the datum's total variation overflows")
        return tv

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
    datum: BoundaryDatum, n_quad: int = 1
) -> tuple[BoundaryMeasure, BoundaryMeasure]:
    """Split the derivative of a boundary datum into positive/negative parts.

    Linear pieces contribute ``n_quad`` midpoint atoms each with mass
    slope * sublength (one per piece by default, as the CLI's
    ``quadrature`` and ``solve_least_gradient`` use; finely sampled data
    need no more); jumps contribute single atoms of mass |height|.
    The two returned measures balance to within 1e-10 of the datum's
    total variation; a mass beyond the float range raises FloatRangeError.
    """
    n_quad = operator.index(n_quad)
    if n_quad < 1:
        raise ValueError(f"n_quad must be >= 1, got {n_quad}")
    per = datum.perimeter
    xs, vs = datum.samples.T
    # piece k runs from sample k to sample k + 1, the last across the seam
    length = np.append(xs[1:], xs[0] + per) - xs
    rise = np.roll(vs, -1) - vs
    keep = (length > 0) & (rise != 0)
    length, rise = length[keep], rise[keep]
    sub = length / n_quad
    mids = xs[keep, None] + (np.arange(n_quad) + 0.5) * sub[:, None]
    with np.errstate(over="ignore", invalid="ignore"):
        mass = np.abs(rise / length) * sub
    if not np.isfinite(mass).all():
        raise FloatRangeError("the datum's derivative masses overflow")
    up = rise > 0
    h = datum.jumps[:, 1]
    # each piece's atoms in piece order, then the jumps in jump order
    f_plus, f_minus = (
        BoundaryMeasure(
            np.concatenate([mids[piece].ravel(), datum.jumps[jump, 0]]),
            np.concatenate([np.repeat(mass[piece], n_quad), np.abs(h[jump])]),
            per,
            np.concatenate([np.repeat(sub[piece], n_quad), np.zeros(np.count_nonzero(jump))]),
        )
        for piece, jump in ((up, h > 0), (~up, h < 0))
    )
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
    """Cancel mass shared at coinciding atom positions, also across the
    seam at 0.

    The difference f_plus - f_minus is preserved atom by atom; applying
    the operation twice changes nothing.  Inputs with no coinciding atoms
    come back as they are.
    """
    per = f_plus.perimeter
    tol = MERGE_TOL * per
    # scalar work on python floats is cheaper than on arrays, and exact
    sp, sm = f_plus.s.tolist(), f_minus.s.tolist()
    mp, mm = f_plus.mass.tolist(), f_minus.mass.tolist()
    i = j = 0
    cancelled = False
    while i < len(sp) and j < len(sm):
        d = sp[i] - sm[j]
        if abs(d) <= tol:
            cancelled = True
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
    # the last atom of one measure and the first of the other may meet
    # across the seam at 0
    if len(mp) and len(mm):
        for i, j, gap in (
            (-1, 0, sm[0] + per - sp[-1]),
            (0, -1, sp[0] + per - sm[-1]),
        ):
            if gap <= tol:
                cancelled = True
                c = min(mp[i], mm[j])
                mp[i] -= c
                mm[j] -= c
    if not cancelled:
        return f_plus, f_minus
    return tuple(
        BoundaryMeasure(f.s, mass, f.perimeter, f.sublength)
        for f, mass in ((f_plus, mp), (f_minus, mm))
    )


def quadrature_atoms(
    density, interval: tuple[float, float], n: int, perimeter: float
) -> BoundaryMeasure:
    """Discretize a nonnegative density on an arclength interval.

    Uses the midpoint rule with n atoms: atom k sits at the midpoint of
    its subinterval and carries mass density(midpoint) * sublength, so
    the total mass matches the integral to O(n^-2) for smooth densities.
    The interval may wrap past the perimeter (hi > perimeter).  density
    takes the array of midpoints and returns one value per midpoint.
    """
    n = operator.index(n)
    lo, hi = float(interval[0]), float(interval[1])
    if not hi > lo:
        raise ValueError(f"empty quadrature interval [{lo}, {hi}]")
    if n < 1:
        raise ValueError(f"need at least one atom, got n={n}")
    sub = (hi - lo) / n
    mids = lo + (np.arange(n) + 0.5) * sub
    vals = np.asarray(density(mids), dtype=float)
    if vals.shape != mids.shape:
        raise ValueError(f"density must return shape {mids.shape}, got {vals.shape}")
    if np.any(vals < 0):
        k = int(np.argmin(vals))
        raise ValueError(f"density is negative ({vals[k]:.3e}) at s={mids[k]:.6f}")
    return BoundaryMeasure(mids, vals * sub, perimeter, np.full(n, sub))
