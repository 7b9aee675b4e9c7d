"""Alternating boundary arcs whose transport density leaves L^p.

Pairs of adjacent equal-length arcs carry +1 and -1 boundary density;
within each pair the optimal transport reflects across the pair
midpoint, so the density near the shared endpoint behaves like a
corner fan.  On the unit circle the p-th power integral of the density
of a pair of arc length eps, which is also its half angle, is
2 int_0^eps sin(phi)^(2-p) dphi, finite exactly for p < 3; exact mode
evaluates it by Gauss-Jacobi quadrature.  With arc lengths shrinking
like 1/(n ln^2(1+n)) it scales like (arc length)^(3-p) per pair, so the
sum over pairs is finite for p <= 2 and infinite for every p > 2.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import InfeasibleError
from .geom import ChordCost, Disk, EuclideanNorm, disk

# exact mode needs only the geometry; the transport layers load with the
# first grid-mode pair
if TYPE_CHECKING:
    from .measures import BoundaryMeasure
    from .ot import TransportPlan

# certified upper bound on sum_{n>=1} 1/(n ln^2(1+n)); dividing by it
# keeps every truncated arc family inside half the circle
SERIES_SUM_BOUND = 3.39

# Gauss-Jacobi nodes per pair integral; on build_arcs(200) 8 and 32 nodes
# agree with 16 to 4.3e-15 relative for 1 <= p <= 2.99
GJ_NODES = 16

# most cells in one pair grid: a float64 grid of 4096**2 cells is 128 MB,
# the budget of the largest density grid the CLI accepts
MAX_PAIR_CELLS = 4096 * 4096


def _shape(n) -> np.ndarray:
    """Unscaled arc-length sequence 1/(n ln^2(1+n))."""
    n = np.asarray(n, dtype=float)
    return 1.0 / (n * np.log1p(n) ** 2)


@dataclass
class ArcSystem:
    """Layout of N adjacent arc pairs on the unit circle, from the length
    ``eps[n]`` of each arc of pair n, a tuple of floats, and the
    ``scale`` of the lengths.

    The pairs abut from s = 0 in arclength, pair n spanning 2 eps[n];
    the positive arc comes first in odd pairs (1-indexed) and second in
    even ones, so consecutive pairs always abut with equal signs and no
    mass ever profits from crossing a pair boundary.
    """

    eps: tuple
    scale: float

    @property
    def domain(self) -> Disk:
        return disk(1.0)

    @property
    def n_pairs(self) -> int:
        return len(self.eps)

    def intervals(self, n: int) -> tuple[tuple[float, float], tuple[float, float]]:
        """((plus_lo, plus_hi), (minus_lo, minus_hi)) for pair n
        (0-indexed); the two arcs share the pair's reflection point."""
        # the earlier pairs summed in order, the floats of np.cumsum
        s0 = 0.0
        for e in self.eps[:n]:
            s0 += 2.0 * e
        mid, hi = s0 + self.eps[n], s0 + 2.0 * self.eps[n]
        if n % 2 == 0:
            return (s0, mid), (mid, hi)
        return (mid, hi), (s0, mid)

    def pair_measures(
        self, n: int, atoms_per_arc: int
    ) -> tuple[BoundaryMeasure, BoundaryMeasure]:
        """Unit-density quadrature atoms on the two arcs of pair n."""
        from .measures import quadrature_atoms

        (p0, p1), (m0, m1) = self.intervals(n)
        per = self.domain.perimeter
        one = lambda s: np.ones_like(s)
        f_plus = quadrature_atoms(one, (p0, p1), atoms_per_arc, per)
        f_minus = quadrature_atoms(one, (m0, m1), atoms_per_arc, per)
        return f_plus, f_minus


def build_arcs(N: int, eps: list = None) -> ArcSystem:
    """Arc system on the unit disk with the default decaying lengths or a
    custom list.

    The default sequence is scaled once, independently of N, so that
    even the infinite family occupies at most half the perimeter;
    partial sums are then comparable across different N.
    """
    N = operator.index(N)
    if N < 1:
        raise ValueError(f"need at least one arc pair, got {N}")
    per = disk(1.0).perimeter
    if eps is None:
        scale = per / (4.0 * SERIES_SUM_BOUND)
        lengths = scale * _shape(np.arange(1, N + 1))
    else:
        scale = 1.0
        lengths = np.asarray(eps, dtype=float)
        if len(lengths) != N:
            raise ValueError(f"custom eps has {len(lengths)} entries, N = {N}")
        if not np.all(np.isfinite(lengths)):
            raise ValueError("arc lengths must be finite")
        if np.any(lengths <= 0):
            raise ValueError("arc lengths must be positive")
        if 2.0 * lengths.sum() > per:
            raise InfeasibleError(
                f"arcs of total length {2 * lengths.sum():.6g} overflow the "
                f"perimeter {per:.6g}"
            )
    return ArcSystem(eps=tuple(lengths.tolist()), scale=scale)


def _gauss_jacobi(beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the weight (1 + x)^beta on [-1, 1].

    Golub-Welsch: the nodes are the eigenvalues of the Jacobi matrix of
    the orthogonal polynomials (alpha = 0), the weights mu_0 times the
    squared first components of its eigenvectors.
    """
    k = np.arange(1, GJ_NODES)
    s = 2.0 * k + beta
    diag = np.empty(GJ_NODES)
    diag[0] = beta / (beta + 2.0)  # beta^2 / (beta (beta + 2)) without 0/0
    diag[1:] = beta**2 / (s * (s + 2.0))
    off = 2.0 * k * (k + beta) / (s * np.sqrt(s * s - 1.0))
    nodes, vecs = np.linalg.eigh(np.diag(diag) + np.diag(off, 1) + np.diag(off, -1))
    mu0 = 2.0 ** (beta + 1.0) / (beta + 1.0)
    return nodes, mu0 * vecs[0] ** 2


def exact_pair_lps(arcs: ArcSystem, p: float) -> list[float]:
    """Integral of each pair's density to the p-th power, by quadrature.

    In the chart over the tangent at the pair midpoint the unit circle
    is the graph s -> alpha(s) with alpha'(s) = s/sqrt(1 - s^2); rays
    join (s, alpha) to (-s, alpha) and the area Jacobian of the ray
    parameterization is 2 s alpha'(s).  The trip direction integrates
    out exactly, and with s = sin(phi) the remaining 1-d integral is
    2 times the integral of sin(phi)^(2-p) over [0, eps], the pair's
    half angle eps being its arc length.  Near phi = 0 this behaves like
    phi^(2-p): integrable for p < 3, divergent (returns inf) for p >= 3.
    With phi = eps (1 + x) / 2 the singular factor is the Gauss-Jacobi
    weight (1 + x)^(2-p), and the smooth rest (sin(phi)/phi)^(2-p) is
    integrated with GJ_NODES nodes, one rule for all pairs: it depends
    on p alone.  Raises ValueError unless p >= 1.
    """
    if not p >= 1.0:  # NaN fails too
        raise ValueError(f"p must be >= 1, got {p!r}")
    if p >= 3.0:
        return [math.inf] * arcs.n_pairs
    beta = 2.0 - p
    x, w = _gauss_jacobi(beta)
    out = []
    for e in arcs.eps:
        phi = 0.5 * e * (1.0 + x)
        smooth = (np.sin(phi) / phi) ** beta
        out.append(float(2.0 * (0.5 * e) ** (beta + 1.0) * np.dot(w, smooth)))
    return out


def pair_plan(arcs: ArcSystem, n: int, atoms_per_arc: int) -> TransportPlan:
    """Optimal plan between the discretized arcs of one pair."""
    from . import ot

    f_plus, f_minus = arcs.pair_measures(n, atoms_per_arc)
    cost = ChordCost(arcs.domain, EuclideanNorm())
    return ot.solve_kantorovich(f_plus, f_minus, cost)


def _pair_grid(arcs: ArcSystem, n: int, grid_n: int) -> tuple:
    """Origin, cell size and shape (nx, ny) of pair n's grid.

    The grid lies in the pair's chart frame (tangent at the pair midpoint
    = x axis, inward normal = y axis).  Cells are sized so grid_n of them
    span the sag, with two cells of padding around the ray fan.
    """
    half_angle = arcs.eps[n]
    s_max = math.sin(half_angle)
    sag = 1.0 - math.cos(half_angle)
    cell = sag / grid_n
    pad = 2 * cell
    nx = int(math.ceil((2 * s_max + 2 * pad) / cell))
    ny = int(math.ceil((sag + 2 * pad) / cell))
    return (-s_max - pad, -pad), cell, nx, ny


def check_pair_grids(arcs: ArcSystem, grid_n: int) -> None:
    """Raise ValueError unless every pair grid holds at most MAX_PAIR_CELLS.

    A pair grid has more than grid_n rows, so a larger grid_n fails
    before any cell size is computed.
    """
    if not 1 <= grid_n <= MAX_PAIR_CELLS:
        raise ValueError(
            f"grid_n must lie in [1, {MAX_PAIR_CELLS}], got {grid_n!r}"
        )
    for n in range(arcs.n_pairs):
        _, _, nx, ny = _pair_grid(arcs, n, grid_n)
        if nx * ny > MAX_PAIR_CELLS:
            raise ValueError(
                f"{grid_n} cells across the sag give pair {n} a grid of "
                f"{nx} x {ny} cells, more than {MAX_PAIR_CELLS}"
            )


def _pair_grid_lp(
    arcs: ArcSystem, n: int, p: float, grid_n: int, atoms_per_arc: int
) -> float:
    """Grid surrogate of exact_pair_lps with resolution tied to the pair.

    The pair's ray fan is a sliver: width ~ 2 eps but sag only
    ~ eps^2/2.  Cells are sized so grid_n of them span the sag, and the
    deposit happens in the pair's own chart frame (tangent at the pair
    midpoint = x axis) where the fan is axis aligned; the p-th power
    integral is invariant under that rigid motion.  Keeping cell/sag
    and the atom count fixed across pairs makes the surrogate
    comparable between pairs even where the exact integral diverges.
    Cost grows like grid_n divided by the arc length, so deep tails
    get slow.
    """
    from . import kernels

    plan = pair_plan(arcs, n, atoms_per_arc)
    a, b = plan.entry_segments()
    # the reflection point is the shared end of the pair's two arcs
    theta = max(lo for lo, _ in arcs.intervals(n))
    c = np.array([math.cos(theta), math.sin(theta)])
    tangent = np.array([-math.sin(theta), math.cos(theta)])
    inward = np.array([-math.cos(theta), -math.sin(theta)])
    frame = np.stack([tangent, inward], axis=1)
    a_loc = (a - c) @ frame
    b_loc = (b - c) @ frame
    origin, cell, nx, ny = _pair_grid(arcs, n, grid_n)
    values = np.zeros((ny, nx))
    kernels.deposit_segments(
        values, origin, cell, a_loc, b_loc, plan.mass * plan.entry_costs
    )
    # the pair grid is ours, so the powers may overwrite it
    return float(kernels.power_sum(values, p, overwrite=True) * cell**2)


def run_counterexample(
    N: int,
    p: float,
    mode: str = "exact",
    eps: list = None,
    grid_n: int = 16,
    atoms_per_arc: int = 64,
) -> dict:
    """Per-pair p-th power integrals on the unit disk and their partial sum.

    exact mode evaluates the chart integral per pair by Gauss-Jacobi
    quadrature (infinite for p >= 3); grid mode solves the per-pair
    transport on atoms_per_arc quadrature atoms per arc and sums cell
    powers on pair-local grids of grid_n cells across the sag.  The
    signature's grid_n and atoms_per_arc are the one home of these
    defaults, the CLI's included; exact mode ignores both.  A p below 1
    or NaN raises ValueError before any pair is built, and grid mode
    raises ValueError from ``check_pair_grids`` before any pair is
    solved.  The report compares the partial sum against the model sum
    of eps^(3-p) over the pair arc lengths.
    """
    N, grid_n, atoms_per_arc = map(operator.index, (N, grid_n, atoms_per_arc))
    if mode not in ("exact", "grid"):
        raise ValueError(f"unknown mode {mode!r}")
    if not p >= 1.0:  # NaN fails too
        raise ValueError(f"p must be >= 1, got {p!r}")
    arcs = build_arcs(N, eps=eps)
    if mode == "grid":
        check_pair_grids(arcs, grid_n)
        per_pair = [_pair_grid_lp(arcs, n, p, grid_n, atoms_per_arc) for n in range(N)]
    else:
        per_pair = exact_pair_lps(arcs, p)
    diverged = [not math.isfinite(v) for v in per_pair]
    partial = math.inf if any(diverged) else float(sum(per_pair))
    reference = float(np.sum(np.array(arcs.eps) ** (3.0 - p)))
    report = {
        "pairs": N,
        "p": float(p),
        "mode": mode,
        "scale": arcs.scale,
        "eps": list(arcs.eps),
        "per_pair": per_pair,
        "diverged": diverged,
        "partial_sum": partial,
        "reference_sum": reference,
        "ratio": (partial / reference) if math.isfinite(partial) else math.inf,
    }
    if mode == "grid":
        if p >= 3.0:
            report["warning"] = (
                "exact per-pair integrals are infinite for p >= 3; "
                "grid values are finite only through resolution smoothing"
            )
        report["grid_n"] = grid_n
        report["atoms_per_arc"] = atoms_per_arc
    return report
