"""Transport densities on cartesian grids.

The density of a plan spreads each entry's mass along its chord; the
partial density stops every particle after a fraction tau of its trip.
Deposition computes exact per-cell intersection lengths, so the
partial density integrates to exactly tau * cost (to roundoff) and the
L^p statistics are free of sampling noise.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from . import kernels
from .geom import Domain
from .ot import TransportPlan, displacement_lengths


@dataclass
class GridField:
    """Square-cell grid holding either a density or function samples.

    values[iy, ix] belongs to the cell with lower-left corner
    origin + cell*(ix, iy).  kind is "density" (measure per unit area,
    nonnegative) or "function" (plain samples).
    """

    origin: tuple
    cell: float
    nx: int
    ny: int
    values: np.ndarray
    kind: str = "density"

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.ny, self.nx):
            raise ValueError(
                f"values shape {self.values.shape} does not match "
                f"(ny, nx) = {(self.ny, self.nx)}"
            )
        if self.kind not in ("density", "function"):
            raise ValueError(f"unknown field kind {self.kind!r}")

    def centers(self) -> np.ndarray:
        """Cell centers, shape (ny, nx, 2)."""
        x = self.origin[0] + self.cell * (np.arange(self.nx) + 0.5)
        y = self.origin[1] + self.cell * (np.arange(self.ny) + 0.5)
        out = np.empty((self.ny, self.nx, 2))
        out[..., 0] = x[None, :]
        out[..., 1] = y[:, None]
        return out

    def integral(self) -> float:
        return float(self.values.sum() * self.cell**2)

    def copy_empty(self, kind: str) -> "GridField":
        return GridField(
            origin=self.origin,
            cell=self.cell,
            nx=self.nx,
            ny=self.ny,
            values=np.zeros((self.ny, self.nx)),
            kind=kind,
        )


def grid_for_domain(domain: Domain, n: int) -> GridField:
    """Empty density grid of square cells covering the domain's box.

    n counts cells along the longer box side; the CLI takes its n from
    ``cli._grid_n``.
    """
    n = operator.index(n)
    if n < 1:
        raise ValueError("grid needs at least one cell")
    x0, y0, x1, y1 = domain.bbox()
    w, h = x1 - x0, y1 - y0
    cell = max(w, h) / n
    nx = max(1, int(math.ceil(w / cell - 1e-12)))
    ny = max(1, int(math.ceil(h / cell - 1e-12)))
    return GridField(
        origin=(x0, y0),
        cell=cell,
        nx=nx,
        ny=ny,
        values=np.zeros((ny, nx)),
        kind="density",
    )


def deposit_partial_density(
    plan: TransportPlan, tau: float, grid: GridField
) -> GridField:
    """Density of the transport truncated at trip fraction tau.

    Every entry deposits onto the sub-segment from its source x to
    x + tau*(y - x), with constant linear density
    mass * cost_norm(x - y) / euclidean(x - y) per unit length.  Cell
    increments are exact intersection lengths, so the field integrates
    to tau * plan.cost up to roundoff.
    """
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau!r}")
    a, b = plan.entry_segments()
    out = grid.copy_empty(kind="density")
    kernels.deposit_segments(
        out.values, out.origin, out.cell, a, a + tau * (b - a),
        tau * plan.mass * plan.entry_costs,
    )
    return out


def lp_norm(field: GridField, p) -> float:
    """L^p norm of a density field by the midpoint rule.

    p may be any real >= 1 or math.inf.
    """
    if field.kind != "density":
        raise ValueError("lp_norm expects a density field")
    if p == math.inf:
        return float(field.values.max(initial=0.0))
    p = float(p)
    if not p >= 1.0:  # NaN fails too
        raise ValueError(f"p must be >= 1, got {p!r}")
    return float((kernels.power_sum(field.values, p) * field.cell**2) ** (1.0 / p))


def time_factor(p: float, tau: float) -> float:
    """Closed form of the trip-time integral of (1-t)^(1-p) over [0, tau].

    Diverges (returns inf) when tau = 1 and p >= 2, and when p is
    infinite; returns inf too where the value is beyond the float range.
    """
    if not p > 1.0:  # NaN fails too
        raise ValueError(f"p must exceed 1, got {p!r}")
    if not 0.0 < tau <= 1.0:
        raise ValueError(f"tau must lie in (0, 1], got {tau!r}")
    if p == math.inf or (tau == 1.0 and p >= 2.0):
        return math.inf
    if p == 2.0:
        return -math.log1p(-tau)
    if tau == 1.0:  # p < 2 here, and log1p(-1) raises
        return 1.0 / (2.0 - p)
    # ((1 - tau)^(2 - p) - 1) / (p - 2) without its cancellation near p = 2
    try:
        return math.expm1((2.0 - p) * math.log1p(-tau)) / (p - 2.0)
    except OverflowError:  # beyond the float range
        return math.inf


def lp_bound_factors(plan: TransportPlan, p: float, tau: float) -> tuple[float, float]:
    """The two factors bounding the p-th power of the partial density.

    Returns (time_integral, data_integral).  time_integral is the trip
    integral from time_factor.  data_integral converts source atoms to
    boundary densities via their quadrature sublengths and sums
    density^p * sublength * displacement^(2-p); atoms without a
    sublength (explicit jumps) have no density in L^p, making the
    factor a flagged infinity rather than an error.  time_factor checks
    p and tau.
    """
    ti = time_factor(p, tau)
    src = plan.source
    D = displacement_lengths(plan)
    m = src.mass
    sub = src.sublength
    if np.any(sub <= 0):
        return ti, math.inf
    dens = m / sub
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        dpow = np.where(D > 0, D ** (2.0 - p), np.where(p <= 2.0, 0.0, math.inf))
        terms = dens**p * sub * dpow
        # at large p a power leaves the float range (0 * inf gives nan):
        # such terms are taken from their logarithms
        big = ~np.isfinite(terms)
        if big.any():
            terms[big] = np.exp(
                p * np.log(dens[big]) + np.log(sub[big]) + (2.0 - p) * np.log(D[big])
            )
    data = float(np.sum(terms))
    return ti, data


def write_csv(field: GridField, path: str) -> None:
    """Row-major CSV dump with a grid-geometry header line."""
    with open(path, "w") as fh:
        fh.write(
            f"# origin={float(field.origin[0])!r},{float(field.origin[1])!r} "
            f"cell={float(field.cell)!r} nx={field.nx} ny={field.ny} "
            f"kind={field.kind}\n"
        )
        # one row of python floats at a time: their reprs are those of
        # float(v), and no list of the whole field is held
        for row in field.values:
            fh.write(",".join(map(repr, row.tolist())))
            fh.write("\n")


def read_csv(path: str) -> GridField:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("# origin="):
            raise ValueError(f"{path} is not a grid CSV (bad header)")
        fields = dict(
            part.split("=", 1) for part in header[2:].strip().split(" ")
        )
        ox, oy = (float(v) for v in fields["origin"].split(","))
        values = np.loadtxt(fh, delimiter=",", ndmin=2)
    return GridField(
        origin=(ox, oy),
        cell=float(fields["cell"]),
        nx=int(fields["nx"]),
        ny=int(fields["ny"]),
        values=values,
        kind=fields.get("kind", "density"),
    )


def write_pgm(field: GridField, path: str) -> None:
    """8-bit PGM preview, max-normalized, top row = largest y."""
    vmax = float(field.values.max(initial=0.0))
    scale = 255.0 / vmax if vmax > 0 else 0.0
    img = np.clip(field.values * scale, 0, 255).astype(np.uint8)[::-1]
    with open(path, "wb") as fh:
        fh.write(f"P5\n{field.nx} {field.ny}\n255\n".encode())
        fh.write(img.tobytes())
