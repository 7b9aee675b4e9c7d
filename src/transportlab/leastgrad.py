"""Least anisotropic gradient via boundary transport.

A function u of least phi-gradient with boundary datum g is recovered
from the optimal transport between the positive and negative parts of
g's tangential derivative: the transport rays are the level lines of u,
and u jumps by the ray mass across each ray.  The cost norm is phi
composed with a quarter turn, which undoes w = R_{pi/2} grad u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import kernels
from .density import GridField
from .geom import ChordCost, Domain, Norm
from .measures import BoundaryDatum, remove_common_mass, tangential_derivative
from .ot import TransportPlan, solve_kantorovich


def _generic_anchor(
    anchor_s: float, ends: np.ndarray, domain: Domain
) -> tuple[float, np.ndarray, np.ndarray]:
    """First arclength at or after anchor_s whose boundary point stays
    at least 1e-8 times the domain's diameter away from every point of
    ``ends``, shape (k, 2), with that point and its inward normal."""
    clear = 1e-8 * domain.diameter
    step = 1e-7 * domain.perimeter
    for k in range(256):
        s = anchor_s + k * step
        [point], [normal] = domain.frame(s)
        if np.min(np.hypot(ends[:, 0] - point[0], ends[:, 1] - point[1])) >= clear:
            return s, point, normal
    raise RuntimeError("could not find a generic anchor position")


def reconstruct_u(
    seg_a: np.ndarray,
    seg_b: np.ndarray,
    mass: np.ndarray,
    g: BoundaryDatum,
    grid: GridField,
    domain: Domain,
    anchor_s: float = 0.0,
) -> GridField:
    """Half-plane reconstruction of u on grid cell centers.

    Ray k runs from seg_a[k] to seg_b[k] and carries mass[k].  u(center)
    is g(anchor) plus the signed ray masses crossed by the straight path
    from the boundary anchor to the center; crossing a ray from its left
    to its right adds the mass.  Rays are chords, so inside
    the domain a ray is crossed exactly when the center and the anchor
    lie on opposite sides of its line (see ``kernels.crossing_field``
    for the sweep, the rule for centers outside the domain and the tie
    rule for centers exactly on a ray's line).

    An anchor sitting exactly on a ray endpoint (or on a jump of g,
    which is the same point) has no well-defined side, so the anchor
    is nudged forward along the boundary to the first generic
    position before any rays are shot.
    """
    out = grid.copy_empty(kind="function")
    if len(mass) == 0:
        out.values[:] = float(g.eval(float(anchor_s))[0])
        return out
    ends = np.concatenate([seg_a, seg_b])
    anchor_s, anchor, normal = _generic_anchor(float(anchor_s), ends, domain)
    u0 = float(g.eval(anchor_s)[0])
    centers = grid.centers()
    acc = kernels.crossing_field(
        centers,
        anchor,
        seg_a,
        seg_b,
        mass,
        interior_mask(grid, domain, centers),
        normal,
    )
    out.values[:] = u0 + acc
    return out


def interior_mask(grid: GridField, domain: Domain, centers=None) -> np.ndarray:
    """Cells whose centers lie in the closed domain: a read-only array
    that the domain keeps for the last grid geometry it was asked about.
    ``centers`` are the grid's ``centers()``, if the caller has them."""
    key = (tuple(grid.origin), grid.cell, grid.nx, grid.ny)
    return domain.cell_mask(key, grid.centers if centers is None else lambda: centers)


def gradient_norm_field(u: GridField, phi: Norm, domain: Domain) -> GridField:
    """phi of the forward-difference gradient, zero outside the domain.

    The returned field is density-kind: its integral is the anisotropic
    total variation and its L^p norms are the W^{1,p} statistics.
    """
    if u.kind != "function":
        raise ValueError("gradient_norm_field expects a function field")
    # the mask first: a new grid geometry builds it from the centers,
    # which then need not be held beside the differences
    outside = ~interior_mask(u, domain)
    v, h = u.values, u.cell
    gx = np.zeros_like(v)
    gy = np.zeros_like(v)
    np.subtract(v[:, 1:], v[:, :-1], out=gx[:, :-1])
    np.subtract(v[1:, :], v[:-1, :], out=gy[:-1, :])
    gx /= h
    gy /= h
    vals = phi._in_place(gx, gy)
    vals[outside] = 0.0
    return GridField(u.origin, u.cell, vals, kind="density")


def total_variation(grad: GridField) -> float:
    """Anisotropic TV over cells with centers in the domain: the integral
    of ``grad = gradient_norm_field(u, phi, domain)``."""
    return grad.integral()


def trace_error(u: GridField, g: BoundaryDatum, domain: Domain) -> float:
    """Max boundary mismatch at the domain's 1024 ``trace_ring`` points,
    read 2h inside along the normal."""
    s, p, normal = domain.trace_ring
    p = p + 2.0 * u.cell * normal
    ix = kernels._cell_index(p[:, 0], u.origin[0], u.cell, u.nx)
    iy = kernels._cell_index(p[:, 1], u.origin[1], u.cell, u.ny)
    return float(np.max(np.abs(u.values[iy, ix] - g.eval(s))))


@dataclass
class LeastGradientResult:
    """Everything the least-gradient pipeline produces."""

    u: GridField
    grad: GridField  # gradient_norm_field(u, phi, domain)
    plan: TransportPlan
    tv: float
    trace_err: float

    @property
    def cost(self) -> float:
        """The plan's cost, 0.0 for a constant datum, which has no plan."""
        return 0.0 if self.plan is None else self.plan.cost


def solve_least_gradient(
    g: BoundaryDatum,
    domain: Domain,
    phi: Norm,
    grid: GridField,
    n_quad: int = 1,
) -> LeastGradientResult:
    """Full pipeline: datum -> derivative -> transport -> u.

    u, its gradient norm field, its TV and its trace error are computed
    on the given grid's cell centers; ``density.grid_for_domain`` builds
    one over the domain.
    The transport cost is phi turned by a quarter, so the plan cost
    equals the anisotropic TV of the minimizer.  n_quad is the number
    of derivative atoms per linear piece of g; finely sampled data
    should keep it at 1, coarse data with long linear pieces may want
    more.
    """
    f_plus, f_minus = tangential_derivative(g, n_quad=n_quad)
    f_plus, f_minus = remove_common_mass(f_plus, f_minus)
    if len(f_plus) == 0:
        # constant datum: nothing moves
        plan, mass = None, np.zeros(0)
        seg_a = seg_b = np.zeros((0, 2))
    else:
        plan = solve_kantorovich(f_plus, f_minus, ChordCost(domain, phi.rotated()))
        (seg_a, seg_b), mass = plan.entry_segments(), plan.mass
    # positional: pipebench's tracer counts the rays as len(args[0])
    u = reconstruct_u(seg_a, seg_b, mass, g, grid, domain)
    grad = gradient_norm_field(u, phi, domain)
    return LeastGradientResult(
        u=u,
        grad=grad,
        plan=plan,
        tv=total_variation(grad),
        trace_err=trace_error(u, g, domain),
    )
