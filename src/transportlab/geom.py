"""Planar domains and strictly convex norms.

Domains are uniformly convex, bounded, and described by their boundary:
a closed counterclockwise curve parameterized by arclength ``s`` starting
at the intersection with the positive x-axis.  Three kinds are supported:
disks, axis-aligned ellipses, and star-shaped domains given by samples
of a smooth positive radial profile ``rho(theta)`` at equal angles.

Norms are strictly convex norms on R^2, evaluated on the components
(dx, dy) of vectors: the euclidean norm, the l^q norms for 1 < q < inf,
and quadratic norms sqrt(v' A v) for symmetric positive definite A.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * math.pi
# relative slack of every domain's ``contains``, for points on the boundary
_CONTAINS_SLACK = 1 + 1e-12

# 12-node Gauss-Legendre rule used for all arclength quadrature: the
# repr of np.polynomial.legendre.leggauss(12), bit for bit, so that no
# import of numpy.polynomial is needed
_GL_NODES = np.array([
    -0.9815606342467192, -0.9041172563704748, -0.7699026741943047,
    -0.5873179542866175, -0.3678314989981802, -0.1252334085114689,
    0.1252334085114689, 0.3678314989981802, 0.5873179542866175,
    0.7699026741943047, 0.9041172563704748, 0.9815606342467192,
])
_GL_WEIGHTS = np.array([
    0.04717533638651141, 0.10693932599531907, 0.16007832854334642,
    0.20316742672306573, 0.2334925365383546, 0.2491470458134027,
    0.2491470458134027, 0.2334925365383546, 0.20316742672306573,
    0.16007832854334642, 0.10693932599531907, 0.04717533638651141,
])
# panels of an arclength table
_N_PANELS = 4096
# elements in a row block of the cost matrix, which bounds the
# temporaries of every norm's evaluation of a block
_BLOCK = 1 << 14


class _ArclengthTable:
    """Cumulative arclength over the parameter period 2 pi, with inversion.

    ``_N_PANELS`` panels use Gauss-Legendre quadrature of the supplied
    speed function; inversion takes a piecewise-linear initial guess
    between the knots and refines it with up to 4 Newton steps.  A step
    is a function of t and s alone, so a point whose step leaves t
    unchanged would keep it at every later step: it stops there, with
    the t that all 4 steps give.
    Round trips s -> t -> s are accurate to well below 1e-10 * perimeter.
    """

    def __init__(self, speed):
        self.speed = speed
        self.knots = np.linspace(0.0, TWO_PI, _N_PANELS + 1)
        h = TWO_PI / _N_PANELS
        # quadrature nodes for every panel at once
        t_nodes = self.knots[:-1, None] + 0.5 * h * (_GL_NODES[None, :] + 1.0)
        panel = 0.5 * h * (speed(t_nodes) * _GL_WEIGHTS[None, :]).sum(axis=1)
        self.cumulative = np.concatenate([[0.0], np.cumsum(panel)])
        self.total = float(self.cumulative[-1])

    def _length_from_knot(self, k: np.ndarray, t: np.ndarray) -> np.ndarray:
        """Arclength from knot index k to parameter t (t within panel reach)."""
        t0 = self.knots[k]
        half = 0.5 * (t - t0)
        nodes = t0[:, None] + half[:, None] * (_GL_NODES[None, :] + 1.0)
        return half * (self.speed(nodes) * _GL_WEIGHTS[None, :]).sum(axis=1)

    def param_of_arclength(self, s) -> np.ndarray:
        s = np.atleast_1d(np.asarray(s, dtype=float))
        s = np.mod(s, self.total)
        t = np.interp(s, self.cumulative, self.knots)
        moving = np.arange(len(t))
        for _ in range(4):
            tm = t[moving]
            k = np.clip(
                np.searchsorted(self.knots, tm, side="right") - 1, 0, len(self.knots) - 2
            )
            resid = self.cumulative[k] + self._length_from_knot(k, tm) - s[moving]
            step = tm - resid / self.speed(tm)
            t[moving] = step
            # a step that leaves t as it was leaves it so for good
            moving = moving[step != tm]
            if not len(moving):
                break
        return t


class _PeriodicCubic:
    """Periodic cubic spline through n >= 3 samples y[k] at k * period / n.

    With uniform knots the system for the second derivatives,
    (h/6)(M[k-1] + 4 M[k] + M[k+1]) = (y[k+1] - 2 y[k] + y[k-1]) / h,
    is circulant, so one FFT division solves it; below 3 samples the
    stencil's entries 0, 1 and -1 are not distinct.  The interpolant is
    the one a periodic ``CubicSpline`` builds on the same knots.
    """

    def __init__(self, y: np.ndarray, period: float):
        self.y = y
        self.n = len(y)
        self.period = period
        self.h = period / self.n
        rhs = 6.0 * (np.roll(y, -1) - 2.0 * y + np.roll(y, 1)) / self.h**2
        stencil = np.zeros(self.n)
        stencil[[0, 1, -1]] = 4.0, 1.0, 1.0
        self.m = np.fft.irfft(np.fft.rfft(rhs) / np.fft.rfft(stencil), self.n)

    def __call__(self, t) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Value, first and second derivative at t (wrapped into one period)."""
        x = np.mod(t, self.period) / self.h
        k = np.minimum(np.floor(x).astype(np.intp), self.n - 1)
        b = x - k
        a = 1.0 - b
        k1 = (k + 1) % self.n
        y0, y1, m0, m1 = self.y[k], self.y[k1], self.m[k], self.m[k1]
        h = self.h
        r = a * y0 + b * y1 + ((a**3 - a) * m0 + (b**3 - b) * m1) * (h * h / 6.0)
        r1 = (y1 - y0) / h + (
            (1.0 - 3.0 * a * a) * m0 + (3.0 * b * b - 1.0) * m1
        ) * (h / 6.0)
        r2 = a * m0 + b * m1
        return r, r1, r2


class Domain:
    """Base class for uniformly convex planar domains.

    Each domain inverts arclength to its own curve parameter and gives
    its point and its inward unit normal, each as a pair of coordinate
    arrays, as functions of that parameter.
    """

    perimeter: float
    diameter: float

    def _param_of_s(self, s) -> np.ndarray:
        return self._table.param_of_arclength(s)

    def boundary_point(self, s) -> np.ndarray:
        """Boundary points at arclengths s (wrapped modulo the perimeter),
        shape (k, 2)."""
        return np.stack(self._point(self._param_of_s(s)), axis=-1)

    def frame(self, s) -> tuple[np.ndarray, np.ndarray]:
        """Boundary points and inward unit normals at arclengths s, each of
        shape (k, 2), from one inversion."""
        t = self._param_of_s(s)
        return np.stack(self._point(t), axis=-1), np.stack(self._normal(t), axis=-1)

    @cached_property
    def trace_ring(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """1024 equally spaced arclengths from 0, with their boundary
        points and inward normals: read-only arrays, inverted once per
        domain."""
        s = np.linspace(0.0, self.perimeter, 1024, endpoint=False)
        ring = (s, *self.frame(s))
        for a in ring:
            a.setflags(write=False)
        return ring

    def cell_mask(self, key, centers) -> np.ndarray:
        """``contains`` of a grid's cell centers, shape (ny, nx): a
        read-only array kept for the last grid geometry ``key`` asked
        about.  ``centers()`` gives the centers, shape (ny, nx, 2), when
        the key is new."""
        kept = self.__dict__.get("_cell_mask")
        if kept is None or kept[0] != key:
            c = centers()
            mask = self.contains(c.reshape(-1, 2)).reshape(c.shape[:-1])
            mask.setflags(write=False)
            kept = self._cell_mask = (key, mask)
        return kept[1]

    def __getstate__(self):
        # a copy or an unpickled domain rebuilds its own read-only ring
        # and mask; pickle would hand it writeable arrays
        state = self.__dict__.copy()
        state.pop("trace_ring", None)
        state.pop("_cell_mask", None)
        return state

    def contains(self, points) -> np.ndarray:
        """True for points inside or on the boundary."""
        raise NotImplementedError

    def bbox(self) -> tuple[float, float, float, float]:
        """(xmin, ymin, xmax, ymax) of the closed domain."""
        raise NotImplementedError


@dataclass
class Disk(Domain):
    radius: float

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"disk radius must be positive and finite, got {self.radius}")
        self.perimeter = TWO_PI * self.radius
        self.diameter = 2.0 * self.radius

    def _param_of_s(self, s):
        return np.atleast_1d(np.asarray(s, dtype=float)) / self.radius

    def _point(self, th):
        return self.radius * np.cos(th), self.radius * np.sin(th)

    def _normal(self, th):
        return -np.cos(th), -np.sin(th)

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        return p[..., 0] ** 2 + p[..., 1] ** 2 <= self.radius**2 * _CONTAINS_SLACK

    def bbox(self):
        r = self.radius
        return (-r, -r, r, r)


@dataclass
class Ellipse(Domain):
    a: float
    b: float

    def __post_init__(self):
        if not (0 < self.a < math.inf and 0 < self.b < math.inf):
            raise ValueError(
                f"ellipse semi-axes must be positive and finite, got {self.a}, {self.b}"
            )
        self._table = _ArclengthTable(self._speed)
        self.perimeter = self._table.total
        self.diameter = 2.0 * max(self.a, self.b)

    def _speed(self, t):
        return np.sqrt((self.a * np.sin(t)) ** 2 + (self.b * np.cos(t)) ** 2)

    def _point(self, t):
        return self.a * np.cos(t), self.b * np.sin(t)

    def _normal(self, t):
        speed = self._speed(t)
        # tangent (-a sin, b cos)/speed rotated by +pi/2
        return -self.b * np.cos(t) / speed, -self.a * np.sin(t) / speed

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        return (p[..., 0] / self.a) ** 2 + (p[..., 1] / self.b) ** 2 <= _CONTAINS_SLACK

    def bbox(self):
        return (-self.a, -self.b, self.a, self.b)


@dataclass
class RadialDomain(Domain):
    """Star-shaped domain r <= rho(theta) for a smooth positive profile,
    given by its n >= 3 values ``rho[k]`` at theta_k = 2 pi k / n.

    The samples are held as a tuple of floats, which cannot change under
    the spline built from them.  The constructor rejects profiles whose
    spline or boundary curvature is not strictly positive at 4096 angles
    (the curve would loop, or the domain not be uniformly convex).
    """

    rho: tuple = field(repr=False)

    def __post_init__(self):
        vals = np.array(self.rho, dtype=float)
        if vals.ndim != 1 or len(vals) < 3:
            raise ValueError(f"radial profile needs 3 or more samples, got shape {vals.shape}")
        bad = ~((vals > 0) & (vals < math.inf))
        if bad.any():
            k = int(np.argmax(bad))
            raise ValueError(
                f"radial profile must be positive and finite, got {vals[k]} "
                f"at theta={TWO_PI * k / len(vals):.6f}"
            )
        self.rho = tuple(vals.tolist())
        self._spline = _PeriodicCubic(vals, TWO_PI)
        check = np.linspace(0.0, TWO_PI, 4096, endpoint=False)
        r = self._spline(check)[0]
        if np.any(r <= 0):
            raise ValueError(
                f"radial profile's spline must be positive, got {r.min():.3e} "
                f"at theta={check[int(np.argmin(r))]:.6f}"
            )
        kappa = self._curvature(check)
        if np.any(kappa <= 0):
            worst = check[int(np.argmin(kappa))]
            raise ValueError(
                f"radial profile is not uniformly convex: curvature "
                f"{kappa.min():.3e} at theta={worst:.6f}"
            )
        self._table = _ArclengthTable(self._speed)
        self.perimeter = self._table.total
        pts = self.boundary_point(np.linspace(0, self.perimeter, 4096, endpoint=False))
        self.diameter = 2.0 * float(np.max(np.hypot(pts[:, 0], pts[:, 1])))
        pad = 1e-9 * self.diameter
        self._bbox = (
            float(pts[:, 0].min()) - pad,
            float(pts[:, 1].min()) - pad,
            float(pts[:, 0].max()) + pad,
            float(pts[:, 1].max()) + pad,
        )

    def _curvature(self, th):
        r, r1, r2 = self._spline(th)
        return (r**2 + 2 * r1**2 - r * r2) / (r**2 + r1**2) ** 1.5

    def _speed(self, th):
        r, r1, _ = self._spline(th)
        return np.sqrt(r**2 + r1**2)

    def _point(self, th):
        r = self._spline(th)[0]
        return r * np.cos(th), r * np.sin(th)

    def _normal(self, th):
        r, r1, _ = self._spline(th)
        cos, sin = np.cos(th), np.sin(th)
        # derivative of (r cos, r sin) with respect to theta, normalized
        tx = r1 * cos - r * sin
        ty = r1 * sin + r * cos
        speed = np.hypot(tx, ty)
        return -ty / speed, tx / speed

    def contains(self, points):
        p = np.asarray(points, dtype=float)
        th = np.mod(np.arctan2(p[..., 1], p[..., 0]), TWO_PI)
        return np.hypot(p[..., 0], p[..., 1]) <= self._spline(th)[0] * _CONTAINS_SLACK

    def bbox(self):
        return self._bbox


def disk(radius: float) -> Disk:
    return Disk(float(radius))


def ellipse(a: float, b: float) -> Ellipse:
    return Ellipse(float(a), float(b))


def radial(rho) -> RadialDomain:
    """The radial domain of a profile function, sampled at 4096 angles."""
    return RadialDomain([float(rho(t)) for t in np.linspace(0.0, TWO_PI, 4096, endpoint=False)])


_ROT_MINUS_90 = np.array([[0.0, 1.0], [-1.0, 0.0]])


class Norm:
    """Base class for strictly convex norms on the plane."""

    def __call__(self, dx, dy) -> np.ndarray:
        """Norm of the vectors (dx, dy), elementwise."""
        return self._in_place(np.array(dx, dtype=float), np.array(dy, dtype=float))

    def _in_place(self, dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
        """The norm of (dx, dy) for float arrays the caller gives up,
        written into dx and returned; dy may be overwritten too."""
        raise NotImplementedError

    def rotated(self) -> "Norm":
        """The norm v -> ||R_{-pi/2} v||.

        Maps a least-gradient anisotropy to the matching transport cost
        and back; the map is an involution because norms are even.
        """
        raise NotImplementedError


@dataclass
class EuclideanNorm(Norm):
    def _in_place(self, dx, dy):
        return np.hypot(dx, dy, out=dx)

    def rotated(self):
        return self


@dataclass
class LqNorm(Norm):
    q: float

    def __post_init__(self):
        if not 1.0 < self.q < math.inf:
            raise ValueError(f"lq norm requires 1 < q < inf, got q={self.q}")

    def _in_place(self, dx, dy):
        # ``**=`` takes the same scalar-power path as ``**``
        np.abs(dx, out=dx)
        dx **= self.q
        np.abs(dy, out=dy)
        dy **= self.q
        dx += dy
        dx **= 1.0 / self.q
        return dx

    def rotated(self):
        # l^q balls are invariant under quarter turns
        return self


@dataclass
class QuadraticNorm(Norm):
    """The norm sqrt(v' A v) of a symmetric positive definite 2x2 matrix
    ``a``, held as a tuple of row tuples of floats, which cannot change
    under the checks made on it."""

    a: tuple

    def __post_init__(self):
        a = np.array(self.a, dtype=float)
        if a.shape != (2, 2):
            raise ValueError(f"quadratic norm needs a 2x2 matrix, got shape {a.shape}")
        if not np.allclose(a, a.T, rtol=0, atol=1e-12 * max(1.0, np.abs(a).max())):
            raise ValueError("quadratic norm matrix must be symmetric")
        eigs = np.linalg.eigvalsh(a)
        if eigs.min() <= 0:
            raise ValueError(f"quadratic norm matrix must be positive definite, eigenvalues {eigs}")
        self.a = tuple(map(tuple, a.tolist()))

    def _in_place(self, dx, dy):
        (a00, a01), (a10, a11) = self.a
        # v' A v term by term in einsum's order (the two agree bit for
        # bit); ChordCost.matrix hands over one row block at a time
        return np.sqrt(a00 * dx * dx + a01 * dx * dy + a10 * dy * dx + a11 * dy * dy, out=dx)

    def rotated(self):
        return QuadraticNorm(_ROT_MINUS_90.T @ np.array(self.a) @ _ROT_MINUS_90)


@dataclass
class ChordCost:
    """Boundary transport cost bundling a domain with a cost norm."""

    domain: Domain
    norm: Norm

    def matrix(self, sources, targets) -> np.ndarray:
        """Cost matrix ||x_i - y_j|| for sources x_i and targets y_j.

        Each side is either boundary points, shape (k, 2), or arclengths
        (any lower dimension), which are mapped to their boundary points.
        The matrix is written in blocks of rows of about ``_BLOCK``
        elements (one row at least): each block's x differences go into
        the output, its y differences into one temporary, and the norm
        writes its values over the x differences.  Every entry is the
        same float as from one (n, m) difference array per axis, and the
        matrix is the one n x m array held; a norm that leaves the float
        range writes inf or nan with no warning, and the solver refuses it.
        """
        p, q = (
            x if x.ndim == 2 else self.domain.boundary_point(x)
            for x in (np.asarray(sources, dtype=float), np.asarray(targets, dtype=float))
        )
        qx, qy = np.ascontiguousarray(q.T)
        out = np.empty((len(p), len(q)))
        rows = max(1, _BLOCK // max(len(q), 1))
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(p), rows):
                dx = np.subtract(p[lo : lo + rows, 0, None], qx, out=out[lo : lo + rows])
                self.norm._in_place(dx, p[lo : lo + rows, 1, None] - qy)
        return out
