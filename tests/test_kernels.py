"""Kernel tests.  The simplex core, the deposit, the crossing field and
the chord-crossing check each replaced an older kernel; each is compared
with the kernel it replaced, kept here as a reference, and pinned on
hand-made cases.  The simplex core must match its reference bit for
bit, and so must the deposit match the gathering kernel it replaced."""

import math
from collections import deque

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    interleaved_pairs,
    northwest_solve,
    one_array_interior_field,
    plain_lifo_basis,
    simplex_limits,
)
from transportlab import kernels, simplex
from transportlab.cex import _pair_grid_lp, build_arcs, run_counterexample
from transportlab.density import grid_for_domain
from transportlab.errors import SolverError
from transportlab.geom import ChordCost, EuclideanNorm, LqNorm, disk, ellipse, radial
from transportlab.instances import smooth_arc_instance
from transportlab.leastgrad import _generic_anchor, interior_mask, solve_least_gradient
from transportlab.measures import (
    BoundaryDatum,
    BoundaryMeasure,
    remove_common_mass,
    tangential_derivative,
)
from transportlab.ot import solve_kantorovich
from transportlab.simplex import STALL_LIMIT


def random_segments(rng, n, lo=-1.0, hi=1.0):
    a = rng.uniform(lo, hi, (n, 2))
    b = rng.uniform(lo, hi, (n, 2))
    keep = np.hypot(*(b - a).T) > 1e-6
    return a[keep], b[keep]


def reference_deposit(values, origin, cell, start, end, weight):
    """The per-segment numpy deposit that the batched pass replaced.

    Each segment is cut at every grid line it crosses, and each piece is
    added to the cell holding its midpoint (clamped to the grid).
    """
    ny, nx = values.shape
    ox, oy = origin
    for (x0, y0), (x1, y1), wk in zip(start, end, weight):
        dx, dy = x1 - x0, y1 - y0
        if dx == 0.0 and dy == 0.0:
            continue
        cuts = [np.array([0.0, 1.0])]
        if dx != 0.0:
            g0 = math.floor((min(x0, x1) - ox) / cell) + 1
            g1 = math.ceil((max(x0, x1) - ox) / cell)
            cuts.append((ox + np.arange(g0, g1) * cell - x0) / dx)
        if dy != 0.0:
            g0 = math.floor((min(y0, y1) - oy) / cell) + 1
            g1 = math.ceil((max(y0, y1) - oy) / cell)
            cuts.append((oy + np.arange(g0, g1) * cell - y0) / dy)
        t = np.unique(np.clip(np.concatenate(cuts), 0.0, 1.0))
        mids = 0.5 * (t[:-1] + t[1:])
        ix = np.clip(np.floor((x0 + mids * dx - ox) / cell).astype(np.int64), 0, nx - 1)
        iy = np.clip(np.floor((y0 + mids * dy - oy) / cell).astype(np.int64), 0, ny - 1)
        np.add.at(values, (iy, ix), wk * np.diff(t) / cell**2)
    return values


def _gather_split(lo, hi, i0, i1, p0, d, origin, cell):
    """The batched split before it dropped its gathers, kept verbatim."""
    step = np.sign(i1 - i0)
    count = np.abs(i1 - i0) + 1
    first = np.cumsum(count) - count
    q = np.repeat(np.arange(len(count)), count)
    k = np.arange(len(q)) - first[q]
    idx = i0[q] + k * step[q]
    t_out = hi[q]
    inner = np.flatnonzero(k < count[q] - 1)
    qi = q[inner]
    line = origin + (idx[inner] + (step[qi] > 0)) * cell
    t_out[inner] = np.clip((line - p0[qi]) / d[qi], lo[qi], hi[qi])
    t_in = np.empty_like(t_out)
    t_in[1:] = t_out[:-1]
    t_in[first] = lo
    return q, idx, t_in, t_out


def _clip_cell_index(coord, origin, cell, n):
    """The cell index as the gathering deposit computed it, kept verbatim."""
    return np.clip(np.floor((coord - origin) / cell), 0, n - 1).astype(np.int64)


def gather_deposit(values, origin, cell, start, end, weight):
    """The batched deposit before it dropped its gathers, kept verbatim:
    each piece gathers its segment's and its row's values by index.  The
    kernel must match it bit for bit."""
    _cell_index = _clip_cell_index
    ny, nx = values.shape
    ox, oy = float(origin[0]), float(origin[1])
    start = np.asarray(start, dtype=np.float64).reshape(-1, 2)
    end = np.asarray(end, dtype=np.float64).reshape(-1, 2)
    d = end - start
    keep = np.flatnonzero((d[:, 0] != 0.0) | (d[:, 1] != 0.0))
    x0, y0 = start[keep, 0], start[keep, 1]
    dx, dy = d[keep, 0], d[keep, 1]
    w = np.asarray(weight, dtype=np.float64)[keep] / (cell * cell)
    r0 = _cell_index(y0, oy, cell, ny)
    r1 = _cell_index(y0 + dy, oy, cell, ny)
    c0 = _cell_index(x0, ox, cell, nx)
    c1 = _cell_index(x0 + dx, ox, cell, nx)
    cum = np.cumsum(np.abs(r1 - r0) + np.abs(c1 - c0) + 1)
    lo = 0
    while lo < len(keep):
        base = cum[lo - 1] if lo else 0
        hi = max(lo + 1, int(np.searchsorted(cum, base + kernels.MAX_VISITS, side="right")))
        part = slice(lo, hi)
        n = hi - lo
        seg, row, t0, t1 = _gather_split(
            np.zeros(n), np.ones(n), r0[part], r1[part], y0[part], dy[part], oy, cell
        )
        xs, xd = x0[part][seg], dx[part][seg]
        piece, col, t_in, t_out = _gather_split(
            t0, t1,
            _cell_index(xs + t0 * xd, ox, cell, nx),
            _cell_index(xs + t1 * xd, ox, cell, nx),
            xs, xd, ox, cell,
        )
        r_lo, r_hi = row.min(), row.max() + 1
        values[r_lo:r_hi] += np.bincount(
            (row[piece] - r_lo) * nx + col,
            weights=(t_out - t_in) * w[part][seg[piece]],
            minlength=(r_hi - r_lo) * nx,
        ).reshape(-1, nx)
        lo = hi
    return values


def lattice_segments(rng, n, step=1.0 / 32):
    """Segments with both ends on a lattice of grid lines and corners,
    a third of them axis-parallel."""
    a = rng.integers(-32, 33, (n, 2)) * step
    b = rng.integers(-32, 33, (n, 2)) * step
    b[: n // 6, 0] = a[: n // 6, 0]
    b[n // 6 : n // 3, 1] = a[n // 6 : n // 3, 1]
    keep = np.any(a != b, axis=1)
    return a[keep], b[keep]


def assert_same_as_gather(shape, origin, cell, a, b, weight):
    """The kernel and gather_deposit give the same grid, byte for byte."""
    got = kernels.deposit_segments(np.zeros(shape), origin, cell, a, b, weight)
    want = gather_deposit(np.zeros(shape), origin, cell, a, b, weight)
    assert got.tobytes() == want.tobytes()
    return got


@pytest.mark.filterwarnings("error")
class TestDeposit:
    origin = (-1.0, -1.0)
    cell = 2.0 / 64

    def _agree(self, a, b, weight):
        got = assert_same_as_gather((64, 64), self.origin, self.cell, a, b, weight)
        want = reference_deposit(np.zeros((64, 64)), self.origin, self.cell, a, b, weight)
        assert np.abs(got - want).max() <= 1e-12 * want.max()
        assert got.min() >= 0.0
        assert got.sum() * self.cell**2 == pytest.approx(weight.sum(), rel=1e-12)

    def test_hand_computed_cells(self):
        values = np.zeros((4, 4))
        a = np.array([[0.25, 0.5]])
        e = np.array([[2.75, 0.5]])
        kernels.deposit_segments(values, (0.0, 0.0), 1.0, a, e, np.array([5.0]))
        assert values[0, 0] == pytest.approx(1.5)
        assert values[0, 1] == pytest.approx(2.0)
        assert values[0, 2] == pytest.approx(1.5)
        assert values.sum() == pytest.approx(5.0)

    def test_matches_reference_random(self):
        rng = np.random.default_rng(0)
        a, b = random_segments(rng, 60)
        self._agree(a, b, rng.uniform(0.1, 3.0, len(a)))

    def test_matches_reference_axis_parallel(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(-1.0, 1.0, (40, 2))
        b = a.copy()
        b[:20, 0] = rng.uniform(-1.0, 1.0, 20)
        b[20:, 1] = rng.uniform(-1.0, 1.0, 20)
        self._agree(a, b, rng.uniform(0.1, 3.0, 40))

    def test_matches_reference_on_lattice(self):
        # ends on grid lines and corners, diagonals through corners
        rng = np.random.default_rng(3)
        a, b = lattice_segments(rng, 120)
        diag = np.array([[-1.0, -1.0], [1.0, 1.0], [-0.5, 0.25], [0.25, -0.5]])
        a = np.concatenate([a, diag[[0, 1, 2]]])
        b = np.concatenate([b, diag[[1, 0, 3]]])
        self._agree(a, b, rng.uniform(0.1, 3.0, len(a)))

    def test_matches_reference_outside_grid(self):
        rng = np.random.default_rng(4)
        a, b = random_segments(rng, 80, -1.6, 1.6)
        out = np.array([[1.1, 0.3], [-1.5, -1.2], [-1.3, 1.4], [0.2, 1.5]])
        a = np.concatenate([a, out])
        b = np.concatenate([b, out[[1, 0, 3, 2]] * [1.0, 1.1]])
        self._agree(a, b, rng.uniform(0.1, 3.0, len(a)))

    def test_matches_reference_across_chunks(self):
        rng = np.random.default_rng(5)
        a, b = random_segments(rng, 1500)
        i0 = np.floor((a - self.origin) / self.cell)
        i1 = np.floor((b - self.origin) / self.cell)
        assert len(a) + np.abs(i1 - i0).sum() > 3 * kernels.MAX_VISITS
        self._agree(a, b, rng.uniform(0.1, 3.0, len(a)))

    def test_segment_leaving_grid_keeps_its_length(self):
        # starts outside and moves further out: its whole length lands
        # in the border column, nothing more and nothing negative
        a = np.array([[1.1, 0.3]])
        b = np.array([[1.3, 0.1]])
        length = np.hypot(*(b - a).T)
        values = kernels.deposit_segments(
            np.zeros((64, 64)), self.origin, self.cell, a, b, length
        )
        assert values.sum() * self.cell**2 == 0.28284271247461895
        assert values.min() >= 0.0
        assert np.all(values[:, :63] == 0.0)

    @pytest.mark.parametrize(
        "a, b",
        [
            ((-0.8270974475167722, -1.1604788921991187), (-0.8464070689131628, -0.9019216534762187)),
            ((0.0033798430097383703, -1.1620832352711554), (0.6160236286124677, -0.5291265984569196)),
            ((-0.18890375290521183, -0.09490356278078999), (0.4753805727386049, 0.5688513095623059)),
        ],
    )
    def test_corner_crossing_stays_nonnegative(self, a, b):
        # each passes through a grid corner where x(t) at a row line
        # rounds into the next column; unclipped line crossings would
        # give that column a piece of negative length
        a, b = np.array([a]), np.array([b])
        values = kernels.deposit_segments(
            np.zeros((64, 64)), self.origin, self.cell, a, b, np.ones(1)
        )
        assert values.min() >= 0.0
        self._agree(a, b, np.ones(1))

    @pytest.mark.parametrize("axis", [0, 1], ids=["horizontal", "vertical"])
    def test_axis_parallel_on_grid_lines(self, axis):
        # lattice segments along one axis: zero d on the other axis
        # divides by zero in pieces that the interval end overwrites,
        # and 0/0 where a segment lies on a grid line
        rng = np.random.default_rng(7 + axis)
        a = rng.integers(-40, 41, (80, 2)) / 32.0
        b = a.copy()
        b[:, axis] = rng.integers(-40, 41, 80) / 32.0
        b[:10, axis] = a[:10, axis] + rng.uniform(-0.3, 0.3, 10)
        keep = np.any(a != b, axis=1)
        self._agree(a[keep], b[keep], rng.uniform(0.1, 3.0, keep.sum()))

    def test_segment_longer_than_max_visits(self):
        # the middle segment alone crosses more cells than a chunk holds
        nx = kernels.MAX_VISITS + 100
        cell = 1.0 / nx
        a = np.array([[0.1, 0.5], [0.0, 0.5], [0.3, 3.5]]) * [1.0, cell]
        b = np.array([[0.2, 2.5], [1.0, 3.5], [0.25, 0.5]]) * [1.0, cell]
        assert np.abs(b - a)[1, 0] / cell > kernels.MAX_VISITS
        values = assert_same_as_gather(
            (4, nx), (0.0, 0.0), cell, a, b, np.array([1.0, 2.0, 3.0])
        )
        assert values.sum() * cell**2 == pytest.approx(6.0, rel=1e-12)

    def test_transport_plan_matches_gather(self):
        # the transport workload's input: a 350-atom plan at grid 512
        domain = ellipse(2.0, 1.0)
        rng = np.random.default_rng(11)
        plan = solve_kantorovich(
            *smooth_arc_instance(rng, domain, 350), ChordCost(domain, LqNorm(3.0))
        )
        grid = grid_for_domain(domain, 512)
        a, b = plan.entry_segments()
        tau = 0.7
        assert_same_as_gather(
            grid.values.shape, grid.origin, grid.cell,
            a, a + tau * (b - a), tau * plan.mass * plan.entry_costs,
        )

    def test_cex_pair_grids_match_gather(self, monkeypatch):
        # the pair grids of the alternating-arc surrogate: long, flat,
        # nearly horizontal fans on grids a few cells high
        calls = []
        deposit = kernels.deposit_segments

        def record(values, *args):
            calls.append((values.shape, *args))
            return deposit(values, *args)

        monkeypatch.setattr(kernels, "deposit_segments", record)
        run_counterexample(3, 2.5, mode="grid", grid_n=16, atoms_per_arc=24)
        monkeypatch.undo()
        assert len(calls) == 3
        for shape, origin, cell, a, b, weight in calls:
            assert_same_as_gather(shape, origin, cell, a, b, weight)

    def test_wide_cex_pair_grid_matches_gather(self, monkeypatch):
        # one pair grid of the cex_grid workload's size: 20 rows, 2,000+
        # columns, and chords of the pair's fan, level in the chart frame
        # up to rounding, so each stays in its row and crosses up to
        # 2,000 columns; together they take more than one chunk
        calls = []
        deposit = kernels.deposit_segments

        def record(values, *args):
            calls.append((values.shape, *args))
            return deposit(values, *args)

        arcs = build_arcs(8)
        monkeypatch.setattr(kernels, "deposit_segments", record)
        _pair_grid_lp(arcs, 4, 2.5, 16, 24)
        monkeypatch.undo()
        [(shape, origin, cell, a, b, weight)] = calls
        assert shape == (20, 2221)
        i0 = np.floor((a - origin) / cell)
        i1 = np.floor((b - origin) / cell)
        assert len(a) + np.abs(i1 - i0).sum() > kernels.MAX_VISITS
        assert np.abs(i1 - i0)[:, 0].max() > 2000
        assert np.all(np.abs(b - a)[:, 1] < 1e-12 * np.abs(b - a)[:, 0])
        assert_same_as_gather(shape, origin, cell, a, b, weight)

    @pytest.mark.parametrize("origin, cell, n", [(0.0, 0.25, 8), (-1.0, 2.0 / 64, 64), (0.5, 1.0 / 3, 5)])
    def test_cell_index_matches_clip(self, origin, cell, n):
        # signed zeros, coordinates on grid lines and just off them, far
        # outside the grid and infinite: the same index as np.clip's form
        lines = origin + np.arange(-2, n + 3) * cell
        coord = np.concatenate([
            [0.0, -0.0, 1e300, -1e300, np.inf, -np.inf],
            lines, np.nextafter(lines, -np.inf), np.nextafter(lines, np.inf),
        ])
        got = kernels._cell_index(coord, origin, cell, n)
        want = _clip_cell_index(coord, origin, cell, n)
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)
        assert got.min() == 0 and got.max() == n - 1

    def test_mass_conserved(self):
        rng = np.random.default_rng(1)
        a, b = random_segments(rng, 40, -0.9, 0.9)
        weight = rng.uniform(0.1, 3.0, len(a))
        values = np.zeros((97, 97))
        cell = 2.0 / 97
        kernels.deposit_segments(values, (-1.0, -1.0), cell, a, b, weight)
        assert values.sum() * cell * cell == pytest.approx(weight.sum(), rel=1e-12)

    def test_degenerate_segment_ignored(self):
        values = np.zeros((8, 8))
        a = np.array([[0.5, 0.5], [0.5, 0.5]])
        e = np.array([[0.5, 0.5], [2.5, 0.5]])
        kernels.deposit_segments(values, (0.0, 0.0), 1.0, a, e, np.array([5.0, 2.0]))
        assert values.sum() == pytest.approx(2.0)
        assert values[0, 0] == pytest.approx(0.5)


@pytest.mark.filterwarnings("error")
class TestOneRowChunks:
    """A chunk whose segments all stay in one row skips the row split and
    gives the grid the row split gives, byte for byte.  Chunks hold 16
    visits here, so a few segments make several chunks; gather_deposit
    reads the same MAX_VISITS."""

    origin = (-1.0, -0.5)
    cell = 1.0 / 8
    shape = (8, 16)  # rows over y in [-0.5, 0.5), columns over x in [-1, 1)

    @pytest.fixture(autouse=True)
    def axes(self, monkeypatch):
        """The axis of each _split call of the kernel, in order."""
        axes = []
        split = kernels._split

        def counted(lo, hi, i0, i1, p0, d, origin, cell):
            axes.append("row" if origin == self.origin[1] else "column")
            return split(lo, hi, i0, i1, p0, d, origin, cell)

        monkeypatch.setattr(kernels, "_split", counted)
        monkeypatch.setattr(kernels, "MAX_VISITS", 16)
        return axes

    def _agree(self, a, b):
        a, b = np.array(a, dtype=float), np.array(b, dtype=float)
        weight = np.linspace(0.5, 2.0, len(a))
        return assert_same_as_gather(self.shape, self.origin, self.cell, a, b, weight)

    def test_chunks_over_several_rows(self, axes):
        # short level and sloped segments, each inside one of eight rows
        rng = np.random.default_rng(12)
        row = rng.integers(0, 8, 60)
        y = -0.5 + (row[:, None] + rng.uniform(0.05, 0.95, (60, 2))) * self.cell
        x = rng.uniform(-0.95, 0.95, 60)[:, None] + [0.0, 0.0]
        x[:, 1] += rng.uniform(-0.4, 0.4, 60)  # some leave the grid's sides
        y[:20, 1] = y[:20, 0]
        self._agree(np.stack([x[:, 0], y[:, 0]], 1), np.stack([x[:, 1], y[:, 1]], 1))
        assert len(axes) > 5 and set(axes) == {"column"}

    def test_right_to_left(self, axes):
        a = [[0.9, -0.45], [0.6, 0.05], [0.95, 0.3], [-0.2, -0.2]]
        b = [[-0.9, -0.4], [-0.1, 0.1], [0.2, 0.3], [-0.8, -0.24]]
        self._agree(a, b)
        assert set(axes) == {"column"}

    def test_outside_the_grid_rows(self, axes):
        # below the grid and above it, level and sloped: every row index
        # clamps to the border row, so each segment stays in one row
        a = [[-0.9, -0.7], [-0.5, -3.0], [0.8, 0.6], [-0.3, 0.55], [0.1, 2.0]]
        b = [[0.4, -0.9], [0.7, -0.51], [-0.6, 0.9], [0.9, 0.55], [-0.2, 0.5]]
        grid = self._agree(a, b)
        assert set(axes) == {"column"}
        assert np.all(grid[1:7] == 0.0)

    def test_on_horizontal_grid_lines(self, axes):
        # level segments on the bottom edge, on inner lines and on the top
        # edge (row 8, clamped to 7): dy == 0, so the row split's line
        # crossings would be 0/0 or x/0
        y = [-0.5, -0.125, 0.0, 0.25, 0.5]
        a = [[-0.9, v] for v in y] + [[0.7, -0.125]]
        b = [[0.6, v] for v in y] + [[-0.75, -0.125]]
        grid = self._agree(a, b)
        assert set(axes) == {"column"}
        # a segment on a line lies in the row above it, the top edge's in
        # row 7
        assert np.flatnonzero(grid.sum(axis=1)).tolist() == [0, 3, 4, 6, 7]

    def test_after_a_mixed_chunk(self, axes):
        # four visits each, so four segments to a chunk: the first chunk
        # holds a segment that crosses a row line, the second stays in one
        # row (two of its segments in row 7, two in row 0)
        a = [[-0.95, -0.2], [-0.95, 0.1], [0.05, -0.45], [-0.55, 0.3],
             [0.2, 0.45], [0.6, -0.45], [-0.3, 0.4], [0.8, -0.5]]
        b = [[-0.7, -0.1], [-0.55, 0.1], [0.45, -0.4], [-0.95, 0.3],
             [0.6, 0.4], [0.2, -0.45], [0.1, 0.49], [0.4, -0.41]]
        self._agree(a, b)
        assert axes == ["row", "column", "column"]

    def test_one_split_per_one_row_chunk(self, axes):
        # chunks of four 4-visit segments, one-row (L) and mixed (M), in
        # random rows and directions: a one-row chunk splits once, along
        # the columns, and a mixed chunk twice, rows first
        rng = np.random.default_rng(13)
        chunks = ["LLLL", "LMLL", "LLLL", "LLLM", "LL"]
        ends = []
        for kind in "".join(chunks):
            r, c = rng.integers(0, 7), rng.integers(0, 13)
            lift = 1.0 if kind == "M" else rng.uniform(-0.4, 0.4)
            run = 2.0 if kind == "M" else 3.0
            seg = np.array([[c + 0.5, r + 0.5], [c + 0.5 + run, r + 0.5 + lift]])
            ends.append(seg[::-1] if rng.random() < 0.5 else seg)
        a, b = (np.array(ends)[:, k] * self.cell + self.origin for k in (0, 1))
        self._agree(a, b)
        want = [["row", "column"] if "M" in kind else ["column"] for kind in chunks]
        assert axes == sum(want, [])


class TestPowerSum:
    def _field(self):
        rng = np.random.default_rng(12)
        a, b = random_segments(rng, 40, -0.9, 0.9)
        values = np.zeros((64, 64))
        kernels.deposit_segments(values, (-1.0, -1.0), 2.0 / 64, a, b, rng.uniform(0.1, 3.0, len(a)))
        assert 0 < np.count_nonzero(values) < values.size
        return values

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 2.5, 2.999])
    def test_equals_sum_of_powers(self, p):
        values = self._field()
        want = np.sum(values**p)
        kept = values.copy()
        assert kernels.power_sum(values, p) == want
        assert np.array_equal(values, kept)
        assert kernels.power_sum(values, p, overwrite=True) == want
        assert np.array_equal(values, kept**p)

    def test_negative_cell_gives_nan(self):
        values = self._field()
        values[3, 5] = -1.0
        with pytest.warns(RuntimeWarning, match="invalid value"):
            assert math.isnan(kernels.power_sum(values, 2.5))

    @pytest.mark.parametrize("p", [0.0, -1.0, math.nan])
    def test_p_not_positive_rejected(self, p):
        with pytest.raises(ValueError, match="p must be positive"):
            kernels.power_sum(np.ones((2, 2)), p)


def _reference_legs(p0, pts, a, b, mass):
    """Scan-path crossing sums for a block of targets, plus the pieces
    the endpoint-hit test reuses."""
    d = b - a
    rx = pts[:, 0] - p0[0]
    ry = pts[:, 1] - p0[1]
    d1 = d[:, 0] * (p0[1] - a[:, 1]) - d[:, 1] * (p0[0] - a[:, 0])
    d2 = d[:, 0, None] * (pts[None, :, 1] - a[:, 1, None]) - d[:, 1, None] * (
        pts[None, :, 0] - a[:, 0, None]
    )
    wax = a[:, 0, None] - p0[0]
    way = a[:, 1, None] - p0[1]
    wbx = b[:, 0, None] - p0[0]
    wby = b[:, 1, None] - p0[1]
    d3 = rx[None, :] * way - ry[None, :] * wax
    d4 = rx[None, :] * wby - ry[None, :] * wbx
    straddle_seg = ((d1[:, None] > 0) & (d2 < 0)) | ((d1[:, None] < 0) & (d2 > 0))
    straddle_ray = ((d3 > 0) & (d4 < 0)) | ((d3 < 0) & (d4 > 0))
    s = d[:, 0, None] * ry[None, :] - d[:, 1, None] * rx[None, :]
    contrib = np.where(s > 0, -mass[:, None], mass[:, None])
    acc = np.sum(contrib * (straddle_seg & straddle_ray), axis=0)
    return acc, (rx, ry, wax, way, wbx, wby, d3, d4)


def reference_crossing_field(centers, anchor, a, b, mass, eps_hit, detour):
    """The general scan-path kernel that the half-plane sweep replaced.

    It runs a segment-intersection test on every (center, segment) pair;
    paths passing within ``eps_hit`` of a segment endpoint take a two-leg
    detour through a waypoint shifted by ``detour`` off the midpoint.
    Centers are an (n, 2) array; the result has shape (n,).
    """
    p0 = np.asarray(anchor, dtype=float)
    acc, (rx, ry, wax, way, wbx, wby, d3, d4) = _reference_legs(p0, centers, a, b, mass)
    rlen = np.hypot(rx, ry)
    tol_c = eps_hit * rlen
    hi_t = rlen * rlen + tol_c
    dta = wax * rx[None, :] + way * ry[None, :]
    dtb = wbx * rx[None, :] + wby * ry[None, :]
    hit_a = (np.abs(d3) <= tol_c) & (dta >= -tol_c) & (dta <= hi_t)
    hit_b = (np.abs(d4) <= tol_c) & (dtb >= -tol_c) & (dtb <= hi_t)
    out = acc.copy()
    rn = np.where(rlen > 0, rlen, 1.0)
    for t in np.nonzero((hit_a | hit_b).any(axis=0))[0]:
        cpt = centers[t]
        wpt = 0.5 * (p0 + cpt) + detour * np.array(
            [-(cpt[1] - p0[1]), cpt[0] - p0[0]]
        ) / rn[t]
        acc1, _ = _reference_legs(p0, wpt[None, :], a, b, mass)
        acc2, _ = _reference_legs(wpt, cpt[None, :], a, b, mass)
        out[t] = acc1[0] + acc2[0]
    return out


def smooth_datum(domain, n, jumps=None):
    """Boundary values of x + y**2 / 2 sampled at n arclengths."""
    s = np.linspace(0.0, domain.perimeter, n, endpoint=False)
    p = domain.boundary_point(s)
    return BoundaryDatum(
        samples=np.stack([s, p[:, 0] + 0.5 * p[:, 1] ** 2], axis=1),
        jumps=jumps,
        perimeter=domain.perimeter,
    )


def tensor_centers(xs, ys):
    out = np.empty((len(ys), len(xs), 2))
    out[..., 0] = np.asarray(xs, dtype=float)[None, :]
    out[..., 1] = np.asarray(ys, dtype=float)[:, None]
    return out


class TestCrossingField:
    """The half-plane sweep against the scan-path reference, cell by cell."""

    def _compare(self, centers, inside, anchor, normal, a, b, mass):
        field = kernels.crossing_field(centers, anchor, a, b, mass, inside, normal)
        ref = reference_crossing_field(
            centers.reshape(-1, 2), anchor, a, b, mass, eps_hit=2e-12, detour=2e-9
        ).reshape(field.shape)
        assert field.shape == inside.shape
        assert np.abs(field - ref).max() <= 1e-12 * mass.sum()
        return field

    def _compare_on_grid(self, domain, a, b, mass, anchor_s, n):
        grid = grid_for_domain(domain, n)
        [anchor], [normal] = domain.frame(anchor_s)
        inside = interior_mask(grid, domain)
        assert inside.any() and not inside.all()
        return self._compare(grid.centers(), inside, anchor, normal, a, b, mass)

    def test_single_crossing_sign(self):
        # upward disk chord; paths from the anchor at (-1, 0) cross it left
        # to right and add +mass, inside and outside the disk alike
        a = np.array([[0.0, -1.0]])
        b = np.array([[0.0, 1.0]])
        mass = np.array([2.5])
        centers = tensor_centers([-0.5, 0.5, 1.5], [0.0])
        inside = np.array([[True, True, False]])
        field = self._compare(
            centers, inside, np.array([-1.0, 0.0]), np.array([1.0, 0.0]), a, b, mass
        )
        assert field.tolist() == [[0.0, 2.5, 2.5]]

    @pytest.mark.parametrize(
        "domain",
        [
            disk(1.0),
            ellipse(2.0, 1.0),
            radial(lambda t: 1.0 + 0.05 * math.cos(3 * t)),
        ],
        ids=["disk", "ellipse", "radial"],
    )
    def test_matches_reference_on_real_plans(self, domain):
        # a smooth datum plus a jump pair: the jump atoms send fans of
        # rays that share an endpoint
        per = domain.perimeter
        jumps = np.array([[0.1 * per, 0.8], [0.55 * per, -0.8]])
        for g in (smooth_datum(domain, 160), smooth_datum(domain, 160, jumps)):
            plan = solve_least_gradient(
                g, domain, EuclideanNorm(), grid_for_domain(domain, 8)
            ).plan
            assert plan.n_entries > 50
            a, b = plan.entry_segments()
            ends = np.concatenate([a, b])
            for s0 in (0.0, 0.37 * per):
                s, _, _ = _generic_anchor(s0, ends, domain)
                self._compare_on_grid(domain, a, b, plan.mass, s, 64)

    @pytest.mark.parametrize(
        "domain", [disk(1.0), ellipse(1.5, 1.0)], ids=["disk", "ellipse"]
    )
    def test_interior_equals_one_array_form(self, domain):
        # x* chord by chord and the bincount inputs written in place sum
        # the same floats in the same order as the broadcast arrays did
        per = domain.perimeter
        jumps = np.array([[0.1 * per, 0.8], [0.55 * per, -0.8]])
        for g in (smooth_datum(domain, 160), smooth_datum(domain, 160, jumps)):
            plan = solve_least_gradient(
                g, domain, EuclideanNorm(), grid_for_domain(domain, 8)
            ).plan
            a, b = plan.entry_segments()
            # a horizontal and a vertical chord join the plan's rays
            a = np.concatenate([a, [[-0.5, 0.25], [0.3, -0.6]]])
            b = np.concatenate([b, [[0.5, 0.25], [0.3, 0.6]]])
            mass = np.concatenate([plan.mass, [0.7, 0.4]])
            grid = grid_for_domain(domain, 61)
            centers, inside = grid.centers(), interior_mask(grid, domain)
            s, anchor, normal = _generic_anchor(0.2 * per, np.concatenate([a, b]), domain)
            field = kernels.crossing_field(centers, anchor, a, b, mass, inside, normal)
            ref = one_array_interior_field(centers, anchor, a, b, mass)
            assert np.array_equal(field[inside], ref[inside])

    def test_horizontal_and_vertical_rays(self):
        dom = disk(1.0)
        h, k = math.sqrt(1.0 - 0.3**2), math.sqrt(1.0 - 0.45**2)
        a = np.array([[-h, 0.3], [0.3, h], [k, -0.45], [-0.45, -k]])
        b = np.array([[h, 0.3], [0.3, -h], [-k, -0.45], [-0.45, k]])
        mass = np.array([1.0, 0.5, 2.0, 0.25])
        for s0 in (0.2, 2.0, 4.0, 5.5):
            self._compare_on_grid(dom, a, b, mass, s0, 48)

    def test_fans_sharing_an_endpoint(self):
        dom = ellipse(2.0, 1.0)
        per = dom.perimeter
        hub = dom.boundary_point(0.1 * per)
        rim = dom.boundary_point(per * np.linspace(0.3, 0.8, 7))
        # one fan out of the hub and one fan into it
        a = np.concatenate([np.repeat(hub, 4, axis=0), rim[4:]])
        b = np.concatenate([rim[:4], np.repeat(hub, 3, axis=0)])
        mass = np.linspace(0.2, 1.4, 7)
        for s0 in (0.0, 0.6 * per, 0.9 * per):
            self._compare_on_grid(dom, a, b, mass, s0, 50)

    def test_center_on_ray_line_is_right_continuous(self):
        # centers on a ray's line take the value just beyond it in +x
        # (in +y for horizontal rays); the scan path counts no crossing
        # there, so the reference keeps the anchor side's value instead
        anchor = np.array([-1.0, 0.0])
        normal = np.array([1.0, 0.0])
        centers = tensor_centers([-0.5, 0.0, 0.5], [-0.5, 0.0, 0.5])
        inside = np.ones((3, 3), dtype=bool)
        up = (np.array([[0.0, -1.0]]), np.array([[0.0, 1.0]]))
        field = kernels.crossing_field(centers, anchor, *up, np.array([1.0]), inside, normal)
        assert field.tolist() == [[0.0, 1.0, 1.0]] * 3
        down = (up[1], up[0])
        field = kernels.crossing_field(centers, anchor, *down, np.array([1.0]), inside, normal)
        assert field.tolist() == [[0.0, -1.0, -1.0]] * 3
        # a horizontal ray through the middle row, pointing in -x: +y is
        # its right side, the anchor lies on its line's extension
        anchor = np.array([0.0, -1.0])
        normal = np.array([0.0, 1.0])
        west = (np.array([[1.0, 0.0]]), np.array([[-1.0, 0.0]]))
        field = kernels.crossing_field(centers, anchor, *west, np.array([1.0]), inside, normal)
        assert field.tolist() == [[0.0] * 3, [1.0] * 3, [1.0] * 3]

    def test_path_through_endpoint_crosses_nothing_there(self):
        # the path from (-1, 0) to (1.5, 0) leaves the disk through the
        # ray's endpoint (1, 0) and does not cross the ray; the one to
        # (1.5, 0.01) leaves just above it and crosses from right to left
        a = np.array([[0.0, 1.0]])
        b = np.array([[1.0, 0.0]])
        centers = tensor_centers([0.5, 1.5], [0.0, 0.01])
        inside = np.array([[True, False], [True, False]])
        field = kernels.crossing_field(
            centers, np.array([-1.0, 0.0]), a, b, np.array([1.0]), inside,
            np.array([1.0, 0.0]),
        )
        assert field.tolist() == [[0.0, 0.0], [0.0, -1.0]]


def reference_crossing_pairs(a, b, tol=1e-10):
    """The pairwise segment-intersection test that the arclength sweep
    replaced.

    Segments a -> b cross when they meet at a point farther than ``tol``
    from all four endpoints, or overlap collinearly over more than
    ``tol``.  It builds O(k**2) index arrays, so keep k small.
    """
    ax, ay, bx, by = a[:, 0], a[:, 1], b[:, 0], b[:, 1]
    ii, jj = np.triu_indices(len(a), k=1)
    d1x, d1y = bx[ii] - ax[ii], by[ii] - ay[ii]
    d2x, d2y = bx[jj] - ax[jj], by[jj] - ay[jj]
    ex, ey = ax[jj] - ax[ii], ay[jj] - ay[ii]
    den = d1x * d2y - d1y * d2x
    safe = np.where(den != 0, den, 1.0)
    t = (ex * d2y - ey * d2x) / safe
    uu = (ex * d1y - ey * d1x) / safe
    inside = (den != 0) & (t > 0) & (t < 1) & (uu > 0) & (uu < 1)
    px = ax[ii] + t * d1x
    py = ay[ii] + t * d1y
    clear = np.ones_like(inside)
    for qx, qy in ((ax, ay), (bx, by)):
        for idx in (ii, jj):
            clear &= (px - qx[idx]) ** 2 + (py - qy[idx]) ** 2 > tol**2
    res = inside & clear
    par = den == 0
    if np.any(par):
        l1 = np.hypot(d1x, d1y)
        ok = par & (l1 > 0)
        safe_l = np.where(l1 > 0, l1, 1.0)
        off = np.abs(ex * d1y - ey * d1x) / safe_l
        t3 = (ex * d1x + ey * d1y) / safe_l**2
        t4 = ((bx[jj] - ax[ii]) * d1x + (by[jj] - ay[ii]) * d1y) / safe_l**2
        lo = np.minimum(t3, t4)
        hi = np.maximum(t3, t4)
        overlap = (np.minimum(hi, 1.0) - np.maximum(lo, 0.0)) * l1
        res |= ok & (off <= tol) & (overlap > tol)
    return ii[res], jj[res]


def random_plan(rng, domain, norm, n):
    """Solved plan between n random atoms of random mass per side."""
    per = domain.perimeter
    f_plus = BoundaryMeasure(rng.uniform(0, per, n), rng.uniform(0.1, 2.0, n), per)
    mass = rng.uniform(0.1, 2.0, n)
    mass *= f_plus.total_mass / mass.sum()
    f_minus = BoundaryMeasure(rng.uniform(0, per, n), mass, per)
    return solve_kantorovich(f_plus, f_minus, ChordCost(domain, norm))


def pair_list(i, j):
    return list(zip(np.asarray(i).tolist(), np.asarray(j).tolist()))


CHORD_DOMAINS = pytest.mark.parametrize(
    "domain",
    [disk(1.0), ellipse(2.0, 1.0), radial(lambda t: 1.0 + 0.05 * math.cos(3 * t))],
    ids=["disk", "ellipse", "radial"],
)
CHORD_NORMS = pytest.mark.parametrize(
    "norm", [EuclideanNorm(), LqNorm(3.0)], ids=["euclid", "l3"]
)


@st.composite
def nested_chords(draw):
    """Chords (s_a, s_b) on lattice positions: a random nested family,
    bracketed last-in-first-out, with up to three ends swapped between
    chords (a few crossings), positions divided down so that some ends
    are shared and some chords have length zero, and each chord's
    orientation drawn."""
    k = draw(st.integers(0, 16))
    moves = draw(st.lists(st.booleans(), min_size=2 * k, max_size=2 * k))
    ends, stack = [], []
    for pos, push in enumerate(moves):
        if len(ends) < k and (push or not stack):
            stack.append(len(ends))
            ends.append([pos, None])
        else:
            ends[stack.pop()][1] = pos
    if k:
        chord, side = st.integers(0, k - 1), st.integers(0, 1)
        for c, e, d, f in draw(st.lists(st.tuples(chord, side, chord, side), max_size=3)):
            ends[c][e], ends[d][f] = ends[d][f], ends[c][e]
    coarse = draw(st.integers(1, 3))
    flips = draw(st.lists(st.booleans(), min_size=k, max_size=k))
    pairs = [(y, x) if flip else (x, y) for (x, y), flip in zip(ends, flips)]
    s = np.array(pairs, dtype=float).reshape(-1, 2) // coarse
    return s[:, 0], s[:, 1]


class TestCrossingPairs:
    """The arclength sweep against the geometric reference on real plans,
    and pinned on the degenerate configurations it defines."""

    def _agree(self, plan, i, j):
        got = kernels.crossing_pairs(plan.source.s[i], plan.target.s[j])
        assert all(x.dtype == np.int64 for x in got)
        ref = reference_crossing_pairs(plan.source_points[i], plan.target_points[j])
        assert pair_list(*got) == pair_list(*ref)
        return len(got[0])

    @CHORD_DOMAINS
    @CHORD_NORMS
    def test_matches_reference_on_solved_plans(self, domain, norm):
        rng = np.random.default_rng(8)
        plans = [random_plan(rng, domain, norm, n) for n in (5, 30, 80)]
        plans.append(
            solve_kantorovich(
                *smooth_arc_instance(rng, domain, 150), ChordCost(domain, norm)
            )
        )
        for plan in plans:
            assert self._agree(plan, plan.i, plan.j) == 0

    @CHORD_DOMAINS
    @CHORD_NORMS
    def test_matches_reference_on_scrambled_plans(self, domain, norm):
        rng = np.random.default_rng(9)
        found = 0
        for n in (4, 12, 40):
            plan = random_plan(rng, domain, norm, n)
            entries = np.unique(np.stack([plan.i, rng.permutation(plan.j)], 1), axis=0)
            found += self._agree(plan, *entries.T)
        assert found > 0

    def test_x_crossing(self):
        i, j = kernels.crossing_pairs([0.0, 1.0], [2.0, 3.0])
        assert pair_list(i, j) == [(0, 1)]
        # orientation does not matter
        assert pair_list(*kernels.crossing_pairs([2.0, 1.0], [0.0, 3.0])) == [(0, 1)]

    def test_shared_endpoint_excluded(self):
        # one source to two targets, one on either side of it
        assert pair_list(*kernels.crossing_pairs([1.0, 1.0], [0.5, 3.0])) == []
        # one chord's target is another chord's source
        assert pair_list(*kernels.crossing_pairs([0.0, 2.0], [2.0, 3.0])) == []
        assert pair_list(*kernels.crossing_pairs([1.0, 0.0], [3.0, 1.0])) == []

    def test_coincident_chords_not_a_crossing(self):
        # chords 0 and 1 are the same chord, 2 runs the other way;
        # chord 3 crosses all three
        i, j = kernels.crossing_pairs([1.0, 1.0, 3.0, 2.0], [3.0, 3.0, 1.0, 4.0])
        assert pair_list(i, j) == [(0, 3), (1, 3), (2, 3)]

    def test_zero_length_chord_crosses_nothing(self):
        i, j = kernels.crossing_pairs([1.0, 0.0, 2.5], [1.0, 2.0, 0.5])
        assert pair_list(i, j) == [(1, 2)]

    def test_ends_at_zero(self):
        i, j = kernels.crossing_pairs([0.0, 1.0, 0.0, 3.0], [2.0, 3.0, 1.0, 0.0])
        assert pair_list(i, j) == [(0, 1)]

    def test_matches_interleave_definition_with_ties(self):
        # positions on a coarse lattice make every kind of tie frequent
        rng = np.random.default_rng(10)
        for _ in range(300):
            k = int(rng.integers(0, 12))
            s_a, s_b = rng.integers(0, 6, (2, k)).astype(float)
            want = interleaved_pairs(s_a, s_b)
            assert pair_list(*kernels.crossing_pairs(s_a, s_b)) == want

    @given(nested_chords())
    @settings(max_examples=300, deadline=None)
    def test_nested_families_match_interleave_definition(self, chords):
        # the chords of an optimal plan nest, so nearly every close pops
        # the top of the stack; a few swapped ends cross
        s_a, s_b = chords
        assert pair_list(*kernels.crossing_pairs(s_a, s_b)) == interleaved_pairs(s_a, s_b)


def reference_simplex_core(C, a, b, bi, bj, f, u, v, tol, max_iter):
    """The core that rebuilt the basis tree by BFS on every pivot."""
    theta_tol = simplex_limits(C, a, b)[1]
    n, m = C.shape
    nn = n + m
    nb = nn - 1
    bland = False
    degen = 0
    it = 0
    while True:
        it += 1
        if it > max_iter:
            return 1, it
        adj = [[] for _ in range(nn)]
        for e in range(nb):
            adj[bi[e]].append(e)
            adj[n + bj[e]].append(e)
        parent_node = np.full(nn, -1)
        parent_edge = np.full(nn, -1)
        depth = np.zeros(nn, dtype=np.int64)
        seen = np.zeros(nn, dtype=bool)
        seen[0] = True
        order = [0]
        queue = deque([0])
        while queue:
            x = queue.popleft()
            for e in adj[x]:
                y = bj[e] + n if x < n else bi[e]
                if not seen[y]:
                    seen[y] = True
                    parent_node[y] = x
                    parent_edge[y] = e
                    depth[y] = depth[x] + 1
                    order.append(y)
                    queue.append(y)
        if len(order) != nn:
            return 2, it
        u[0] = 0.0
        for x in order[1:]:
            e = parent_edge[x]
            if x < n:
                u[x] = C[bi[e], bj[e]] - v[bj[e]]
            else:
                v[x - n] = C[bi[e], bj[e]] - u[bi[e]]
        reduced = C - u[:, None] - v[None, :]
        if bland:
            mask = reduced.ravel() < -tol
            if not mask.any():
                return 0, it
            flat = int(np.argmax(mask))
        else:
            flat = int(np.argmin(reduced.ravel()))
            if reduced.ravel()[flat] >= -tol:
                return 0, it
        be_i, be_j = divmod(flat, m)
        x, y = be_i, n + be_j
        path1, path2 = [], []
        while depth[x] > depth[y]:
            path1.append(parent_edge[x])
            x = parent_node[x]
        while depth[y] > depth[x]:
            path2.append(parent_edge[y])
            y = parent_node[y]
        while x != y:
            path1.append(parent_edge[x])
            x = parent_node[x]
            path2.append(parent_edge[y])
            y = parent_node[y]
        n1, n2 = len(path1), len(path2)
        theta = np.inf
        leave = -1
        lkey = (np.inf, np.inf)
        minus = [(k % 2 == 0, e) for k, e in enumerate(path2)]
        minus += [
            ((1 + n2 + (n1 - 1 - k)) % 2 == 1, e) for k, e in enumerate(path1)
        ]
        for is_minus, e in minus:
            if is_minus:
                key = (bi[e], bj[e])
                if f[e] < theta or (f[e] == theta and key < lkey):
                    theta = f[e]
                    leave = e
                    lkey = key
        if leave < 0:
            return 3, it
        for is_minus, e in minus:
            f[e] += -theta if is_minus else theta
        bi[leave] = be_i
        bj[leave] = be_j
        f[leave] = theta
        if theta <= theta_tol:
            degen += 1
            if degen > STALL_LIMIT:
                bland = True
        else:
            degen = 0
            bland = False


def core_inputs(f_plus, f_minus, cost):
    """Cost matrix, balanced masses and arclengths as solve_kantorovich
    hands them to the simplex."""
    a = f_plus.mass.astype(float)
    b = f_minus.mass * (a.sum() / f_minus.mass.sum())
    return np.ascontiguousarray(cost.matrix(f_plus.s, f_minus.s)), a, b, f_plus.s, f_minus.s


def harmonic_datum(rng, domain, n_samples=300):
    """Three seeded Fourier modes sampled along the boundary."""
    P = domain.perimeter
    s = (np.arange(n_samples) + rng.uniform()) * (P / n_samples)
    theta = 2.0 * np.pi * s / P
    g = sum(
        (rng.normal(size=2) / k) @ [np.cos(k * theta), np.sin(k * theta)]
        for k in (1, 2, 3)
    )
    return BoundaryDatum(samples=np.stack([s, g], axis=1), jumps=None, perimeter=P)


def cex_inputs(atoms_per_arc):
    arcs = build_arcs(2, eps=[0.1, 0.08])
    f_plus, f_minus = arcs.pair_measures(0, atoms_per_arc)
    return core_inputs(f_plus, f_minus, ChordCost(arcs.domain, EuclideanNorm()))


def run_core(core, C, a, b, s_a=None, s_b=None):
    """One core from the northwest start (s_a None) or the plain LIFO
    start, as (status, iterations, bi, bj, f, u, v) with the basis in
    arrays.  The library core takes the start's lists and sets its own
    limits, and raises where the reference core returns a status, so it
    reads status 0; the reference core takes the start as arrays and
    the limits of ``oracles.simplex_limits``."""
    start = simplex.northwest_basis(a, b) if s_a is None else plain_lifo_basis(C, a, b, s_a, s_b)
    if core is simplex._solve_core:
        u, v, iters = core(C, a, b, *start)
        status = 0
    else:
        n, m = C.shape
        start = [np.array(x) for x in start]
        u, v = np.zeros(n), np.zeros(m)
        tol, _, cap = simplex_limits(C, a, b)
        status, iters = core(C, a, b, *start, u, v, tol, cap)
    return (status, iters, *(np.array(x) for x in start), u, v)


class TestSimplexCores:
    def _instance(self, rng, n, m):
        C = rng.uniform(0.0, 3.0, (n, m))
        a = rng.uniform(0.1, 2.0, n)
        b = rng.uniform(0.1, 2.0, m)
        b *= a.sum() / b.sum()
        return np.ascontiguousarray(C), a, b

    def _identical(self, C, a, b, s_a=None, s_b=None):
        want = run_core(reference_simplex_core, C, a, b, s_a, s_b)
        got = run_core(simplex._solve_core, C, a, b, s_a, s_b)
        assert got[:2] == want[:2]
        assert want[0] == 0
        for x, y in zip(got[2:], want[2:]):
            assert np.array_equal(x, y)
        return got[1]

    def test_cores_bit_identical(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(2, 30))
            C, a, b = self._instance(rng, n, m)
            s_a = rng.uniform(0.0, 2 * math.pi, n)
            s_b = rng.uniform(0.0, 2 * math.pi, m)
            self._identical(C, a, b)
            self._identical(C, a, b, s_a, s_b)

    @pytest.mark.parametrize("atoms_per_arc", [24, 100])
    def test_cores_bit_identical_on_cex_pairs(self, atoms_per_arc):
        C, a, b, s_a, s_b = cex_inputs(atoms_per_arc)
        self._identical(C, a, b)
        self._identical(C, a, b, s_a, s_b)

    @pytest.mark.parametrize("domain", [disk(1.0), ellipse(1.5, 1.0)], ids=["disk", "ellipse"])
    def test_cores_bit_identical_on_lsg_inputs(self, domain):
        rng = np.random.default_rng(101)
        cost = ChordCost(domain, LqNorm(3.0).rotated())
        for _ in range(3):
            f_plus, f_minus = tangential_derivative(harmonic_datum(rng, domain), n_quad=1)
            f_plus, f_minus = remove_common_mass(f_plus, f_minus)
            self._identical(*core_inputs(f_plus, f_minus, cost))

    def test_cores_bit_identical_through_bland_mode(self, monkeypatch):
        # the certified start solves this pair in 0 pivots; the plain
        # LIFO start crawls through a degenerate run long enough for Bland
        C, a, b, s_a, s_b = cex_inputs(50)
        iters = self._identical(C, a, b, s_a, s_b)
        # Bland mode changes the pivots only once it is entered, so a run
        # whose stall limit is never reached differs only if it was
        monkeypatch.setattr(simplex, "STALL_LIMIT", 10**9)
        assert run_core(simplex._solve_core, C, a, b, s_a, s_b)[1] != iters

    @pytest.mark.parametrize(
        "cells",
        [
            [(0, 0), (1, 0), (1, 1), (0, 1)],  # a cycle through node 0
            [(0, 0), (1, 1), (1, 2), (1, 1)],  # node 0's part is a tree
        ],
        ids=["cycle-through-root", "disconnected"],
    )
    def test_non_tree_basis_reported(self, cells):
        C, a, b = np.ones((2, 3)), np.ones(2), np.ones(3)
        bi, bj = np.array(cells).T
        args = (bi, bj, np.ones(4), np.zeros(2), np.zeros(3), 1e-12, 10)
        assert reference_simplex_core(C, a, b, *args)[0] == 2
        bi, bj = map(list, zip(*cells))
        with pytest.raises(SolverError, match="^the start basis is not a spanning tree$"):
            simplex._solve_core(C, a, b, bi, bj, [1.0] * 4)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_cost_refused(self, bad):
        # refused before the first pricing, where a nan reduced cost
        # never prices in and an infinite one makes nan potentials
        C, a, b = np.ones((2, 3)), np.full(2, 1.5), np.ones(3)
        C[1, 2] = bad
        bi, bj, f = simplex.northwest_basis(a, b)
        with pytest.raises(SolverError, match="^the cost matrix is not finite"):
            simplex._solve_core(C, a, b, bi, bj, f)

    def test_solve_transport_returns_arrays(self):
        rng = np.random.default_rng(5)
        C, a, b = self._instance(rng, 12, 17)
        s_a, s_b = rng.uniform(0.0, 2 * math.pi, 12), rng.uniform(0.0, 2 * math.pi, 17)
        bi, bj, f, u, v = simplex.solve_transport(C, a, b, s_a, s_b)[:5]
        assert (bi.dtype, bj.dtype, f.dtype) == (np.int64, np.int64, np.float64)
        assert bi.shape == bj.shape == f.shape == (12 + 17 - 1,)
        assert (u.shape, v.shape) == ((12,), (17,))

    def test_wrapper_matches_cores(self):
        rng = np.random.default_rng(5)
        C, a, b = self._instance(rng, 12, 17)
        bi, bj, f, u, v, _, iters = northwest_solve(C, a, b)
        flows = np.zeros_like(C)
        flows[bi, bj] = f
        assert np.allclose(flows.sum(axis=1), a, rtol=1e-12)
        assert np.allclose(flows.sum(axis=0), b, rtol=1e-12)
        red = C - u[:, None] - v[None, :]
        assert red.min() >= -1e-9
        assert math.isfinite(iters)
