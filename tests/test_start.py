"""The certified boundary start.

Whenever the start says it is certified, the simplex makes no pivot and
ends at the plan of the positionless reference solve from the northwest
corner (``oracles.northwest_solve``).  Every seam's LIFO walk leaves a
forest that its tie cells and joins make one spanning tree, the seam
sweep agrees with one LIFO walk per seam, separated supports cost the
same from every seam and skip the sweep, a start search walks once,
degenerate forests are handled, and the pivot ladder is pinned against
the counts of the plain LIFO start the solver used before.  Every solve
runs the core once: a start is certified when the core stops at its
first pricing, and a start that does not certify makes at least one
pivot.
"""

import math

import numpy as np
import pytest

from oracles import (
    brute_force_plan,
    lifo_seam_costs,
    northwest_solve,
    plain_lifo,
    plain_lifo_forest,
    stack_lifo,
)
from test_kernels import cex_inputs, core_inputs, harmonic_datum
from transportlab import cex, simplex
from transportlab.cex import build_arcs
from transportlab.errors import SolverError
from transportlab.geom import ChordCost, EuclideanNorm, LqNorm, disk, ellipse, radial
from transportlab.instances import (
    cosine_datum,
    mirror_cosine_measures,
    random_atoms_instance,
    smooth_arc_instance,
)
from transportlab.measures import BoundaryMeasure, remove_common_mass, tangential_derivative
from transportlab.ot import SolverStats, solve_kantorovich

DISK = disk(1.0)
EUC = ChordCost(DISK, EuclideanNorm())
TWO_PI = 2 * math.pi


def lsg_pool(count, seed=101):
    """The first inputs of the benchmark's lsg pool for a seed: derivative
    measures of three-mode data, alternating disk and ellipse."""
    rng = np.random.default_rng([seed, 1])
    domains = [disk(1.0), ellipse(1.5, 1.0)]
    out = []
    for k in range(count):
        domain = domains[k % 2]
        f_plus, f_minus = tangential_derivative(harmonic_datum(rng, domain), n_quad=1)
        f_plus, f_minus = remove_common_mass(f_plus, f_minus)
        out.append((f_plus, f_minus, ChordCost(domain, LqNorm(3.0).rotated())))
    return out


def transport_pool(count, seed=1):
    """The first inputs of the benchmark's transport pool for a seed:
    smooth densities on two arcs of ``ellipse(2, 1)`` under the l3 norm;
    the pool draws a tau after each input."""
    rng = np.random.default_rng([seed, 2])
    domain = ellipse(2.0, 1.0)
    cost = ChordCost(domain, LqNorm(3.0))
    out = []
    for _ in range(count):
        f_plus, f_minus = smooth_arc_instance(rng, domain, 350)
        rng.uniform(0.25, 1.0)
        out.append((f_plus, f_minus, cost))
    return out


def cex_grid_pool(count, seed=1):
    """The alternating arcs of the benchmark's first cex_grid ops for a
    seed; each op plans its 8 pairs with 24 atoms per arc and draws an
    exponent after its arcs."""
    rng = np.random.default_rng([seed, 3])
    base = build_arcs(8).eps
    out = []
    for _ in range(count):
        eps = base * rng.uniform(0.8, 1.2, 8)
        rng.uniform(2.0, 3.0)
        out.append(build_arcs(8, eps=list(eps)))
    return out


# transport pool inputs of seed 1 whose walk leaves float dust of one
# kind beside a second atom on its stack: the tie cells do not span
TRANSPORT_DUST = (21, 38)


def solve_both(C, a, b, s_a, s_b):
    """solve_transport and the positionless reference solve from the
    northwest corner, as (start, pivots, positive cells, cost, gap) each;
    the cost sums the cells in (i, j) order, as solve_kantorovich does."""
    out = []
    for solved in (simplex.solve_transport(C, a, b, s_a, s_b), northwest_solve(C, a, b)):
        bi, bj, f, u, v, start, iters = solved
        keep = np.flatnonzero(f > 0)
        keep = keep[np.lexsort((bj[keep], bi[keep]))]
        cost = float(np.dot(f[keep], C[bi[keep], bj[keep]]))
        gap = cost - float(np.dot(u, a) + np.dot(v, b))
        cells = set(zip(bi[keep].tolist(), bj[keep].tolist()))
        out.append((start, iters - 1, cells, cost, gap))
    return out


def check_against_northwest(f_plus, f_minus, cost):
    """The plan against the northwest start's: the same entries as a set,
    cost to 1e-15 relative and gap to 1e-14 cost."""
    plan = solve_kantorovich(f_plus, f_minus, cost)
    if plan.stats.start.startswith("certified"):
        assert plan.stats.pivots == 0
    _, _, cells, ref_cost, _ = solve_both(*core_inputs(f_plus, f_minus, cost))[1]
    assert set(zip(plan.i.tolist(), plan.j.tolist())) == cells
    assert abs(plan.cost - ref_cost) <= 1e-15 * ref_cost
    assert abs(plan.gap) <= 1e-14 * plan.cost
    return plan.stats


class TestSoundness:
    def test_random_trials(self):
        # the 25 trials of the core tests: uniform costs, random positions
        rng = np.random.default_rng(4)
        for trial in range(25):
            n = int(rng.integers(2, 30))
            m = int(rng.integers(2, 30))
            C = rng.uniform(0.0, 3.0, (n, m))
            a = rng.uniform(0.1, 2.0, n)
            b = rng.uniform(0.1, 2.0, m)
            b *= a.sum() / b.sum()
            s_a = rng.uniform(0.0, 2 * math.pi, n)
            s_b = rng.uniform(0.0, 2 * math.pi, m)
            ((kind, _, _), pivots, cells, cost, gap), (_, _, nw_cells, nw_cost, _) = (
                solve_both(C, a, b, s_a, s_b)
            )
            # uniform costs have no boundary structure: these seldom
            # certify, and check the fallbacks as much as the certificate
            if kind.startswith("certified"):
                assert pivots == 0, f"trial {trial}"
            assert cells == nw_cells, f"trial {trial}"
            assert abs(cost - nw_cost) <= 1e-15 * nw_cost, f"trial {trial}"
            assert abs(gap) <= 1e-14 * cost, f"trial {trial}"

    @pytest.mark.parametrize("atoms_per_arc", [24, 100, 400])
    def test_cex_pairs(self, atoms_per_arc):
        C, a, b, s_a, s_b = cex_inputs(atoms_per_arc)
        (start, pivots, cells, cost, gap), (_, _, nw_cells, nw_cost, _) = solve_both(
            C, a, b, s_a, s_b
        )
        assert start == ("certified", 0, "")
        assert pivots == 0
        assert cells == nw_cells
        assert abs(cost - nw_cost) <= 1e-15 * nw_cost
        assert abs(gap) <= 1e-14 * cost

    def test_lsg_inputs(self):
        kinds = [check_against_northwest(*inputs).start for inputs in lsg_pool(12)]
        assert "certified_seam" in kinds


FOREST_KINDS = ["random", "integer", "coincident"]


def forest_instance(rng, kind):
    """Masses, positions and uniform costs for a LIFO walk: random float
    masses, integer masses (exact ties in the walk) or random masses on
    a few positions shared by both kinds."""
    n, m = (int(x) for x in rng.integers(1, 13, 2))
    if kind == "integer":
        a = rng.integers(1, 5, n).astype(float)
        m = min(m, int(a.sum()))
        b = 1.0 + np.bincount(rng.integers(0, m, int(a.sum()) - m), minlength=m)
    else:
        a = rng.uniform(0.1, 2.0, n)
        b = rng.uniform(0.1, 2.0, m)
        b *= a.sum() / b.sum()
    if kind == "coincident":
        spots = rng.uniform(0.0, TWO_PI, 3)
        s_a, s_b = rng.choice(spots, n), rng.choice(spots, m)
    else:
        s_a, s_b = rng.uniform(0.0, TWO_PI, n), rng.uniform(0.0, TWO_PI, m)
    return rng.uniform(0.0, 3.0, (n, m)), a, b, s_a, s_b


class TestLifoForest:
    """Each atom on the walk's stack lies in its own forest component, so
    a match only ever joins two components: from every seam the LIFO
    matching is a forest, and ``_forest`` never finds a cycle."""

    @pytest.mark.parametrize("kind", FOREST_KINDS)
    def test_every_seam_gives_a_forest(self, kind):
        rng = np.random.default_rng(FOREST_KINDS.index(kind))
        for trial in range(200):
            C, a, b, s_a, s_b = forest_instance(rng, kind)
            kinds, idxs = simplex._events(s_a, s_b)
            for seam in range(len(kinds)):
                walk = np.roll(kinds, -seam), np.roll(idxs, -seam)
                ei, ej, _, _ = simplex._lifo(a, b, *walk)
                # _forest raises SolverError on a cycle
                k = simplex._forest(C, ei, ej)[0]
                assert len(ei) == len(a) + len(b) - k, f"trial {trial}, seam {seam}"

    @pytest.mark.parametrize(
        "cells",
        [
            [(0, 0), (1, 0), (1, 1), (0, 1)],  # a cycle through node 0
            [(0, 0), (1, 1), (1, 2), (1, 1)],  # a duplicated cell
        ],
        ids=["cycle", "duplicated-cell"],
    )
    def test_cycle_raises(self, cells):
        ei, ej = (list(x) for x in zip(*cells))
        with pytest.raises(SolverError, match="^boundary matching produced a cycle$"):
            simplex._forest(np.ones((2, 3)), ei, ej)


class TestTieJoins:
    """An arrival that exactly empties the stack top stays alive with
    mass 0 and takes a zero-flow cell, so the walk's exact ties join its
    forest without changing a positive cell."""

    @pytest.mark.parametrize("kind", FOREST_KINDS)
    def test_positive_cells_are_the_plain_walk(self, kind):
        rng = np.random.default_rng(FOREST_KINDS.index(kind))
        for trial in range(200):
            C, a, b, s_a, s_b = forest_instance(rng, kind)
            kinds, idxs = simplex._events(s_a, s_b)
            for seam in range(len(kinds)):
                walk = np.roll(kinds, -seam), np.roll(idxs, -seam)
                ei, ej, ef, _ = simplex._lifo(a, b, *walk)
                assert (ei, ej, ef) == plain_lifo(a, b, *walk), f"trial {trial}, seam {seam}"

    @pytest.mark.parametrize("kind", FOREST_KINDS)
    def test_ties_join_the_forest(self, kind):
        # each tie cell joins two trees of the positive forest; with
        # integer masses every walk ends with one atom on its stack, and
        # positive and tie cells span; with the joins of the trees that
        # float dust leaves, the start's cells always span
        rng = np.random.default_rng(FOREST_KINDS.index(kind))
        spanning = 0
        for trial in range(200):
            C, a, b, s_a, s_b = forest_instance(rng, kind)
            kinds, idxs = simplex._events(s_a, s_b)
            for seam in range(len(kinds)):
                walk = np.roll(kinds, -seam), np.roll(idxs, -seam)
                ei, ej, _, ties = simplex._lifo(a, b, *walk)
                assert not set(ties) & set(zip(ei, ej))
                k_plain = simplex._forest(C, ei, ej)[0]
                # _forest raises SolverError on a cycle
                cells = ei + [i for i, _ in ties], ej + [j for _, j in ties]
                k, comp, u, v = simplex._forest(C, *cells)
                assert k == k_plain - len(ties), f"trial {trial}, seam {seam}"
                if kind == "integer":
                    assert k == 1, f"trial {trial}, seam {seam}"
                spanning += k == 1
                if k > 1:
                    joins = simplex._joins(C, k, comp, u, v)
                    cells = cells[0] + [i for i, _ in joins], cells[1] + [j for _, j in joins]
                assert simplex._forest(C, *cells)[0] == 1, f"trial {trial}, seam {seam}"
        assert spanning > 0

    def test_tie_empties_the_stack(self):
        # the first target empties the stack exactly and is pushed with
        # mass 0; the next source finishes it through a zero-flow cell
        f_plus = BoundaryMeasure([0.5, 1.5], [1.0, 1.0], TWO_PI)
        f_minus = BoundaryMeasure([1.0, 2.0], [1.0, 1.0], TWO_PI)
        C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
        kinds, idxs = simplex._events(s_a, s_b)
        assert simplex._lifo(a, b, kinds, idxs) == ([0, 1], [0, 1], [1.0, 1.0], [(1, 0)])
        assert simplex.boundary_stack_basis(C, a, b, s_a, s_b) == (
            [0, 1, 1], [0, 1, 0], [1.0, 1.0, 0.0], 0
        )
        assert simplex.solve_transport(C, a, b, s_a, s_b)[5:] == (("certified", 0, ""), 1)
        check_against_northwest(f_plus, f_minus, EUC)

    def test_tie_at_the_last_atom(self):
        # nested pairs: the first target empties the top source and takes
        # a zero-flow cell with the source below it; the last target
        # empties the stack and is the one atom left on it, with mass 0
        f_plus = BoundaryMeasure([0.5, 1.0], [1.0, 1.0], TWO_PI)
        f_minus = BoundaryMeasure([1.5, 2.0], [1.0, 1.0], TWO_PI)
        C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
        kinds, idxs = simplex._events(s_a, s_b)
        assert simplex._lifo(a, b, kinds, idxs) == ([1, 0], [0, 1], [1.0, 1.0], [(0, 0)])
        assert simplex.solve_transport(C, a, b, s_a, s_b)[5:] == (("certified", 0, ""), 1)
        check_against_northwest(f_plus, f_minus, EUC)

    def test_dust_walk_certifies_as_one_tree(self, monkeypatch):
        # 0.5 - 0.4 leaves float dust on the last small target, which
        # stays on the stack above the zero-mass target of the second
        # tie: two trees, joined at their least reduced cost into one,
        # which certifies at the core's first pricing
        f_plus = BoundaryMeasure([0.3, 0.9, 3.0], [1.0, 1.0, 0.5], TWO_PI)
        f_minus = BoundaryMeasure([0.6, 1.2, 1.8, 2.4], [1.0, 1.0, 0.1, 0.4], TWO_PI)
        C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
        kinds, idxs = simplex._events(s_a, s_b)
        ei, ej, _, ties = simplex._lifo(a, b, kinds, idxs)
        assert ties == [(1, 0)]
        assert len(ei) + len(ties) == len(a) + len(b) - 2
        calls = counting(monkeypatch, "_solve_core")
        forests = counting(monkeypatch, "_forest")
        stats = solve_kantorovich(f_plus, f_minus, EUC).stats
        assert (stats.start, stats.pivots, len(calls), len(forests)) == ("certified", 0, 1, 1)
        check_against_northwest(f_plus, f_minus, EUC)


class TestLifoOracle:
    """The walk that keeps a one-kind stack of parallel lists gives the
    cells, flows and ties of the walk with one stack of items
    (``oracles.stack_lifo``) under ==."""

    def test_captured_pools(self, monkeypatch):
        lifo = simplex._lifo
        walks = counting(monkeypatch, "_lifo")
        for inputs in lsg_pool(40) + transport_pool(TRANSPORT_DUST[0] + 1):
            solve_kantorovich(*inputs)
        for arcs in cex_grid_pool(5):
            for n in range(8):
                cex.pair_plan(arcs, n, 24)
        assert len(walks) == 40 + TRANSPORT_DUST[0] + 1 + 40
        for args in walks:
            assert lifo(*args) == stack_lifo(*args)

    @pytest.mark.parametrize("kind", FOREST_KINDS)
    def test_every_seam_of_random_walks(self, kind):
        rng = np.random.default_rng(10 + FOREST_KINDS.index(kind))
        ties = 0
        for trial in range(200):
            _, a, b, s_a, s_b = forest_instance(rng, kind)
            kinds, idxs = simplex._events(s_a, s_b)
            for seam in range(len(kinds)):
                walk = a, b, np.roll(kinds, -seam), np.roll(idxs, -seam)
                got = simplex._lifo(*walk)
                assert got == stack_lifo(*walk), f"trial {trial}, seam {seam}"
                ties += len(got[3])
        # integer masses tie exactly in nearly every walk
        assert kind != "integer" or ties > 1000


def check_sweep(C, a, b, s_a, s_b):
    """The sweep's seam costs against one LIFO walk per seam."""
    kinds, idxs = simplex._events(s_a, s_b)
    got = simplex._seam_costs(C, a, b, kinds, idxs)
    want = lifo_seam_costs(C, a, b, s_a, s_b)
    assert np.max(np.abs(got - want)) <= 1e-13 * want.max()
    return want


class TestSeamSweep:
    def test_lsg_inputs(self):
        for f_plus, f_minus, cost in lsg_pool(3):
            want = check_sweep(*core_inputs(f_plus, f_minus, cost))
            assert want.min() < want[0]  # a cheaper seam exists

    def test_random_atoms(self):
        f_plus, f_minus = random_atoms_instance(np.random.default_rng(8), DISK, 40)
        check_sweep(*core_inputs(f_plus, f_minus, EUC))


def top_level_dust():
    """Every target before every source: F falls to its minimum and
    climbs back to a final value of positive float dust, above every
    other level, so the top band is crossed once."""
    f_plus = BoundaryMeasure([3.0, 3.5, 4.0], [0.1, 0.2, 0.6], TWO_PI)
    f_minus = BoundaryMeasure([0.5, 1.0, 1.5], np.array([0.1, 0.3, 0.6]) * 0.9, TWO_PI)
    C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
    F = np.cumsum(np.concatenate([-b, a]))
    assert 0 < F[-1] < 1e-15 and F[:-1].max() < F[-1]
    return f_plus, f_minus


class TestDegenerateInputs:
    def test_coincident_positions(self):
        # every source shares its position with a target of equal mass:
        # the tie tree spans but prices a cell in, and the core leaves it
        # in one pivot (remove_common_mass cancels such mass before any
        # solve of the library's own pipelines)
        f_plus = BoundaryMeasure([0.5, 2.0, 4.0], [1.0, 2.0, 0.5], TWO_PI)
        f_minus = BoundaryMeasure([0.5, 2.0, 4.0], [1.0, 2.0, 0.5], TWO_PI)
        stats = check_against_northwest(f_plus, f_minus, EUC)
        assert (stats.start, stats.pivots) == ("lifo", 1)
        assert solve_kantorovich(f_plus, f_minus, EUC).cost == 0.0

    def test_coincident_across_kinds(self):
        # a source and a target at one position, different masses
        f_plus = BoundaryMeasure([0.5, 2.0], [1.0, 1.0], TWO_PI)
        f_minus = BoundaryMeasure([0.5, 3.0, 5.0], [0.5, 0.7, 0.8], TWO_PI)
        assert check_against_northwest(f_plus, f_minus, EUC).pivots == 0

    def test_one_component(self):
        # one source feeds every target: the forest is one tree, K = 1
        f_plus = BoundaryMeasure([1.0], [3.0], TWO_PI)
        f_minus = BoundaryMeasure([2.0, 3.0, 5.0], [1.0, 1.0, 1.0], TWO_PI)
        C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
        kinds, idxs = simplex._events(s_a, s_b)
        assert plain_lifo_forest(C, a, b, kinds, idxs)[1] == 1
        stats = check_against_northwest(f_plus, f_minus, EUC)
        assert (stats.start, stats.pivots) == ("certified", 0)

    @pytest.mark.parametrize("lone", ["source", "target"])
    def test_one_kind_components(self, lone, monkeypatch):
        # last atoms far below the balance tolerance are left on the
        # stack: components holding one atom of one kind.  A lone source
        # ties onto the zero-mass target below it; the other trees left
        # on the stack hang from the first tree through _joins
        joins = counting(monkeypatch, "_joins")
        trees = {("source", 1): [], ("target", 1): [2], ("source", 3): [3], ("target", 3): [4]}
        for count in (1, 3):
            s_a, a = [0.5, 1.5], [1.0, 1.0]
            s_b, b = [1.0, 2.0], [1.0, 1.0]
            lone_at = [4.0, 4.5, 5.0][:count]
            if lone == "source":
                s_a, a = s_a + lone_at, a + [1e-300] * count
            else:
                s_b, b = s_b + lone_at, b + [1e-300] * count
            f_plus = BoundaryMeasure(s_a, a, TWO_PI)
            f_minus = BoundaryMeasure(s_b, b, TWO_PI)
            C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
            kinds, idxs = simplex._events(s_a, s_b)
            k, comp = plain_lifo_forest(C, a, b, kinds, idxs)[1:3]
            assert k == 2 + count
            first = 2 if lone == "source" else len(a) + 2
            for x in range(first, first + count):
                assert np.count_nonzero(comp == comp[x]) == 1
            joins.clear()
            simplex.boundary_stack_basis(C, a, b, s_a, s_b)
            assert [args[1] for args in joins] == trees[lone, count]
            stats = check_against_northwest(f_plus, f_minus, EUC)
            assert (stats.start, stats.pivots) == ("certified", 0)

    def test_float_dust_at_the_top_level(self):
        f_plus, f_minus = top_level_dust()
        C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
        check_sweep(C, a, b, s_a, s_b)
        check_against_northwest(f_plus, f_minus, EUC)

    def test_negative_cycle_falls_back(self):
        # unit atoms: every LIFO match is exact, so each pair is its own
        # component of the positive forest, and no offsets between them
        # make it optimal
        f_plus, f_minus = random_atoms_instance(np.random.default_rng(0), DISK, 7)
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        assert plan.stats.start == "lifo"
        assert plan.stats.fallback == (
            "seam 0: seam 5 is cheaper; seam 5: its first pricing finds a negative reduced cost"
        )
        # seam 5's exact ties join its pairs into one tree, the start
        assert (plan.stats.seam, plan.stats.pivots) == (5, 3)
        assert plan.cost == pytest.approx(brute_force_plan(f_plus, f_minus, EUC).cost, rel=1e-12)
        check_against_northwest(f_plus, f_minus, EUC)


class TestSolverStats:
    def test_certified(self):
        f_plus, f_minus = mirror_cosine_measures(50)
        stats = solve_kantorovich(f_plus, f_minus, EUC).stats
        assert stats == SolverStats("certified", 0, "", 0, stats.b_scale)
        assert stats.config() == {
            "start": "certified", "seam": 0, "fallback": "", "pivots": 0,
            "b_scale": stats.b_scale,
        }

    def test_seam_recorded(self):
        stats = solve_kantorovich(*lsg_pool(1)[0]).stats
        assert (stats.start, stats.seam, stats.pivots) == ("certified_seam", 75, 0)
        assert stats.fallback == "seam 0: seam 75 is cheaper"

    def test_solver_error_propagates(self, monkeypatch):
        # a failed boundary start is an error, not a silent fallback
        basis = simplex.boundary_stack_basis

        def broken(*args):
            raise SolverError("boundary matching produced a cycle")

        monkeypatch.setattr(simplex, "boundary_stack_basis", broken)
        f_plus, f_minus = mirror_cosine_measures(20)
        with pytest.raises(SolverError, match="cycle"):
            solve_kantorovich(f_plus, f_minus, EUC)

        # a start that is not a spanning tree is the core's first walk's
        # error: here the first cell is listed twice
        def duplicated(*args):
            bi, bj, f, seam = basis(*args)
            bi[1], bj[1] = bi[0], bj[0]
            return bi, bj, f, seam

        monkeypatch.setattr(simplex, "boundary_stack_basis", duplicated)
        with pytest.raises(SolverError, match="^the start basis is not a spanning tree$"):
            solve_kantorovich(f_plus, f_minus, EUC)

    def test_rescale_factor_recorded(self):
        f_plus = BoundaryMeasure([0.0], [1.0], TWO_PI)
        f_minus = BoundaryMeasure([math.pi], [1.0 + 1e-12], TWO_PI)
        stats = solve_kantorovich(f_plus, f_minus, EUC).stats
        assert stats.b_scale == 1.0 / (1.0 + 1e-12)


# pivots of the plain LIFO start on the first 40 lsg pool inputs of seed 101
LSG_POOL_PLAIN_PIVOTS = [
    69, 0, 41, 50, 42, 12, 82, 0, 21, 0, 0, 74, 18, 115, 29, 73, 29, 0, 23, 21,
    35, 19, 9, 1, 11, 92, 0, 47, 22, 0, 48, 0, 9, 134, 17, 38, 39, 64, 30, 12,
]


class TestPivotLadder:
    """Pivot counts are deterministic; the plain LIFO start's are pinned
    beside each instance."""

    def test_cex_pair_200(self):
        # plain LIFO start: 16044 pivots
        arcs = build_arcs(2, eps=[0.1, 0.08])
        plan = solve_kantorovich(*arcs.pair_measures(0, 200), ChordCost(arcs.domain, EuclideanNorm()))
        assert plan.stats.pivots == 0

    def test_mirror_cosine(self):
        # plain LIFO start: 0 pivots
        assert solve_kantorovich(*mirror_cosine_measures(1000), EUC).stats.pivots == 0

    def test_cosine_datum(self):
        # plain LIFO start: 50 pivots
        f_plus, f_minus = remove_common_mass(*tangential_derivative(cosine_datum(2000)))
        assert solve_kantorovich(f_plus, f_minus, EUC).stats.pivots == 0

    def test_lsg_pool(self):
        pivots = [solve_kantorovich(*inputs).stats.pivots for inputs in lsg_pool(40)]
        assert np.median(pivots) <= 2
        assert all(p <= q for p, q in zip(pivots, LSG_POOL_PLAIN_PIVOTS))


def single_tree_groups():
    """Core inputs whose starts may certify as one tree, by group: the
    first 40 lsg pool inputs of seed 101 (disk and ellipse), three on a
    radial domain, the 25 random core trials and 600 random forests."""
    groups = {"lsg": [core_inputs(*inputs) for inputs in lsg_pool(40)]}
    rad = radial(lambda t: 1.0 + 0.05 * math.cos(3 * t))
    cost = ChordCost(rad, LqNorm(3.0))
    rng = np.random.default_rng(7)
    groups["radial"] = [
        core_inputs(
            *remove_common_mass(*tangential_derivative(harmonic_datum(rng, rad), n_quad=1)), cost
        )
        for _ in range(3)
    ]
    rng = np.random.default_rng(4)
    groups["random"] = []
    for _ in range(25):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(2, 30))
        C = rng.uniform(0.0, 3.0, (n, m))
        a = rng.uniform(0.1, 2.0, n)
        b = rng.uniform(0.1, 2.0, m)
        b *= a.sum() / b.sum()
        s_a = rng.uniform(0.0, 2 * math.pi, n)
        s_b = rng.uniform(0.0, 2 * math.pi, m)
        groups["random"].append((C, a, b, s_a, s_b))
    for kind in FOREST_KINDS:
        rng = np.random.default_rng(FOREST_KINDS.index(kind))
        groups["random"] += [forest_instance(rng, kind) for _ in range(200)]
    return groups


def counting(monkeypatch, name):
    """Wrap ``simplex.<name>`` so that its calls are recorded, each as the
    tuple of its arguments."""
    calls = []
    wrapped = getattr(simplex, name)

    def counted(*args):
        calls.append(args)
        return wrapped(*args)

    monkeypatch.setattr(simplex, name, counted)
    return calls


class TestSingleTreeStart:
    def test_certified_starts_stop_at_the_first_pricing(self, monkeypatch):
        # every solve runs the core once; a certified start is one that
        # stops at its first pricing, and every other start pivots.  No
        # lsg walk leaves more than one tree
        calls = counting(monkeypatch, "_solve_core")
        forests = counting(monkeypatch, "_forest")
        certified = {}
        for group, inputs in single_tree_groups().items():
            certified[group] = 0
            for C, a, b, s_a, s_b in inputs:
                calls.clear()
                start, iters = simplex.solve_transport(C, a, b, s_a, s_b)[5:]
                assert len(calls) == 1
                if start[0].startswith("certified"):
                    assert iters == 1
                    certified[group] += 1
                else:
                    assert start[0] == "lifo" and iters > 1
            if group == "lsg":
                assert not forests
        assert certified == {"lsg": 35, "radial": 1, "random": 104}

    def test_core_calls(self, monkeypatch):
        calls = counting(monkeypatch, "_solve_core")
        per_start = {}
        for inputs in lsg_pool(40):
            calls.clear()
            stats = solve_kantorovich(*inputs).stats
            per_start.setdefault(stats.start, []).append((len(calls), stats.pivots > 0))
        # every lsg start runs the core once, and only uncertified ones pivot
        assert per_start == {
            "certified": [(1, False)] * 8,
            "certified_seam": [(1, False)] * 27,
            "lifo": [(1, True)] * 5,
        }
        # the first transport pool input of seed 1 has one exact tie, and
        # its tie tree certifies; a dust walk leaves two trees, joined
        # into one that certifies too
        pool = transport_pool(TRANSPORT_DUST[0] + 1)
        for k in (0, TRANSPORT_DUST[0]):
            calls.clear()
            plan = solve_kantorovich(*pool[k])
            assert (plan.stats.start, plan.stats.pivots, len(calls)) == ("certified", 0, 1)


class TestPoolStarts:
    """Start kinds and core runs on the benchmark's separated pools: every
    start certifies at the core's first pricing, and only dust walks
    leave more than one tree and need joins beside their ties."""

    def test_transport_pool(self, monkeypatch):
        calls = counting(monkeypatch, "_solve_core")
        forests = counting(monkeypatch, "_forest")
        joins = counting(monkeypatch, "_joins")
        sweeps = counting(monkeypatch, "_seam_costs")
        joined = []
        for k, inputs in enumerate(transport_pool(40)):
            forests.clear()
            joins.clear()
            stats = solve_kantorovich(*inputs).stats
            assert (stats.start, stats.pivots) == ("certified", 0)
            if forests:
                assert (len(forests), len(joins)) == (1, 1)
                joined.append(k)
        assert joined == list(TRANSPORT_DUST)
        assert len(calls) == 40
        assert not sweeps  # separated supports: seam 0 is as cheap as any

    def test_cex_grid_pool(self, monkeypatch):
        # the pair plans of the first 20 cex_grid ops of seed 1
        calls = counting(monkeypatch, "_solve_core")
        forests = counting(monkeypatch, "_forest")
        sweeps = counting(monkeypatch, "_seam_costs")
        starts = []
        for arcs in cex_grid_pool(20):
            starts += [cex.pair_plan(arcs, n, 24).stats.start for n in range(8)]
        assert starts == ["certified"] * 160
        assert len(calls) == 160
        assert not forests
        assert not sweeps

    def test_mirror_cosine(self, monkeypatch):
        sweeps = counting(monkeypatch, "_seam_costs")
        stats = solve_kantorovich(*mirror_cosine_measures(1000), EUC).stats
        assert (stats.start, stats.pivots) == ("certified", 0)
        assert not sweeps


def two_runs(rng, ties):
    """Separated supports under a random cost matrix: the sources fill
    one arc and the targets the other, the cut at a random place of the
    boundary.  With ``ties`` the masses are small integers."""
    n, m = (int(x) for x in rng.integers(1, 12, 2))
    cut = rng.uniform(0.5, TWO_PI - 0.5)
    turn = rng.uniform(0.0, TWO_PI)
    s_a = np.mod(turn + rng.uniform(0.0, cut, n), TWO_PI)
    s_b = np.mod(turn + rng.uniform(cut, TWO_PI, m), TWO_PI)
    if ties:
        a = rng.integers(1, 4, n).astype(float)
        b = rng.integers(1, 4, m).astype(float)
        (a if a.sum() < b.sum() else b)[0] += abs(a.sum() - b.sum())
    else:
        a = rng.uniform(0.1, 2.0, n)
        b = rng.uniform(0.1, 2.0, m)
        b *= a.sum() / b.sum()
    return rng.uniform(0.0, 3.0, (n, m)), a, b, s_a, s_b


# the cheapest seam's walk leaves two trees of unit-tenth masses, which
# are joined into one tree that does not certify
TWO_TREE_SEAM = 3155


class TestOneWalk:
    """Each start search walks the boundary once."""

    def test_separated_seams_cost_the_same(self):
        # the fact the sweep skip rests on: F is unimodal, so every seam
        # pairs the same atoms, whatever C is
        rng = np.random.default_rng(17)
        for trial in range(200):
            C, a, b, s_a, s_b = two_runs(rng, ties=trial % 2 == 1)
            kinds, _ = simplex._events(s_a, s_b)
            assert np.count_nonzero(kinds[1:] != kinds[:-1]) <= 2
            costs = lifo_seam_costs(C, a, b, s_a, s_b)
            assert np.max(np.abs(costs - costs[0])) <= 1e-13 * costs[0], f"trial {trial}"

    def test_separated_inputs_walk_once(self, monkeypatch):
        walks = counting(monkeypatch, "_lifo")
        sweeps = counting(monkeypatch, "_seam_costs")
        rng = np.random.default_rng(18)
        for trial in range(50):
            C, a, b, s_a, s_b = two_runs(rng, ties=trial % 2 == 1)
            walks.clear()
            start = simplex.solve_transport(C, a, b, s_a, s_b)[5]
            assert start[1] == 0 and len(walks) == 1
            assert start[2] == "" or start[2].endswith("; no cheaper seam")
        assert not sweeps

    def test_lsg_pool(self, monkeypatch):
        walks = counting(monkeypatch, "_lifo")
        per_start = {}
        for inputs in lsg_pool(40):
            walks.clear()
            stats = solve_kantorovich(*inputs).stats
            per_start.setdefault(stats.start, []).append(len(walks))
            if stats.seam:
                assert stats.fallback.startswith(f"seam 0: seam {stats.seam} is cheaper")
        # certified or not, every start walks once
        assert per_start == {
            "certified": [1] * 8,
            "certified_seam": [1] * 27,
            "lifo": [1] * 5,
        }

    def test_two_trees_join_at_the_cheaper_seam(self, monkeypatch):
        rng = np.random.default_rng(TWO_TREE_SEAM)
        n, m = int(rng.integers(3, 7)), int(rng.integers(3, 7))
        a, b = rng.integers(1, 6, n) / 10, rng.integers(1, 6, m) / 10
        C = rng.uniform(0.0, 3.0, (n, m))
        s_a = np.sort(rng.uniform(0.0, TWO_PI, n))
        s_b = np.sort(rng.uniform(0.0, TWO_PI, m))
        kinds, idxs = simplex._events(s_a, s_b)
        seam = int(np.argmin(simplex._seam_costs(C, a, b, kinds, idxs)))
        walk = np.roll(kinds, -seam), np.roll(idxs, -seam)
        ei, ej, _, ties = simplex._lifo(a, b, *walk)
        assert seam == 3 and len(ei) + len(ties) == n + m - 2
        walks = counting(monkeypatch, "_lifo")
        (start, pivots, _, cost, gap), want = solve_both(C, a, b, s_a, s_b)
        assert start == (
            "lifo",
            3,
            "seam 0: seam 3 is cheaper; seam 3: its first pricing finds a negative reduced cost",
        )
        assert (len(walks), pivots) == (1, 1)
        assert abs(cost - want[3]) <= 1e-15 * want[3]
        assert abs(gap) <= 1e-14 * cost

    def test_uncertified_tie_tree_starts_the_core(self):
        # unit atoms: every match is a tie, and the cheapest seam's tie
        # tree, not plain joins of its pairs, is handed to the core
        # (plain joins took 918, 585 and 738 pivots here)
        rng = np.random.default_rng(5)
        pivots = []
        for _ in range(3):
            f_plus, f_minus = random_atoms_instance(rng, DISK, 150)
            stats = check_against_northwest(f_plus, f_minus, EUC)
            assert (stats.start, stats.fallback) == (
                "lifo",
                f"seam 0: seam {stats.seam} is cheaper; "
                f"seam {stats.seam}: its first pricing finds a negative reduced cost",
            )
            pivots.append(stats.pivots)
        assert pivots == [25, 25, 28]
