"""The certified boundary start.

Whenever the start says it is certified, the simplex makes no pivot and
ends at the plan of the northwest start, which the solver uses for input
without boundary positions.  Every seam's LIFO walk leaves a forest, the
seam sweep agrees with one LIFO walk per seam, degenerate forests are
handled, and the pivot ladder is pinned against the counts of the plain
LIFO start the solver used before.  A certified single tree skips the
core, which would stop at once on it with the same arrays.
"""

import math

import numpy as np
import pytest

from oracles import brute_force_plan, grouped_certify, lifo_seam_costs
from test_kernels import cex_inputs, core_inputs, harmonic_datum
from transportlab import simplex
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


def solve_both(C, a, b, s_a, s_b):
    """solve_transport with the boundary positions and without them (the
    northwest start), as (start, pivots, positive cells, cost, gap) each;
    the cost sums the cells in (i, j) order, as solve_kantorovich does."""
    out = []
    for positions in ((s_a, s_b), (None, None)):
        bi, bj, f, u, v, start, iters = simplex.solve_transport(C, a, b, *positions)
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
                ei, ej, _ = simplex._lifo(a, b, *walk)
                # _forest raises SolverError on a cycle
                k = simplex._forest(C, ei, ej)[0]
                assert len(ei) == len(a) + len(b) - k, f"trial {trial}, seam {seam}"


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
        # every source shares its position with a target of equal mass
        f_plus = BoundaryMeasure([0.5, 2.0, 4.0], [1.0, 2.0, 0.5], TWO_PI)
        f_minus = BoundaryMeasure([0.5, 2.0, 4.0], [1.0, 2.0, 0.5], TWO_PI)
        stats = check_against_northwest(f_plus, f_minus, EUC)
        assert stats.start == "certified"
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
        assert simplex._lifo_forest(C, a, b, kinds, idxs)[1] == 1
        stats = check_against_northwest(f_plus, f_minus, EUC)
        assert (stats.start, stats.pivots) == ("certified", 0)

    @pytest.mark.parametrize("lone", ["source", "target"])
    def test_one_kind_components(self, lone):
        # a last atom far below the balance tolerance is left on the
        # stack: a component holding one atom of one kind
        s_a, a = [0.5, 1.5], [1.0, 1.0]
        s_b, b = [1.0, 2.0], [1.0, 1.0]
        if lone == "source":
            s_a, a = s_a + [4.0], a + [1e-300]
        else:
            s_b, b = s_b + [4.0], b + [1e-300]
        f_plus = BoundaryMeasure(s_a, a, TWO_PI)
        f_minus = BoundaryMeasure(s_b, b, TWO_PI)
        C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
        kinds, idxs = simplex._events(s_a, s_b)
        k, comp = simplex._lifo_forest(C, a, b, kinds, idxs)[1:3]
        assert k == 3
        lone_comp = comp[2] if lone == "source" else comp[len(a) + 2]
        assert np.count_nonzero(comp == lone_comp) == 1
        stats = check_against_northwest(f_plus, f_minus, EUC)
        assert (stats.start, stats.pivots) == ("certified", 0)

    def test_float_dust_at_the_top_level(self):
        f_plus, f_minus = top_level_dust()
        C, a, b, s_a, s_b = core_inputs(f_plus, f_minus, EUC)
        check_sweep(C, a, b, s_a, s_b)
        check_against_northwest(f_plus, f_minus, EUC)

    def test_sweep_cap(self, monkeypatch):
        # offsets the capped Bellman-Ford cannot settle: the plain joins
        # are kept, seam 0 is already the cheapest, and the plan is right
        arcs = build_arcs(2, eps=[0.1, 0.08])
        f_plus, f_minus = arcs.pair_measures(0, 24)
        cost = ChordCost(arcs.domain, EuclideanNorm())
        monkeypatch.setattr(simplex, "CERTIFY_SWEEPS", 0)
        stats = check_against_northwest(f_plus, f_minus, cost)
        assert stats.start == "lifo"
        assert stats.seam == 0
        assert stats.fallback == (
            "seam 0: no feasible offsets after 0 Bellman-Ford sweeps; no cheaper seam"
        )
        assert stats.pivots > 0

    def test_negative_cycle_falls_back(self):
        # unit atoms: every LIFO match is exact, so each pair is its own
        # component, and these components admit no feasible offsets
        f_plus, f_minus = random_atoms_instance(np.random.default_rng(0), DISK, 7)
        plan = solve_kantorovich(f_plus, f_minus, EUC)
        assert plan.stats.start == "lifo"
        assert plan.stats.fallback == (
            "seam 0: negative cycle between components; "
            "seam 5: negative cycle between components"
        )
        # seam 5's forest has several components, so seam 0's is kept
        assert plan.stats.seam == 0
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
        assert stats.fallback == "seam 0: a component's plan is not optimal on its own"

    def test_no_positions_fall_back_to_northwest(self):
        start = simplex.solve_transport(np.ones((2, 2)), np.ones(2), np.ones(2))[5]
        assert start == ("northwest", -1, "no boundary positions")

    def test_solver_error_propagates(self, monkeypatch):
        # a failed boundary start is an error, not a silent northwest start
        def broken(*args):
            raise SolverError("boundary matching produced a cycle")

        monkeypatch.setattr(simplex, "boundary_stack_basis", broken)
        f_plus, f_minus = mirror_cosine_measures(20)
        with pytest.raises(SolverError, match="cycle"):
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


def counting_core(monkeypatch):
    """Wrap ``simplex._solve_core`` so that its calls are counted."""
    calls = []
    core = simplex._solve_core

    def counted(*args):
        calls.append(1)
        return core(*args)

    monkeypatch.setattr(simplex, "_solve_core", counted)
    return calls


class TestSingleTreeStart:
    def test_core_stops_at_once_with_the_same_arrays(self):
        # every start handed over with potentials: the core, run on
        # copies of it, stops after its first pricing with the very
        # arrays that solve_transport returns without running it
        with_pot = {}
        for group, inputs in single_tree_groups().items():
            with_pot[group] = 0
            for C, a, b, s_a, s_b in inputs:
                bi, bj, f, start, pot = simplex.boundary_stack_basis(C, a, b, s_a, s_b)
                if pot is None:
                    continue
                with_pot[group] += 1
                assert start[0].startswith("certified")
                n, m = C.shape
                got = (bi.copy(), bj.copy(), f.copy(), np.zeros(n), np.zeros(m))
                theta_tol = 1e-14 * (1.0 + float(max(a.max(), b.max())))
                cap = 400 * (n + m) + 200000
                status, iters = simplex._solve_core(
                    C, *got, simplex._price_tol(C), theta_tol, cap
                )
                assert (status, iters) == (0, 1)
                want = (bi, bj, f, *pot)
                for x, y in zip(got, want):
                    assert np.array_equal(x, y)
                out = simplex.solve_transport(C, a, b, s_a, s_b)
                assert out[5:] == (start, 1)
                for x, y in zip(out[:5], want):
                    assert np.array_equal(x, y)
        assert with_pot == {"lsg": 35, "radial": 1, "random": 97}

    def test_shortcut_matches_the_grouped_certificate(self):
        # on one-component forests, from seam 0 and from the cheapest
        # seam, the shortcut gives the grouped certificate's answer
        reasons = []
        for inputs in single_tree_groups().values():
            for C, a, b, s_a, s_b in inputs:
                kinds, idxs = simplex._events(s_a, s_b)
                tol = 0.5 * simplex._price_tol(C)
                cheapest = int(np.argmin(simplex._seam_costs(C, a, b, kinds, idxs)))
                for seam in {0, cheapest}:
                    walk = np.roll(kinds, -seam), np.roll(idxs, -seam)
                    _, k, comp, u, v = simplex._lifo_forest(C, a, b, *walk)
                    if k != 1:
                        continue
                    got = simplex._certify(C, k, comp, u, v, tol)
                    assert got == grouped_certify(C, k, comp, u, v, tol)
                    reasons.append(got[1])
        assert set(reasons) == {"", "a component's plan is not optimal on its own"}

    def test_core_calls(self, monkeypatch):
        calls = counting_core(monkeypatch)
        per_start = {}
        for inputs in lsg_pool(40):
            calls.clear()
            kind = solve_kantorovich(*inputs).stats.start
            per_start.setdefault(kind, []).append(len(calls))
        # every certified lsg start is one tree and skips the core; an
        # uncertified one is priced by it
        assert per_start == {
            "certified": [0] * 8,
            "certified_seam": [0] * 27,
            "lifo": [1] * 5,
        }
        # the first transport pool input of seed 1 certifies as a forest
        # of two trees, and the core prices it
        domain = ellipse(2.0, 1.0)
        f_plus, f_minus = smooth_arc_instance(np.random.default_rng([1, 2]), domain, 350)
        calls.clear()
        plan = solve_kantorovich(f_plus, f_minus, ChordCost(domain, LqNorm(3.0)))
        assert (plan.stats.start, plan.stats.pivots, len(calls)) == ("certified", 0, 1)
