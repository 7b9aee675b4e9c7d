"""Golden corpus: the library's results on a fixed set of inputs.

Every entry is computed from seeded inputs alone and stored in
``corpus.json`` beside this file, so that a change that moves any result,
down to its last bit, fails ``test_corpus.py``.

- Plans store a sha256 over the bytes of ``i``, ``j``, ``mass``, ``cost``,
  ``gap``, ``u`` and ``v``, the solver stats, and the cost, gap, entry
  count and pivots as plain numbers.
- Least-gradient results store a digest of ``u.values`` and the plain
  ``tv`` and ``trace_err``.
- CLI commands, run in-process through ``cli.main``, store digests of
  stdout and of every file written under ``--out``, and the report's
  top-level numbers.  Beside the benchmark's commands, ``solve`` (and
  ``lsg`` where a ``g`` is given) runs on a problem file of each domain
  and norm kind.
- Grid-mode alternating-arc reports store a digest of ``per_pair`` and
  the plain ``partial_sum`` and ``ratio``.

The file also records the environment it was made on.  There the test
compares digests exactly; elsewhere it compares the plain numbers to
1e-12 relative, since another CPU or numpy build may round differently.

    PYTHONPATH=src python tests/golden/corpus.py          # list what moved
    PYTHONPATH=src python tests/golden/corpus.py --write  # regenerate

A change that moves results on purpose regenerates the file in the same
commit and says which entries moved (the first command's output).

The ``harmonic_datum`` recipe and the ``cex_grid`` input pool are the
benchmark's, copied here so that a change to the benchmark cannot move
the corpus.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import platform
import sys
import tempfile

import numpy as np

from transportlab import cli, density, geom, leastgrad, simplex
from transportlab.cex import build_arcs, run_counterexample
from transportlab.instances import cosine_datum, mirror_cosine_measures, smooth_arc_instance
from transportlab.measures import BoundaryDatum, remove_common_mass, tangential_derivative
from transportlab.ot import solve_kantorovich

# the tests' reference solvers live one directory up
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from oracles import northwest_solve

PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "corpus.json")
RTOL = 1e-12
QUADRATIC = [[2.0, 0.3], [0.3, 1.0]]


def flower(t):
    return 1.0 + 0.05 * math.cos(3 * t)


def environment() -> dict:
    """What the exact bits may depend on: interpreter, numpy, CPU."""
    try:
        from numpy._core._multiarray_umath import __cpu_features__ as features
    except ImportError:
        features = {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "system": platform.system(),
        "cpu_features": sorted(k for k, on in features.items() if on),
    }


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for x in arrays:
        x = np.asarray(x)
        dtype = np.int64 if x.dtype.kind in "iu" else np.float64
        h.update(np.ascontiguousarray(x, dtype=dtype).tobytes())
    return h.hexdigest()


def _plan_entry(i, j, mass, cost, gap, u, v, stats: dict) -> dict:
    return {
        "digest": _digest(i, j, mass, cost, gap, u, v),
        "stats": stats,
        "numbers": {
            "cost": float(cost),
            "gap": float(gap),
            "entries": int(len(mass)),
            "pivots": int(stats["pivots"]),
        },
    }


def plan_entry(plan) -> dict:
    u, v = plan.potentials
    return _plan_entry(
        plan.i, plan.j, plan.mass, plan.cost, plan.gap, u, v, plan.stats.config()
    )


def harmonic_datum(rng, domain, n_samples: int, harmonics: int = 3):
    """g = sum of the first ``harmonics`` Fourier modes with seeded weights."""
    P = domain.perimeter
    s = (np.arange(n_samples) + rng.uniform(0.0, 1.0)) * (P / n_samples)
    theta = 2.0 * np.pi * s / P
    g = np.zeros(n_samples)
    for k in range(1, harmonics + 1):
        a, b = rng.normal(0.0, 1.0, 2) / k
        g += a * np.cos(k * theta) + b * np.sin(k * theta)
    return BoundaryDatum(samples=np.stack([s, g], axis=1), jumps=None, perimeter=P)


def _grid(domain, n=80):
    """The benchmark's lsg grid: about n**2 cells whatever the aspect."""
    x0, y0, x1, y1 = domain.bbox()
    aspect = max(x1 - x0, y1 - y0) / min(x1 - x0, y1 - y0)
    return density.grid_for_domain(domain, round(n * math.sqrt(aspect)))


def plans() -> dict:
    out = {}
    euclid = geom.EuclideanNorm()
    unit = geom.disk(1.0)
    arcs = build_arcs(2, eps=[0.1, 0.08])
    for n in (24, 100, 200, 400):
        plan = solve_kantorovich(*arcs.pair_measures(0, n), geom.ChordCost(arcs.domain, euclid))
        out[f"plan/cex_pair_{n}"] = plan_entry(plan)
    cost = geom.ChordCost(unit, euclid)
    out["plan/mirror_cosine_1000"] = plan_entry(
        solve_kantorovich(*mirror_cosine_measures(1000), cost)
    )
    f_plus, f_minus = remove_common_mass(*tangential_derivative(cosine_datum(2000)))
    out["plan/cosine_datum_2000"] = plan_entry(solve_kantorovich(f_plus, f_minus, cost))
    # the benchmark's transport input: 350 atoms per side, l3 cost
    ell = geom.ellipse(2.0, 1.0)
    f_plus, f_minus = smooth_arc_instance(np.random.default_rng([1, 2]), ell, 350)
    out["plan/transport_350"] = plan_entry(
        solve_kantorovich(f_plus, f_minus, geom.ChordCost(ell, geom.LqNorm(3.0)))
    )
    rad = geom.radial(flower)
    f_plus, f_minus = smooth_arc_instance(np.random.default_rng(7), rad, 120)
    out["plan/radial_l3"] = plan_entry(
        solve_kantorovich(f_plus, f_minus, geom.ChordCost(rad, geom.LqNorm(3.0)))
    )
    ell = geom.ellipse(1.5, 1.0)
    f_plus, f_minus = smooth_arc_instance(np.random.default_rng(8), ell, 120)
    out["plan/quadratic"] = plan_entry(
        solve_kantorovich(f_plus, f_minus, geom.ChordCost(ell, geom.QuadraticNorm(QUADRATIC)))
    )
    return out


def core_trials() -> dict:
    """The 25 random core trials, solved by ``solve_transport`` and by
    the positionless reference from the northwest corner."""
    out = {}
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
        for name, solved in (
            ("positions", simplex.solve_transport(C, a, b, s_a, s_b)),
            ("northwest", northwest_solve(C, a, b)),
        ):
            bi, bj, f, u, v, start, iters = solved
            keep = np.flatnonzero(f > 0)
            keep = keep[np.lexsort((bj[keep], bi[keep]))]
            i, j, mass = bi[keep], bj[keep], f[keep]
            cost = float(np.dot(mass, C[i, j]))
            gap = cost - float(np.dot(u, a) + np.dot(v, b))
            stats = {**dict(zip(("start", "seam", "fallback"), start)), "pivots": iters - 1}
            out[f"core/{trial:02d}/{name}"] = _plan_entry(i, j, mass, cost, gap, u, v, stats)
    return out


def _lsg_entry(res) -> dict:
    entry = {
        "digest": _digest(res.u.values),
        "numbers": {"cost": float(res.cost), "tv": float(res.tv),
                    "trace_err": float(res.trace_err)},
    }
    if res.plan is not None:
        entry["plan"] = plan_entry(res.plan)
    return entry


def least_gradient() -> dict:
    out = {}
    l3 = geom.LqNorm(3.0)
    quad = geom.QuadraticNorm(QUADRATIC)
    # the first 40 inputs of the benchmark's lsg pool for seed 101
    rng = np.random.default_rng([101, 1])
    domains = [geom.disk(1.0), geom.ellipse(1.5, 1.0)]
    grids = [_grid(d) for d in domains]
    for k in range(40):
        g = harmonic_datum(rng, domains[k % 2], 300)
        res = leastgrad.solve_least_gradient(g, domains[k % 2], l3, grid=grids[k % 2])
        out[f"lsg/seed101/{k:02d}"] = _lsg_entry(res)
    rad = geom.radial(flower)
    rng = np.random.default_rng(9)
    for name, domain, phi in (
        ("radial_l3", rad, l3),
        ("disk_quadratic", domains[0], quad),
        ("ellipse_quadratic", domains[1], quad),
        ("radial_quadratic", rad, quad),
    ):
        g = harmonic_datum(rng, domain, 300)
        out[f"lsg/{name}"] = _lsg_entry(
            leastgrad.solve_least_gradient(g, domain, phi, grid=_grid(domain))
        )
    # a jump at s = 0 puts a ray end on the anchor, which must be nudged
    P = domains[0].perimeter
    s = np.linspace(0.0, P, 200, endpoint=False)
    g = BoundaryDatum(
        samples=np.stack([s, 0.5 * np.sin(s)], axis=1),
        jumps=[[0.0, 0.75], [P / 3, -0.75]],
        perimeter=P,
    )
    out["lsg/jump_at_zero"] = _lsg_entry(
        leastgrad.solve_least_gradient(g, domains[0], l3, grid=grids[0])
    )
    return out


def _cli_commands(seed: int) -> list:
    """The benchmark's six cli commands for a seed, after writing their
    problem file to the current directory."""
    rng = np.random.default_rng([seed, 4])
    g = harmonic_datum(rng, geom.disk(1.0), 400, harmonics=1)
    problem = {
        "domain": {"kind": "disk", "radius": 1.0},
        "norm": {"kind": "lq", "q": 3.0},
        "g": g.config(),
        "grid": {"n": 64},
        "seed": int(seed),
    }
    with open("problem.json", "w") as fh:
        json.dump(problem, fh)
    tau = repr(float(rng.uniform(0.25, 0.75)))
    p_lp = repr(float(rng.uniform(1.5, 2.5)))
    p_bound = repr(float(rng.uniform(1.5, 2.5)))
    p_cex = repr(float(rng.uniform(2.0, 3.0)))
    commands = {
        "solve": ["solve", "--problem", "problem.json"],
        "density": ["density", "--problem", "problem.json", "--tau", tau,
                    "--out", "out/density"],
        "lp-norm": ["lp-norm", "--problem", "problem.json", "--p", p_lp, "--tau", tau],
        "bound": ["bound", "--problem", "problem.json", "--p", p_bound, "--tau", tau],
        "lsg": ["lsg", "--problem", "problem.json", "--out", "out/lsg"],
        "cex": ["cex", "--pairs", "12", "--p", p_cex],
    }
    if seed == 1:
        # the plots draw the boundary and the rays
        commands["solve-svg"] = ["solve", "--problem", "problem.json",
                                 "--out", "out/solve-svg", "--svg"]
        commands["lsg-svg"] = ["lsg", "--problem", "problem.json",
                               "--out", "out/lsg-svg", "--svg"]
        commands["cex-svg"] = ["cex", "--pairs", "12", "--p", p_cex,
                               "--out", "out/cex-svg", "--svg"]
    return commands


def _run_cli(argv) -> dict:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    stdout = buf.getvalue().encode()
    files = {}
    if "--out" in argv:
        out = argv[argv.index("--out") + 1]
        for name in sorted(os.listdir(out)):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = hashlib.sha256(fh.read()).hexdigest()
    report = json.loads(stdout)
    numbers = {k: v for k, v in sorted(report.items())
               if isinstance(v, (int, float)) and not isinstance(v, bool)}
    return {
        "digest": hashlib.sha256(stdout).hexdigest(),
        "files": files,
        "numbers": {"exit": code, **numbers},
    }


def _kind_problems() -> dict:
    """Problem files of the domain and norm kinds that the benchmark's
    disk and lq file leaves out, written with the literals a hand-made
    file may hold: ints for floats, no norm key, jumps, quadrature."""
    ell = geom.ellipse(1.5, 1.0)
    f_plus, f_minus = smooth_arc_instance(np.random.default_rng(11), ell, 40)
    samples = [[0, 1], [1, 0], [2, -1], [3, 0], [4, 1], [5, 2]]
    jumps = [[0.5, 1], [3.5, -1]]
    return {
        "ellipse_quadratic": {
            "domain": {"kind": "ellipse", "a": 1.5, "b": 1.0},
            "norm": {"kind": "quadratic", "a": QUADRATIC},
            "f_plus": np.stack([f_plus.s, f_plus.mass], axis=1).tolist(),
            "f_minus": np.stack([f_minus.s, f_minus.mass], axis=1).tolist(),
        },
        "ellipse_default_norm": {
            "domain": {"kind": "ellipse", "a": 1.0, "b": 1.5},
            "g": harmonic_datum(np.random.default_rng(12), geom.ellipse(1.0, 1.5), 120).config(),
            "grid": {"n": 32},
        },
        "disk_int_lq": {
            "domain": {"kind": "disk", "radius": 1},
            "norm": {"kind": "lq", "q": 3},
            "g": {"samples": samples, "jumps": jumps},
            "grid": {"n": 32},
            "quadrature": 2,
        },
        "disk_int_quadratic": {
            "domain": {"kind": "disk", "radius": 2},
            "norm": {"kind": "quadratic", "a": [[2, 1], [1, 3]]},
            "g": {"samples": samples, "jumps": jumps},
            "grid": {"n": 32},
            "quadrature": 2,
        },
    }


def cli_runs() -> dict:
    out = {}
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as work:
        try:
            for seed in (1, 2, 3):
                # each seed in a fresh directory: paths in the reports are
                # relative, so they do not depend on where it lives
                os.chdir(work)
                os.makedirs(str(seed))
                os.chdir(str(seed))
                for name, argv in _cli_commands(seed).items():
                    out[f"cli/seed{seed}/{name}"] = _run_cli(argv)
            os.chdir(work)
            for name, problem in _kind_problems().items():
                path = f"{name}.json"
                with open(path, "w") as fh:
                    json.dump(problem, fh)
                commands = ["solve", "lsg"] if "g" in problem else ["solve"]
                for command in commands:
                    out[f"cli/kinds/{name}/{command}"] = _run_cli([command, "--problem", path])
        finally:
            os.chdir(here)
    return out


def cex_grid() -> dict:
    """The first 8 inputs of the benchmark's cex_grid pool for seed 101."""
    out = {}
    rng = np.random.default_rng([101, 3])
    base = build_arcs(8).eps
    for k in range(8):
        eps, p = base * rng.uniform(0.8, 1.2, 8), rng.uniform(2.0, 3.0)
        rep = run_counterexample(8, p, mode="grid", eps=list(eps), grid_n=16, atoms_per_arc=24)
        out[f"cex/seed101/{k:02d}"] = {
            "digest": _digest(rep["per_pair"]),
            "numbers": {"partial_sum": rep["partial_sum"], "ratio": rep["ratio"]},
        }
    return out


GROUPS = {
    "plan": plans,
    "core": core_trials,
    "lsg": least_gradient,
    "cli": cli_runs,
    "cex": cex_grid,
}


def build() -> dict:
    return {
        "environment": environment(),
        "entries": {k: v for group in GROUPS.values() for k, v in group().items()},
    }


def load() -> dict:
    with open(PATH) as fh:
        return json.load(fh)


def _numbers(entry: dict, prefix: str = ""):
    """(name, value) for every plain number of an entry, nested plans too."""
    for k, v in entry.get("numbers", {}).items():
        yield prefix + k, v
    if "plan" in entry:
        yield from _numbers(entry["plan"], prefix + "plan.")


def close(a, b) -> bool:
    """Within RTOL, relative to max(|a|, |b|, 1)."""
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1.0)


def _exact_parts(entry: dict, prefix: str = ""):
    """(name, value) for everything of an entry that must be bit-identical
    apart from its plain numbers: digests, file digests and stats, nested
    plans too."""
    for k, v in entry.items():
        if k == "numbers":
            continue
        if isinstance(v, dict):
            yield from _exact_parts(v, prefix + k + ".")
        else:
            yield prefix + k, v


def compare(want: dict, got: dict, exact: bool) -> list[str]:
    """What moved between two entries: when exact, every differing digest
    or file digest by name and every differing stat and number as
    ``name: old -> new``; else the numbers that differ by more than RTOL."""
    moved = []
    if exact:
        want_x, got_x = dict(_exact_parts(want)), dict(_exact_parts(got))
        for k in sorted(set(want_x) | set(got_x)):
            a, b = want_x.get(k), got_x.get(k)
            if a != b:
                hashed = k.endswith("digest") or k.startswith("files.")
                moved.append(k if hashed else f"{k}: {a!r} -> {b!r}")
        want_n, got_n = dict(_numbers(want)), dict(_numbers(got))
        for k in sorted(set(want_n) | set(got_n)):
            if want_n.get(k) != got_n.get(k):
                moved.append(f"{k}: {want_n.get(k)!r} -> {got_n.get(k)!r}")
        return moved
    want_n, got_n = dict(_numbers(want)), dict(_numbers(got))
    for k in sorted(set(want_n) | set(got_n)):
        a, b = want_n.get(k), got_n.get(k)
        if a is None or b is None or not close(a, b):
            moved.append(f"{k}: {a!r} -> {b!r}")
    return moved


def report_moves(stored: dict, fresh: dict) -> int:
    exact = stored["environment"] == fresh["environment"]
    print(f"mode: {'exact' if exact else 'cross-machine'}")
    want, got = stored["entries"], fresh["entries"]
    count = 0
    for name in sorted(set(want) | set(got)):
        if name not in got or name not in want:
            print(f"{name}: {'removed' if name not in got else 'added'}")
            count += 1
            continue
        moved = compare(want[name], got[name], exact)
        if moved:
            count += 1
            print(f"{name}: " + "; ".join(moved))
    print(f"{count} of {len(want)} entries moved")
    return count


def main(argv) -> int:
    fresh = build()
    if argv == ["--write"]:
        with open(PATH, "w") as fh:
            json.dump(fresh, fh, indent=1, sort_keys=True)
            fh.write("\n")
        print(f"wrote {len(fresh['entries'])} entries to {PATH}")
        return 0
    if argv:
        print(__doc__)
        return 2
    return 1 if report_moves(load(), fresh) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
