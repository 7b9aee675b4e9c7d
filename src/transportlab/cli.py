"""Command line front end.

Subcommands map one-to-one onto the library layers: solve (plan +
duality gap), density (grid deposit + CSV/PGM), lp-norm, bound (the
two-factor estimate), lsg (least-gradient reconstruction), cex (the
alternating-arc family).  Reports are JSON on stdout with sorted keys
and no timestamps, so identical inputs give byte-identical output.

Exit codes: 0 ok, 2 malformed problem file or flag value, 3 infeasible
data, 4 flagged divergence in the requested quantity, 5 internal error.

Each command imports only the layers it runs, since every call of the
program is a fresh process that compiles what it imports: solve loads
geom, measures, ot and simplex; density, lp-norm and bound add density
and kernels; lsg adds leastgrad; exact-mode cex loads cex and geom
alone, and grid-mode cex adds measures, ot, simplex and kernels.  The
package root itself loads only errors and resolves its other names on
first use.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from . import __version__, backend_name
from .errors import InfeasibleError, SchemaError

EXIT_OK = 0
EXIT_SCHEMA = 2
EXIT_INFEASIBLE = 3
EXIT_DIVERGED = 4
EXIT_INTERNAL = 5

# cells per side of a grid: a float64 field of 4096**2 cells is 128 MB
MAX_GRID = 4096

_PROBLEM_KEYS = {"domain", "norm", "g", "f_plus", "f_minus", "grid", "quadrature", "seed"}

# every kind a problem file may name for its domain and its norm: the
# geom class that builds it and the keys it takes, in order; the reports
# echo each key as the built object holds it
_KINDS = {
    "domain": {
        "disk": ("Disk", ("radius",)),
        "ellipse": ("Ellipse", ("a", "b")),
    },
    "norm": {
        "euclidean": ("EuclideanNorm", ()),
        "lq": ("LqNorm", ("q",)),
        "quadratic": ("QuadraticNorm", ("a",)),
    },
}


def _check_keys(obj: dict, allowed: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise SchemaError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise SchemaError(f"unknown keys in {where}: {sorted(unknown)}")


def _check_kind(cfg: dict, section: str) -> None:
    """The domain or norm section names a kind and holds its keys alone."""
    obj = cfg[section]
    if not isinstance(obj, dict):
        raise SchemaError(f"{section} must be an object")
    kind = obj.get("kind")
    if not isinstance(kind, str) or kind not in _KINDS[section]:
        code_only = " (radial domains are code-only)" if section == "domain" else ""
        raise SchemaError(f"unknown {section} kind {kind!r}{code_only}")
    keys = _KINDS[section][kind][1]
    _check_keys(obj, {"kind", *keys}, f"{section} of kind {kind!r}")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise SchemaError(f"{section} of kind {kind!r} needs {missing}")
    # every key is a number but the quadratic norm's matrix; type() and
    # not isinstance(), as bool is a subclass of int
    for key in keys:
        value = obj[key]
        if (kind, key) != ("quadratic", "a") and type(value) not in (int, float):
            raise SchemaError(f"{section}.{key} must be a number, not {json.dumps(value)}")


def _finite(convert):
    """json.load hook: a number literal, if a finite float can hold it."""

    def parse(text: str):
        try:
            value = convert(text)
            if math.isfinite(value):
                return value
        except (OverflowError, ValueError):  # an integer too big for a float
            pass
        raise SchemaError(f"problem file holds {text[:32]}, which is not a finite float")

    return parse


def _reject_booleans(obj, where: str) -> None:
    """JSON true and false anywhere under obj: float() would read them as 1 and 0."""
    if isinstance(obj, bool):
        raise SchemaError(f"{where} must be a number, not {json.dumps(obj)}")
    if isinstance(obj, dict):
        for key, value in obj.items():
            _reject_booleans(value, f"{where}.{key}")
    elif isinstance(obj, list):
        for k, value in enumerate(obj):
            _reject_booleans(value, f"{where}[{k}]")


def _check_pairs(items, where: str) -> None:
    """A list of [number, number] pairs, checked here so that the error
    names the item at fault."""
    if not isinstance(items, list):
        raise SchemaError(f"bad boundary data: {where} is not a list of [number, number] pairs")
    for k, item in enumerate(items):
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(isinstance(x, (int, float)) for x in item)
        ):
            raise SchemaError(f"bad boundary data: {where}[{k}] is not a [number, number] pair")


def load_problem(path: str) -> dict:
    """Parse and validate a problem file; unknown keys are rejected."""
    try:
        with open(path) as fh:
            cfg = json.load(
                fh,
                parse_constant=_finite(float),
                parse_float=_finite(float),
                parse_int=_finite(int),
            )
    except OSError as e:
        raise SchemaError(f"cannot read problem file: {e}")
    except json.JSONDecodeError as e:
        raise SchemaError(f"problem file is not valid JSON: {e}")
    _check_keys(cfg, _PROBLEM_KEYS, "problem")
    if "domain" not in cfg:
        raise SchemaError("problem file needs a domain")
    _check_kind(cfg, "domain")
    if "norm" in cfg:
        _check_kind(cfg, "norm")
    if "g" in cfg and ("f_plus" in cfg or "f_minus" in cfg):
        raise SchemaError("problem file carries either g or f_plus/f_minus, not both")
    if "g" in cfg:
        _check_keys(cfg["g"], {"samples", "jumps"}, "g")
    elif ("f_plus" in cfg) != ("f_minus" in cfg):
        raise SchemaError("f_plus and f_minus must come together")
    # type() and not isinstance(): JSON true and false are bools, and
    # bool is a subclass of int
    if "grid" in cfg:
        _check_keys(cfg["grid"], {"n"}, "grid")
        n = cfg["grid"].get("n")
        if type(n) is not int or not 1 <= n <= MAX_GRID:
            raise SchemaError(f"grid.n must be an integer from 1 to {MAX_GRID}")
    if "quadrature" in cfg and (
        type(cfg["quadrature"]) is not int or cfg["quadrature"] < 1
    ):
        raise SchemaError("quadrature must be a positive integer")
    # null is no seed, as a report echoes a run without one
    if cfg.get("seed") is not None and type(cfg["seed"]) is not int:
        raise SchemaError("seed must be an integer")
    for key in ("domain", "norm", "g", "f_plus", "f_minus"):
        if key in cfg:
            _reject_booleans(cfg[key], key)
    pairs = {key: cfg[key] for key in ("f_plus", "f_minus") if key in cfg}
    pairs.update({f"g.{key}": items for key, items in cfg.get("g", {}).items()})
    for where, items in pairs.items():
        _check_pairs(items, where)
    return cfg


def _build(section: str, obj: dict):
    """The domain or norm of a checked section, from its kind's class.

    Scalars go to the class as floats, so that an int literal echoes as
    a float; the quadratic norm's matrix goes as the nested list it is.
    """
    from . import geom

    name, keys = _KINDS[section][obj["kind"]]
    values = (obj[key] for key in keys)
    return getattr(geom, name)(*(v if isinstance(v, list) else float(v) for v in values))


def _load(args):
    """The --problem file, its domain, norm and boundary data: the datum
    g, or the pair (f_plus, f_minus).

    A --seed flag replaces the file's seed, a file without quadrature
    gets 1 derivative atom per linear piece, and one without a norm the
    euclidean norm.  Malformed values raise SchemaError; boundary data
    that do not close up or balance raise InfeasibleError.
    """
    from .measures import BoundaryDatum, BoundaryMeasure

    cfg = load_problem(args.problem)
    cfg.setdefault("quadrature", 1)
    cfg.setdefault("norm", {"kind": "euclidean"})
    if args.seed is not None:
        cfg["seed"] = args.seed
    try:
        domain, norm = (_build(section, cfg[section]) for section in ("domain", "norm"))
    except (TypeError, ValueError) as e:
        raise SchemaError(f"bad domain or norm: {e}")
    if "g" not in cfg and "f_plus" not in cfg:
        raise SchemaError("problem file needs g or f_plus/f_minus")
    try:
        if "g" in cfg:
            data = BoundaryDatum(cfg["g"]["samples"], cfg["g"].get("jumps"), domain.perimeter)
        else:
            # load_problem has checked them to be lists of pairs
            data = tuple(
                BoundaryMeasure(
                    *np.array(cfg[key], dtype=float).reshape(-1, 2).T, domain.perimeter
                )
                for key in ("f_plus", "f_minus")
            )
    except InfeasibleError:  # a ValueError too, but not a schema fault
        raise
    except (KeyError, TypeError, ValueError) as e:
        raise SchemaError(f"bad boundary data: {e}")
    return cfg, domain, norm, data


def _grid_n(cfg: dict, args) -> int:
    """Cells per side: --grid, else the problem's grid.n, else 512."""
    return args.grid or cfg.get("grid", {}).get("n", 512)


def _resolved_config(cfg: dict, domain, norm, grid_n: int = None) -> dict:
    out = {"quadrature": cfg["quadrature"], "seed": cfg.get("seed")}
    for section, obj in (("domain", domain), ("norm", norm)):
        kind = cfg[section]["kind"]
        keys = _KINDS[section][kind][1]
        out[section] = {"kind": kind, **{key: getattr(obj, key) for key in keys}}
    if "g" in cfg:
        out["g"] = cfg["g"]
    if "f_plus" in cfg:
        out["f_plus"] = cfg["f_plus"]
        out["f_minus"] = cfg["f_minus"]
    if grid_n is not None:
        out["grid"] = {"n": grid_n}
    return out


def _sanitize(obj):
    """JSON-safe deep copy: numpy scalars to python, non-finite to strings."""
    if isinstance(obj, dict):
        return {k: _sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        f = float(obj)
        if math.isinf(f):
            return "inf" if f > 0 else "-inf"
        if math.isnan(f):
            return "nan"
        return f
    if isinstance(obj, np.ndarray):
        return [_sanitize(v) for v in obj.tolist()]
    return obj


def _emit(report: dict, out_dir: str = None) -> None:
    text = json.dumps(_sanitize(report), sort_keys=True, separators=(", ", ": "))
    sys.stdout.write(text + "\n")
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "report.json"), "w") as fh:
            fh.write(text + "\n")


def _base_report(command: str, seed) -> dict:
    return {
        "command": command,
        "version": __version__,
        "backend": backend_name(),
        "seed": seed,
    }


def _svg_path(points, stroke, width):
    d = "M " + " L ".join(f"{x:.6g} {-y:.6g}" for x, y in points)
    return f'<path d="{d}" stroke="{stroke}" stroke-width="{width}" fill="none"/>\n'


def _svg_view(domain, n_ring, stroke, rel_width):
    """The opening tag of a padded view of the domain and its boundary
    outline through n_ring points; returns those parts and the view width."""
    x0, y0, x1, y1 = domain.bbox()
    pad = 0.05 * max(x1 - x0, y1 - y0)
    lo = (x0 - pad, y0 - pad)
    hi = (x1 + pad, y1 + pad)
    w = hi[0] - lo[0]
    h = hi[1] - lo[1]
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="640" '
        f'height="{int(640 * h / w)}" viewBox="{lo[0]} {-hi[1]} {w} {h}">\n'
    )
    ring = domain.boundary_point(np.linspace(0.0, domain.perimeter, n_ring))
    return [head, _svg_path(ring, stroke, rel_width * w)], w


def _write_rays_svg(path, domain, plan):
    """Boundary outline plus the plan's rays, line width by mass share."""
    parts, w = _svg_view(domain, 512, "black", 0.004)
    wmax = float(np.max(plan.mass))
    scale = 0.01 * w
    for a, b, m in zip(*plan.entry_segments(), plan.mass):
        parts.append(_svg_path([a, b], "steelblue", scale * max(0.1, m / wmax)))
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def cmd_plan(args) -> int:
    """solve, density, lp-norm and bound: one plan, then each command's fields.

    The three commands that take --tau also deposit the partial density;
    solve never imports the density layer.
    """
    from .geom import ChordCost
    from .measures import remove_common_mass, tangential_derivative
    from .ot import solve_kantorovich

    command = args.command
    cfg, domain, norm, data = _load(args)
    if "g" in cfg:
        data = remove_common_mass(
            *tangential_derivative(data, n_quad=cfg["quadrature"])
        )
    plan = solve_kantorovich(*data, ChordCost(domain, norm))
    report = _base_report(command, cfg.get("seed"))
    report["solver"] = plan.stats.config()
    code = EXIT_OK
    if command == "solve":
        report["config"] = _resolved_config(cfg, domain, norm)
        report.update(plan.config())
    else:
        from . import density as density_mod

        n = _grid_n(cfg, args)
        grid = density_mod.grid_for_domain(domain, n)
        field = density_mod.deposit_partial_density(plan, args.tau, grid)
        report["config"] = _resolved_config(cfg, domain, norm, grid_n=n)
        report["tau"] = args.tau
    if command == "density":
        report.update(cost=plan.cost, integral=field.integral())
        files = {}
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            files["csv"] = os.path.join(args.out, "density.csv")
            density_mod.write_csv(field, files["csv"])
        if args.svg:
            files["pgm"] = os.path.join(args.out or ".", "density.pgm")
            density_mod.write_pgm(field, files["pgm"])
        report["files"] = files
    elif command == "lp-norm":
        report.update(p=args.p, lp_norm=density_mod.lp_norm(field, args.p))
    elif command == "bound":
        try:
            lp_power = density_mod.lp_norm(field, args.p) ** args.p
        except OverflowError:  # beyond the float range
            lp_power = math.inf
        ti, da = density_mod.lp_bound_factors(plan, args.p, args.tau)
        product = ti * da if math.isfinite(ti) and math.isfinite(da) else math.inf
        ratio = lp_power / product if math.isfinite(product) and product > 0 else math.inf
        report.update(
            p=args.p, time_integral=ti, data_integral=da, product=product,
            lp_norm_power=lp_power, ratio=ratio,
        )
        if not math.isfinite(product):
            code = EXIT_DIVERGED
    _emit(report, args.out)
    if command == "solve" and args.svg:
        os.makedirs(args.out or ".", exist_ok=True)
        _write_rays_svg(os.path.join(args.out or ".", "rays.svg"), domain, plan)
    return code


def cmd_lsg(args) -> int:
    from . import density as density_mod, leastgrad

    cfg, domain, norm, datum = _load(args)
    if "g" not in cfg:
        raise SchemaError("lsg needs a problem file with a boundary datum g")
    n = _grid_n(cfg, args)
    res = leastgrad.solve_least_gradient(
        datum,
        domain,
        norm,
        density_mod.grid_for_domain(domain, n),
        n_quad=cfg["quadrature"],
    )
    report = _base_report("lsg", cfg.get("seed"))
    report["config"] = _resolved_config(cfg, domain, norm, grid_n=n)
    # a constant datum moves nothing and runs no solver
    report["solver"] = None if res.plan is None else res.plan.stats.config()
    report.update(
        cost=res.cost, tv=res.tv, trace_error=res.trace_err,
        lp_norms={str(p): density_mod.lp_norm(res.grad, p) for p in (1.5, 2.0)},
    )
    files = {}
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        files["u_csv"] = os.path.join(args.out, "u.csv")
        density_mod.write_csv(res.u, files["u_csv"])
    # a constant datum has no plan and no rays to draw
    if args.svg and res.plan is not None:
        files["svg"] = os.path.join(args.out or ".", "rays.svg")
        _write_rays_svg(files["svg"], domain, res.plan)
    report["files"] = files
    _emit(report, args.out)
    return EXIT_OK


def _write_arcs_svg(path, n_pairs):
    """Arc family layout, with the reflection rays of the first six pairs."""
    from . import cex as cex_mod

    arcs = cex_mod.build_arcs(n_pairs)
    domain = arcs.domain
    parts, w = _svg_view(domain, 1024, "lightgray", 0.002)
    lw = 0.006 * w
    for k in range(min(6, arcs.n_pairs)):
        (p0, p1), (m0, m1) = arcs.intervals(k)
        sp = np.linspace(p0, p1, 64)
        sm = np.linspace(m0, m1, 64)
        parts.append(_svg_path(domain.boundary_point(sp), "firebrick", lw))
        parts.append(_svg_path(domain.boundary_point(sm), "navy", lw))
        plan = cex_mod.pair_plan(arcs, k, 8)
        a, b = plan.entry_segments()
        for pa, pb in zip(a, b):
            parts.append(_svg_path([pa, pb], "steelblue", 0.3 * lw))
    parts.append("</svg>\n")
    with open(path, "w") as fh:
        fh.write("".join(parts))


def cmd_cex(args) -> int:
    from . import cex as cex_mod

    if args.mode == "exact":
        for flag, value in (("--grid", args.grid), ("--atoms-per-arc", args.atoms_per_arc)):
            if value is not None:
                raise SchemaError(f"{flag} applies only to --mode grid")
    # run_counterexample owns the grid-mode defaults, so only the flags
    # given reach it; it checks the pair grids before any pair is solved
    given = {"grid_n": args.grid, "atoms_per_arc": args.atoms_per_arc}
    given = {key: value for key, value in given.items() if value is not None}
    try:
        result = cex_mod.run_counterexample(args.pairs, args.p, mode=args.mode, **given)
    except InfeasibleError:  # a ValueError too, but not a flag fault
        raise
    except ValueError as e:
        raise SchemaError(f"--grid: {e}") from None
    report = _base_report("cex", args.seed)
    report.update(result)
    _emit(report, args.out)
    if args.svg:
        os.makedirs(args.out or ".", exist_ok=True)
        _write_arcs_svg(os.path.join(args.out or ".", "arcs.svg"), args.pairs)
    if args.mode == "exact" and any(result["diverged"]):
        return EXIT_DIVERGED
    return EXIT_OK


def _flag(convert, ok, rule: str):
    """argparse type that keeps a value only if ok(value); NaN never is."""

    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")

    return parse


_count = _flag(int, lambda v: v >= 1, "an integer >= 1")
_cells = _flag(int, lambda v: 1 <= v <= MAX_GRID, f"an integer from 1 to {MAX_GRID}")
_tau = _flag(float, lambda v: 0.0 < v <= 1.0, "a trip fraction in (0, 1]")
_p_lp = _flag(float, lambda v: v >= 1.0, "an exponent >= 1 (or inf)")
_p_bound = _flag(float, lambda v: 1.0 < v < math.inf, "a finite exponent > 1")
_p_cex = _flag(float, lambda v: 1.0 <= v < math.inf, "a finite exponent >= 1")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="transportlab",
        description="boundary-to-boundary optimal transport toolbox",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, func, problem=True, grid=_cells, tau=False, p_type=None, svg=True):
        if problem:
            p.add_argument("--problem", required=True, help="problem file (JSON)")
        if grid:
            p.add_argument("--grid", type=grid, default=None, help="cells per side")
        if tau:
            p.add_argument("--tau", type=_tau, default=1.0, help="trip fraction")
        if p_type:
            p.add_argument("--p", type=p_type, required=True, help="L^p exponent")
        p.add_argument("--out", default=None, help="output directory")
        if svg:
            p.add_argument("--svg", action="store_true", help="also write plots")
        p.add_argument("--seed", type=int, default=None, help="recorded seed")
        p.set_defaults(func=func)

    for name, help_text, flags in (
        ("solve", "optimal plan, cost, duality gap", {"grid": False}),
        ("density", "deposit the (partial) transport density", {"tau": True}),
        ("lp-norm", "L^p norm of the deposited density",
         {"tau": True, "p_type": _p_lp, "svg": False}),
        ("bound", "two-factor L^p estimate and empirical ratio",
         {"tau": True, "p_type": _p_bound, "svg": False}),
    ):
        common(sub.add_parser(name, help=help_text), cmd_plan, **flags)
    common(sub.add_parser("lsg", help="least-gradient reconstruction from g"), cmd_lsg)

    p = sub.add_parser("cex", help="alternating-arc counter-example report")
    # cex --grid counts cells across a pair's sag, not per side: cmd_cex
    # bounds the cells of each pair grid instead of MAX_GRID
    common(p, cmd_cex, problem=False, grid=_count, p_type=_p_cex)
    p.add_argument("--pairs", type=_count, required=True, help="number of arc pairs")
    p.add_argument(
        "--mode", choices=("exact", "grid"), default="exact", help="evaluation mode"
    )
    p.add_argument(
        "--atoms-per-arc",
        type=_count,
        default=None,
        help="quadrature atoms per arc (grid mode; default: run_counterexample's)",
    )
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as e:
        print(f"schema error: {e}", file=sys.stderr)
        return EXIT_SCHEMA
    except InfeasibleError as e:
        print(f"infeasible: {e}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except Exception as e:
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
