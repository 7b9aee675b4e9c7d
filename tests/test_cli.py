import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from transportlab import cli
from transportlab.cex import run_counterexample
from transportlab.cli import load_problem, main
from transportlab.errors import SchemaError


def write_problem(tmp_path, cfg, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def pair_cfg():
    return {
        "domain": {"kind": "disk", "radius": 1.0},
        "norm": {"kind": "euclidean"},
        "f_plus": [[0.0, 1.0]],
        "f_minus": [[math.pi, 1.0]],
    }


def cos_cfg(n=200):
    s = np.linspace(0, 2 * math.pi, n, endpoint=False)
    return {
        "domain": {"kind": "disk", "radius": 1.0},
        "norm": {"kind": "euclidean"},
        "g": {"samples": [[float(a), float(math.cos(a))] for a in s]},
        "grid": {"n": 128},
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSolve:
    def test_pair_report(self, tmp_path, capsys):
        prob = write_problem(tmp_path, pair_cfg())
        code, out, _ = run(capsys, "solve", "--problem", prob)
        assert code == 0
        rep = json.loads(out)
        assert rep["command"] == "solve"
        assert rep["cost"] == pytest.approx(2.0, rel=1e-12)
        assert rep["entries"] == [[0, 0, 1.0]]
        assert "backend" in rep and "version" in rep

    def test_out_dir_and_svg(self, tmp_path, capsys):
        prob = write_problem(tmp_path, pair_cfg())
        out_dir = tmp_path / "out"
        code, out, _ = run(
            capsys, "solve", "--problem", prob, "--out", str(out_dir), "--svg"
        )
        assert code == 0
        on_disk = (out_dir / "report.json").read_text()
        assert on_disk == out
        svg = (out_dir / "rays.svg").read_text()
        assert svg.startswith("<svg") and "<path" in svg

    def test_reruns_byte_identical(self, tmp_path, capsys):
        prob = write_problem(tmp_path, cos_cfg())
        _, first, _ = run(capsys, "solve", "--problem", prob, "--seed", "7")
        _, second, _ = run(capsys, "solve", "--problem", prob, "--seed", "7")
        assert first == second


class TestSchemaErrors:
    def test_unknown_key(self, tmp_path, capsys):
        cfg = pair_cfg()
        cfg["fplus_typo"] = []
        prob = write_problem(tmp_path, cfg)
        code, _, err = run(capsys, "solve", "--problem", prob)
        assert code == 2
        assert "fplus_typo" in err

    def test_invalid_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2

    def test_g_and_measures_exclusive(self, tmp_path, capsys):
        cfg = pair_cfg()
        cfg["g"] = {"samples": [[0.0, 1.0], [3.0, 0.0]]}
        prob = write_problem(tmp_path, cfg)
        code, _, err = run(capsys, "solve", "--problem", prob)
        assert code == 2

    def test_lsg_requires_datum(self, tmp_path, capsys):
        prob = write_problem(tmp_path, pair_cfg())
        code, _, err = run(capsys, "lsg", "--problem", prob)
        assert code == 2
        assert "g" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "solve", "--problem", "/nonexistent/x.json")
        assert code == 2

    @pytest.mark.parametrize(
        "extra, key",
        [
            ({"grid": {"n": True}}, "grid.n"),
            ({"grid": {"n": 0}}, "grid.n"),
            ({"quadrature": True}, "quadrature"),
            ({"quadrature": 1.5}, "quadrature"),
            ({"seed": False}, "seed"),
            ({"seed": "7"}, "seed"),
        ],
        ids=["grid-true", "grid-zero", "quadrature-true", "quadrature-float", "seed-false", "seed-string"],
    )
    def test_bad_integer_keys(self, tmp_path, capsys, extra, key):
        prob = write_problem(tmp_path, {**pair_cfg(), **extra})
        code, _, err = run(capsys, "solve", "--problem", prob)
        assert code == 2
        assert key in err

    @pytest.mark.parametrize(
        "edit, key",
        [
            (lambda c: c["domain"].update(radius=True), "domain.radius"),
            (lambda c: c.update(f_plus=[[0.0, True]]), "f_plus[0][1]"),
            (lambda c: c.update(norm={"kind": "quadratic", "a": [[True, 0], [0, True]]}),
             "norm.a[0][0]"),
            (lambda c: c.update(f_plus=None, f_minus=None,
                                g={"samples": [[0.0, True], [3.0, 0.0]]}), "g.samples[0][1]"),
        ],
        ids=["radius", "mass", "quadratic", "sample"],
    )
    def test_booleans_rejected(self, tmp_path, capsys, edit, key):
        cfg = pair_cfg()
        edit(cfg)
        prob = write_problem(tmp_path, {k: v for k, v in cfg.items() if v is not None})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert code == 2
        assert key in err and out == ""

    @pytest.mark.parametrize(
        "text, literal",
        [
            ('"f_plus": [[NaN, 1.0]]', "NaN"),
            ('"f_plus": [[0.0, Infinity]]', "Infinity"),
            ('"f_plus": [[0.0, -Infinity]]', "-Infinity"),
            ('"f_plus": [[0.0, 1e400]]', "1e400"),
            ('"f_plus": [[0.0, 1%s]]' % ("0" * 400), "1000"),
        ],
        ids=["nan", "infinity", "minus-infinity", "overflow", "huge-integer"],
    )
    def test_non_finite_numbers_rejected(self, tmp_path, capsys, text, literal):
        path = tmp_path / "problem.json"
        path.write_text(
            '{"domain": {"kind": "disk", "radius": 1.0}, '
            + text + ', "f_minus": [[3.0, 1.0]]}'
        )
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2
        assert literal in err and out == ""

    @pytest.mark.parametrize("n", [4097, 10_000_000])
    def test_grid_too_large(self, tmp_path, capsys, n):
        prob = write_problem(tmp_path, {**pair_cfg(), "grid": {"n": n}})
        code, out, err = run(capsys, "density", "--problem", prob)
        assert code == 2
        assert "grid.n" in err and "4096" in err and out == ""

    @pytest.mark.parametrize(
        "data, item",
        [
            ({"f_plus": [0.5, 1.0, 1.0, 1.0], "f_minus": [[3.0, 2.0]]}, "f_plus[0]"),
            ({"f_plus": [[0.0, 2.0]], "f_minus": [3.0, 1.0, 4.0, 1.0]}, "f_minus[0]"),
            ({"f_plus": [[0.5, 1.0, 1.0]], "f_minus": [[3.0, 1.0]]}, "f_plus[0]"),
            ({"g": {"samples": [0.0, 1.0, 3.0, -1.0]}}, "g.samples[0]"),
            ({"g": {"samples": [[0.0, 0.0], [3.0, 1.0]], "jumps": [1.0, 0.5, 4.0, -0.5]}},
             "g.jumps[0]"),
        ],
        ids=["f_plus", "f_minus", "three-columns", "samples", "jumps"],
    )
    def test_flat_lists_rejected(self, tmp_path, capsys, data, item):
        # a flat list of even length once read as pairs; a row of three
        # is no pair either
        prob = write_problem(tmp_path, {"domain": {"kind": "disk", "radius": 1.0}, **data})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert code == 2
        assert item in err and out == ""

    @pytest.mark.parametrize("radius", ["NaN", "Infinity", "1e400"])
    def test_non_finite_radius_rejected(self, tmp_path, capsys, radius):
        path = tmp_path / "problem.json"
        path.write_text(json.dumps(pair_cfg()).replace('"radius": 1.0', f'"radius": {radius}'))
        code, _, err = run(capsys, "solve", "--problem", str(path))
        assert code == 2
        assert radius in err

    @pytest.mark.parametrize(
        "data",
        [
            {"g": {"samples": [[0.0, 1.0], [0.0, 2.0], [3.0, 0.0]]}},
            {"g": {"samples": "x"}},
            {"f_plus": [[0.0, -1.0]], "f_minus": [[math.pi, -1.0]]},
            {"f_plus": [[0.0]], "f_minus": [[math.pi, 1.0]]},
        ],
        ids=["duplicate-sample", "samples-not-numbers", "negative-mass", "atom-without-mass"],
    )
    def test_bad_boundary_data(self, tmp_path, capsys, data):
        cfg = {"domain": {"kind": "disk", "radius": 1.0}, **data}
        prob = write_problem(tmp_path, cfg)
        code, _, err = run(capsys, "solve", "--problem", prob)
        assert code == 2
        assert "bad boundary data" in err

    @pytest.mark.parametrize("where", ["radius", "top"])
    def test_deep_nesting_is_a_schema_error(self, tmp_path, capsys, where):
        # nesting near the recursion limit exhausts it in json.load, its
        # number hook or the message of the radius check; every depth from
        # below the limit to past it is refused, never exit 5
        path = tmp_path / "problem.json"

        def write(n):
            nest = "[" * n + "1" + "]" * n
            if where == "top":
                path.write_text(nest)
            else:
                path.write_text(json.dumps(pair_cfg()).replace('"radius": 1.0', '"radius": ' + nest))

        limit = sys.getrecursionlimit()
        for n in range(limit - 150, limit + 10):
            write(n)
            with pytest.raises(SchemaError):
                load_problem(str(path))
        write(100_000)
        code, out, err = run(capsys, "solve", "--problem", str(path))
        assert (code, out) == (2, "")
        assert err == "schema error: problem file nests its lists or objects too deep\n"


DOMAINS = {
    "disk": {"kind": "disk", "radius": 1.5},
    "ellipse": {"kind": "ellipse", "a": 2.0, "b": 1.0},
    # 48 samples of the profile 1 + 0.05 cos(3 theta)
    "radial": {
        "kind": "radial",
        "rho": [1.0 + 0.05 * math.cos(2 * math.pi * 3 * k / 48) for k in range(48)],
    },
}
NORMS = {
    "euclidean": {"kind": "euclidean"},
    "lq": {"kind": "lq", "q": 3.0},
    "quadratic": {"kind": "quadratic", "a": [[2.0, 0.3], [0.3, 1.0]]},
}


class TestProblemKinds:
    @pytest.mark.parametrize("norm", NORMS)
    @pytest.mark.parametrize("domain", DOMAINS)
    def test_echo_round_trip(self, tmp_path, capsys, domain, norm):
        # the whole echoed config, fed back, gives the same report; a run
        # without a seed echoes "seed": null
        cfg = {**pair_cfg(), "domain": DOMAINS[domain], "norm": NORMS[norm]}
        prob = write_problem(tmp_path, cfg)
        for flag, seed in (([], None), (["--seed", "7"], 7)):
            code, first, _ = run(capsys, "solve", "--problem", prob, *flag)
            assert code == 0
            echo = json.loads(first)["config"]
            assert (echo["domain"], echo["norm"]) == (cfg["domain"], cfg["norm"])
            assert echo["seed"] == seed
            again = write_problem(tmp_path, echo, "again.json")
            assert run(capsys, "solve", "--problem", again) == (0, first, "")

    @pytest.mark.parametrize(
        "section, value, key",
        [
            ("domain", {"kind": "disk", "radius": "1.5"}, "domain.radius"),
            ("domain", {"kind": "disk", "radius": [1]}, "domain.radius"),
            ("domain", {"kind": "ellipse", "a": 2.0, "b": "1"}, "domain.b"),
            ("domain", {"kind": "ellipse", "a": [2.0], "b": 1.0}, "domain.a"),
            ("norm", {"kind": "lq", "q": "2.5"}, "norm.q"),
            ("norm", {"kind": "lq", "q": [3]}, "norm.q"),
            ("norm", {"kind": "lq", "q": None}, "norm.q"),
            ("f_plus", [[0.0, 2.0], ["1.0", 1.0]], "f_plus[1][0]"),
            ("norm", {"kind": "quadratic", "a": [[2.0, 0.3], ["0.3", 1.0]]}, "norm.a[1][0]"),
            ("domain", {"kind": "radial", "rho": [1.0, "1", 1.0]}, "domain.rho[1]"),
            ("domain", {"kind": "radial", "rho": [1.0, 1.0, [1.0]]}, "domain.rho[2]"),
            ("domain", {"kind": "radial", "rho": "1, 1, 1"}, "domain.rho"),
        ],
        ids=["radius-string", "radius-list", "b-string", "a-list", "q-string", "q-list",
             "q-null", "pair-string", "matrix-string", "rho-entry-string", "rho-entry-list",
             "rho-string"],
    )
    def test_scalar_must_be_a_number(self, tmp_path, capsys, section, value, key):
        # only the quadratic norm's a and the radial domain's rho take
        # lists, whose entries are scalars as each element of a pair is
        prob = write_problem(tmp_path, {**pair_cfg(), section: value})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert (code, out) == (2, "")
        assert err.startswith(f"schema error: {key} must be a number, not ")

    @pytest.mark.parametrize(
        "radius, echo",
        [([1, 2], "[1, 2]"), (list(range(200_000)), "[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11...")],
        ids=["short", "long"],
    )
    def test_echoed_value_is_capped(self, tmp_path, capsys, radius, echo):
        # a long value is cut to 40 characters, not echoed whole
        prob = write_problem(tmp_path, {**pair_cfg(), "domain": {"kind": "disk", "radius": radius}})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert (code, out) == (2, "")
        assert err == f"schema error: domain.radius must be a number, not {echo}\n"
        assert len(err) < 100

    def test_int_literals_echo_as_floats(self, tmp_path, capsys):
        cfg = {**pair_cfg(), "domain": {"kind": "disk", "radius": 1},
               "norm": {"kind": "lq", "q": 3}}
        code, out, _ = run(capsys, "solve", "--problem", write_problem(tmp_path, cfg))
        assert code == 0
        assert '"domain": {"kind": "disk", "radius": 1.0}' in out
        assert '"norm": {"kind": "lq", "q": 3.0}' in out

    @pytest.mark.parametrize(
        "section, kind", [("domain", "square"), ("norm", "linf"), ("domain", None)]
    )
    def test_unknown_kind_refused(self, tmp_path, capsys, section, kind):
        prob = write_problem(tmp_path, {**pair_cfg(), section: {"kind": kind}})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert (code, out) == (2, "")
        assert err == f"schema error: unknown {section} kind {kind!r}\n"

    @pytest.mark.parametrize("command", ["solve", "lsg"])
    def test_radial_round_trip(self, tmp_path, capsys, command):
        # the echo holds every sample, and fed back it gives the same report
        cfg = {**cos_cfg(60), "domain": DOMAINS["radial"], "grid": {"n": 32}}
        code, first, _ = run(capsys, command, "--problem", write_problem(tmp_path, cfg))
        assert code == 0
        echo = json.loads(first)["config"]
        assert echo["domain"] == DOMAINS["radial"]
        again = write_problem(tmp_path, echo, "again.json")
        assert run(capsys, command, "--problem", again) == (0, first, "")

    @pytest.mark.parametrize("rho", [[1.0], [1.0, 1.1], 1.0], ids=["1", "2", "scalar"])
    def test_radial_needs_three_samples(self, tmp_path, capsys, rho):
        cfg = {**pair_cfg(), "domain": {"kind": "radial", "rho": rho}}
        code, out, err = run(capsys, "solve", "--problem", write_problem(tmp_path, cfg))
        assert (code, out) == (2, "")
        assert "radial profile needs 3 or more samples" in err

    def test_looping_radial_refused(self, tmp_path, capsys):
        cfg = {**pair_cfg(), "domain": {"kind": "radial", "rho": [1.7, 0.2, 0.2]}}
        code, out, err = run(capsys, "solve", "--problem", write_problem(tmp_path, cfg))
        assert (code, out) == (2, "")
        assert "radial profile's spline must be positive" in err

    @pytest.mark.parametrize(
        "section, value, kind, key",
        [
            ("domain", {"kind": "disk", "radius": 1.0, "a": 5.0}, "disk", "a"),
            ("norm", {"kind": "euclidean", "q": 3.0}, "euclidean", "q"),
            ("norm", {"kind": "lq", "q": 3.0, "a": [[1.0, 0.0], [0.0, 1.0]]}, "lq", "a"),
        ],
        ids=["a-on-disk", "q-on-euclidean", "a-on-lq"],
    )
    def test_key_of_another_kind_refused(self, tmp_path, capsys, section, value, kind, key):
        prob = write_problem(tmp_path, {**pair_cfg(), section: value})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert (code, out) == (2, "")
        assert err == f"schema error: unknown keys in {section} of kind '{kind}': ['{key}']\n"

    def test_missing_key_named(self, tmp_path, capsys):
        prob = write_problem(tmp_path, {**pair_cfg(), "domain": {"kind": "ellipse", "a": 2.0}})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert (code, out) == (2, "")
        assert "domain of kind 'ellipse' needs ['b']" in err

    def test_atom_pairs_are_position_and_mass(self, tmp_path, capsys):
        cfg = {**pair_cfg(), "f_plus": [[0.5, 1.0], [1.0, 2.0]], "f_minus": [[3.0, 3.0]]}
        code, out, _ = run(capsys, "solve", "--problem", write_problem(tmp_path, cfg))
        assert code == 0
        rep = json.loads(out)
        assert rep["entries"] == [[0, 0, 1.0], [1, 0, 2.0]]
        # chords of the unit disk: 2 sin(half the arc)
        assert rep["cost"] == pytest.approx(2 * math.sin(1.25) + 4 * math.sin(1.0), rel=1e-12)

    def test_empty_atom_list_is_infeasible(self, tmp_path, capsys):
        prob = write_problem(tmp_path, {**pair_cfg(), "f_plus": [], "f_minus": []})
        code, out, err = run(capsys, "solve", "--problem", prob)
        assert (code, out) == (3, "")
        assert "at least one atom" in err

    def test_datum_without_jumps(self, tmp_path, capsys):
        # g falls by 2 over [0, 3] and rises back across the seam: one
        # atom of mass 2 at each piece's midpoint
        cfg = {"domain": {"kind": "disk", "radius": 1.0},
               "g": {"samples": [[0.0, 1.0], [3.0, -1.0]]}}
        code, out, _ = run(capsys, "solve", "--problem", write_problem(tmp_path, cfg))
        assert code == 0
        rep = json.loads(out)
        assert rep["config"]["g"] == cfg["g"]
        arc = (3.0 + 2 * math.pi) / 2 - 1.5
        assert rep["cost"] == pytest.approx(4 * math.sin(arc / 2), rel=1e-12)


def test_readme_problem_file_solves(tmp_path, capsys):
    # the example problem file in the README
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme) as fh:
        text = fh.read()
    head = "Problem files are JSON:\n\n```json\n"
    start = text.index(head) + len(head)
    cfg = json.loads(text[start : text.index("```", start)])
    code, out, err = run(capsys, "solve", "--problem", write_problem(tmp_path, cfg))
    assert (code, err) == (0, "")
    assert json.loads(out)["config"]["domain"] == cfg["domain"]


BAD_FLAGS = [
    (["density", "--grid", "0"], "--grid"),
    (["lsg", "--grid", "-5"], "--grid"),
    (["density", "--grid", "4097"], "--grid"),
    (["lsg", "--grid", "4097"], "--grid"),
    (["density", "--tau", "0"], "--tau"),
    (["density", "--tau", "1.5"], "--tau"),
    (["density", "--tau", "nan"], "--tau"),
    (["lp-norm", "--p", "0.5"], "--p"),
    (["lp-norm", "--p", "nan"], "--p"),
    (["bound", "--p", "1"], "--p"),
    (["bound", "--p", "inf"], "--p"),
    (["bound", "--p", "nan"], "--p"),
    (["cex", "--pairs", "0", "--p", "2"], "--pairs"),
    (["cex", "--pairs", "2", "--p", "nan"], "--p"),
    (["cex", "--pairs", "2", "--p", "0.5"], "--p"),
    (["cex", "--pairs", "2", "--p", "2", "--atoms-per-arc", "0"], "--atoms-per-arc"),
    (["cex", "--pairs", "2", "--p", "2", "--grid", "0"], "--grid"),
]


class TestFlags:
    @pytest.mark.parametrize(
        "argv, flag", BAD_FLAGS, ids=[" ".join(argv) for argv, _ in BAD_FLAGS]
    )
    def test_rejected_at_parse_time(self, tmp_path, capsys, argv, flag):
        if argv[0] != "cex":
            argv = argv + ["--problem", write_problem(tmp_path, pair_cfg())]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert f"argument {flag}:" in capsys.readouterr().err

    def test_lp_norm_takes_inf(self, tmp_path, capsys):
        prob = write_problem(tmp_path, pair_cfg())
        code, out, _ = run(capsys, "lp-norm", "--problem", prob, "--p", "inf", "--grid", "32")
        assert code == 0
        assert json.loads(out)["p"] == "inf"


REPORT_KEYS = {"backend", "command", "config", "seed", "version"}


@pytest.mark.parametrize(
    "argv, keys",
    [
        (["solve"], {"cost", "entries", "gap", "solver"}),
        (["density", "--tau", "0.5"], {"cost", "files", "integral", "solver", "tau"}),
        (["lp-norm", "--p", "2", "--tau", "0.5"], {"lp_norm", "p", "solver", "tau"}),
        (
            ["bound", "--p", "2", "--tau", "0.5"],
            {
                "data_integral", "lp_norm_power", "p", "product", "ratio", "solver",
                "tau", "time_integral",
            },
        ),
        (["lsg"], {"cost", "files", "lp_norms", "solver", "trace_error", "tv"}),
    ],
    ids=["solve", "density", "lp-norm", "bound", "lsg"],
)
def test_report_keys(tmp_path, capsys, argv, keys):
    cfg = cos_cfg(100)
    cfg["grid"] = {"n": 32}
    prob = write_problem(tmp_path, cfg)
    code, out, _ = run(capsys, *argv, "--problem", prob)
    assert code == 0
    rep = json.loads(out)
    assert sorted(rep) == sorted(REPORT_KEYS | keys)
    config_keys = {"domain", "g", "norm", "quadrature", "seed"}
    if argv[0] != "solve":
        config_keys.add("grid")
    assert sorted(rep["config"]) == sorted(config_keys)
    assert sorted(rep["solver"]) == ["b_scale", "fallback", "pivots", "seam", "start"]


SEED_COMMANDS = [
    ["solve"],
    ["density"],
    ["lp-norm", "--p", "2"],
    ["bound", "--p", "2", "--tau", "0.5"],
    ["lsg"],
]


@pytest.mark.parametrize("argv", SEED_COMMANDS, ids=[a[0] for a in SEED_COMMANDS])
def test_seed_flag_recorded(tmp_path, capsys, argv):
    cfg = cos_cfg(100)
    cfg["grid"] = {"n": 32}
    plain = write_problem(tmp_path, cfg)
    cfg["seed"] = 3
    seeded = write_problem(tmp_path, cfg, "seeded.json")
    for prob, flag, want in [
        (plain, [], None),
        (plain, ["--seed", "7"], 7),
        (seeded, [], 3),
        (seeded, ["--seed", "7"], 7),
    ]:
        code, out, _ = run(capsys, *argv, "--problem", prob, *flag)
        assert code == 0
        rep = json.loads(out)
        assert rep["seed"] == want and rep["config"]["seed"] == want


@pytest.mark.parametrize(
    "command, key, name", [("lsg", "svg", "rays.svg"), ("density", "pgm", "density.pgm")]
)
def test_plot_without_out_goes_to_cwd(tmp_path, capsys, monkeypatch, command, key, name):
    prob = write_problem(tmp_path, cos_cfg(100))
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, command, "--problem", prob, "--grid", "32", "--svg")
    assert code == 0
    assert json.loads(out)["files"] == {key: os.path.join(".", name)}
    assert (tmp_path / name).stat().st_size > 0
    assert sorted(os.listdir(tmp_path)) == sorted([name, "problem.json"])


@pytest.mark.parametrize("command", ["lp-norm", "bound"])
def test_svg_refused_without_a_plot(tmp_path, capsys, command):
    prob = write_problem(tmp_path, pair_cfg())
    with pytest.raises(SystemExit) as exc:
        main([command, "--problem", prob, "--p", "2", "--svg"])
    assert exc.value.code == 2
    assert "--svg" in capsys.readouterr().err


def test_import_leaves_scipy_out():
    # the CLI, a radial domain and exact cex all run on numpy alone
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    code = (
        "import math, sys; import transportlab.cli; "
        "from transportlab import radial; "
        "from transportlab.cex import run_counterexample; "
        "radial(lambda t: 1 + 0.05 * math.cos(3 * t)); "
        "run_counterexample(6, 2.5, mode='exact'); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_internal_error_exits_5(capsys, monkeypatch):
    # a fault of the program, not of its input: exit 5 with the type named
    def fail(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_cex", fail)
    code, out, err = run(capsys, "cex", "--pairs", "2", "--p", "2")
    assert (code, out) == (5, "")
    assert err == "internal error: RuntimeError: boom\n"


def test_non_finite_costs_exit_2(tmp_path, capsys):
    # |dx|**q overflows at q = 1e6: the solver refuses the costs rather
    # than report an infinite cost and a nan gap, and every command that
    # solves reports them as bad data in one line, with no numpy warning
    lq = {"norm": {"kind": "lq", "q": 1e6}, "grid": {"n": 16}}
    problems = [{**pair_cfg(), **lq}, {**cos_cfg(40), **lq}]
    commands = [["solve"], ["density"], ["lp-norm", "--p", "2"], ["bound", "--p", "2"]]
    for k, cfg in enumerate(problems):
        prob = write_problem(tmp_path, cfg, name=f"problem{k}.json")
        for argv in commands + [["lsg"]] * ("g" in cfg):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code, out, err = run(capsys, *argv, "--problem", prob)
            assert (code, out) == (2, ""), argv
            assert err == (
                "outside the float range: the cost matrix is not finite "
                "(largest |cost| inf)\n"
            )


class TestInfeasible:
    def test_unbalanced_measures(self, tmp_path, capsys):
        cfg = pair_cfg()
        cfg["f_minus"] = [[math.pi, 2.0]]
        prob = write_problem(tmp_path, cfg)
        code, _, err = run(capsys, "solve", "--problem", prob)
        assert code == 3
        assert "unbalanced" in err

    def test_datum_that_does_not_close_up(self, tmp_path, capsys):
        cfg = pair_cfg()
        del cfg["f_plus"], cfg["f_minus"]
        cfg["g"] = {"samples": [[0.0, 1.0], [3.0, 0.0]], "jumps": [[1.0, 0.5]]}
        prob = write_problem(tmp_path, cfg)
        code, _, err = run(capsys, "solve", "--problem", prob)
        assert code == 3
        assert "close up" in err


class TestDensityAndNorms:
    def test_density_outputs(self, tmp_path, capsys):
        prob = write_problem(tmp_path, pair_cfg())
        out_dir = tmp_path / "dens"
        code, out, _ = run(
            capsys,
            "density", "--problem", prob, "--tau", "0.5",
            "--grid", "64", "--out", str(out_dir), "--svg",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["integral"] == pytest.approx(1.0, rel=1e-9)
        assert (out_dir / "density.csv").exists()
        assert (out_dir / "density.pgm").read_bytes().startswith(b"P5")

    def test_lp_norm_report(self, tmp_path, capsys):
        prob = write_problem(tmp_path, pair_cfg())
        code, out, _ = run(
            capsys, "lp-norm", "--problem", prob, "--p", "1.5", "--grid", "64"
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["p"] == 1.5
        assert rep["lp_norm"] > 0

    def test_bound_report(self, tmp_path, capsys):
        cfg = {
            "domain": {"kind": "disk", "radius": 1.0},
            "norm": {"kind": "euclidean"},
            "g": cos_cfg(400)["g"],
            "quadrature": 1,
        }
        prob = write_problem(tmp_path, cfg)
        code, out, _ = run(
            capsys, "bound", "--problem", prob, "--p", "2", "--tau", "0.5",
            "--grid", "128",
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["time_integral"] == pytest.approx(math.log(2), rel=1e-9)
        assert rep["data_integral"] == pytest.approx(math.pi / 2, rel=1e-2)
        assert 0 < rep["ratio"] < 10

    def test_bound_diverges_on_atoms(self, tmp_path, capsys):
        prob = write_problem(tmp_path, pair_cfg())
        code, out, _ = run(
            capsys, "bound", "--problem", prob, "--p", "2", "--tau", "0.5",
            "--grid", "32",
        )
        assert code == 4
        rep = json.loads(out)
        assert rep["data_integral"] == "inf"


    def test_bound_at_large_p(self, tmp_path, capsys):
        # (1 - tau)**(2 - p) leaves the float range at p = 2000: the time
        # factor is inf and the bound diverges; at p = 200 every factor
        # is finite
        cfg = {
            "domain": {"kind": "disk", "radius": 1.0},
            "norm": {"kind": "euclidean"},
            "g": cos_cfg(400)["g"],
            "quadrature": 4,
        }
        prob = write_problem(tmp_path, cfg)
        reps = {}
        for p, want in (("2000", 4), ("200", 0)):
            code, out, err = run(
                capsys, "bound", "--problem", prob, "--p", p, "--tau", "0.5", "--grid", "32"
            )
            assert (code, err) == (want, "")
            reps[p] = json.loads(out)
        assert reps["2000"]["time_integral"] == "inf"
        assert reps["2000"]["product"] == reps["2000"]["ratio"] == "inf"
        assert all(
            isinstance(reps["200"][key], float)
            for key in ("time_integral", "data_integral", "product", "ratio")
        )

    def test_bound_lp_power_overflow(self, tmp_path, capsys, monkeypatch):
        # a finite L^p norm whose p-th power leaves the float range
        from transportlab import density

        monkeypatch.setattr(density, "lp_norm", lambda field, p: 2.0)
        prob = write_problem(tmp_path, pair_cfg())
        code, out, err = run(
            capsys, "bound", "--problem", prob, "--p", "2000", "--tau", "0.5", "--grid", "8"
        )
        assert (code, err) == (4, "")
        assert json.loads(out)["lp_norm_power"] == "inf"


class TestLeastGradient:
    def test_lsg_report_and_field(self, tmp_path, capsys):
        prob = write_problem(tmp_path, cos_cfg())
        out_dir = tmp_path / "lsg"
        code, out, _ = run(
            capsys, "lsg", "--problem", prob, "--out", str(out_dir)
        )
        assert code == 0
        rep = json.loads(out)
        assert rep["cost"] == pytest.approx(math.pi, rel=0.05)
        assert rep["tv"] == pytest.approx(math.pi, rel=0.05)
        assert rep["trace_error"] <= 0.1
        assert set(rep["lp_norms"]) == {"1.5", "2.0"}
        assert (out_dir / "u.csv").exists()

    def test_constant_datum_draws_no_rays(self, tmp_path, capsys, monkeypatch):
        cfg = cos_cfg()
        cfg["g"] = {"samples": [[0.0, 2.0], [1.0, 2.0], [4.0, 2.0]]}
        prob = write_problem(tmp_path, cfg)
        monkeypatch.chdir(tmp_path)
        code, out, _ = run(capsys, "lsg", "--problem", prob, "--grid", "16", "--svg")
        assert code == 0
        rep = json.loads(out)
        assert rep["solver"] is None and rep["files"] == {}
        assert sorted(os.listdir(tmp_path)) == ["problem.json"]

    def test_derivative_taken_once(self, tmp_path, capsys, monkeypatch):
        from transportlab import leastgrad, measures

        calls = []
        original = measures.tangential_derivative

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        # cli imports the name from measures when a command runs, and
        # leastgrad holds it from its own import
        for mod in (measures, leastgrad):
            monkeypatch.setattr(mod, "tangential_derivative", counted)
        prob = write_problem(tmp_path, cos_cfg(100))
        code, _, _ = run(capsys, "lsg", "--problem", prob, "--grid", "16")
        assert code == 0
        assert len(calls) == 1


class TestCounterexample:
    def test_exact_p2(self, capsys):
        code, out, _ = run(capsys, "cex", "--pairs", "8", "--p", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["ratio"] == pytest.approx(2.0, rel=1e-9)

    def test_exact_p3_exits_diverged(self, capsys):
        code, out, _ = run(capsys, "cex", "--pairs", "4", "--p", "3")
        assert code == 4
        rep = json.loads(out)
        assert rep["partial_sum"] == "inf"
        assert all(v == "inf" for v in rep["per_pair"])

    def test_grid_p3_finite(self, tmp_path, capsys):
        out_dir = tmp_path / "cex"
        code, out, _ = run(
            capsys,
            "cex", "--pairs", "4", "--p", "3", "--mode", "grid",
            "--grid", "12", "--atoms-per-arc", "48",
            "--out", str(out_dir), "--svg",
        )
        assert code == 0
        rep = json.loads(out)
        assert all(isinstance(v, float) for v in rep["per_pair"])
        assert "warning" in rep
        assert (out_dir / "arcs.svg").read_text().startswith("<svg")

    @pytest.mark.parametrize("pairs, grid", [("1", "10000000"), ("1", "3000")])
    def test_pair_grid_over_the_cap_refused(self, capsys, pairs, grid):
        code, out, err = run(
            capsys, "cex", "--pairs", pairs, "--p", "2", "--mode", "grid", "--grid", grid
        )
        assert code == 2
        assert out == ""
        assert err.startswith("schema error: --grid:")

    @pytest.mark.parametrize(
        "flag, value", [("--grid", "3000"), ("--atoms-per-arc", "64")]
    )
    def test_grid_flag_refused_in_exact_mode(self, capsys, flag, value):
        code, out, err = run(capsys, "cex", "--pairs", "1", "--p", "2", flag, value)
        assert code == 2
        assert out == ""
        assert err == f"schema error: {flag} applies only to --mode grid\n"

    def test_grid_mode_defaults(self, capsys):
        code, out, _ = run(capsys, "cex", "--pairs", "1", "--p", "2", "--mode", "grid")
        assert code == 0
        rep = json.loads(out)
        assert (rep["grid_n"], rep["atoms_per_arc"]) == (16, 64)
        # the library's defaults are the CLI's
        lib = run_counterexample(1, 2.0, mode="grid")
        assert (lib["grid_n"], lib["atoms_per_arc"]) == (16, 64)

    @pytest.mark.parametrize("svg, builds", [(False, 1), (True, 2)])
    def test_grid_mode_builds_and_checks_once(
        self, tmp_path, capsys, monkeypatch, svg, builds
    ):
        from transportlab import cex

        calls = {"build_arcs": 0, "check_pair_grids": 0}

        def counted(name):
            original = getattr(cex, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(cex, name, counted(name))
        argv = ["cex", "--pairs", "3", "--p", "2", "--mode", "grid"]
        if svg:
            argv += ["--svg", "--out", str(tmp_path)]
        code, _, _ = run(capsys, *argv)
        assert code == 0
        # the SVG lays out its own arcs, and only the report checks grids
        assert calls == {"build_arcs": builds, "check_pair_grids": 1}

    def test_cex_reruns_identical(self, capsys):
        _, a, _ = run(capsys, "cex", "--pairs", "6", "--p", "2.5")
        _, b, _ = run(capsys, "cex", "--pairs", "6", "--p", "2.5")
        assert a == b
