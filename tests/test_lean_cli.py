"""Each CLI command imports only the layers it runs.

Every call of the program is a fresh process, which compiles every
module it imports, so the module sets below are pinned.  The package
root resolves its public names on first use and must still export the
same objects.
"""

import json
import math
import os
import subprocess
import sys

import pytest

import transportlab

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))

SOLVE = {"cli", "errors", "geom", "measures", "ot", "simplex"}
DENSITY = SOLVE | {"density", "kernels"}
LSG = DENSITY | {"leastgrad"}
CEX_EXACT = {"cex", "cli", "errors", "geom"}
CEX_GRID = CEX_EXACT | {"kernels", "measures", "ot", "simplex"}


def _fresh(script: str, cwd) -> str:
    """stdout of `python -c script` with only src/ on the path."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", script],
        cwd=cwd, env=env, capture_output=True, text=True, check=True,
    )
    return out.stdout


def _problem(tmp_path) -> str:
    s = [2 * math.pi * k / 40 for k in range(40)]
    cfg = {
        "domain": {"kind": "disk", "radius": 1.0},
        "g": {"samples": [[a, math.cos(a)] for a in s]},
        "grid": {"n": 16},
    }
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(cfg))
    return str(path)


@pytest.mark.parametrize(
    "argv, modules",
    [
        (["solve"], SOLVE),
        (["density", "--tau", "0.5", "--out", "out"], DENSITY),
        (["lp-norm", "--p", "2", "--tau", "0.5"], DENSITY),
        (["bound", "--p", "2", "--tau", "0.5"], DENSITY),
        (["lsg", "--out", "out"], LSG),
        (["cex", "--pairs", "3", "--p", "2"], CEX_EXACT),
        (["cex", "--pairs", "2", "--p", "2", "--mode", "grid", "--grid", "4",
          "--atoms-per-arc", "8"], CEX_GRID),
    ],
    ids=["solve", "density", "lp-norm", "bound", "lsg", "cex-exact", "cex-grid"],
)
def test_command_loads_only_its_layers(tmp_path, argv, modules):
    if argv[0] != "cex":
        argv = argv + ["--problem", _problem(tmp_path)]
    script = (
        "import contextlib, io, json, sys\n"
        "from transportlab import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv!r})\n"
        "print(json.dumps([code, sorted(m for m in sys.modules"
        " if m.startswith('transportlab.'))]))\n"
    )
    code, loaded = json.loads(_fresh(script, tmp_path))
    assert code == 0
    assert loaded == sorted(f"transportlab.{m}" for m in modules)


def test_package_root_loads_only_errors(tmp_path):
    script = (
        "import sys, transportlab\n"
        "print(sorted(m for m in sys.modules if m.startswith('transportlab.')))\n"
    )
    assert _fresh(script, tmp_path).strip() == "['transportlab.errors']"


def test_geometry_leaves_numpy_polynomial_out(tmp_path):
    script = "import sys, transportlab.geom\nprint('numpy.polynomial' in sys.modules)\n"
    assert _fresh(script, tmp_path).strip() == "False"


@pytest.mark.parametrize("name", transportlab.__all__)
def test_root_name_is_the_defining_modules_object(name):
    obj = getattr(transportlab, name)
    assert getattr(sys.modules[obj.__module__], name) is obj


def test_dir_and_star_import_cover_all():
    assert set(transportlab.__all__) <= set(dir(transportlab))
    namespace = {}
    exec("from transportlab import *", namespace)
    for name in transportlab.__all__:
        assert namespace[name] is getattr(transportlab, name)


def test_unknown_root_name_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        transportlab.no_such_name
