"""The README's library example runs as printed."""

import math
import os
import re

import pytest

README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def _example() -> str:
    with open(README) as fh:
        text = fh.read()
    found = re.search(r"^## Library example\n+```python\n(.*?)^```$", text, re.M | re.S)
    assert found, "README has no python block under '## Library example'"
    return found.group(1)


def test_library_example_runs(capsys):
    names = {}
    exec(compile(_example(), "README.md", "exec"), names)
    plan, field = names["plan"], names["field"]
    assert abs(plan.gap) <= 1e-9 * plan.cost
    # the full density carries the plan's whole cost
    assert field.integral() == pytest.approx(plan.cost, rel=1e-9)
    printed = capsys.readouterr().out.split()
    assert len(printed) == 4 and all(math.isfinite(float(v)) for v in printed)
