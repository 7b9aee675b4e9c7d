"""Line coverage of the transportlab package, with no package to install.

    PYTHONPATH=src python scripts/line_coverage.py -m pytest -q
    PYTHONPATH=src python scripts/line_coverage.py some_script.py ARGS...

Runs a module (``-m``) or a script in this process, with its arguments,
under a ``sys.settrace`` collector.  The collector records the ``line``
events of every frame whose code lies under ``src/transportlab/``.  A
module's executable lines are those that the ``co_lines()`` of its
compiled code objects, nested ones included, name.  At the end the
script prints, for each module, how many executable lines were reached
and which were not, then the totals.

Only this process and the threads it starts are traced: the processes
that a run starts (the CLI tests that spawn an interpreter, for one)
are not.  Modules imported before the run starts lose their top-level
lines, so the script imports nothing of the package itself.

Python drops a trace function that raises, as one does when a run
exhausts the recursion limit inside it; every line after that goes
uncounted.  The script then says that its counts are partial and exits
non-zero.

This is a measuring tool: no test or CI step runs it.
"""

from __future__ import annotations

import collections
import os
import runpy
import sys
import threading

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "transportlab")


def executable_lines(path: str) -> set[int]:
    with open(path) as fh:
        code = compile(fh.read(), path, "exec")
    lines, stack = set(), [code]
    while stack:
        co = stack.pop()
        lines.update(line for _, _, line in co.co_lines() if line)
        stack.extend(c for c in co.co_consts if isinstance(c, type(code)))
    return lines


def _ranges(lines: list[int], executable: list[int]) -> str:
    """``lines`` as runs of consecutive executable lines, "a-b" or "a"."""
    index = {line: k for k, line in enumerate(executable)}
    runs = []
    for line in lines:
        if runs and index[line] == index[runs[-1][1]] + 1:
            runs[-1][1] = line
        else:
            runs.append([line, line])
    return ", ".join(f"{a}-{b}" if a != b else f"{a}" for a, b in runs)


def run_traced(argv: list[str]) -> tuple[dict[str, set[int]], int, bool]:
    """Run ``argv`` (``-m module args`` or ``script args``) traced; the
    lines reached per file under the package, the exit code, and
    whether the collector was still installed at the end."""
    reached: dict[str, set[int]] = collections.defaultdict(set)
    files: dict[str, str | None] = {}

    def local(frame, event, arg):
        if event == "line":
            reached[files[frame.f_code.co_filename]].add(frame.f_lineno)
        return local

    def call(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in files:
            path = os.path.abspath(name)
            files[name] = path if path.startswith(PACKAGE + os.sep) else None
        return local if files[name] else None

    sys.argv = argv[1:] if argv[0] == "-m" else argv
    if argv[0] != "-m":  # as python does for a script
        sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
    code = 0
    threading.settrace(call)
    sys.settrace(call)
    try:
        if argv[0] == "-m":
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else int(e.code is not None)
    finally:
        kept = sys.gettrace() is call
        sys.settrace(None)
        threading.settrace(None)
    return reached, code, kept


def main(argv: list[str]) -> int:
    if not argv or argv[0] in ("-h", "--help") or argv == ["-m"]:
        print(__doc__)
        return 2
    reached, code, kept = run_traced(argv)
    total_reached = total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        executable = sorted(executable_lines(path))
        hit = reached.get(path, set()) & set(executable)
        missed = [line for line in executable if line not in hit]
        total_reached += len(hit)
        total += len(executable)
        print(f"{name}: {len(hit)} of {len(executable)} lines reached")
        if missed:
            print(f"  unreached: {_ranges(missed, executable)}")
    print(f"total: {total_reached} of {total} executable lines reached")
    if not kept:
        print("partial counts: the run dropped the line collector, so later lines went uncounted")
        return code or 1
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
