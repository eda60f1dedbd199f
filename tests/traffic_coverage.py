"""Statements of ``src/pemshuffle`` that the project's own traffic never runs.

Usage: python3 tests/traffic_coverage.py

The traffic is what the CLI, the benchmark and the acceptance grids
drive, run in this process under a line tracer (``sys.settrace``), with
every command entering through ``cli.main``:

- the benchmark's sweeps, ``sweep --grid <grid> --seed <s> --out <csv>``
  on ``perfbench/grids/band.cfg`` at seed 0 and on
  ``perfbench/grids/tight.cfg`` at seeds 0 and 1, then the same with
  ``--policy erew``;
- ``verify`` on ``grids/small.cfg`` with and without ``--policy erew``,
  then ``bounds`` and ``calibrate`` on it;
- the eight pipelines of the benchmark's point workloads, one
  ``run_point`` each, at N_M=256, N_R=64, H=4096, P=8, M=128, B=16 with
  v=w=1 for the transpositions and v=w=2 for the map/reduce pipelines.

It prints, per module, the statements (found with ``ast``) of which no
line ran, with their line numbers.  Code only tests reach shows up here:
a candidate for deletion, or for a workload that brings it in.  Stdlib
only, offline; pytest does not collect it.
"""

from __future__ import annotations

import ast
import contextlib
import io
import os
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "pemshuffle")
SWEEPS = [(os.path.join(ROOT, "perfbench", "grids", "band.cfg"), 0),
          (os.path.join(ROOT, "perfbench", "grids", "tight.cfg"), 0),
          (os.path.join(ROOT, "perfbench", "grids", "tight.cfg"), 1)]
SMALL_GRID = os.path.join(ROOT, "grids", "small.cfg")
POINT = {"N_M": 256, "N_R": 64, "H": 4096, "P": 8, "M": 128, "B": 16}
POINT_PIPELINES = {1: ["direct_shuffle", "complete_sort", "unordered_nonparallel",
                       "sorted_nonparallel"],
                   2: ["unordered_parallel", "sorted_parallel", "parallel_map_parallel",
                       "parallel_map_nonparallel"]}


class LineTracer:
    """Lines run per file of the package."""

    def __init__(self):
        self.ran: dict[str, set[int]] = {}
        self.local: dict[str, object] = {}

    def __call__(self, frame, event, arg):
        # global trace function: a local tracer for the package's frames only
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE):
            return None
        local = self.local.get(path)
        if local is None:
            lines = self.ran[path] = set()

            def local(frame, event, arg):
                if event == "line":
                    lines.add(frame.f_lineno)
                return local

            self.local[path] = local
        return local


def _statements(tree: ast.AST):
    """Every statement with the lines that are its own: the whole extent
    less the lines of the statements nested in it.  A ``try`` header and
    a ``global`` or ``nonlocal`` declaration compile to no instruction
    and are left out."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt):
            continue
        if (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue    # a docstring compiles to no instruction
        if isinstance(node, (ast.Try, ast.Global, ast.Nonlocal)):
            continue
        nested = [c for c in ast.iter_child_nodes(node) if isinstance(c, ast.stmt)]
        own = set(range(node.lineno, node.end_lineno + 1))
        for child in nested:
            own -= set(range(child.lineno, child.end_lineno + 1))
        for deco in getattr(node, "decorator_list", ()):
            own |= set(range(deco.lineno, deco.end_lineno + 1))
        yield node.lineno, own


def unexecuted(ran: dict[str, set[int]]) -> dict[str, list[tuple[int, str]]]:
    """Per module: (line, source line) of each statement none of whose
    own lines ran."""
    out = {}
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path, encoding="utf-8") as fh:
            source = fh.read()
        lines = source.splitlines()
        hit = ran.get(path, set())
        missed = sorted({lineno for lineno, own in _statements(ast.parse(source))
                         if not own & hit})
        out[name[:-3]] = [(lineno, lines[lineno - 1].strip()) for lineno in missed]
    return out


def drive() -> None:
    """The traffic: the CLI commands, then the point pipelines.  The
    commands write their output to a temporary directory, and what they
    print is dropped."""
    from pemshuffle import cli, harness

    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        out = os.path.join(tmp, "out")
        for policy in ([], ["--policy", "erew"]):
            for grid, seed in SWEEPS:
                cli.main(["sweep", "--grid", grid, "--seed", str(seed),
                          "--out", out, *policy])
            cli.main(["verify", "--grid", SMALL_GRID, "--out", out, *policy])
        for command in ("bounds", "calibrate"):
            cli.main([command, "--grid", SMALL_GRID, "--out", out])
    for vw, algorithms in POINT_PIPELINES.items():
        for algorithm in algorithms:
            harness.run_point(algorithm, dict(POINT, v=vw, w=vw), 0)


def main() -> int:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    tracer = LineTracer()
    start = time.perf_counter()
    sys.settrace(tracer)
    try:
        import pemshuffle.cli   # noqa: F401  (imported under the tracer)
        drive()
    finally:
        sys.settrace(None)
    elapsed = time.perf_counter() - start
    missed = unexecuted(tracer.ran)
    for module, stmts in missed.items():
        print(f"{module}: {len(stmts)} statements never executed")
        for lineno, text in stmts:
            print(f"  {lineno}: {text}")
    print(f"total: {sum(len(s) for s in missed.values())} statements never executed "
          f"({elapsed:.0f} s traced)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
