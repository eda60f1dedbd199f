"""Acceptance sweep definitions shared by the test suite.

Run ``python3 tests/acceptance_specs.py`` to regenerate the frozen
calibration constants in tests/data/calibration.json after an
intentional algorithm change, and ``python3 tests/acceptance_specs.py
--golden`` to refreeze the whole BAND+TIGHT sweep CSV in
tests/data/golden_sweep.csv, whose ``measured_io`` column holds every
row's exact I/O count, the bound catalog of grids/small.cfg in
tests/data/golden_bounds.csv, the SKIP_SPEC sweep CSV in
tests/data/golden_skips.csv and the grids/small.cfg sweep under EREW,
failed rows and their reasons included, in tests/data/golden_erew.csv,
and the full-trace digest of every pipeline at the TRACE_POINTS under
CREW and EREW in tests/data/golden_traces.json.  A pure speed-up or
refactor must leave all of them untouched; ``--check`` recomputes them
in memory, writes nothing, names every row whose I/O count or trace
moved and every bound catalog line that changed, and exits 1 if any
file differs.
"""

import contextlib
import csv
import hashlib
import io
import itertools
import json
import os
import sys

# run as a script, this file imports the package from the checkout's src/
sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from observers import Tee
from pemshuffle import cost_model as cm
from pemshuffle.harness import (
    GRID_KEYS,
    PIPELINES,
    ExperimentSpec,
    Report,
    bounds_catalog,
    calibrate,
    load_spec,
    run_point,
    run_sweep,
    write_constants,
)
from pemshuffle.machine import CREW, EREW, IOTrace, Machine

ALL_PIPELINES = [
    "direct_shuffle", "complete_sort",
    "unordered_nonparallel", "sorted_nonparallel", "parallel_map_nonparallel",
    "unordered_parallel", "sorted_parallel", "parallel_map_parallel",
    "prim_gather", "prim_scatter", "prim_prefix_sum",
]

# Asymptotic-tracking configuration: H doubles across 2^10..2^14 at
# fixed (P, B, M, N_R), so measured/leading ratios expose any drift.
BAND_SPEC = ExperimentSpec(
    grid={"N_M": [256], "N_R": [64], "H": [1024, 2048, 4096, 8192, 16384],
          "v": [2], "w": [2], "P": [4], "M": [64], "B": [8]},
    algorithms=ALL_PIPELINES,
    seeds=[0],
)

# Minimum-memory configuration (M = 3B) with more processors.
TIGHT_SPEC = ExperimentSpec(
    grid={"N_M": [128], "N_R": [32], "H": [1024, 4096],
          "v": [1], "w": [1], "P": [8], "M": [24], "B": [4]},
    algorithms=ALL_PIPELINES,
    seeds=[0, 1],
)

# Infeasible and edge points: the skip reason of every sweep requirement
# on every pipeline, next to the rows that do run.
SKIP_SPEC = ExperimentSpec(
    grid={"N_M": [4, 64], "N_R": [4, 64], "H": [16, 64], "v": [1, 9],
          "w": [1, 9], "P": [1, 32], "M": [6, 12], "B": [4]},
    algorithms=ALL_PIPELINES,
    seeds=[0],
)

CALIBRATION_PATH = os.path.join(os.path.dirname(__file__), "data",
                                "calibration.json")
GOLDEN_SWEEP_PATH = os.path.join(os.path.dirname(__file__), "data",
                                 "golden_sweep.csv")
GOLDEN_BOUNDS_PATH = os.path.join(os.path.dirname(__file__), "data",
                                  "golden_bounds.csv")
GOLDEN_SKIPS_PATH = os.path.join(os.path.dirname(__file__), "data",
                                 "golden_skips.csv")
GOLDEN_EREW_PATH = os.path.join(os.path.dirname(__file__), "data",
                                "golden_erew.csv")
GOLDEN_TRACES_PATH = os.path.join(os.path.dirname(__file__), "data",
                                  "golden_traces.json")
SMALL_GRID_PATH = os.path.join(os.path.dirname(__file__), os.pardir,
                               "grids", "small.cfg")


def combined_report() -> Report:
    band = run_sweep(BAND_SPEC)
    tight = run_sweep(TIGHT_SPEC)
    return Report(band.rows + tight.rows)


def regenerate() -> dict:
    constants = calibrate(combined_report(), min_rows=2)
    os.makedirs(os.path.dirname(CALIBRATION_PATH), exist_ok=True)
    write_constants(constants, CALIBRATION_PATH)
    return constants


def frozen_constants() -> dict:
    with open(CALIBRATION_PATH, "r", encoding="utf-8") as fh:
        return json.load(fh)


def row_id(row: dict) -> str:
    """Stable name of one acceptance row: algorithm, seed and grid point."""
    grid = " ".join(f"{k}={row[k]}" for k in GRID_KEYS)
    return f"{row['algorithm']} seed={row['seed']} {grid}"


def golden_io(sweep_csv: str) -> dict[str, str]:
    """The ``measured_io`` column of a sweep CSV's text, by row name."""
    return {row_id(r): r["measured_io"]
            for r in csv.DictReader(io.StringIO(sweep_csv))}


def small_bounds_catalog() -> str:
    return bounds_catalog(load_spec(SMALL_GRID_PATH))


def small_erew_sweep() -> str:
    """The grids/small.cfg sweep CSV under the EREW policy."""
    spec = load_spec(SMALL_GRID_PATH)
    spec.policy = "erew"
    return run_sweep(spec).to_csv()


# Points whose full traces are frozen: the TIGHT point at H=1024 and a
# small one with P not a power of two, M = 3B and v = w = 2.
TRACE_POINTS = [
    dict(N_M=128, N_R=32, H=1024, v=1, w=1, P=8, M=24, B=4),
    dict(N_M=64, N_R=16, H=256, v=2, w=2, P=3, M=6, B=2),
]


def trace_digest(trace: IOTrace) -> str:
    """SHA-256 of every step record and free record, elements by uid."""
    def uids(elems):
        return tuple(e.uid for e in elems)

    h = hashlib.sha256()
    for t, records in enumerate(trace.steps):
        h.update(repr((t, [rec if rec is None or rec[0] == "I"
                           else (rec[0], rec[1], uids(rec[2]))
                           for rec in records])).encode())
    for t in sorted(trace.free_ops):
        for rec in trace.free_ops[t]:
            h.update(repr((t, rec[0], rec[1], *map(uids, rec[2:]))).encode())
    return h.hexdigest()


@contextlib.contextmanager
def recording_traces():
    """Attach an IOTrace to every machine built inside the block.

    Yields the list the traces are appended to, in machine creation
    order.  A transposition row attaches its potential tracker after
    loading; the trace keeps recording next to it.
    """
    traces: list[IOTrace] = []
    init, track = Machine.__init__, cm.track_potential

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        self.observer = IOTrace(self.config.P)
        traces.append(self.observer)

    def track_and_record(machine, output_block_of):
        trace = machine.observer
        tracker = track(machine, output_block_of)
        machine.observer = Tee(trace, tracker)
        return tracker

    Machine.__init__, cm.track_potential = recording_init, track_and_record
    try:
        yield traces
    finally:
        Machine.__init__, cm.track_potential = init, track


def pipeline_traces(point: dict[str, int], policy: str) -> tuple[list, list]:
    """Every pipeline's row and trace at ``point``, seed 0; a row that
    fails keeps the trace of the steps it made."""
    with recording_traces() as traces:
        rows = [run_point(name, point, 0, policy) for name in PIPELINES]
    if len(traces) != len(rows):
        raise RuntimeError(f"{len(rows)} pipelines built {len(traces)} machines")
    return rows, traces


def trace_digests() -> dict[str, str]:
    """The trace digest of every pipeline at every TRACE_POINT, CREW and
    EREW, by row name."""
    digests = {}
    for policy in (CREW, EREW):
        for point in TRACE_POINTS:
            for row, trace in zip(*pipeline_traces(point, policy)):
                digests[f"{row_id(row)} policy={policy}"] = trace_digest(trace)
    return digests


def traces_text() -> str:
    return json.dumps(trace_digests(), indent=2, sort_keys=True) + "\n"


def golden_texts() -> dict[str, str]:
    """The text of every golden file, by path."""
    return {GOLDEN_SWEEP_PATH: combined_report().to_csv(),
            GOLDEN_BOUNDS_PATH: small_bounds_catalog(),
            GOLDEN_SKIPS_PATH: run_sweep(SKIP_SPEC).to_csv(),
            GOLDEN_EREW_PATH: small_erew_sweep(),
            GOLDEN_TRACES_PATH: traces_text()}


def regenerate_golden() -> dict[str, str]:
    texts = golden_texts()
    for path, text in texts.items():
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return golden_io(texts[GOLDEN_SWEEP_PATH])


def io_change(old: str | None, new: str | None) -> int | None:
    """Signed change of a row's I/O count; None unless both are counts."""
    if old and new and old.isdigit() and new.isdigit():
        return int(new) - int(old)
    return None


def check_golden() -> int:
    """Compare the recomputed golden files with the frozen ones; 1 if any
    differ.  The last line tallies the moved rows by direction."""
    texts = golden_texts()
    golden = golden_io(texts[GOLDEN_SWEEP_PATH])
    frozen = golden_io(frozen_text(GOLDEN_SWEEP_PATH))
    changes = []
    for k in sorted(frozen.keys() | golden.keys()):
        if frozen.get(k) != golden.get(k):
            change = io_change(frozen.get(k), golden.get(k))
            changes.append(change)
            signed = "?" if change is None else f"{change:+d}"
            print(f"moved: {k}: {frozen.get(k)} -> {golden.get(k)} ({signed})")
    traces = json.loads(texts[GOLDEN_TRACES_PATH])
    frozen_traces = (json.loads(frozen_text(GOLDEN_TRACES_PATH))
                     if os.path.exists(GOLDEN_TRACES_PATH) else {})
    for k in sorted(frozen_traces.keys() | traces.keys()):
        if frozen_traces.get(k) != traces.get(k):
            print(f"moved trace: {k}: {frozen_traces.get(k)} -> {traces.get(k)}")
    bounds = texts[GOLDEN_BOUNDS_PATH].splitlines()
    frozen_bounds = (frozen_text(GOLDEN_BOUNDS_PATH).splitlines()
                     if os.path.exists(GOLDEN_BOUNDS_PATH) else [])
    for old, new in itertools.zip_longest(frozen_bounds, bounds):
        if old != new:
            print(f"moved bound: {old} -> {new}")
    differ = [path for path, text in texts.items()
              if not os.path.exists(path) or frozen_text(path) != text]
    for path in differ:
        print(f"differs: {os.path.relpath(path)}")
    down = sum(1 for c in changes if c is not None and c < 0)
    up = sum(1 for c in changes if c is not None and c > 0)
    print(f"moved {len(changes)} rows: {down} down, {up} up")
    return 1 if differ else 0


def frozen_text(path: str) -> str:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        return fh.read()


if __name__ == "__main__":
    if sys.argv[1:] == ["--golden"]:
        print(f"{len(regenerate_golden())} rows frozen in {GOLDEN_SWEEP_PATH}")
    elif sys.argv[1:] == ["--check"]:
        sys.exit(check_golden())
    else:
        for algo, c in sorted(regenerate().items()):
            print(f"{algo}: C1={c['C1']} C2={c['C2']}")
