"""One workload in one fresh process: set up, run whole rounds, check, report.

Started by run.py; prints ``READY <monotonic clock>`` once the workload
is set up, and ``RESULT <json>`` as its last line.  A round runs every
row of the workload once; rounds repeat while one more fits in
--seconds, and at least one runs.
With --trace 1 the tracer wraps the program before the first round and
the output of every pipeline row is checked against the benchmark's own
expected result.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import checks  # noqa: E402  (benchmark module next to this file)

H16 = {"N_M": 1024, "N_R": 256, "H": 1 << 16, "P": 8, "M": 128, "B": 16}
POINT_WORKLOADS = {
    "transpose-h16": (dict(H16, v=1, w=1),
                      ["direct_shuffle", "complete_sort",
                       "unordered_nonparallel", "sorted_nonparallel"]),
    "reduce-h16": (dict(H16, v=2, w=2),
                   ["unordered_parallel", "sorted_parallel",
                    "parallel_map_parallel", "parallel_map_nonparallel"]),
}
WORKLOADS = ("sweep-acceptance",) + tuple(POINT_WORKLOADS)
GRID_KEYS = ("N_M", "N_R", "H", "v", "w", "P", "M", "B")


def typed_row(row: dict) -> dict:
    """A sweep row as the checks read it, whether from CSV or run_point."""
    out = {k: row[k] for k in ("algorithm", "status", "correct", "potential")}
    for k in ("seed", "measured_io") + GRID_KEYS:
        out[k] = None if row[k] in (None, "") else int(row[k])
    return out


class SweepWorkload:
    """BAND at --seed s and TIGHT at s and s+1, through ``pemshuffle sweep``."""

    def __init__(self, seed: int, results: str):
        from pemshuffle import harness
        grids = {name: os.path.join(HERE, "grids", f"{name}.cfg")
                 for name in ("band", "tight")}
        for path in grids.values():
            harness.load_spec(path)         # grid loading is part of set-up
        self.calls = [(grids["band"], "band", seed), (grids["tight"], "tight", seed),
                      (grids["tight"], "tight", seed + 1)]
        self.results = results

    def round(self) -> list[dict]:
        from pemshuffle import cli
        rows = []
        for grid, name, seed in self.calls:
            out = os.path.join(self.results, f"sweep-{name}-seed{seed}.csv")
            with contextlib.redirect_stderr(io.StringIO()):
                cli.main(["sweep", "--grid", grid, "--seed", str(seed), "--out", out])
            with open(out, encoding="utf-8", newline="") as fh:
                rows.extend(typed_row(r) for r in csv.DictReader(fh))
        return rows


class PointWorkload:
    """Some pipelines at one grid point, one ``run_point`` call each."""

    def __init__(self, name: str, seed: int):
        from pemshuffle import harness
        self.point, self.algorithms = POINT_WORKLOADS[name]
        for algo in self.algorithms:
            harness.PIPELINES[algo]         # fail at set-up on an unknown pipeline
        self.seed = seed

    def round(self) -> list[dict]:
        from pemshuffle import harness      # looked up per call: tracing rewraps it
        return [typed_row(harness.run_point(a, self.point, self.seed))
                for a in self.algorithms]


def row_id(row: dict) -> tuple:
    return (row["algorithm"], row["seed"]) + tuple(row[k] for k in GRID_KEYS)


class OutputCheck:
    """Row hook of the traced run: compare each pipeline's output region
    with the result the benchmark computes from the generated instance."""

    def __init__(self):
        self.problems: dict[tuple, list[str]] = {}
        self.faults: list[str] = []
        self.simulation_s: dict[str, float] = {}

    def __call__(self, tracer, row) -> None:
        cap = tracer.capture
        algo = row["algorithm"]
        self.simulation_s[algo] = (self.simulation_s.get(algo, 0.0)
                                   + tracer.incl_s["simulation"] - cap["simulation_s"])
        if algo in checks.PRIMITIVES or row["status"] != "ok":
            return
        machine, inst = cap["machine"], cap["instance"]
        triples = [tuple(t) for t in inst.triples]
        elems = machine.region_elements(cap["output"])
        r = typed_row(row)
        if algo in checks.PARALLEL_REDUCE:
            got = {e.key: e.payload for e in elems}
            found = checks.reduce_problems(triples, cap["vectors"], r["N_R"], r["w"], got)
        else:
            got = [tuple(e.payload) for e in elems]
            found = checks.shuffle_problems(triples, got)
        if found:
            self.problems.setdefault(row_id(r), []).extend(found)
        self.faults += checks.corruption_escapes(r, triples, got, cap.get("vectors"))


def layer_metrics(tracer, check: OutputCheck, rounds: int, wall: float,
                  sim_io_by_pipeline: dict) -> dict:
    """Per-layer figures of the traced run, per round."""
    s, incl, calls = tracer.self_s, tracer.incl_s, tracer.calls
    totals = {
        "machine.step_s": (s["step"], "s"),
        "machine.steps": (tracer.steps, "count"),
        "machine.elements_moved": (tracer.elements_moved, "count"),
        "machine.free_ops": (calls["free"], "count"),
        "machine.free_s": (s["free"], "s"),
        "algorithms.load_s": (incl["load"], "s"),
        "algorithms.self_s": (s["algorithms"], "s"),
        "primitives.s": (incl["primitives"], "s"),
        "primitives.io": (tracer.primitive_io, "count"),
        "workload.generate_s": (incl["generate"], "s"),
        "workload.oracle_s": (incl["oracle"], "s"),
        "cost_model.potential_s": (incl["potential"], "s"),
        "cost_model.bounds_s": (incl["bounds"], "s"),
        "harness.self_s": (s["harness"], "s"),
        "harness.rows": (tracer.rows, "count"),
        "cli.self_s": (s["cli"], "s"),
    }
    for algo in checks.PIPELINES:
        totals[f"algorithms.{algo}.run_s"] = (check.simulation_s.get(algo, 0.0), "s")
    out = {k: (v // rounds if u == "count" else v / rounds, u)
           for k, (v, u) in totals.items()}
    for algo in checks.PIPELINES:
        out[f"sim_io.{algo}"] = (sim_io_by_pipeline.get(algo, 0), "count")
    out["machine.us_per_step"] = (s["step"] / max(1, calls["step"]) * 1e6, "us")
    out["machine.ns_per_element"] = (s["step"] / max(1, tracer.elements_moved) * 1e9, "ns")
    out["cost_model.potential_us_per_step"] = (
        incl["potential"] / max(1, tracer.replayed_steps) * 1e6, "us")
    out["trace.wall_s"] = (wall, "s")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--results", required=True)
    args = ap.parse_args(argv)

    if args.workload in POINT_WORKLOADS:
        workload = PointWorkload(args.workload, args.seed)
    else:
        workload = SweepWorkload(args.seed, args.results)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        return 0

    tracer = check = None
    if args.trace:
        from tracer import Tracer
        tracer, check = Tracer(), OutputCheck()
        tracer.install(check)

    walls, rounds, problems, faults = [], [], [], []
    failed_ids: set = set()
    start = time.perf_counter()
    while True:
        steps_before = tracer.steps if tracer else 0
        t0 = time.perf_counter()
        rows = workload.round()
        walls.append(time.perf_counter() - t0)
        n = len(rounds)
        rounds.append(rows)
        for row in rows:
            found = checks.row_problems(row)
            if found:
                failed_ids.add((n,) + row_id(row))
                problems += found
            faults += checks.corruption_escapes(row)
        if check is not None:
            for rid, found in check.problems.items():
                failed_ids.add((n,) + rid)
                problems += found
            check.problems.clear()
            sim_io = sum(r["measured_io"] or 0 for r in rows)
            if tracer.steps - steps_before != sim_io:
                faults.append(f"round {n}: traced machine.steps "
                               f"{tracer.steps - steps_before} != sim_io {sim_io}")
        # stop before a further round would overrun the run's seconds
        elapsed = time.perf_counter() - start
        if elapsed * (n + 2) / (n + 1) > args.seconds:
            break

    io_per_round = [[(row_id(r), r["measured_io"]) for r in rows] for rows in rounds]
    if any(x != io_per_round[0] for x in io_per_round):
        faults.append("measured I/O counts differ between rounds of one run")
    if check is not None:
        faults += check.faults
    attempted = sum(len(rows) for rows in rounds)
    result = {
        "correct": not faults,
        "attempted": attempted,
        "failed": len(failed_ids),
        "problems": (faults + problems)[:20],
        "rounds": len(rounds),
        "rows_per_round": len(rounds[0]),
        "walls": walls,
        "sim_io": sum(r["measured_io"] or 0 for r in rounds[0]),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        by_pipeline: dict[str, int] = {}
        for r in rounds[0]:
            by_pipeline[r["algorithm"]] = by_pipeline.get(r["algorithm"], 0) + (r["measured_io"] or 0)
        result["layers"] = layer_metrics(tracer, check, len(rounds),
                                         sum(walls) / len(walls), by_pipeline)
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
