"""Batch experiment driver: sweeps, calibration, verification reports.

A sweep crosses a parameter grid with a set of named algorithm
pipelines and seeds.  Every row records the measured parallel I/Os,
the matching leading-term prediction, the lower-bound values, and
correctness / potential verdicts, all parameters inlined so rows are
reproducible on their own.  Reports are plain CSV, rows sorted by key,
so reruns with identical seeds are byte-identical.
"""

from __future__ import annotations

import csv
import gc
import io
import itertools
import json
import math
import random
from dataclasses import dataclass, field
from . import algorithms as alg
from . import cost_model as cm
from .machine import (CREW, EREW, Machine, MachineConfig, Region, SimulationError,
                      create_machine, run_lockstep, write_out)
from .primitives import gather, prefix_sum, scatter
from .workload import (
    COLUMN_MAJOR,
    MIXED_COLUMN,
    MapTask,
    ShuffleInstance,
    elementary_products,
    generate,
    make_map_task,
    oracle_combined_mxv,
    oracle_shuffle,
)

GRID_KEYS = ("N_M", "N_R", "H", "v", "w", "P", "M", "B")


class CalibrationError(RuntimeError):
    pass


@dataclass
class ExperimentSpec:
    """Grid sweep description: value lists per parameter, pipelines, seeds."""

    grid: dict[str, list[int]]
    algorithms: list[str]
    seeds: list[int]
    policy: str = CREW

    def points(self) -> list[dict[str, int]]:
        out: list[dict[str, int]] = [{}]
        for key in GRID_KEYS:
            vals = self.grid.get(key, [1])
            out = [dict(p, **{key: v}) for p in out for v in vals]
        return out


def first_repeat(items: list):
    """The first entry of ``items`` that an earlier one equals, or None."""
    return next((x for i, x in enumerate(items) if x in items[:i]), None)


def parse_spec_text(text: str) -> ExperimentSpec:
    """Parse the line-oriented ``key = value`` config with list syntax.

    A key given on two lines, or an entry listed twice, is an error: it
    would run a row twice or drop a line without a word.
    """
    given: dict[str, list] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if value.startswith("[") and value.endswith("]"):
            items = [x.strip() for x in value[1:-1].split(",") if x.strip()]
        else:
            items = [value]
        if key in GRID_KEYS or key == "seeds":
            try:
                items = [int(x) for x in items]
            except ValueError:
                raise ValueError(f"line {lineno}: {key} values must be integers, "
                                 f"got {value}") from None
            if key in GRID_KEYS and any(x < 1 for x in items):
                raise ValueError(f"line {lineno}: {key} values must be >= 1, got {value}")
        elif key == "policy":
            if value not in (CREW, EREW):
                raise ValueError(f"line {lineno}: unknown policy {value!r}; "
                                 f"known: {CREW}, {EREW}")
        elif key != "algorithms":
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        repeat = first_repeat(items)
        if repeat is not None:
            raise ValueError(f"line {lineno}: {key} lists {repeat!r} twice")
        # a repeated empty list is let through: the command line refuses
        # it for leaving no row to run
        if items and key in given:
            raise ValueError(f"line {lineno}: {key} is given twice")
        given[key] = items
    algorithms = given.get("algorithms", list(PIPELINES))
    for a in algorithms:
        if a not in PIPELINES:
            raise ValueError(f"unknown algorithm {a!r}; known: {', '.join(PIPELINES)}")
    grid = {k: v for k, v in given.items() if k in GRID_KEYS}
    return ExperimentSpec(grid, algorithms, given.get("seeds", [0]),
                          given.get("policy", [CREW])[0])


def load_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


# -- pipelines ----------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    name: str
    layout: str | None            # required instance layout (None: map task)
    cell: tuple[str, str | None]  # cost-model row for the leading term

    @property
    def parallel_reduce(self) -> bool:
        return self.cell[1] == cm.PARALLEL

    @property
    def transposition(self) -> bool:
        """Elements only move: eligible for the potential-delta check."""
        return self.layout is not None and not self.parallel_reduce


PIPELINES: dict[str, Pipeline] = {pipe.name: pipe for pipe in (
    Pipeline("direct_shuffle", MIXED_COLUMN, (cm.DIRECT_SHUFFLE, None)),
    Pipeline("complete_sort", MIXED_COLUMN, (cm.COMPLETE_MERGE, None)),
    Pipeline("unordered_nonparallel", MIXED_COLUMN, (cm.UNORDERED, cm.NONPARALLEL)),
    Pipeline("sorted_nonparallel", COLUMN_MAJOR, (cm.SORTED, cm.NONPARALLEL)),
    Pipeline("parallel_map_nonparallel", None, (cm.PARALLEL_MAP, cm.NONPARALLEL)),
    Pipeline("unordered_parallel", MIXED_COLUMN, (cm.UNORDERED, cm.PARALLEL)),
    Pipeline("sorted_parallel", COLUMN_MAJOR, (cm.SORTED, cm.PARALLEL)),
    Pipeline("parallel_map_parallel", None, (cm.PARALLEL_MAP, cm.PARALLEL)),
    Pipeline("prim_gather", None, ("primitive", None)),
    Pipeline("prim_scatter", None, ("primitive", None)),
    Pipeline("prim_prefix_sum", None, ("primitive", None)),
)}

FIELDNAMES = [
    "algorithm", "seed", "N_M", "N_R", "H", "v", "w", "P", "M", "B", "policy",
    "status", "reason", "measured_io", "leading_term", "log2_p", "R", "d",
    "correct", "potential",
    "lb_thm1_mixed", "lb_thm1_mixed_valid",
    "lb_thm1_column", "lb_thm1_column_valid",
    "lb_thm1_best", "lb_thm1_best_valid",
    "lb_lemma2", "lb_lemma2_valid",
    "lb_transpose", "lb_combined", "lb_combined_valid",
]


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.6g}"
    return "" if x is None else str(x)


def _skip_reason(params: cm.Params, pipe: Pipeline) -> str | None:
    """Skip reason of the first unmet cost-model requirement binding the pipeline."""
    shuffle = pipe.cell[0] != "primitive"
    scopes = (cm.EVERY_PIPELINE, cm.SHUFFLE_PIPELINES if shuffle else None,
              cm.PARALLEL_REDUCE_PIPELINES if pipe.parallel_reduce else None,
              cm.MAP_TASK_PIPELINES if shuffle and pipe.layout is None else None)
    return next((r.skip for r in cm.unmet_requirements(params, scopes)), None)


# Map-dependent step per cost-model map type: (machine, region, loaded
# instance or map task, R) -> output Region or its meta-runs.  The entries
# look their function up in ``alg`` at call time, so a wrapper put on a
# module attribute after import sees the call.
_MAP_STEP = {
    cm.DIRECT_SHUFFLE: lambda m, reg, inst, R: alg.direct_shuffle(m, reg, inst),
    cm.COMPLETE_MERGE: lambda m, reg, inst, R: alg.complete_sort(m, reg, inst),
    cm.UNORDERED: lambda m, reg, inst, R: alg.prepare_map(m, reg, inst, R),
    cm.SORTED: lambda m, reg, inst, R: alg.prepare_map(m, reg, inst, R),
    cm.PARALLEL_MAP: lambda m, reg, task, R: alg.prepare_parallel_map(m, reg, task, R),
}


def load_pipeline(algorithm: str, instance: ShuffleInstance, vectors: list[list[int]],
                  config: MachineConfig) -> tuple[Machine, Region, ShuffleInstance | MapTask]:
    """A fresh machine holding a shuffle pipeline's input for ``instance``:
    its triples, their elementary products for a parallel reduce, or the
    vectors of its map task.  Returns the machine, the loaded region and
    the input the pipeline runs on."""
    pipe = PIPELINES[algorithm]
    if pipe.layout is not None:
        run_input = elementary_products(instance, vectors) if pipe.parallel_reduce else instance
        machine, region = alg.machine_with_instance(config, run_input)
    else:
        run_input = make_map_task(instance, vectors if pipe.parallel_reduce else None)
        machine, region = alg.machine_with_vectors(config, run_input)
    return machine, region, run_input


def run_pipeline(algorithm: str, instance: ShuffleInstance, machine: Machine, region: Region,
                 run_input: ShuffleInstance | MapTask) -> tuple[Region, int | None]:
    """Run a loaded shuffle pipeline's map-dependent step, then its reduce.
    Returns the output region and the map step's meta-run target R (None
    for a pipeline of one step)."""
    pipe = PIPELINES[algorithm]
    H, N_R, w, B = instance.H, instance.N_R, instance.w, machine.config.B
    R = (alg.parallel_run_target(H, N_R, w, B) if pipe.parallel_reduce
         else alg.nonparallel_run_target(H, N_R, B))
    out = _MAP_STEP[pipe.cell[0]](machine, region, run_input, R)
    if isinstance(out, Region):
        return out, None
    if pipe.parallel_reduce:
        return alg.finalize_parallel_reduce(machine, out, N_R, w), R
    return alg.finalize_nonparallel_reduce(machine, out), R


def _instance_layout(pipe: Pipeline) -> str:
    """Layout of the instance a pipeline's rows draw: its own, or
    column-major for a map task."""
    return pipe.layout or COLUMN_MAJOR


def _run_shuffle_pipeline(pipe: Pipeline, point: dict[str, int], seed: int,
                          policy: str) -> dict:
    N_M, N_R, H = point["N_M"], point["N_R"], point["H"]
    v, w, P, M, B = point["v"], point["w"], point["P"], point["M"], point["B"]
    config = MachineConfig(P=P, M=M, B=B, policy=policy)
    rng = random.Random((seed << 8) ^ 0x5EED)
    vectors = [[rng.randrange(1, 10) for _ in range(N_M)] for _ in range(v)]

    inst = generate(N_M, N_R, H, v=v, w=w, layout=_instance_layout(pipe), seed=seed)
    machine, region, run_input = load_pipeline(pipe.name, inst, vectors, config)
    tracker = None
    if pipe.transposition:
        blocks = cm.output_blocks(machine.region_elements(region), B)
        tracker = cm.track_potential(machine, blocks.get)
    out, R = run_pipeline(pipe.name, inst, machine, region, run_input)

    # correctness verdict: a grid holds each (row, destination) cell once
    if pipe.parallel_reduce:
        got = _key_payloads(machine.region_elements(out))
        expected = oracle_combined_mxv(inst, vectors)
        want = {(i + 1, l + 1): expected[l][i] for l in range(w) for i in range(N_R)}
        ok = len(got) == len(want) and dict(got) == want
    else:
        ok = [e.payload for e in machine.region_elements(out)] == oracle_shuffle(inst)
    machine.assert_memories_empty()
    potential = "na" if tracker is None else "pass" if tracker.report().ok() else "fail"
    return {"R": R, "d": alg.merge_degree(H, P, B, M), "measured_io": machine.io_count,
            "correct": "pass" if ok else "fail", "potential": potential}


def _key_payloads(elems) -> list[tuple]:
    return [(e.key, e.payload) for e in elems]


def _run_primitive(pipe: Pipeline, point: dict[str, int], seed: int,
                   policy: str) -> dict:
    P, M, B = point["P"], point["M"], point["B"]
    config = MachineConfig(P=P, M=M, B=B, policy=policy)
    machine = create_machine(config)
    rng = random.Random(seed)
    base = 0
    if pipe.name == "prim_gather":
        k = min(P, B)
        contributions = {p: [machine.create(p, ("g", p), rng.randrange(100))]
                         for p in range(k)}
        expect = _key_payloads(e for p in range(k) for e in contributions[p])
        out = machine.alloc(1)
        gather(machine, list(range(P)), contributions, out_addr=out)
        ok = sorted(_key_payloads(machine.peek(out))) == sorted(expect)
    elif pipe.name == "prim_scatter":
        src = machine.alloc(1)
        filler = [machine.create(0, ("s", i), i) for i in range(B)]
        run_lockstep(machine, [write_out(machine, 0, src, filler)])
        base = machine.io_count
        got = scatter(machine, src, list(range(P)))
        ok = all(_key_payloads(got.get(p, ())) == _key_payloads(filler)
                 for p in range(P))
        for p, elems in got.items():
            machine.discard(p, elems)
    else:
        values = [rng.randrange(10) for _ in range(P)]
        got = prefix_sum(machine, values)
        ok = got == list(itertools.accumulate(values))
    return {"measured_io": machine.io_count - base, "R": None, "d": None,
            "correct": "pass" if ok else "fail", "potential": "na"}


def _params(point: dict) -> cm.Params:
    return cm.Params(**{k: point[k] for k in GRID_KEYS})


def run_point(algorithm: str, point: dict[str, int], seed: int,
              policy: str = CREW) -> dict:
    """One sweep row: run, measure, price, and attach verdicts.

    A row that runs does so with the cyclic garbage collector paused.
    The simulator's objects form no reference cycles, so reference
    counting frees them all, while on large rows the collector's full
    passes rescanned millions of live elements, blocks and dicts and
    freed nothing.  The pause is process-wide and only changes speed:
    the collector is re-enabled afterwards only if it was enabled on
    entry, and rows run concurrently in one process may end each other's
    pause early.
    """
    pipe = PIPELINES[algorithm]
    row = {"algorithm": algorithm, "seed": seed, "policy": policy,
           **{k: point[k] for k in GRID_KEYS}}
    params = _params(point)
    reason = _skip_reason(params, pipe)
    primitive = pipe.cell[0] == "primitive"
    if reason is not None:
        row.update(status="skipped", reason=reason, correct="", potential="")
    else:
        run = _run_primitive if primitive else _run_shuffle_pipeline
        collecting = gc.isenabled()
        gc.disable()
        try:
            result = run(pipe, point, seed, policy)
        except SimulationError as exc:
            row.update(status="failed", reason=str(exc), correct="fail",
                       potential="")
        else:
            row.update(status="ok", reason="", leading_term=0.0,
                       log2_p=cm.log2_p(point["P"]),
                       **result)
            if not primitive:
                row["leading_term"] = cm.table1_upper(params, *pipe.cell).value
                _attach_bounds(row, params, pipe)
        finally:
            if collecting:
                gc.enable()
    return {f: row.get(f) for f in FIELDNAMES}


def _attach_bounds(row: dict, params: cm.Params, pipe: Pipeline) -> None:
    own = "combined:" + (cm.COLUMN if pipe.layout == COLUMN_MAJOR else cm.MIXED)
    for bound, col, _ in cm.LOWER_BOUNDS:
        if col is None:
            continue
        est = bound(params)
        if col != "lb_combined" or est.formula_id == own:
            row[col] = est.value
            row[col + "_valid"] = est.valid


@dataclass
class Report:
    rows: list[dict]

    def to_csv(self) -> str:
        buf = io.StringIO()
        # a failed row's reason is exception text, which may hold commas
        out = csv.writer(buf, lineterminator="\n")
        out.writerow(FIELDNAMES)
        out.writerows([_fmt(row.get(f)) for f in FIELDNAMES] for row in self.rows)
        return buf.getvalue()

    def ok_rows(self) -> list[dict]:
        return [r for r in self.rows if r["status"] == "ok"]

    def all_pass(self) -> bool:
        return not any(r["status"] == "failed" or r["status"] == "ok"
                       and "fail" in (r["correct"], r["potential"]) for r in self.rows)


def run_sweep(spec: ExperimentSpec) -> Report:
    """Cross grid x algorithms x seeds; one self-contained row each.

    Each (point, seed)'s rows run grouped by instance layout, so the
    pipelines of one layout follow each other and share ``generate``'s
    last draw.
    """
    by_layout = sorted(spec.algorithms, key=lambda a: _instance_layout(PIPELINES[a]))
    rows = []
    for point in spec.points():
        for seed in spec.seeds:
            for algorithm in by_layout:
                rows.append(run_point(algorithm, point, seed, spec.policy))
    rows.sort(key=lambda r: (r["algorithm"], r["seed"],
                             tuple(r[k] for k in GRID_KEYS)))
    return Report(rows)


# -- calibration ---------------------------------------------------------------


def _log_term(P: int) -> float:
    # clamped so single-processor rows still admit a constant budget
    return max(1.0, math.ceil(math.log2(P))) if P > 1 else 1.0


def calibrate(report: Report, min_rows: int = 10) -> dict[str, dict[str, float]]:
    """Least per-algorithm constants with measured <= C1*leading + C2*log.

    Rows without a leading term (primitive microbenches) pin C2; the
    rest pin C1 given that C2.
    """
    by_algo: dict[str, list[dict]] = {}
    for row in report.ok_rows():
        by_algo.setdefault(row["algorithm"], []).append(row)
    out: dict[str, dict[str, float]] = {}
    for algo, rows in sorted(by_algo.items()):
        if len(rows) < min_rows:
            raise CalibrationError(
                f"{algo}: {len(rows)} rows, need at least {min_rows}")
        c2 = 0.0
        for r in rows:
            if not r["leading_term"]:
                z = _log_term(r["P"])
                c2 = max(c2, r["measured_io"] / z)
        c1 = 0.0
        for r in rows:
            lead = r["leading_term"]
            if lead:
                rem = r["measured_io"] - c2 * _log_term(r["P"])
                c1 = max(c1, rem / lead)
        # round the least constants upward so the frozen values still
        # cover the very rows they were fitted on
        up = lambda x: math.ceil(x * 10000) / 10000
        out[algo] = {"C1": up(max(c1, 0.0)), "C2": up(c2)}
    return out


def write_constants(constants: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(constants, fh, indent=2, sort_keys=True)
        fh.write("\n")


# -- verification ---------------------------------------------------------------


@dataclass
class Verdicts:
    budget_ok: bool
    correctness_ok: bool
    potential_ok: bool
    bounds_ok: bool
    failures: list[str] = field(default_factory=list)

    def all_ok(self) -> bool:
        return (self.budget_ok and self.correctness_ok and self.potential_ok
                and self.bounds_ok)


def check_budgets(report: Report, constants: dict) -> list[str]:
    failures = []
    for r in report.ok_rows():
        consts = constants.get(r["algorithm"])
        if consts is None:
            failures.append(f"{r['algorithm']}: no calibrated constants")
            continue
        lead = r["leading_term"] or 0.0
        budget = consts["C1"] * lead + consts["C2"] * _log_term(r["P"])
        if r["measured_io"] > budget + 1e-9:
            failures.append(
                f"{r['algorithm']} seed={r['seed']} H={r['H']}: "
                f"{r['measured_io']} > {budget:.2f}")
    return failures


def check_bounds_consistency(report: Report, K: float = 8.0) -> list[str]:
    """Every valid lower bound within K of its matching upper plus log P."""
    failures = []
    for r in report.ok_rows():
        if not r["leading_term"]:
            continue
        params = _params(r)
        logp = cm.log2_p(r["P"])
        for bound, _, cell in cm.LOWER_BOUNDS:
            if cell is None:
                continue
            lower = bound(params)
            upper = cm.table1_upper(params, *cell)
            if not lower.valid:
                if lower.value is not None:
                    failures.append(f"{lower.formula_id}: invalid but numeric")
                continue
            if lower.value > K * (upper.value + logp) + 1e-9:
                failures.append(
                    f"{lower.formula_id} vs {upper.formula_id} at "
                    f"H={r['H']} P={r['P']}: {lower.value:.1f} > "
                    f"{K}*({upper.value:.1f}+{logp:.1f})")
    return failures


def verify(spec: ExperimentSpec,
           constants: dict | None = None) -> tuple[Report, Verdicts]:
    """Sweep, calibrate (unless given constants), and check every verdict."""
    report = run_sweep(spec)
    if constants is None:
        constants = calibrate(report, min_rows=1)
    budget_failures = check_budgets(report, constants)
    const_ok = all(v["C1"] <= 32 and v["C2"] <= 32 for v in constants.values())
    failed_rows = [r for r in report.rows if r["status"] == "failed"]
    bounds_failures = check_bounds_consistency(report)
    failures = (budget_failures
                + ([] if const_ok else [f"calibrated constants exceed 32: {constants}"])
                + [f"{r['algorithm']} failed: {r['reason']}" for r in failed_rows]
                + bounds_failures)
    return report, Verdicts(
        budget_ok=not budget_failures and const_ok,
        correctness_ok=all(r["correct"] != "fail" for r in report.rows) and not failed_rows,
        potential_ok=all(r["potential"] != "fail" for r in report.rows),
        bounds_ok=not bounds_failures,
        failures=failures,
    )


def bounds_catalog(spec: ExperimentSpec) -> str:
    """CSV formula catalog over the grid: formula_id, parameters, value, valid."""
    lines = ["formula_id,N_M,N_R,H,v,w,P,M,B,value,valid"]
    for point in spec.points():
        params = _params(point)
        ests = ([cm.table1_upper(params, *cell) for cell in cm.COMPLEXITY]
                + [bound(params) for bound, _, _ in cm.LOWER_BOUNDS])
        for est in ests:
            vals = ",".join(str(point[k]) for k in GRID_KEYS)
            lines.append(f"{est.formula_id},{vals},{_fmt(est.value)},{est.valid}")
    return "\n".join(lines) + "\n"
