"""Batch experiment driver: sweeps, calibration, verification reports.

A sweep crosses a parameter grid with a set of named algorithm
pipelines and seeds.  Every row records the measured parallel I/Os,
the matching leading-term prediction, the lower-bound values, and
correctness / potential verdicts, all parameters inlined so rows are
reproducible on their own.  Reports are plain CSV, rows sorted by key,
so reruns with identical seeds are byte-identical.
"""

from __future__ import annotations

import io
import json
import math
import random
from dataclasses import dataclass, field
from . import algorithms as alg
from . import cost_model as cm
from .machine import CREW, IDLE, Element, MachineConfig, Output, SimulationError, create_machine
from .primitives import gather, prefix_sum, scatter
from .workload import (
    COLUMN_MAJOR,
    MIXED_COLUMN,
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
    output_path: str | None = None
    policy: str = CREW

    def points(self) -> list[dict[str, int]]:
        out: list[dict[str, int]] = [{}]
        for key in GRID_KEYS:
            vals = self.grid.get(key, [1])
            out = [dict(p, **{key: v}) for p in out for v in vals]
        return out


def parse_spec_text(text: str) -> ExperimentSpec:
    """Parse the line-oriented ``key = value`` config with list syntax."""
    grid: dict[str, list[int]] = {}
    algorithms: list[str] = []
    seeds = [0]
    output_path = None
    policy = CREW
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if value.startswith("[") and value.endswith("]"):
            items = [x.strip() for x in value[1:-1].split(",") if x.strip()]
        else:
            items = [value]
        if key in GRID_KEYS:
            grid[key] = [int(x) for x in items]
        elif key == "algorithms":
            algorithms = items
        elif key == "seeds":
            seeds = [int(x) for x in items]
        elif key == "out":
            output_path = value
        elif key == "policy":
            policy = value
        else:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
    if not algorithms:
        algorithms = list(PIPELINES)
    for a in algorithms:
        if a not in PIPELINES:
            raise ValueError(f"unknown algorithm {a!r}; known: {', '.join(PIPELINES)}")
    return ExperimentSpec(grid, algorithms, seeds, output_path, policy)


def load_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_spec_text(fh.read())


# -- pipelines ----------------------------------------------------------------


@dataclass(frozen=True)
class Pipeline:
    name: str
    layout: str | None            # required instance layout (None: map task)
    cell: tuple[str, str | None]  # cost-model row for the leading term
    transposition: bool           # eligible for the potential-delta check
    parallel_reduce: bool = False


PIPELINES: dict[str, Pipeline] = {
    "direct_shuffle": Pipeline("direct_shuffle", MIXED_COLUMN,
                               (cm.DIRECT_SHUFFLE, None), True),
    "complete_sort": Pipeline("complete_sort", MIXED_COLUMN,
                              (cm.COMPLETE_MERGE, None), True),
    "unordered_nonparallel": Pipeline("unordered_nonparallel", MIXED_COLUMN,
                                      (cm.UNORDERED, cm.NONPARALLEL), True),
    "sorted_nonparallel": Pipeline("sorted_nonparallel", COLUMN_MAJOR,
                                   (cm.SORTED, cm.NONPARALLEL), True),
    "parallel_map_nonparallel": Pipeline("parallel_map_nonparallel", None,
                                         (cm.PARALLEL_MAP, cm.NONPARALLEL), False),
    "unordered_parallel": Pipeline("unordered_parallel", MIXED_COLUMN,
                                   (cm.UNORDERED, cm.PARALLEL), False, True),
    "sorted_parallel": Pipeline("sorted_parallel", COLUMN_MAJOR,
                                (cm.SORTED, cm.PARALLEL), False, True),
    "parallel_map_parallel": Pipeline("parallel_map_parallel", None,
                                      (cm.PARALLEL_MAP, cm.PARALLEL), False, True),
    "prim_gather": Pipeline("prim_gather", None, ("primitive", None), False),
    "prim_scatter": Pipeline("prim_scatter", None, ("primitive", None), False),
    "prim_prefix_sum": Pipeline("prim_prefix_sum", None, ("primitive", None), False),
}

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


def _skip_reason(point: dict[str, int], pipe: Pipeline) -> str | None:
    N_M, N_R, H = point["N_M"], point["N_R"], point["H"]
    v, w, P, M, B = point["v"], point["w"], point["P"], point["M"], point["B"]
    if M < 3 * B:
        return "M < 3B"
    if pipe.cell[0] == "primitive":
        return None
    if H > N_M * N_R:
        return "H > N_M*N_R"
    if H < P * B:
        return "H/P < B"
    if pipe.parallel_reduce and w > H / N_R:
        return "w > H/N_R"
    if pipe.layout is None:       # map task pipelines
        if v > H / N_M:
            return "v > H/N_M"
        if v > min(M - B, -(-H // P)):
            return "v > meta-column capacity"
    return None


def _grid_payloads(machine, region) -> list[list]:
    cells = machine.region_elements(region)
    out: dict[tuple[int, int], object] = {}
    for e in cells:
        out[e.key] = e.payload
    return out


def _run_shuffle_pipeline(pipe: Pipeline, point: dict[str, int], seed: int,
                          policy: str) -> dict:
    N_M, N_R, H = point["N_M"], point["N_R"], point["H"]
    v, w, P, M, B = point["v"], point["w"], point["P"], point["M"], point["B"]
    config = MachineConfig(P=P, M=M, B=B, policy=policy)
    rng = random.Random((seed << 8) ^ 0x5EED)
    vectors = [[rng.randrange(1, 10) for _ in range(N_M)] for _ in range(v)]
    row: dict = {"R": None, "d": alg.merge_degree(H, P, B, M)}

    if pipe.layout is not None:
        inst = generate(N_M, N_R, H, v=v, w=w, layout=pipe.layout, seed=seed)
        run_inst = elementary_products(inst, vectors) if pipe.parallel_reduce else inst
        machine, region = alg.machine_with_instance(config, run_inst)
        out_idx: dict[Element, int] = {}
        if pipe.transposition:
            order = sorted(machine.region_elements(region), key=lambda e: e.key)
            out_idx = {e: r // B for r, e in enumerate(order)}
        if pipe.name == "direct_shuffle":
            out = alg.direct_shuffle(machine, region, run_inst)
        elif pipe.name == "complete_sort":
            out = alg.complete_sort(machine, region, run_inst)
        else:
            if pipe.name.startswith("unordered"):
                R = (alg.parallel_run_target(H, N_R, w, B) if pipe.parallel_reduce
                     else alg.nonparallel_run_target(H, N_R, B))
                meta = alg.prepare_unordered_map(machine, region, run_inst, R)
            else:
                R = (alg.parallel_run_target(H, N_R, w, B) if pipe.parallel_reduce
                     else alg.nonparallel_run_target(H, N_R, B))
                meta = alg.prepare_sorted_map(machine, region, run_inst, R)
            row["R"] = meta.R
            if pipe.parallel_reduce:
                out = alg.finalize_parallel_reduce(
                    machine, meta, lambda a, b: a + b, 0, N_R, w)
            else:
                out = alg.finalize_nonparallel_reduce(machine, meta)
    else:
        inst = generate(N_M, N_R, H, v=v, w=w, layout=COLUMN_MAJOR, seed=seed)
        task = make_map_task(inst, vectors if pipe.parallel_reduce else None)
        machine, vec_region = alg.machine_with_vectors(config, task)
        m_cap = alg.meta_column_capacity(config, H)
        meta = alg.prepare_parallel_map(machine, vec_region, task, m_cap,
                                        N_R=N_R, w=w,
                                        parallel_reduce=pipe.parallel_reduce)
        row["R"] = meta.R
        out_idx = {}
        if pipe.parallel_reduce:
            out = alg.finalize_parallel_reduce(
                machine, meta, lambda a, b: a + b, 0, N_R, w)
        else:
            out = alg.finalize_nonparallel_reduce(machine, meta)

    # correctness verdict
    if pipe.parallel_reduce:
        got = _grid_payloads(machine, out)
        expected = oracle_combined_mxv(inst, vectors)
        ok = all(got.get((i + 1, l + 1), 0) == expected[l][i]
                 for l in range(w) for i in range(N_R))
    else:
        got_list = [e.payload for e in machine.region_elements(out)]
        ok = got_list == oracle_shuffle(inst)
    machine.assert_memories_empty()
    row["measured_io"] = machine.io_count
    row["correct"] = "pass" if ok else "fail"

    if pipe.transposition:
        rep = cm.check_potential_deltas(machine.trace, machine.initial_image,
                                        out_idx.get, P, M, B)
        row["potential"] = "pass" if rep.ok() else "fail"
    else:
        row["potential"] = "na"
    return row


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
        machine.parallel_step([Output(src, filler)] + [IDLE] * (P - 1))
        machine.discard(0, filler)
        base = machine.io_count
        got = scatter(machine, src, list(range(P)), tree=True)
        ok = all(_key_payloads(got.get(p, ())) == _key_payloads(filler)
                 for p in range(P))
        for p, elems in got.items():
            machine.discard(p, elems)
    else:
        values = [rng.randrange(10) for _ in range(P)]
        got = prefix_sum(machine, values, lambda a, b: a + b)
        acc = 0
        expect = []
        for x in values:
            acc += x
            expect.append(acc)
        ok = got == expect
    return {"measured_io": machine.io_count - base, "R": None, "d": None,
            "correct": "pass" if ok else "fail", "potential": "na"}


def run_point(algorithm: str, point: dict[str, int], seed: int,
              policy: str = CREW) -> dict:
    """One sweep row: run, measure, price, and attach verdicts."""
    pipe = PIPELINES[algorithm]
    row = {"algorithm": algorithm, "seed": seed, "policy": policy,
           **{k: point[k] for k in GRID_KEYS}}
    reason = _skip_reason(point, pipe)
    if reason is not None:
        row.update(status="skipped", reason=reason, measured_io=None,
                   leading_term=None, log2_p=None, R=None, d=None,
                   correct="", potential="")
        for f in FIELDNAMES:
            row.setdefault(f, None)
        return row
    params = cm.Params(N_M=point["N_M"], N_R=point["N_R"], H=point["H"],
                       v=point["v"], w=point["w"], P=point["P"],
                       M=point["M"], B=point["B"])
    try:
        if pipe.cell[0] == "primitive":
            result = _run_primitive(pipe, point, seed, policy)
            leading = 0.0
        else:
            result = _run_shuffle_pipeline(pipe, point, seed, policy)
            leading = table_leading(params, pipe)
    except SimulationError as exc:
        row.update(status="failed", reason=str(exc), measured_io=None,
                   leading_term=None, log2_p=None, R=None, d=None,
                   correct="fail", potential="")
        for f in FIELDNAMES:
            row.setdefault(f, None)
        return row
    row.update(status="ok", reason="", leading_term=leading,
               log2_p=math.log2(point["P"]) if point["P"] > 1 else 0.0,
               **result)
    if pipe.cell[0] != "primitive":
        _attach_bounds(row, params, pipe)
    for f in FIELDNAMES:
        row.setdefault(f, None)
    return row


def table_leading(params: cm.Params, pipe: Pipeline) -> float:
    est = cm.table1_upper(params, pipe.cell[0], pipe.cell[1])
    return est.value


def _attach_bounds(row: dict, params: cm.Params, pipe: Pipeline) -> None:
    for layout, col in ((cm.MIXED, "lb_thm1_mixed"), (cm.COLUMN, "lb_thm1_column"),
                        (cm.BEST_CASE, "lb_thm1_best")):
        est = cm.thm1_lower(params, layout)
        row[col] = est.value
        row[col + "_valid"] = est.valid
    est = cm.lemma2_lower(params)
    row["lb_lemma2"] = est.value
    row["lb_lemma2_valid"] = est.valid
    row["lb_transpose"] = cm.transpose_lower(params).value
    layout = cm.COLUMN if pipe.layout == COLUMN_MAJOR else cm.MIXED
    est = cm.combined_lower(params, layout)
    row["lb_combined"] = est.value
    row["lb_combined_valid"] = est.valid


@dataclass
class Report:
    rows: list[dict]
    fieldnames: list[str] = field(default_factory=lambda: list(FIELDNAMES))

    def to_csv(self) -> str:
        buf = io.StringIO()
        buf.write(",".join(self.fieldnames) + "\n")
        for row in self.rows:
            buf.write(",".join(_fmt(row.get(f)) for f in self.fieldnames) + "\n")
        return buf.getvalue()

    def ok_rows(self) -> list[dict]:
        return [r for r in self.rows if r["status"] == "ok"]

    def all_pass(self) -> bool:
        for r in self.rows:
            if r["status"] == "failed":
                return False
            if r["status"] == "ok" and r["correct"] == "fail":
                return False
            if r["status"] == "ok" and r["potential"] == "fail":
                return False
        return True


def run_sweep(spec: ExperimentSpec) -> Report:
    """Cross grid x algorithms x seeds; one self-contained row each."""
    rows = []
    for point in spec.points():
        for algorithm in spec.algorithms:
            for seed in spec.seeds:
                rows.append(run_point(algorithm, point, seed, spec.policy))
    rows.sort(key=lambda r: (r["algorithm"], r["seed"],
                             tuple(r[k] for k in GRID_KEYS)))
    return Report(rows)


def write_report(report: Report, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(report.to_csv())


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
            elif r["measured_io"] > c2 * _log_term(r["P"]) + 1e-9:
                raise CalibrationError(
                    f"{algo}: zero leading term but measured exceeds the log budget")
        # round the least constants upward so the frozen values still
        # cover the very rows they were fitted on
        up = lambda x: math.ceil(x * 10000) / 10000
        out[algo] = {"C1": up(max(c1, 0.0)), "C2": up(c2)}
    return out


def write_constants(constants: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(constants, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_constants(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# -- verification ---------------------------------------------------------------


@dataclass
class Verdicts:
    budget_ok: bool
    correctness_ok: bool
    potential_ok: bool
    bounds_ok: bool
    constants: dict
    failures: list[str] = field(default_factory=list)

    def all_ok(self) -> bool:
        return (self.budget_ok and self.correctness_ok and self.potential_ok
                and self.bounds_ok)


def check_budgets(report: Report, constants: dict,
                  tolerance: float = 1e-9) -> list[str]:
    failures = []
    for r in report.ok_rows():
        consts = constants.get(r["algorithm"])
        if consts is None:
            failures.append(f"{r['algorithm']}: no calibrated constants")
            continue
        lead = r["leading_term"] or 0.0
        budget = consts["C1"] * lead + consts["C2"] * _log_term(r["P"])
        if r["measured_io"] > budget + tolerance:
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
        params = cm.Params(N_M=r["N_M"], N_R=r["N_R"], H=r["H"], v=r["v"],
                           w=r["w"], P=r["P"], M=r["M"], B=r["B"])
        logp = math.log2(r["P"]) if r["P"] > 1 else 0.0
        pairs = [
            (cm.thm1_lower(params, cm.MIXED),
             cm.table1_upper(params, cm.UNORDERED, cm.PARALLEL)),
            (cm.thm1_lower(params, cm.COLUMN),
             cm.table1_upper(params, cm.SORTED, cm.PARALLEL)),
            (cm.thm1_lower(params, cm.BEST_CASE),
             cm.table1_upper(params, cm.PARALLEL_MAP, cm.PARALLEL)),
            (cm.lemma2_lower(params),
             cm.table1_upper(params, cm.PARALLEL_MAP, cm.NONPARALLEL)),
            (cm.combined_lower(params, cm.MIXED),
             cm.table1_upper(params, cm.UNORDERED, cm.NONPARALLEL)),
            (cm.combined_lower(params, cm.COLUMN),
             cm.table1_upper(params, cm.SORTED, cm.NONPARALLEL)),
        ]
        for lower, upper in pairs:
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
    failures = []
    budget_failures = check_budgets(report, constants)
    failures.extend(budget_failures)
    const_ok = all(v["C1"] <= 32 and v["C2"] <= 32 for v in constants.values())
    if not const_ok:
        failures.append(f"calibrated constants exceed 32: {constants}")
    correctness_ok = all(r["correct"] != "fail" for r in report.rows)
    potential_ok = all(r["potential"] != "fail" for r in report.rows)
    failed_rows = [r for r in report.rows if r["status"] == "failed"]
    for r in failed_rows:
        failures.append(f"{r['algorithm']} failed: {r['reason']}")
    bounds_failures = check_bounds_consistency(report)
    failures.extend(bounds_failures)
    verdicts = Verdicts(
        budget_ok=not budget_failures and const_ok,
        correctness_ok=correctness_ok and not failed_rows,
        potential_ok=potential_ok,
        bounds_ok=not bounds_failures,
        constants=constants,
        failures=failures,
    )
    return report, verdicts


def bounds_catalog(spec: ExperimentSpec) -> str:
    """CSV formula catalog over the grid: formula_id, parameters, value, valid."""
    lines = ["formula_id,N_M,N_R,H,v,w,P,M,B,value,valid"]
    for point in spec.points():
        params = cm.Params(N_M=point["N_M"], N_R=point["N_R"], H=point["H"],
                           v=point["v"], w=point["w"], P=point["P"],
                           M=point["M"], B=point["B"])
        ests = [
            cm.table1_upper(params, cm.UNORDERED, cm.NONPARALLEL),
            cm.table1_upper(params, cm.UNORDERED, cm.PARALLEL),
            cm.table1_upper(params, cm.SORTED, cm.NONPARALLEL),
            cm.table1_upper(params, cm.SORTED, cm.PARALLEL),
            cm.table1_upper(params, cm.PARALLEL_MAP, cm.NONPARALLEL),
            cm.table1_upper(params, cm.PARALLEL_MAP, cm.PARALLEL),
            cm.table1_upper(params, cm.DIRECT_SHUFFLE),
            cm.table1_upper(params, cm.COMPLETE_MERGE),
            cm.thm1_lower(params, cm.MIXED),
            cm.thm1_lower(params, cm.COLUMN),
            cm.thm1_lower(params, cm.BEST_CASE),
            cm.lemma2_lower(params),
            cm.transpose_lower(params),
            cm.combined_lower(params, cm.MIXED),
            cm.combined_lower(params, cm.COLUMN),
            cm.scatter_gather_floor(params),
        ]
        for est in ests:
            vals = ",".join(str(point[k]) for k in GRID_KEYS)
            lines.append(f"{est.formula_id},{vals},{_fmt(est.value)},{est.valid}")
    return "\n".join(lines) + "\n"
