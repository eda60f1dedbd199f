"""Acceptance suite: one test per criterion, one pass/fail line each."""

import json
import math
import random
import time

import pytest

import acceptance_specs as specs
from pemshuffle import cost_model as cm
from pemshuffle.algorithms import complete_sort, machine_with_instance, meta_column_capacity
from pemshuffle.harness import (
    PIPELINES,
    Report,
    _log_term,
    load_pipeline,
    run_pipeline,
    run_sweep,
)
from pemshuffle.machine import (
    CREW,
    EREW,
    Input,
    IOTrace,
    MachineConfig,
    PolicyViolation,
    bsp_star_replay,
    create_machine,
)
from pemshuffle.primitives import gather, prefix_sum, scatter
from pemshuffle.workload import (
    COLUMN_MAJOR,
    MIXED_COLUMN,
    generate,
    oracle_combined_mxv,
    oracle_shuffle,
)


@pytest.fixture(scope="module")
def band_report():
    return run_sweep(specs.BAND_SPEC)


@pytest.fixture(scope="module")
def combined_rows(band_report):
    tight = run_sweep(specs.TIGHT_SPEC)
    return band_report.rows + tight.rows


def announce(n, name, ok, detail=""):
    line = f"[acceptance {n}] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_oracle_correctness():
    rng = random.Random(0xACCE5)
    sizes = [4, 8, 16, 32, 64, 128, 256]
    # input layout and map type of each kind of case
    kinds = [(MIXED_COLUMN, "unordered"), (COLUMN_MAJOR, "sorted"),
             (COLUMN_MAJOR, "parallel_map")]
    t0 = time.time()
    cases = 0
    while cases < 200:
        N_M = rng.choice(sizes)
        N_R = rng.choice(sizes)
        H = 2 ** rng.randint(6, 12)
        if H > N_M * N_R:
            continue
        P = rng.choice([1, 2, 4, 8])
        B = rng.choice([2, 4, 8])
        if H < P * B:
            continue
        M = rng.choice([3, 4, 8, 16, 32, 64]) * B
        v = rng.choice([1, 2, 4])
        w = rng.choice([1, 2, 4])
        if v > H / N_M or w > H / N_R:
            continue
        config = MachineConfig(P=P, M=M, B=B)
        kind = cases % 3
        seed = cases
        vectors = [[rng.randrange(1, 10) for _ in range(N_M)] for _ in range(v)]
        if kind == 2 and v > meta_column_capacity(config, H):
            continue
        layout, map_type = kinds[kind]
        inst = generate(N_M, N_R, H, v=v, w=w, layout=layout, seed=seed)
        expected = oracle_combined_mxv(inst, vectors)
        # every instance also goes through direct shuffling and a full sort
        for name in (f"{map_type}_nonparallel", f"{map_type}_parallel",
                     "direct_shuffle", "complete_sort"):
            m, region, run_input = load_pipeline(name, inst, vectors, config)
            out, _ = run_pipeline(name, inst, m, region, run_input)
            if PIPELINES[name].parallel_reduce:
                got = {e.key: e.payload for e in m.region_elements(out)}
                assert all(got[(i + 1, l + 1)] == expected[l][i]
                           for l in range(w) for i in range(N_R)), "combined product mismatch"
            else:
                assert [e.payload for e in m.region_elements(out)] == oracle_shuffle(inst)
            m.assert_memories_empty()
        cases += 1
    elapsed = time.time() - t0
    announce(1, "oracle correctness, 200 random instances",
             cases == 200 and elapsed < 120, f"{elapsed:.1f}s")


def test_criterion_2_io_budget_conformance(combined_rows):
    constants = specs.frozen_constants()
    failures = []
    for r in combined_rows:
        if r["status"] != "ok":
            continue
        c = constants[r["algorithm"]]
        lead = r["leading_term"] or 0.0
        budget = c["C1"] * lead + c["C2"] * _log_term(r["P"])
        if r["measured_io"] > budget + 1e-9:
            failures.append(f"{r['algorithm']} H={r['H']}")
    consts_ok = all(c["C1"] <= 32 and c["C2"] <= 32 for c in constants.values())
    bands_ok = True
    band_detail = []
    for algo in specs.ALL_PIPELINES:
        ratios = [r["measured_io"] / r["leading_term"]
                  for r in combined_rows
                  if r["algorithm"] == algo and r["status"] == "ok"
                  and r["leading_term"] and r["P"] == 4]
        if len(ratios) >= 2:
            band = max(ratios) / min(ratios)
            band_detail.append(f"{algo}:{band:.2f}")
            if band > 4:
                bands_ok = False
    announce(2, "I/O budget conformance with frozen constants",
             not failures and consts_ok and bands_ok,
             f"bands {' '.join(band_detail)}")


def test_criterion_3_machine_invariants(combined_rows):
    m = create_machine(MachineConfig(P=2, M=12, B=4), [(0, [(1, "x")])])
    r = m.parallel_step([Input(0), Input(0)])      # CREW concurrent read
    crew_ok = len(r[0]) == 1 and len(r[1]) == 1
    double_write = False
    try:
        from pemshuffle.machine import Output
        a, b = m.held_sorted(0), m.held_sorted(1)
        m.parallel_step([Output(5, a), Output(5, b)])
    except PolicyViolation:
        double_write = True
    erew_rejects = False
    m2 = create_machine(MachineConfig(P=2, M=12, B=4, policy=EREW),
                        [(0, [(1, "x")])])
    try:
        m2.parallel_step([Input(0), Input(0)])
    except PolicyViolation:
        erew_rejects = True
    # the machine raises on any capacity breach, so a clean sweep is the
    # zero-violation witness
    no_violations = all(r["status"] != "failed" for r in combined_rows)
    announce(3, "machine invariants (CREW/EREW/capacity)",
             crew_ok and double_write and erew_rejects and no_violations)


def test_criterion_4_potential_lemma(band_report):
    sweep_ok = all(r["potential"] in ("pass", "na", "", None)
                   for r in band_report.rows)
    checked = sum(1 for r in band_report.rows if r["potential"] == "pass")
    exact_ok = True
    for B, N_M, N_R, H in ((2, 16, 8, 64), (4, 32, 16, 256), (8, 32, 16, 512)):
        inst = generate(N_M, N_R, H, regularity="both",
                        layout=COLUMN_MAJOR, seed=B)
        assert H / N_M >= B and H % B == 0
        config = MachineConfig(P=2, M=8 * B, B=B)
        m, region = machine_with_instance(config, inst)
        m.observer = IOTrace(config.P)
        mapping = cm.output_blocks(m.region_elements(region), B)
        phi0 = cm.potential(m, mapping.get)
        if phi0 != 0.0:
            exact_ok = False
        out = complete_sort(m, region, inst)
        rep = cm.check_potential_deltas(m.observer, m.initial_image, mapping.get,
                                        config.P, config.M, config.B)
        if not (rep.applicable and not rep.violations):
            exact_ok = False
        if abs(rep.total_delta - (H * math.log2(B) - phi0)) > 1e-9:
            exact_ok = False
    announce(4, "potential-function lemma on transposition runs",
             sweep_ok and checked > 0 and exact_ok,
             f"{checked} sweep runs checked")


def test_criterion_5_bounds_consistency():
    K = 8.0
    worst = 0.0
    invalid_report_numeric = False
    points = 0
    for N in (2 ** 8, 2 ** 10, 2 ** 12):
        for a in (1.15, 1.35, 1.55):
            for P in (1, 2, 4, 8):
                for B in (2, 8):
                    for M_mult in (3, 64):
                        for v in (1, 4):
                            for w in (1, 4):
                                H = int(N ** a)
                                p = cm.Params(N_M=N, N_R=N, H=H, v=v, w=w,
                                              P=P, M=M_mult * B, B=B)
                                if p.failed_preconditions():
                                    continue
                                logp = cm.log2_p(P)
                                for bound, _, cell in cm.LOWER_BOUNDS:
                                    if cell is None:
                                        continue
                                    lower = bound(p)
                                    upper = cm.table1_upper(p, *cell)
                                    if not lower.valid:
                                        if lower.value is not None:
                                            invalid_report_numeric = True
                                        continue
                                    points += 1
                                    ratio = lower.value / (upper.value + logp)
                                    worst = max(worst, ratio)
    # dense parameter points must report invalid, never a number
    dense = cm.Params(N_M=16, N_R=16, H=256, P=2, M=24, B=4)
    for est in (cm.thm1_lower(dense, cm.MIXED), cm.lemma2_lower(dense),
                cm.combined_lower(dense, cm.COLUMN)):
        if est.valid or est.value is not None:
            invalid_report_numeric = True
    announce(5, "bounds consistency (global K <= 8)",
             points > 100 and worst <= K and not invalid_report_numeric,
             f"worst ratio {worst:.2f} over {points} valid pairs")


def test_criterion_6_logarithmic_primitives():
    a_cap, b_cap = 4, 4
    ok = True
    for P in range(1, 65):
        budget = a_cap * math.ceil(math.log2(P)) + b_cap if P > 1 else b_cap
        config = MachineConfig(P=P, M=12, B=4)

        m = create_machine(config)
        contributions = {p: [m.create(p, ("g", p), p)] for p in range(min(P, 4))}
        gather(m, list(range(P)), contributions)
        ok &= m.io_count <= budget

        m = create_machine(config)
        contributions = {p: [m.create(p, ("c", p), p)] for p in range(P)}
        gather(m, list(range(P)), contributions,
               combine=lambda x, y: [(("c", 0), x[0].payload + y[0].payload)])
        ok &= m.io_count <= budget

        m = create_machine(config, [(0, [(i, i) for i in range(4)])])
        scatter(m, 0, list(range(P)))
        ok &= m.io_count <= budget

        m = create_machine(config)
        got = prefix_sum(m, list(range(P)))
        ok &= m.io_count <= budget
        ok &= got == [sum(range(i + 1)) for i in range(P)]
    announce(6, "gather/scatter/prefix within a*ceil(log2 P)+b, a=b=4", ok)


def test_criterion_7_bsp_star_round_trip():
    ok = True
    for ell in range(1, 9):
        config = MachineConfig(P=4, M=12, B=4, policy=EREW)
        m = create_machine(config)
        program = [[(s, (s + 1) % 4, [step, s]) for s in range(4)]
                   for step in range(ell)]
        used = bsp_star_replay(m, program)
        ok &= used == 2 * ell and m.io_count == 2 * ell
    announce(7, "1-relation blockwise exchange replays in exactly 2l I/Os", ok)


def test_golden_io_counts(combined_rows):
    """Every acceptance row repeats the I/O count frozen in the
    measured_io column of golden_sweep.csv."""
    golden = specs.golden_io(specs.frozen_text(specs.GOLDEN_SWEEP_PATH))
    got = specs.golden_io(Report(combined_rows).to_csv())
    moved = sorted(k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k))
    assert not moved, f"{len(moved)} rows changed measured_io, e.g. {moved[:3]}"


def test_golden_report(combined_rows):
    """The BAND+TIGHT sweep CSV and the small-grid bound catalog repeat
    golden_sweep.csv and golden_bounds.csv byte for byte."""
    assert Report(combined_rows).to_csv() == specs.frozen_text(specs.GOLDEN_SWEEP_PATH)
    assert specs.small_bounds_catalog() == specs.frozen_text(specs.GOLDEN_BOUNDS_PATH)


def test_golden_skips():
    """The SKIP_SPEC sweep, skipped rows and their reasons included,
    repeats golden_skips.csv byte for byte."""
    got = run_sweep(specs.SKIP_SPEC).to_csv()
    assert got == specs.frozen_text(specs.GOLDEN_SKIPS_PATH)


def test_golden_erew():
    """The grids/small.cfg sweep under EREW, failed rows and their reasons
    included, repeats golden_erew.csv byte for byte."""
    assert specs.small_erew_sweep() == specs.frozen_text(specs.GOLDEN_EREW_PATH)


def test_criterion_8_determinism(band_report):
    first = band_report.to_csv().encode()
    second = run_sweep(specs.BAND_SPEC).to_csv().encode()
    announce(8, "sweep rerun is byte-identical", first == second,
             f"{len(first)} bytes")


def test_trace_determinism():
    """Two runs of every pipeline in one process leave identical traces."""
    def run():
        rows, traces = specs.pipeline_traces(specs.TRACE_POINTS[0], CREW)
        for row in rows:
            name = row["algorithm"]
            assert row["status"] == "ok", name
            assert row["potential"] == ("pass" if PIPELINES[name].transposition
                                        else "na"), name
        assert all(trace.steps for trace in traces)
        return [specs.trace_digest(trace) for trace in traces]

    first, second = run(), run()
    moved = [name for name, a, b in zip(PIPELINES, first, second) if a != b]
    assert not moved, f"traces differ between runs: {moved}"


def test_golden_traces():
    """Every pipeline at the trace points, under CREW and EREW, repeats
    the full-trace digest frozen in golden_traces.json."""
    golden = json.loads(specs.frozen_text(specs.GOLDEN_TRACES_PATH))
    got = specs.trace_digests()
    moved = sorted(k for k in golden.keys() | got.keys() if golden.get(k) != got.get(k))
    assert not moved, f"{len(moved)} traces moved, e.g. {moved[:3]}"
