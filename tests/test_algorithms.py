import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pemshuffle import algorithms as alg
from pemshuffle import cost_model as cm
from pemshuffle.algorithms import (
    MetaRunSet,
    Run,
    _block_pieces,
    complete_sort,
    direct_shuffle,
    finalize_nonparallel_reduce,
    finalize_parallel_reduce,
    machine_with_instance,
    machine_with_vectors,
    make_direct_plan,
    merge_degree,
    meta_column_capacity,
    nonparallel_run_target,
    parallel_merge_to_R,
    parallel_run_target,
    prepare_map,
    prepare_parallel_map,
    run_elements,
    tile_table,
)
from pemshuffle.harness import PIPELINES, load_pipeline, run_pipeline, run_point
from pemshuffle.machine import (
    CapacityViolation,
    MachineConfig,
    Output,
    create_machine,
)
from pemshuffle.workload import (
    COLUMN_MAJOR,
    LAYOUTS,
    MIXED_COLUMN,
    ShuffleInstance,
    Triple,
    elementary_products,
    generate,
    make_map_task,
    oracle_combined_mxv,
    oracle_shuffle,
)


def region_payloads(machine, region):
    return [e.payload for e in machine.region_elements(region)]


def fingerprint(machine, runs):
    out = []
    for r in runs:
        out.extend(e.payload for e in run_elements(machine, r))
    return sorted(out, key=lambda t: (t.i, t.j))


class TestMergeDegree:
    def test_formula(self):
        assert merge_degree(H=2 ** 12, P=4, B=8, M=64) == \
            math.ceil(max(2, min(2 ** 12 / 32, math.sqrt(2 ** 10), 8)))

    def test_floor_of_two(self):
        assert merge_degree(H=64, P=8, B=8, M=24) == 2

    def test_run_targets(self):
        assert nonparallel_run_target(4096, 64, 8) == 8
        assert parallel_run_target(4096, 64, 16, 8) == 4
        assert nonparallel_run_target(10, 64, 8) == 1


def presorted_runs(machine, n_runs, run_len, B, seed=0):
    rng = random.Random(seed)
    runs = []
    value = 0
    for r in range(n_runs):
        keys = sorted(rng.randrange(1000) for _ in range(run_len))
        region = machine.alloc_region(run_len)
        for bi in range(region.blocks):
            chunk = keys[bi * B:(bi + 1) * B]
            elems = [machine.create(0, (k, value + i), (k, value + i))
                     for i, k in enumerate(chunk)]
            value += len(chunk)
            machine.parallel_step([Output(region.addr(bi), elems)] +
                                  [None] * (machine.config.P - 1))
            machine.discard(0, elems)
        runs.append(Run(region, 0, run_len))
    return runs


class TestParallelMerge:
    def test_sixteen_runs_to_four_in_two_rounds(self):
        m = create_machine(MachineConfig(P=4, M=12, B=4))
        runs = presorted_runs(m, 16, 8, 4)
        meta = parallel_merge_to_R(m, runs, R=4, d=2)
        assert len(meta.runs) == 4
        assert meta.rounds == 2
        for r in meta.runs:
            keys = [e.key for e in run_elements(m, r)]
            assert keys == sorted(keys)

    def test_identity_when_few_runs(self):
        m = create_machine(MachineConfig(P=2, M=12, B=4))
        runs = presorted_runs(m, 3, 8, 4)
        before = m.io_count
        meta = parallel_merge_to_R(m, runs, R=4, d=2)
        assert m.io_count == before
        assert meta.runs == tuple(runs)

    def test_merge_preserves_multiset(self):
        m = create_machine(MachineConfig(P=4, M=12, B=4))
        runs = presorted_runs(m, 7, 12, 4, seed=3)
        everything = sorted(e.payload for r in runs
                            for e in run_elements(m, r))
        meta = parallel_merge_to_R(m, runs, R=2, d=3)
        got = sorted(e.payload for r in meta.runs
                     for e in run_elements(m, r))
        assert got == everything

    def test_sixty_four_to_eight_with_degree_four(self):
        m = create_machine(MachineConfig(P=8, M=24, B=4))
        runs = presorted_runs(m, 64, 4, 4, seed=4)
        meta = parallel_merge_to_R(m, runs, R=8, d=4)
        assert len(meta.runs) == 8
        assert meta.rounds == 2   # ceil(log4(64/8))


class TestPrepareUnordered:
    def test_spec_point(self):
        inst = generate(64, 64, 4096, layout=MIXED_COLUMN, seed=0)
        cfg = MachineConfig(P=8, M=64, B=8)
        m, region = machine_with_instance(cfg, inst)
        R = nonparallel_run_target(4096, 64, 8)
        assert R == 8
        meta = prepare_map(m, region, inst, R)
        assert len(meta.runs) == 8
        for r in meta.runs:
            keys = [e.key for e in run_elements(m, r)]
            assert keys == sorted(keys)
        assert fingerprint(m, meta.runs) == oracle_shuffle(inst)

    def test_local_only_when_fits(self):
        # R >= P and each processor's share fits in one memory load
        inst = generate(16, 16, 128, layout=MIXED_COLUMN, seed=1)
        cfg = MachineConfig(P=4, M=64, B=4)
        m, region = machine_with_instance(cfg, inst)
        meta = prepare_map(m, region, inst, R=8)
        assert meta.rounds == 0
        assert len(meta.runs) <= 8
        # formation only: one read and one write per block
        assert m.io_count <= 2 * math.ceil(region.blocks / 4)

    def test_column_major_input_is_accepted(self):
        # the layout picks the map path, not the pipeline's name
        inst = generate(8, 8, 64, layout=COLUMN_MAJOR, seed=2)
        m, region, run_input = load_pipeline("unordered_nonparallel", inst, [[1] * 8],
                                             MachineConfig(P=2, M=24, B=4))
        out, _ = run_pipeline("unordered_nonparallel", inst, m, region, run_input)
        assert region_payloads(m, out) == oracle_shuffle(inst)
        m.assert_memories_empty()

    def test_composition_equals_oracle(self):
        inst = generate(32, 32, 512, layout=MIXED_COLUMN, seed=3)
        cfg = MachineConfig(P=4, M=32, B=4)
        m, region = machine_with_instance(cfg, inst)
        meta = prepare_map(m, region, inst, nonparallel_run_target(512, 32, 4))
        out = finalize_nonparallel_reduce(m, meta)
        assert region_payloads(m, out) == oracle_shuffle(inst)
        m.assert_memories_empty()


class TestPrepareSorted:
    def test_columns_pass_through_when_few(self):
        inst = generate(4, 64, 256, layout=COLUMN_MAJOR, seed=4)
        cfg = MachineConfig(P=2, M=24, B=4)
        m, region = machine_with_instance(cfg, inst)
        meta = prepare_map(m, region, inst, R=8)
        assert m.io_count == 0
        assert len(meta.runs) <= 8

    def test_thin_rows_dispatch_to_unordered_path(self):
        # H/N_R < B: columns cannot serve the reduce side directly
        inst = generate(32, 64, 128, layout=COLUMN_MAJOR, seed=5)
        cfg = MachineConfig(P=2, M=24, B=4)
        m, region = machine_with_instance(cfg, inst)
        assert inst.H / inst.N_R < cfg.B
        meta = prepare_map(m, region, inst, nonparallel_run_target(128, 64, 4))
        assert fingerprint(m, meta.runs) == oracle_shuffle(inst)
        out = finalize_nonparallel_reduce(m, meta)
        assert region_payloads(m, out) == oracle_shuffle(inst)

    def test_composition_equals_oracle(self):
        inst = generate(32, 16, 512, layout=COLUMN_MAJOR, seed=6)
        cfg = MachineConfig(P=4, M=32, B=4)
        m, region = machine_with_instance(cfg, inst)
        meta = prepare_map(m, region, inst, nonparallel_run_target(512, 16, 4))
        out = finalize_nonparallel_reduce(m, meta)
        assert region_payloads(m, out) == oracle_shuffle(inst)
        m.assert_memories_empty()

    def test_conservation(self):
        inst = generate(16, 8, 128, layout=COLUMN_MAJOR, seed=7)
        cfg = MachineConfig(P=4, M=24, B=4)
        m, region = machine_with_instance(cfg, inst)
        meta = prepare_map(m, region, inst, nonparallel_run_target(128, 8, 4))
        assert fingerprint(m, meta.runs) == oracle_shuffle(inst)

    # (point, forced-column counts, forced-sorting counts) of the
    # (sorted_nonparallel, sorted_parallel) rows at seed 0: at TIGHT
    # H=4096 sorting is cheaper, at the second point the columns are
    @pytest.mark.parametrize("point, columns, sorting", [
        (dict(N_M=128, N_R=32, H=4096, v=1, w=1, P=8, M=24, B=4), (2357, 1440), (1676, 919)),
        (dict(N_M=8, N_R=256, H=2048, v=1, w=1, P=4, M=24, B=4), (2058, 1010), (2312, 1264)),
    ])
    def test_picks_the_cheaper_path(self, monkeypatch, point, columns, sorting):
        def counts():
            return tuple(run_point(a, point, 0)["measured_io"]
                         for a in ("sorted_nonparallel", "sorted_parallel"))

        chosen = counts()
        forced = {}
        for use_columns in (True, False):
            monkeypatch.setattr(alg, "_columns_beat_sorting",
                                lambda *args, use=use_columns: use)
            forced[use_columns] = counts()
        assert (forced[True], forced[False]) == (columns, sorting)
        assert chosen == tuple(map(min, columns, sorting))


class TestPrepareParallelMap:
    def test_nothing_to_do_when_meta_columns_fit(self):
        inst = generate(8, 16, 128, layout=COLUMN_MAJOR, seed=8)
        cfg = MachineConfig(P=2, M=64, B=4)
        m, vec = machine_with_vectors(cfg, make_map_task(inst))
        meta = prepare_parallel_map(m, vec, make_map_task(inst),
                                    nonparallel_run_target(128, 16, 4))
        assert meta.rounds == 0

    def test_one_merge_level(self):
        # 16 columns in meta-columns of 4: four runs merged to 2 in one round
        inst = generate(16, 16, 256, layout=COLUMN_MAJOR, seed=9)
        cfg = MachineConfig(P=2, M=6, B=2)
        assert meta_column_capacity(cfg, inst.H) == 4
        task = make_map_task(inst)
        m, vec = machine_with_vectors(cfg, task)
        meta = prepare_parallel_map(m, vec, task, R=2)
        assert meta.rounds == 1
        assert len(meta.runs) == 2

    def test_emission_conserved(self):
        inst = generate(16, 16, 256, v=2, layout=COLUMN_MAJOR, seed=10)
        cfg = MachineConfig(P=4, M=32, B=4)
        task = make_map_task(inst)
        m, vec = machine_with_vectors(cfg, task)
        meta = prepare_parallel_map(m, vec, task, nonparallel_run_target(256, 16, 4))
        assert fingerprint(m, meta.runs) == oracle_shuffle(inst)

    def test_vectors_above_capacity_rejected(self):
        # a meta-column of one column pins v = 9 > M - B = 8 entries
        inst = generate(16, 16, 256, v=9, layout=COLUMN_MAJOR, seed=11)
        cfg = MachineConfig(P=2, M=12, B=4)
        assert meta_column_capacity(cfg, inst.H) == 8
        task = make_map_task(inst)
        m, vec = machine_with_vectors(cfg, task)
        with pytest.raises(CapacityViolation):
            prepare_parallel_map(m, vec, task, R=4)

    def test_composition_equals_oracle(self):
        inst = generate(32, 16, 512, v=2, layout=COLUMN_MAJOR, seed=12)
        cfg = MachineConfig(P=4, M=48, B=4)
        task = make_map_task(inst)
        m, vec = machine_with_vectors(cfg, task)
        meta = prepare_parallel_map(m, vec, task, nonparallel_run_target(512, 16, 4))
        out = finalize_nonparallel_reduce(m, meta)
        assert region_payloads(m, out) == oracle_shuffle(inst)
        m.assert_memories_empty()


class TestFinalizeNonparallel:
    def test_single_run_passes_through(self):
        m = create_machine(MachineConfig(P=2, M=12, B=4))
        runs = presorted_runs(m, 1, 16, 4)
        before = m.io_count
        out = finalize_nonparallel_reduce(m, MetaRunSet(tuple(runs)))
        assert out == runs[0].region
        assert m.io_count == before

    def test_tile_destinations_hand_case(self):
        # two meta-runs over four rows; hand-computed ceiled prefix table
        m = create_machine(MachineConfig(P=1, M=12, B=2))
        r1 = [Triple(1, 1, 1, 1, 1), Triple(1, 2, 2, 1, 1), Triple(3, 1, 3, 1, 1)]
        r2 = [Triple(1, 3, 4, 1, 1), Triple(2, 3, 5, 1, 1), Triple(2, 4, 6, 1, 1),
              Triple(4, 4, 7, 1, 1)]
        regions = []
        for chunk in (r1, r2):
            region = m.alloc_region(len(chunk))
            for bi in range(region.blocks):
                part = chunk[bi * 2:(bi + 1) * 2]
                elems = [m.create(0, (t.i, t.j), t) for t in part]
                m.parallel_step([Output(region.addr(bi), elems)])
                m.discard(0, elems)
            regions.append(Run(region, 0, len(chunk)))
        meta = MetaRunSet(tuple(regions))
        tiles = tile_table(m, meta)
        # current order: (run1: row1 size2, row3 size1), (run2: row1, row2 size2, row4)
        assert [(t.run, t.row, t.size) for t in tiles] == \
            [(0, 1, 2), (0, 3, 1), (1, 1, 1), (1, 2, 2), (1, 4, 1)]
        out = finalize_nonparallel_reduce(m, meta)
        got = [(t.i, t.j) for t in region_payloads(m, out)]
        assert got == sorted(got)
        # table D: each tile's first staging block, ceiled sizes summed in
        # row-major tile order (1,r0) (1,r1) (2,r1) (3,r0) (4,r1)
        dests = {e.key[1]: e.payload for block in m.external_image().values()
                 for e in block if e.key[0] == "D"}
        assert dests == {0: 0, 2: 1, 3: 2, 1: 3, 4: 4}

    def test_oracle_equality_random_instances(self):
        rng = random.Random(99)
        for trial in range(100):
            n_m = rng.choice([4, 8, 16])
            n_r = rng.choice([4, 8, 16])
            h = min(n_m * n_r, rng.choice([32, 64, 128]))
            P = rng.choice([1, 2, 4])
            B = rng.choice([2, 4])
            if h < P * B:
                continue
            M = rng.choice([3, 4, 8]) * B
            layout = rng.choice([MIXED_COLUMN, COLUMN_MAJOR])
            inst = generate(n_m, n_r, h, layout=layout, seed=trial)
            cfg = MachineConfig(P=P, M=M, B=B)
            m, region = machine_with_instance(cfg, inst)
            meta = prepare_map(m, region, inst, nonparallel_run_target(h, n_r, B))
            out = finalize_nonparallel_reduce(m, meta)
            assert region_payloads(m, out) == oracle_shuffle(inst)
            m.assert_memories_empty()


class TestFinalizeParallel:
    def test_row_sums_match_oracle(self):
        inst = generate(16, 16, 256, seed=13)
        cfg = MachineConfig(P=4, M=24, B=4)
        m, region = machine_with_instance(cfg, inst)
        R = parallel_run_target(inst.H, inst.N_R, 1, cfg.B)
        meta = prepare_map(m, region, inst, R)
        grid = finalize_parallel_reduce(m, meta, inst.N_R, 1)
        expected = oracle_combined_mxv(inst, [[1] * 16])
        got = {e.key: e.payload for e in m.region_elements(grid)}
        assert all(got[(i + 1, 1)] == expected[0][i] for i in range(16))
        m.assert_memories_empty()

    def test_single_processor_sequential(self):
        inst = generate(8, 8, 64, v=2, w=2, seed=14)
        cfg = MachineConfig(P=1, M=24, B=4)
        vectors = [[1, 2, 3, 4, 5, 6, 7, 8], [2, 2, 2, 2, 1, 1, 1, 1]]
        prod = elementary_products(inst, vectors)
        m, region = machine_with_instance(cfg, prod)
        meta = prepare_map(m, region, prod, parallel_run_target(64, 8, 2, 4))
        grid = finalize_parallel_reduce(m, meta, 8, 2)
        expected = oracle_combined_mxv(inst, vectors)
        got = {e.key: e.payload for e in m.region_elements(grid)}
        assert all(got[(i + 1, l + 1)] == expected[l][i]
                   for l in range(2) for i in range(8))

    def test_results_identical_across_p(self):
        inst = generate(32, 16, 512, v=2, w=4, seed=15)
        vectors = [[(3 * j + k) % 7 + 1 for j in range(32)] for k in range(2)]
        prod = elementary_products(inst, vectors)
        results = []
        for P in (1, 2, 4, 8):
            cfg = MachineConfig(P=P, M=48, B=4)
            m, region = machine_with_instance(cfg, prod)
            meta = prepare_map(m, region, prod, parallel_run_target(512, 16, 4, 4))
            grid = finalize_parallel_reduce(m, meta, 16, 4)
            results.append(sorted((e.key, e.payload)
                                  for e in m.region_elements(grid)))
        assert all(r == results[0] for r in results)
        expected = oracle_combined_mxv(inst, vectors)
        got = dict(results[0])
        assert all(got[(i + 1, l + 1)] == expected[l][i]
                   for l in range(4) for i in range(16))


class TestDirectShuffle:
    def test_budget_64(self):
        inst = generate(8, 8, 64, layout=MIXED_COLUMN, seed=16)
        cfg = MachineConfig(P=4, M=12, B=4)
        m, region = machine_with_instance(cfg, inst)
        out = direct_shuffle(m, region, inst)
        assert m.io_count <= 2 * inst.H / cfg.P
        assert region_payloads(m, out) == oracle_shuffle(inst)

    def test_single_cell_blocks_cost_two_h(self):
        inst = generate(4, 4, 12, layout=MIXED_COLUMN, seed=17)
        cfg = MachineConfig(P=1, M=3, B=1)
        m, region = machine_with_instance(cfg, inst)
        direct_shuffle(m, region, inst)
        assert m.io_count == 2 * inst.H

    def test_plan_is_externally_supplied(self):
        inst = generate(8, 8, 64, layout=MIXED_COLUMN, seed=18)
        cfg = MachineConfig(P=2, M=12, B=4)
        m, region = machine_with_instance(cfg, inst)
        out = direct_shuffle(m, region, inst, plan=make_direct_plan(inst))
        assert region_payloads(m, out) == oracle_shuffle(inst)

    def test_below_block_parallelism_equals_oracle(self):
        # H/P = 2 < B: the requirement table skips such sweep rows, but a
        # direct call still runs and answers right
        inst = generate(4, 4, 8, layout=MIXED_COLUMN, seed=19)
        cfg = MachineConfig(P=4, M=12, B=4)
        m, region = machine_with_instance(cfg, inst)
        out = direct_shuffle(m, region, inst)
        assert region_payloads(m, out) == oracle_shuffle(inst)
        m.assert_memories_empty()


class TestCompleteSort:
    def test_random_mixed_equals_oracle(self):
        inst = generate(32, 32, 1024, layout=MIXED_COLUMN, seed=21)
        cfg = MachineConfig(P=4, M=64, B=4)
        m, region = machine_with_instance(cfg, inst)
        out = complete_sort(m, region, inst)
        assert region_payloads(m, out) == oracle_shuffle(inst)
        m.assert_memories_empty()

    def test_presorted_columns_help(self):
        # same triple multiset in both layouts, long columns
        column = generate(16, 64, 1024, layout=COLUMN_MAJOR, seed=22)
        mixed = ShuffleInstance(
            column.N_M, column.N_R, column.H, column.v, column.w,
            MIXED_COLUMN, column.triples, column.seed)
        cfg = MachineConfig(P=4, M=24, B=4)
        m1, r1 = machine_with_instance(cfg, column)
        complete_sort(m1, r1, column)
        m2, r2 = machine_with_instance(cfg, mixed)
        complete_sort(m2, r2, mixed)
        assert m1.io_count <= m2.io_count

    def test_monotone_in_h(self):
        cfg = MachineConfig(P=4, M=24, B=4)
        ios = []
        for h in (256, 512, 1024):
            inst = generate(32, 32, h, layout=MIXED_COLUMN, seed=23)
            m, region = machine_with_instance(cfg, inst)
            complete_sort(m, region, inst)
            ios.append(m.io_count)
        assert ios == sorted(ios)


def test_finalize_single_sliced_run_copies_out():
    # a lone run that covers only part of its region must be materialised
    m = create_machine(MachineConfig(P=2, M=12, B=4))
    runs = presorted_runs(m, 1, 16, 4, seed=8)
    sliced = Run(runs[0].region, 4, 12)
    out = finalize_nonparallel_reduce(m, MetaRunSet((sliced,)))
    assert [e.key for e in m.region_elements(out)] == \
        [e.key for e in run_elements(m, sliced)]
    m.assert_memories_empty()


def test_block_pieces_cover_each_block_once():
    nbs = [3, 0, 2, 5, 0, 1]
    blocks = [(g, b) for g, nb in enumerate(nbs) for b in range(nb)]
    for share in range(1, len(blocks) + 1):
        covered = []
        for lo in range(0, len(blocks), share):
            for g, blo, bhi in _block_pieces(nbs, lo, min(len(blocks), lo + share)):
                assert blo < bhi <= nbs[g]
                covered.extend((g, b) for b in range(blo, bhi))
        assert covered == blocks, share


SHUFFLE_PIPELINES = [name for name, pipe in PIPELINES.items() if pipe.cell[0] != "primitive"]


@st.composite
def small_crew_points(draw):
    """A small CREW machine and instance, with no requirement of the
    cost model's table imposed beyond M >= 3B."""
    P, B = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    M = draw(st.integers(3 * B, 6 * B))
    N_M, N_R = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    H = draw(st.integers(1, N_M * N_R))
    v, w = draw(st.integers(1, 2)), draw(st.integers(1, 2))
    inst = generate(N_M, N_R, H, v=v, w=w, layout=draw(st.sampled_from(LAYOUTS)),
                    seed=draw(st.integers(0, 2 ** 16)))
    return MachineConfig(P=P, M=M, B=B), inst


@settings(max_examples=200, deadline=None, derandomize=True)
@given(small_crew_points())
def test_every_shuffle_pipeline_runs_whatever_the_machine_holds(point):
    cfg, inst = point
    vectors = [[(j * 7 + k) % 9 + 1 for j in range(inst.N_M)] for k in range(inst.v)]
    expected = oracle_combined_mxv(inst, vectors)
    grid = sorted(((i + 1, l + 1), expected[l][i])
                  for l in range(inst.w) for i in range(inst.N_R))
    for name in SHUFFLE_PIPELINES:
        pipe = PIPELINES[name]
        m, region, run_input = load_pipeline(name, inst, vectors, cfg)
        tracker = None
        if pipe.transposition:
            blocks = cm.output_blocks(m.region_elements(region), cfg.B)
            tracker = cm.track_potential(m, blocks.get)
        out, _ = run_pipeline(name, inst, m, region, run_input)
        if pipe.parallel_reduce:
            assert sorted((e.key, e.payload) for e in m.region_elements(out)) == grid, name
        else:
            assert region_payloads(m, out) == oracle_shuffle(inst), name
        m.assert_memories_empty()
        if tracker is not None:
            assert tracker.report().ok(), name
