import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from pemshuffle import cost_model as cm
from pemshuffle.machine import (
    IOTrace,
    MachineConfig,
    Output,
    Region,
    SimulationError,
    create_machine,
)
from pemshuffle.primitives import (
    contract,
    gather,
    prefix_sum,
    range_bounded_load_balance,
    scatter,
)


def fresh(P, M, B, policy="crew", blocks=()):
    return create_machine(MachineConfig(P=P, M=M, B=B, policy=policy), blocks)


def log_budget(P, a=2, b=2):
    return a * math.ceil(math.log2(P)) + b if P > 1 else b


class TestGather:
    def test_single_processor_write_through(self):
        m = fresh(1, 6, 2)
        contributions = {0: [m.create(0, ("g", i), i) for i in range(2)]}
        addr = gather(m, [0], contributions)
        assert [e.payload for e in m.peek(addr)] == [0, 1]
        assert m.io_count <= 2

    def test_eight_of_eight(self):
        m = fresh(8, 24, 8)
        contributions = {p: [m.create(p, ("g", p), p)] for p in range(8)}
        addr = gather(m, list(range(8)), contributions)
        assert sorted(e.payload for e in m.peek(addr)) == list(range(8))
        assert m.io_count <= 2 * math.ceil(math.log2(8)) + 2

    def test_only_nonempty_contributors_count(self):
        # sixteen processors but at most B=4 can contribute elements
        m = fresh(16, 12, 4)
        contributions = {p: [m.create(p, ("g", p), p)] for p in range(4)}
        addr = gather(m, list(range(16)), contributions)
        assert len(m.peek(addr)) == 4
        assert m.io_count <= 2 * math.ceil(math.log2(4)) + 2

    def test_overflow(self):
        m = fresh(2, 12, 2)
        contributions = {p: [m.create(p, ("g", p, i), i) for i in range(2)]
                         for p in range(2)}
        with pytest.raises(SimulationError):
            gather(m, [0, 1], contributions)

    def test_combining_gather_logp(self):
        for P in (1, 2, 4, 8, 16, 32, 64):
            m = fresh(P, 12, 4)
            contributions = {p: [m.create(p, ("s", p), p)] for p in range(P)}
            addr = gather(m, list(range(P)), contributions,
                          combine=lambda a, b: [(("s", a[0].payload),
                                                 a[0].payload + b[0].payload)])
            assert m.peek(addr)[0].payload == sum(range(P))
            assert m.io_count <= log_budget(P)
            m.assert_memories_empty()


class TestScatter:
    def test_two_targets(self):
        m = fresh(2, 12, 4, blocks=[(0, [(1, "x")])])
        got = scatter(m, 0, [0, 1])
        assert all(len(v) == 1 for v in got.values())
        assert m.io_count <= 2 * 1 + 2

    def test_single_target(self):
        m = fresh(2, 12, 4, blocks=[(0, [(1, "x")])])
        scatter(m, 0, [1])
        assert m.io_count <= 2

    def test_inbox_fanout_writes_each_inbox_once(self):
        m = fresh(8, 24, 8, blocks=[(0, [(i, i) for i in range(8)])])
        trace = m.observer = IOTrace(8)
        scatter(m, 0, list(range(8)))
        writes = {}
        for step in trace.steps:
            for rec in step:
                if rec and rec[0] == "O":
                    writes[rec[1]] = writes.get(rec[1], 0) + 1
        inbox_writes = [c for a, c in writes.items() if a >= 1 << 40]
        assert inbox_writes and all(c == 1 for c in inbox_writes)
        assert m.io_count <= 2 * math.ceil(math.log2(8)) + 2

    def test_budget_across_p(self):
        for P in (1, 2, 3, 5, 8, 16, 33, 64):
            m = fresh(P, 12, 4, blocks=[(0, [(1, "x")])])
            got = scatter(m, 0, list(range(P)))
            assert m.io_count <= log_budget(P)
            for p, elems in got.items():
                m.discard(p, [e for e in elems if m.holds(p, e)])
            m.assert_memories_empty()


def test_primitives_leave_foreign_blocks_alone():
    m = fresh(4, 12, 4, blocks=[(50, [(1, "a"), (2, "b")]), (60, [(3, "c")])])
    before = {50: m.peek(50), 60: m.peek(60)}
    contributions = {p: [m.create(p, ("g", p), p)] for p in range(4)}
    gather(m, [0, 1, 2, 3], contributions)
    scatter(m, 60, [0, 1, 2, 3])
    for p in range(4):
        m.discard(p, [e for e in m.peek(60) if m.holds(p, e)])
    prefix_sum(m, [1, 2, 3, 4])
    assert m.peek(50) == before[50] and m.peek(60) == before[60]


class TestPrefixSum:
    def test_ones(self):
        m = fresh(4, 12, 4)
        assert prefix_sum(m, [1, 1, 1, 1]) == [1, 2, 3, 4]

    def test_single_processor_identity(self):
        m = fresh(1, 12, 4)
        assert prefix_sum(m, [7]) == [7]
        assert m.io_count == 0

    def test_matches_sequential_scan(self):
        rng = random.Random(5)
        values = [rng.randrange(100) for _ in range(8)]
        m = fresh(8, 12, 4)
        got = prefix_sum(m, values)
        acc, expect = 0, []
        for x in values:
            acc += x
            expect.append(acc)
        assert got == expect
        assert m.io_count <= log_budget(8, a=2, b=0)

    def test_non_commutative_operator(self):
        m = fresh(4, 12, 4)
        got = prefix_sum(m, ["a", "b", "c", "d"])
        assert got == ["a", "ab", "abc", "abcd"]

    def test_budget_across_p(self):
        for P in (1, 2, 4, 8, 16, 32, 64):
            m = fresh(P, 12, 4)
            prefix_sum(m, [1] * P)
            assert m.io_count <= log_budget(P)
            m.assert_memories_empty()


def region_of(values, B, key=lambda i, v: (v, 0)):
    blocks = []
    for bi in range(0, len(values), B):
        chunk = values[bi:bi + B]
        blocks.append((bi // B, [(key(bi + o, v), v) for o, v in enumerate(chunk)]))
    return blocks, Region(0, len(blocks), len(values))


class TestLoadBalance:
    def test_spec_example_bounds(self):
        keys = sorted([1 + i % 8 for i in range(16)])
        blocks, region = region_of(keys, 2, key=lambda i, v: (v,))
        m = fresh(4, 8, 2, blocks=blocks)
        spans = range_bounded_load_balance(m, region, 16, 8, lambda e: e.key[0])
        for span in spans:
            assert span.count <= math.ceil(2 * 16 / 4)
            if span.count:
                assert span.key_hi - span.key_lo + 1 <= math.ceil(2 * 8 / 4)
        covered = sorted((s.start, s.end) for s in spans if s.count)
        assert covered[0][0] == 0 and covered[-1][1] == 16
        for (a, b), (c, d) in zip(covered, covered[1:]):
            assert b == c

    def test_single_processor(self):
        keys = [1, 1, 2, 3]
        blocks, region = region_of(keys, 2, key=lambda i, v: (v,))
        m = fresh(1, 6, 2, blocks=blocks)
        spans = range_bounded_load_balance(m, region, 4, 3, lambda e: e.key[0])
        assert spans[0].count == 4
        assert m.io_count == 0

    def test_skewed_multiplicities(self):
        rng = random.Random(11)
        keys = sorted(rng.choice([1, 1, 1, 2, 15, 16]) for _ in range(64))
        blocks, region = region_of(keys, 4, key=lambda i, v: (v,))
        m = fresh(4, 12, 4, blocks=blocks)
        spans = range_bounded_load_balance(m, region, 64, 16, lambda e: e.key[0])
        seen = 0
        for span in spans:
            assert span.count <= math.ceil(2 * 64 / 4)
            if span.count:
                assert span.key_hi - span.key_lo + 1 <= math.ceil(2 * 16 / 4)
            seen += span.count
        assert seen == 64
        budget = 8 * 64 / (4 * 4) + 4 * math.ceil(math.log2(min(4, 4))) + 4
        assert m.io_count <= budget

    def test_unsorted_rejected(self):
        blocks, region = region_of([2, 1, 3, 4, 5, 6, 7, 8], 2,
                                   key=lambda i, v: (v,))
        m = fresh(2, 6, 2, blocks=blocks)
        with pytest.raises(SimulationError):
            range_bounded_load_balance(m, region, 8, 8, lambda e: e.key[0])


def make_sparse_region(machine, cells, B):
    """Write blocks with the given per-block cell lists; return region."""
    start = machine.alloc(len(cells))
    total = 0
    for bi, cell_values in enumerate(cells):
        elems = [machine.create(0, ("c", bi, i), v) for i, v in enumerate(cell_values)]
        machine.parallel_step([Output(start + bi, elems)] +
                              [None] * (machine.config.P - 1))
        machine.discard(0, elems)
        total += len(cell_values)
    return Region(start, len(cells), total)


class TestContract:
    def test_identity_when_full(self):
        m = fresh(2, 12, 4)
        region = make_sparse_region(m, [[1, 2, 3, 4], [5, 6, 7, 8]], 4)
        out = contract(m, region)
        assert [e.payload for e in m.region_elements(out)] == [1, 2, 3, 4, 5, 6, 7, 8]
        m.assert_memories_empty()

    def test_alternating_half_full(self):
        m = fresh(2, 12, 4)
        cells = [[1, 2], [], [3, 4], [], [5, 6], []]
        region = make_sparse_region(m, cells, 4)
        out = contract(m, region)
        assert out.blocks == 2   # 6 elements at B=4
        assert [e.payload for e in m.region_elements(out)] == [1, 2, 3, 4, 5, 6]

    def test_all_empty(self):
        m = fresh(2, 12, 4)
        region = make_sparse_region(m, [[], [], []], 4)
        out = contract(m, region)
        assert out.count == 0

    def test_untouched_blocks_survive(self):
        m = fresh(2, 12, 4, blocks=[(100, [(9, "keep")])])
        region = make_sparse_region(m, [[1], [2, 3]], 4)
        before = m.peek(100)
        contract(m, region)
        assert m.peek(100) == before

    def test_every_processor_feeds_one_block(self):
        # eight one-cell blocks pack into one output block: its owner, the
        # processor holding cell 0, takes seven hand-offs of two I/Os each
        m = fresh(8, 24, 8)
        region = make_sparse_region(m, [[v] for v in range(8)], 8)
        before = m.io_count
        out = contract(m, region)
        assert [e.payload for e in m.region_elements(out)] == list(range(8))
        m.assert_memories_empty()
        # count 1 + prefix sum 6 + stream 1 + hand-offs 14 + final write 1
        assert m.io_count - before == 23

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.lists(st.integers(0, 9), max_size=4), max_size=12),
           st.integers(1, 4))
    def test_matches_filter_pack_oracle(self, cells, P):
        m = fresh(P, 12, 4)
        if not cells:
            cells = [[]]
        region = make_sparse_region(m, cells, 4)
        out = contract(m, region)
        expect = [v for cell in cells for v in cell]
        assert [e.payload for e in m.region_elements(out)] == expect
        budget = 6 * len(cells) / P + 6 * math.ceil(cm.log2_p(P)) + 8
        assert m.io_count - len([c for c in cells]) <= budget
        m.assert_memories_empty()
