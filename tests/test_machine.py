import pytest

from pemshuffle.machine import (
    CREW,
    EREW,
    CapacityViolation,
    ConfigurationError,
    Input,
    IOTrace,
    MachineConfig,
    MissingBlockError,
    Output,
    PolicyViolation,
    ProvenanceViolation,
    SimulationError,
    act,
    bsp_star_replay,
    create_machine,
    each_share,
    exchange,
    run_lockstep,
)


def simple(P=1, M=6, B=2, policy=CREW, blocks=()):
    return create_machine(MachineConfig(P=P, M=M, B=B, policy=policy), blocks)


class TestCreateMachine:
    def test_single_block(self):
        m = simple(blocks=[(0, [(1, "a"), (2, "b")])])
        assert len(m.peek(0)) == 2
        assert m.io_count == 0

    def test_memory_too_small(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(P=4, M=3, B=2)

    def test_eight_blocks_of_four(self):
        blocks = [(i, [(j, None) for j in range(4)]) for i in range(8)]
        m = simple(P=2, M=12, B=4, blocks=blocks)
        total = sum(len(m.peek(i)) for i in range(8))
        assert total == 32

    def test_overfull_block(self):
        with pytest.raises(ConfigurationError):
            simple(B=2, blocks=[(0, [(1, None), (2, None), (3, None)])])

    def test_bad_processor_count(self):
        with pytest.raises(ConfigurationError):
            MachineConfig(P=0, M=6, B=2)


class TestParallelStep:
    def test_crew_concurrent_read(self):
        m = simple(P=2, M=12, B=4, blocks=[(3, [(1, "x")])])
        r = m.parallel_step([Input(3), Input(3)])
        assert len(r[0]) == 1 and len(r[1]) == 1
        assert m.io_count == 1

    def test_exclusive_write_violation(self):
        m = simple(P=2, M=12, B=4, blocks=[(0, [(1, "x"), (2, "y")])])
        m.parallel_step([Input(0), Input(0)])
        a = m.held_sorted(0)
        b = m.held_sorted(1)
        with pytest.raises(PolicyViolation):
            m.parallel_step([Output(5, a[:1]), Output(5, b[:1])])

    def test_capacity_violation(self):
        # full internal memory plus one more block read, nothing discarded
        m = simple(P=1, M=6, B=2, blocks=[(0, [(1, 0), (2, 0)]),
                                          (1, [(3, 0), (4, 0)]),
                                          (2, [(5, 0), (6, 0)]),
                                          (3, [(7, 0), (8, 0)])])
        for addr in range(3):
            m.parallel_step([Input(addr)])
        assert m.held_count(0) == 6
        with pytest.raises(CapacityViolation):
            m.parallel_step([Input(3)])

    def test_erew_rejects_concurrent_read(self):
        m = simple(P=2, M=12, B=4, policy=EREW, blocks=[(0, [(1, "x")])])
        with pytest.raises(PolicyViolation):
            m.parallel_step([Input(0), Input(0)])

    def test_erew_rejects_read_write_overlap(self):
        m = simple(P=2, M=12, B=4, policy=EREW, blocks=[(0, [(1, "x")])])
        m.parallel_step([Input(0), None])
        e = m.held_sorted(0)
        with pytest.raises(PolicyViolation):
            m.parallel_step([Output(0, e), Input(0)])

    def test_inputs_see_pre_step_image(self):
        m = simple(P=2, M=12, B=4, blocks=[(0, [(1, "old")])])
        m.parallel_step([Input(0), None])
        held = m.held_sorted(0)
        r = m.parallel_step([Output(0, []), Input(0)])
        assert len(r[1]) == 1 and r[1][0].payload == "old"
        assert m.peek(0) == ()
        m.discard(0, held)

    def test_all_idle_rejected(self):
        m = simple(P=2, M=12, B=4)
        with pytest.raises(PolicyViolation):
            m.parallel_step([None, None])

    def test_non_action_rejected_and_not_charged(self):
        m = simple(P=2, M=12, B=4, blocks=[(0, [(1, "x")])])
        with pytest.raises(ConfigurationError, match="processor 0"):
            m.parallel_step(["junk", None])
        with pytest.raises(ConfigurationError, match="processor 1"):
            m.parallel_step([Input(0), 7])
        assert m.io_count == 0 and m.held_count(0) == 0

    def test_absent_block_read_is_error(self):
        m = simple()
        with pytest.raises(MissingBlockError):
            m.parallel_step([Input(17)])

    def test_output_of_foreign_element(self):
        m = simple(P=2, M=12, B=4, blocks=[(0, [(1, "x")])])
        m.parallel_step([Input(0), None])
        e = m.held_sorted(0)
        with pytest.raises(ProvenanceViolation):
            m.parallel_step([None, Output(9, e)])

    def test_monotone_io_count(self):
        m = simple(P=1, M=6, B=2, blocks=[(0, [(1, 0)])])
        seen = []
        for _ in range(5):
            m.parallel_step([Input(0)])
            seen.append(m.io_count)
            m.discard(0, m.held_sorted(0))
        assert seen == sorted(seen) and seen[-1] == 5


class TestFreeOps:
    def test_discard_subset(self):
        m = simple(P=1, M=12, B=4, blocks=[(0, [(i, 0) for i in range(4)])])
        m.parallel_step([Input(0)])
        held = m.held_sorted(0)
        before = m.io_count
        m.discard(0, held[:2])
        assert m.held_count(0) == 2
        assert m.io_count == before

    def test_discard_empty_is_noop(self):
        m = simple()
        m.discard(0, [])
        assert m.io_count == 0

    def test_discard_foreign_element(self):
        m = simple(P=2, M=12, B=4, blocks=[(0, [(1, "x")])])
        m.parallel_step([Input(0), None])
        e = m.held_sorted(0)
        with pytest.raises(ProvenanceViolation):
            m.discard(1, e)

    def test_compute_sort_in_memory(self):
        m = simple(P=1, M=12, B=4,
                   blocks=[(0, [(5, 0), (3, 0), (9, 0), (1, 0)])])
        m.parallel_step([Input(0)])
        before = m.io_count
        out = m.compute(0, lambda held: sorted(held, key=lambda e: e.key))
        assert [e.key for e in out] == [1, 3, 5, 9]
        assert m.held_count(0) == 4
        assert m.io_count == before

    def test_compute_combining(self):
        m = simple(P=1, M=12, B=4, blocks=[(0, [(1, 10), (1, 32)])])
        m.parallel_step([Input(0)])
        out = m.compute(0, lambda held: [((1,), sum(e.payload for e in held))])
        assert len(out) == 1 and out[0].payload == 42
        assert m.held_count(0) == 1

    def test_compute_overflow(self):
        m = simple(P=1, M=6, B=2, blocks=[(0, [(1, 0)])])
        m.parallel_step([Input(0)])
        with pytest.raises(CapacityViolation):
            m.compute(0, lambda held: [(i, None) for i in range(7)])


class TestDeterminism:
    def run_once(self):
        m = simple(P=2, M=12, B=4,
                   blocks=[(0, [(3, "a"), (1, "b")]), (1, [(2, "c")])])
        trace = m.observer = IOTrace(2)
        r = m.parallel_step([Input(0), Input(1)])
        m.parallel_step([Output(2, sorted(r[0], key=lambda e: e.key)),
                         Output(3, r[1])])
        m.discard(0, r[0])
        m.discard(1, r[1])
        image = {a: tuple(e.key for e in blk)
                 for a, blk in m.external_image().items()}
        steps = [tuple((rec[0], rec[1]) if rec else None for rec in s)
                 for s in trace.steps]
        return image, steps

    def test_identical_runs(self):
        assert self.run_once() == self.run_once()


class TestBspStar:
    def test_replay_costs_two_per_superstep(self):
        m = simple(P=4, M=12, B=4, policy=EREW)
        steps = [[(0, 1, [1, 2]), (2, 3, [3])] for _ in range(3)]
        assert bsp_star_replay(m, steps) == 6

    def test_replay_equivalence(self):
        m = simple(P=2, M=12, B=4)
        n = bsp_star_replay(m, [[(0, 1, [7])] for _ in range(5)])
        assert n == 10

    def test_one_relation_enforced(self):
        m = simple(P=4, M=12, B=4)
        with pytest.raises(Exception):
            bsp_star_replay(m, [[(0, 2, [1]), (1, 2, [2])]])


class TestRoundHelpers:
    def test_act_leaves_unnamed_processors_idle(self):
        m = simple(P=4, M=12, B=4, blocks=[(0, [(1, "x")])])
        trace = m.observer = IOTrace(4)
        r = act(m, {2: Input(0)})
        assert m.io_count == 1
        assert [rec is None for rec in trace.steps[0]] == [True, True, False, True]
        assert r[2][0].key == 1 and r[0] is None

    @pytest.mark.parametrize("p", [-1, 2])
    def test_act_rejects_a_processor_out_of_range(self, p):
        m = simple(P=2, M=12, B=4, blocks=[(0, [(1, "x")])])
        with pytest.raises(ConfigurationError, match=f"processor {p} "):
            act(m, {p: Input(0)})
        assert m.io_count == 0

    def test_exchange_is_two_steps_returning_each_block(self):
        m = simple(P=4, M=12, B=4)
        sent = {p: [m.create(p, ("m", p), p)] for p in (0, 1)}
        got = exchange(m, [(0, 3, sent[0]), (1, 0, sent[1])])
        assert m.io_count == 2
        assert list(got[3]) == sent[0] and list(got[0]) == sent[1]
        assert got[1] is None and got[2] is None
        assert m.holds(3, sent[0][0]) and m.holds(0, sent[1][0])

    def test_exchange_rejects_two_messages_from_one_sender(self):
        m = simple(P=4, M=12, B=4)
        a, b = m.create(0, "a", 0), m.create(0, "b", 1)
        with pytest.raises(SimulationError, match="1-relation"):
            exchange(m, [(0, 1, [a]), (0, 2, [b])])
        assert m.io_count == 0

    def test_exchange_rejects_two_messages_to_one_receiver(self):
        m = simple(P=4, M=12, B=4)
        a, b = m.create(0, "a", 0), m.create(1, "b", 1)
        with pytest.raises(SimulationError, match="1-relation"):
            exchange(m, [(0, 2, [a]), (1, 2, [b])])
        assert m.io_count == 0



def reader(addrs, got):
    """Script that inputs each address in turn, keeping what it was sent."""
    for addr in addrs:
        got.append((yield Input(addr)))


class TestDrivers:
    def test_lockstep_sends_each_script_its_block(self):
        m = simple(P=3, M=12, B=4, blocks=[(a, [(a, "x")]) for a in range(3)])
        got = [[] for _ in range(3)]
        run_lockstep(m, [reader([2], got[0]), None, reader([0], got[2])])
        assert m.io_count == 1
        assert [[e.key for b in g for e in b] for g in got] == [[2], [], [0]]

    def test_finished_script_leaves_while_others_run(self):
        m = simple(P=2, M=12, B=4, blocks=[(a, [(a, "x")]) for a in range(3)])
        trace = m.observer = IOTrace(2)
        got = [[], []]
        run_lockstep(m, [reader([0], got[0]), reader([0, 1, 2], got[1])])
        assert m.io_count == 3
        assert [rec is None for step in trace.steps for rec in step] == \
            [False, False, True, False, True, False]
        assert [b[0].key for b in got[1]] == [0, 1, 2]

    def test_scripts_return_their_results(self):
        m = simple(P=3, M=12, B=4, blocks=[(a, [(a, "x")]) for a in range(3)])

        def keys(addrs):
            got = []
            yield from reader(addrs, got)
            return [e.key for b in got for e in b]

        assert run_lockstep(m, [keys([2]), None, keys([])]) == [[2], None, []]
        assert each_share(m, 2, lambda p, lo, hi: keys(range(lo, hi))) == [[0], [1]]
        assert m.io_count == 2

    def test_all_idle_lockstep_raises_without_charge(self):
        def idle():
            yield None

        m = simple(P=2, M=12, B=4)
        with pytest.raises(SimulationError):
            run_lockstep(m, [idle(), idle()])
        assert m.io_count == 0

    def test_lockstep_rejects_more_scripts_than_processors(self):
        m = simple(P=2, M=12, B=4, blocks=[(0, [(1, "x")])])
        with pytest.raises(ConfigurationError, match=r"\(2\), got 3"):
            run_lockstep(m, [None, None, reader([0], [])])
        assert m.io_count == 0

    def test_each_share_skips_empty_shares(self):
        m = simple(P=4, M=12, B=4, blocks=[(a, [(a, "x")]) for a in range(2)])
        calls = []

        def script(p, lo, hi):
            calls.append((p, lo, hi))
            yield Input(lo)

        each_share(m, 2, script)
        assert calls == [(0, 0, 1), (1, 1, 2)] and m.io_count == 1
        each_share(m, 0, script)
        assert len(calls) == 2 and m.io_count == 1
