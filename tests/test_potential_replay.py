"""The step-batched potential tracker against the potential's definition.

``phi_reference`` sums phi afresh from the state at every step boundary.
``cost_model.check_potential_deltas`` feeds a recorded trace through the
tracker, which tracks count changes and skips reads that the reader
drops again before the next step; both must report the same per-step
deltas and verdicts.  The tracker attached to the running machine sees
the same events in the same order, so its report must equal the
replay's exactly.
"""

import random

import pytest

import phi_reference
from observers import Tee
from pemshuffle import cost_model as cm
from pemshuffle import harness
from pemshuffle.machine import CREW, Input, IOTrace, MachineConfig, Output, create_machine
from pemshuffle.workload import generate

TOL = 1e-9


def watch(machine, out_of):
    """Record the machine's trace and track its potential online, side by side."""
    machine.observer = Tee(IOTrace(machine.config.P), cm.track_potential(machine, out_of))


def assert_same_replay(machine, out_of):
    trace, tracker = machine.observer.observers
    cfg = machine.config
    args = (trace, machine.initial_image, out_of, cfg.P, cfg.M, cfg.B)
    got = cm.check_potential_deltas(*args)
    want = phi_reference.check_potential_deltas(*args)
    assert len(got.deltas) == len(want.deltas)
    assert all(abs(a - b) <= TOL for a, b in zip(got.deltas, want.deltas))
    assert (got.applicable, got.reason) == (want.applicable, want.reason)
    assert got.violations == want.violations
    assert got.bound == want.bound
    assert abs(got.phi_initial - want.phi_initial) <= TOL
    assert abs(got.phi_final - want.phi_final) <= TOL
    assert tracker.report() == got
    return got


# -- the four transposition pipelines -------------------------------------------


def run_pipeline(name, N_M, N_R, H, P, M, B):
    inst = generate(N_M, N_R, H, layout=harness.PIPELINES[name].layout, seed=1)
    m, region, run_input = harness.load_pipeline(name, inst, [], MachineConfig(P=P, M=M, B=B))
    out_of = cm.output_blocks(m.region_elements(region), B).get
    watch(m, out_of)
    harness.run_pipeline(name, inst, m, region, run_input)
    return m, out_of


TRANSPOSITIONS = ["direct_shuffle", "complete_sort",
                  "unordered_nonparallel", "sorted_nonparallel"]


@pytest.mark.parametrize("name", TRANSPOSITIONS)
@pytest.mark.parametrize("point", [(64, 16, 256, 4, 32, 4),
                                   (64, 16, 256, 8, 12, 4)],
                         ids=["h256", "m3b"])
def test_transposition_pipelines_match_the_definition(name, point):
    m, out_of = run_pipeline(name, *point)
    rep = assert_same_replay(m, out_of)
    assert rep.ok() and len(rep.deltas) == m.io_count


@pytest.mark.parametrize("name", TRANSPOSITIONS)
@pytest.mark.parametrize("point", [(256, 64, 1024, 4, 64, 8),
                                   (128, 32, 1024, 8, 24, 4)],
                         ids=["band", "tight"])
def test_transposition_pipelines(name, point):
    m, out_of = run_pipeline(name, *point)
    trace, tracker = m.observer.observers
    cfg = m.config
    rep = cm.check_potential_deltas(trace, m.initial_image, out_of, cfg.P, cfg.M, cfg.B)
    assert rep.ok() and tracker.report() == rep


def test_counts_hold_only_containers_that_rate_something():
    m, _ = run_pipeline("complete_sort", 256, 64, 1024, 4, 64, 8)
    tracker = m.observer.observers[1]
    assert tracker.report().ok()
    # an emptied container leaves counts instead of keeping an empty dict
    assert tracker.counts
    assert all(cnt and all(n > 0 for n in cnt.values())
               for cnt in tracker.counts.values())


EDGE_POINTS = [dict(N_M=32, N_R=32, H=256, P=3, M=3, B=1),
               dict(N_M=32, N_R=32, H=256, P=5, M=12, B=4),
               dict(N_M=64, N_R=16, H=256, P=7, M=9, B=3)]


@pytest.mark.parametrize("name", TRANSPOSITIONS)
@pytest.mark.parametrize("point", EDGE_POINTS, ids=["b1", "b4", "p7"])
def test_transposition_rows_at_edge_points(monkeypatch, name, point):
    """Container churn is highest at B=1, where every output block is one
    element and phi is 0 at every boundary.  Every row is held against
    the reference."""
    watched = []
    track = cm.track_potential

    def watching(machine, out_of):
        tracker = track(machine, out_of)
        machine.observer = Tee(IOTrace(machine.config.P), tracker)
        watched.append((machine, out_of))
        return tracker

    monkeypatch.setattr(cm, "track_potential", watching)
    row = harness.run_point(name, dict(point, v=1, w=1), seed=0, policy=CREW)
    assert (row["status"], row["correct"], row["potential"]) == ("ok", "pass", "pass")
    assert len(watched) == 1
    assert assert_same_replay(*watched[0]).ok()


# -- hand-built P=2 CREW traces ---------------------------------------------------


def two_procs(*blocks):
    """P=2, M=12, B=4 machine with initial blocks 0, 1, ... of (key, o)."""
    m = create_machine(MachineConfig(P=2, M=12, B=4),
                       [(a, [(k, None) for k, _ in blk]) for a, blk in enumerate(blocks)])
    out = {e: o for a, blk in enumerate(blocks)
           for e, (_, o) in zip(m.peek(a), blk)}
    watch(m, out.get)
    return m, out


def test_concurrent_read_copies_dropped_before_next_step():
    m, out = two_procs([("a", 0), ("b", 0), ("c", 1), ("d", 1)], [("e", 1)])
    r = m.parallel_step([Input(0), Input(0)])
    m.discard(0, r[0])
    m.discard(1, r[1])
    m.parallel_step([Input(1), None])
    m.parallel_step([Output(2, m.held_sorted(0)), None])
    m.discard(0, m.held_sorted(0))
    rep = assert_same_replay(m, out.get)
    assert rep.applicable and rep.deltas[0] == 0.0


@pytest.mark.parametrize("keepers", [(0,), (1,), (0, 1)])
def test_concurrent_read_copies_surviving_the_step(keepers):
    m, out = two_procs([("a", 0), ("b", 0), ("c", 1), ("d", 1)])
    r = m.parallel_step([Input(0), Input(0)])
    for p in (0, 1):
        if p not in keepers:
            m.discard(p, r[p])
    m.parallel_step([Output(3 + p, r[p]) if p in keepers else None for p in (0, 1)])
    for p in keepers:
        m.discard(p, r[p])
    rep = assert_same_replay(m, out.get)
    # two processors holding one element at a boundary is a copy
    assert rep.applicable == (len(keepers) == 1)


def test_read_and_drop_while_the_home_block_is_overwritten():
    m, out = two_procs([("a", 0), ("b", 0), ("c", 1), ("d", 1)], [("e", 2), ("f", 2)])
    held = m.parallel_step([None, Input(1)])[1]
    r = m.parallel_step([Input(0), Output(0, held)])
    m.discard(0, r[0])
    m.discard(1, held)
    rep = assert_same_replay(m, out.get)
    # a..d lose their home; e and f come to rest in block 0
    assert rep.phi_initial == pytest.approx(6.0)
    assert rep.deltas == pytest.approx([0.0, -4.0])
    assert rep.phi_final == pytest.approx(2.0)


def test_reread_of_held_elements_then_drop():
    m, out = two_procs([("a", 0), ("b", 0), ("c", 1)])
    r = m.parallel_step([Input(0), None])
    m.parallel_step([Input(0), None])
    m.discard(0, r[0])
    # p0 no longer holds anything, so p1's read is no copy
    r = m.parallel_step([None, Input(0)])
    m.parallel_step([None, Output(3, r[1])])
    m.discard(1, r[1])
    rep = assert_same_replay(m, out.get)
    assert rep.applicable and rep.deltas == pytest.approx([0.0] * 4)


def move_to_block_1(m):
    """Rewrite block 0 into block 1; block 0 keeps stale copies."""
    r = m.parallel_step([Input(0), None])
    m.parallel_step([Output(1, r[0]), None])
    m.discard(0, r[0])


def test_drop_of_a_read_while_another_processor_keeps_a_stale_copy():
    m, out = two_procs([("a", 0), ("b", 0)])
    move_to_block_1(m)
    stale = m.parallel_step([None, Input(0)])[1]
    r = m.parallel_step([Input(1), None])
    m.discard(0, r[0])
    m.parallel_step([None, Output(2, stale)])
    m.discard(1, stale)
    rep = assert_same_replay(m, out.get)
    # a and b count in p1's memory from step 2 on, wherever else they
    # are read or rest
    assert rep.deltas == pytest.approx([0.0] * 5)


def test_one_element_read_from_two_blocks_in_one_step():
    m, out = two_procs([("a", 0), ("b", 0)])
    move_to_block_1(m)
    r = m.parallel_step([Input(1), Input(0)])
    m.discard(0, r[0])
    m.parallel_step([None, Output(2, r[1])])
    m.discard(1, r[1])
    rep = assert_same_replay(m, out.get)
    assert rep.deltas == pytest.approx([0.0, 0.0, 0.0, 0.0])


def test_compute_produced_elements():
    m, out = two_procs([("a", 0), ("b", 0), ("c", 1), ("d", 1)])
    m.parallel_step([Input(0), None])
    # consume c and d right after reading them; produce one rated and
    # one unrated element
    made = m.compute(0, lambda held: held[:2] + [("x", 1), ("y", 2)])
    out[made[2]] = 3
    m.parallel_step([Output(4, made), None])
    m.discard(0, made)
    rep = assert_same_replay(m, out.get)
    assert rep.applicable


def test_created_elements_count_in_a_run_without_a_step():
    m, out = two_procs()
    for i in range(2):
        out[m.create(0, ("x", i), None)] = 0
    rep = assert_same_replay(m, out.get)
    assert rep.deltas == [] and rep.phi_final == pytest.approx(2.0)


# -- seeded random traces -----------------------------------------------------------


def random_trace(seed):
    """A few dozen random reads, writes, drops and computes on 2-3 processors."""
    rng = random.Random(seed)
    P, B = rng.choice([2, 3]), rng.choice([2, 3, 4])
    M = B * rng.choice([3, 4])
    nblocks = rng.randint(2, 6)
    m = create_machine(MachineConfig(P=P, M=M, B=B),
                       [(a, [((a, i), i) for i in range(rng.randint(1, B))])
                        for a in range(nblocks)])
    out = {e: rng.randrange(3) if rng.random() < 0.9 else None
           for blk in m.initial_image.values() for e in blk}
    watch(m, out.get)
    existing, addrs = set(range(nblocks)), range(nblocks + 2)
    for _ in range(rng.randint(3, 25)):
        actions, targets = [None] * P, set()
        for p in range(P):
            a, r = rng.choice(addrs), rng.random()
            if r < 0.5 and a in existing:
                grow = sum(1 for e in m.peek(a) if not m.holds(p, e))
                if m.held_count(p) + grow <= M:
                    actions[p] = Input(a)
            elif r < 0.85 and m.held_count(p) and a not in targets:
                held = m.held_sorted(p)
                actions[p] = Output(a, rng.sample(held, rng.randint(1, min(B, len(held)))))
                targets.add(a)
        existing |= targets
        if all(x is None for x in actions):
            m.discard(0, m.held_sorted(0))
            actions[0] = Input(0)
        m.parallel_step(actions)
        for p in range(P):
            held, r = m.held_sorted(p), rng.random()
            if held and r < 0.6:
                m.discard(p, rng.sample(held, rng.randint(1, len(held))))
            elif held and r < 0.7:
                keep = rng.sample(held, rng.randint(0, min(len(held), M - 1)))
                for e in m.compute(p, lambda _, keep=keep: keep + [("made", None)]):
                    out.setdefault(e, rng.randrange(3))
    return m, out


def test_random_traces():
    for seed in range(300):
        m, out = random_trace(seed)
        assert_same_replay(m, out.get)
