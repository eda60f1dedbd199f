import math
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from pemshuffle import cost_model as cm
from pemshuffle.algorithms import complete_sort, machine_with_instance
from pemshuffle.machine import Input, IOTrace, MachineConfig, Output, create_machine
from pemshuffle.workload import COLUMN_MAJOR, generate, oracle_shuffle


class TestLgb:
    def test_plain(self):
        assert cm.lgb(2, 8) == 3

    def test_clamped(self):
        assert cm.lgb(4, 2) == 1

    def test_fractional(self):
        assert cm.lgb(64, 1024) == pytest.approx(10 / 6)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cm.lgb(1, 4)
        with pytest.raises(ValueError):
            cm.lgb(2, 0)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1.1, 100), st.floats(0.01, 1e6), st.floats(0.01, 1e6))
    def test_at_least_one_and_monotone(self, b, x, y):
        assert cm.lgb(b, x) >= 1
        lo, hi = sorted((x, y))
        assert cm.lgb(b, lo) <= cm.lgb(b, hi) + 1e-12

    @settings(max_examples=50, deadline=None)
    @given(st.floats(1.1, 50), st.floats(1.1, 50), st.floats(2, 1e6))
    def test_antitone_in_base(self, b1, b2, x):
        lo, hi = sorted((b1, b2))
        assert cm.lgb(hi, x) <= cm.lgb(lo, x) + 1e-12


class TestTable1:
    def test_unordered_nonparallel_point(self):
        p = cm.Params(N_M=2 ** 10, N_R=2 ** 10, H=2 ** 20, P=16, M=4096, B=64)
        est = cm.table1_upper(p, cm.UNORDERED, cm.NONPARALLEL)
        assert est.value == pytest.approx(1024 * (10 / 6))

    def test_clamp_to_scan(self):
        # argument below the merge degree: lgb clamps, value is one scan
        p = cm.Params(N_M=64, N_R=4, H=2 ** 12, P=4, M=512, B=8)
        est = cm.table1_upper(p, cm.UNORDERED, cm.NONPARALLEL)
        assert est.value == pytest.approx(p.H / (p.P * p.B))

    def test_direct_row_ignores_layout(self):
        p = cm.Params(N_M=32, N_R=32, H=2 ** 10, P=8, M=64, B=8)
        est = cm.table1_upper(p, cm.DIRECT_SHUFFLE)
        assert est.value == pytest.approx(p.H / p.P)

    def test_complete_merge_row(self):
        p = cm.Params(N_M=32, N_R=32, H=2 ** 10, P=8, M=64, B=8)
        est = cm.table1_upper(p, cm.COMPLETE_MERGE)
        d = min(p.M / p.B, p.H / (p.P * p.B))
        assert est.value == pytest.approx(
            (p.H / (p.P * p.B)) * cm.lgb(d, p.H / p.B))

    def test_all_cells_evaluate(self):
        p = cm.Params(N_M=64, N_R=64, H=2 ** 11, v=2, w=2, P=4, M=64, B=8)
        for mt in (cm.UNORDERED, cm.SORTED, cm.PARALLEL_MAP):
            for rt in (cm.NONPARALLEL, cm.PARALLEL):
                est = cm.table1_upper(p, mt, rt)
                assert est.value > 0 and est.valid


class TestThm1:
    def test_mixed_point(self):
        p = cm.Params(N_M=2 ** 10, N_R=2 ** 10, H=2 ** 16, w=4, P=8, M=512, B=16)
        est = cm.thm1_lower(p, cm.MIXED)
        assert est.valid
        assert est.value == pytest.approx(819.2)

    def test_invalid_eps_region(self):
        # dense matrix: H/N_R = N_M, no positive eps exists
        p = cm.Params(N_M=16, N_R=16, H=256, P=2, M=24, B=4)
        est = cm.thm1_lower(p, cm.MIXED)
        assert not est.valid
        assert est.value is None

    def test_best_case_needs_sixth_root(self):
        p = cm.Params(N_M=2 ** 10, N_R=2 ** 10, H=2 ** 12, P=4, M=64, B=8)
        assert p.H / p.N_R == 4 > p.N_M ** (1 / 6)
        est = cm.thm1_lower(p, cm.BEST_CASE)
        assert not est.valid

    def test_best_case_valid_point(self):
        p = cm.Params(N_M=2 ** 12, N_R=2 ** 12, H=2 ** 13, P=4, M=64, B=8)
        assert p.H / p.N_R == 2 <= p.N_M ** (1 / 6)
        est = cm.thm1_lower(p, cm.BEST_CASE)
        assert est.valid and est.value > 0

    def test_lower_within_constant_of_upper(self):
        # sweep-style consistency: lower <= K (upper + log P), single K,
        # for every lower bound paired with a complexity-table cell
        K = 8
        pairs = 0
        for N in (2 ** 8, 2 ** 10, 2 ** 12):
            for h_exp in (1.1, 1.3, 1.5):
                for P in (1, 4, 16):
                    H = int(N ** h_exp)
                    p = cm.Params(N_M=N, N_R=N, H=H, w=2, P=P,
                                  M=64 * 8, B=8)
                    if p.failed_preconditions():
                        continue
                    for bound, _, cell in cm.LOWER_BOUNDS:
                        lower = bound(p)
                        if cell is None or not lower.valid:
                            continue
                        upper = cm.table1_upper(p, *cell)
                        assert lower.value <= K * (upper.value + cm.log2_p(P)), cell
                        pairs += 1
        assert pairs == 126


class TestLemma2:
    def test_square_substitution(self):
        N = 2 ** 10
        p = cm.Params(N_M=N, N_R=N, H=N, v=1, P=4, M=256, B=8)
        est = cm.lemma2_lower(p)
        d = max(2, min(p.M / p.B, p.H / (p.P * p.B)))
        arg = min(N * N * 1 / N, N * 1 / p.B)
        expected = min(N / p.P, max((N / (p.P * p.B)) * math.log2(arg) / math.log2(d),
                                    N / (p.P * p.B)))
        assert est.valid
        assert est.value == pytest.approx(expected)

    def test_degenerate_reports_scanning_floor(self):
        # argument collapses to <= 1: only the scan bound remains
        p = cm.Params(N_M=4, N_R=2 ** 12, H=2 ** 13, v=1, P=1, M=24, B=8)
        est = cm.lemma2_lower(p)
        assert est.valid
        assert est.value == pytest.approx(p.H / (p.P * p.B))


class TestTranspose:
    def test_dense_square_picks_block_size(self):
        N = 64
        p = cm.Params(N_M=N, N_R=N, H=N * N, P=4, M=64, B=8)
        est = cm.transpose_lower(p)
        d = min(p.M / p.B, p.H / (p.P * p.B))
        assert est.value == pytest.approx(
            (p.H / (p.P * p.B)) * math.log2(8) / math.log2(d))

    def test_small_h_over_b_wins_the_min(self):
        p = cm.Params(N_M=64, N_R=64, H=32, P=1, M=48, B=16)
        assert p.H / p.B < p.B
        est = cm.transpose_lower(p)
        d = max(2, min(p.M / p.B, p.H / (p.P * p.B)))
        expected = max((p.H / (p.P * p.B)) * math.log2(2) / math.log2(d),
                       p.H / (p.P * p.B))
        assert est.value == pytest.approx(expected)


class TestCombined:
    def test_column_major_picks_n_r(self):
        p = cm.Params(N_M=64, N_R=16, H=256, w=1, P=2, M=24, B=8)
        assert p.N_M > p.B > p.H / p.N_M
        est = cm.combined_lower(p, cm.COLUMN)
        assert est.valid
        d = max(2, min(p.M / p.B, p.H / (p.P * p.B)))
        arg = min(p.N_M * p.N_R * p.B / p.H, p.N_M, p.N_R, p.H / p.B)
        assert arg == p.N_R
        scan = p.H / (p.P * p.B)
        expected = min(p.H / p.P, max(scan * math.log2(arg) / math.log2(d), scan))
        assert est.value == pytest.approx(max(expected, math.log2(p.P)))

    def test_mixed_formula(self):
        p = cm.Params(N_M=2 ** 9, N_R=2 ** 9, H=2 ** 12, P=4, M=64, B=8)
        est = cm.combined_lower(p, cm.MIXED)
        assert est.valid
        d = max(2, min(p.M / p.B, p.H / (p.P * p.B)))
        arg = min(p.N_R, p.H / p.B)
        scan = p.H / (p.P * p.B)
        expected = min(p.H / p.P, max(scan * math.log2(arg) / math.log2(d), scan))
        assert est.value == pytest.approx(max(expected, 2.0))

    def test_dominates_merged_constituents(self):
        # the merge covers the transposition bound and the single-output
        # counting bound; check with w = v = 1
        for N_M, N_R, H in ((2 ** 9, 2 ** 8, 2 ** 11), (2 ** 10, 2 ** 10, 2 ** 13)):
            p = cm.Params(N_M=N_M, N_R=N_R, H=H, P=4, M=96, B=8)
            combined = cm.combined_lower(p, cm.COLUMN)
            if not combined.valid:
                continue
            assert combined.value >= cm.transpose_lower(p).value - 1e-9
            thm = cm.thm1_lower(p, cm.COLUMN)
            if thm.valid:
                assert combined.value >= thm.value - 1e-9
            assert combined.value >= cm.scatter_gather_floor(p).value - 1e-9


# Every lower bound is valid at VALID, which meets the best case's
# sixth-root condition; the counting bounds are invalid at DENSE.
VALID = cm.Params(N_M=2 ** 12, N_R=2 ** 12, H=2 ** 13, P=4, M=64, B=8)
DENSE = cm.Params(N_M=16, N_R=16, H=256, P=2, M=24, B=4)


@pytest.mark.parametrize("bound", [b for b, _, _ in cm.LOWER_BOUNDS],
                         ids=[b(VALID).formula_id for b, _, _ in cm.LOWER_BOUNDS])
def test_one_formula_id_per_bound(bound):
    valid, dense = bound(VALID), bound(DENSE)
    assert valid.valid
    assert dense.formula_id == valid.formula_id


def recording(machine):
    """The machine with an IOTrace attached, as the potential replay needs."""
    machine.observer = IOTrace(machine.config.P)
    return machine


def loaded(cfg, inst):
    """A recording machine holding the instance, its region and output blocks."""
    m, region = machine_with_instance(cfg, inst)
    return recording(m), region, cm.output_blocks(m.region_elements(region), cfg.B)


class TestPotential:
    def test_uniform_block_rating(self):
        m = recording(create_machine(MachineConfig(P=1, M=12, B=4),
                                     [(0, [(i, i) for i in range(4)])]))
        mapping = {e: 0 for e in m.peek(0)}
        assert cm.potential(m, mapping.get) == pytest.approx(4 * math.log2(4))

    def test_final_state_rating(self):
        inst = generate(8, 8, 64, regularity="both", layout=COLUMN_MAJOR, seed=1)
        cfg = MachineConfig(P=2, M=16, B=4)
        m, region, mapping = loaded(cfg, inst)
        out = complete_sort(m, region, inst)
        assert cm.potential(m, mapping.get) == pytest.approx(
            64 * math.log2(cfg.B))

    def test_biregular_column_major_starts_at_zero(self):
        # H/N_M >= B and N_M >= N_R: no two co-destined elements share an
        # input block
        for seed in range(3):
            inst = generate(16, 8, 64, regularity="both",
                            layout=COLUMN_MAJOR, seed=seed)
            cfg = MachineConfig(P=2, M=16, B=4)
            m, region, mapping = loaded(cfg, inst)
            assert cm.potential(m, mapping.get) == 0.0

    def test_invariant_under_block_permutation(self):
        inst = generate(8, 8, 64, layout=COLUMN_MAJOR, seed=2)
        cfg = MachineConfig(P=2, M=16, B=4)
        m1, r1, mapping1 = loaded(cfg, inst)
        phi1 = cm.potential(m1, mapping1.get)
        # same instance, elements permuted inside each block
        blocks = []
        for bi in range(r1.blocks):
            chunk = [((t.i, t.j), t) for t in inst.triples[bi * 4:(bi + 1) * 4]]
            blocks.append((bi, list(reversed(chunk))))
        m2 = recording(create_machine(cfg, blocks))
        mapping2 = cm.output_blocks((e for a, blk in m2.external_image().items()
                                     if a < 1 << 40 for e in blk), cfg.B)
        assert cm.potential(m2, mapping2.get) == pytest.approx(phi1)

    def test_co_destined_elements_held_at_a_step_boundary(self):
        f = lambda x: x * math.log2(x)
        m = recording(create_machine(MachineConfig(P=1, M=12, B=4),
                                     [(0, [(i, i) for i in range(4)]),
                                      (1, [(10 + i, i) for i in range(4)])]))
        a, b = m.peek(0), m.peek(1)
        mapping = dict(zip(a + b, [0, 0, 0, 1, 1, 1, 2, 2]))
        phi = lambda: cm.potential(m, mapping.get)
        assert phi() == pytest.approx(f(3) + 2 * f(2))
        m.parallel_step([Input(0)])
        assert phi() == pytest.approx(f(3) + 2 * f(2))
        m.parallel_step([Input(1)])
        # one memory holds 3 + 3 + 2 elements of output blocks 0, 1, 2
        assert phi() == pytest.approx(2 * f(3) + f(2))
        m.discard(0, b[:1])
        # the dropped element rests alone at block 1 again
        assert phi() == pytest.approx(f(3) + 2 * f(2))

    def test_block_overwritten_without_its_resting_elements(self):
        f = lambda x: x * math.log2(x)
        m = recording(create_machine(MachineConfig(P=1, M=12, B=4),
                                     [(0, [(i, i) for i in range(4)]),
                                      (1, [(10 + i, i) for i in range(2)])]))
        a, b = m.peek(0), m.peek(1)
        mapping = dict(zip(a + b, [0, 0, 0, 0, 1, 1]))
        phi = lambda: cm.potential(m, mapping.get)
        assert phi() == pytest.approx(f(4) + f(2))
        m.parallel_step([Input(1)])
        m.parallel_step([Output(0, b)])
        # block 0 lost the four elements resting there; b still counts
        # in memory
        assert phi() == pytest.approx(f(2))
        m.discard(0, b)
        assert phi() == pytest.approx(f(2))
        # block 1 still holds b, but block 0 received it last: read back
        # from block 1, b counts in memory only
        m.parallel_step([Input(1)])
        assert phi() == pytest.approx(f(2))
        m.discard(0, b)
        assert phi() == pytest.approx(f(2))


    def test_tracker_memory_follows_the_elements_not_m(self):
        # counts never exceed the elements, so x log2 x is tabulated up
        # to 4 here, not up to M
        m = create_machine(MachineConfig(P=1, M=1 << 20, B=4),
                           [(0, [(i, i) for i in range(4)])])
        mapping = {e: 0 for e in m.peek(0)}
        tracemalloc.start()
        try:
            cm.track_potential(m, mapping.get)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestPotentialNeedsItsEvents:
    def test_potential_of_a_machine_that_records_nothing(self):
        m = create_machine(MachineConfig(P=1, M=12, B=4), [(0, [(1, 1)])])
        with pytest.raises(ValueError, match="IOTrace"):
            cm.potential(m, {}.get)

    def test_tracker_attached_after_the_first_step(self):
        m = create_machine(MachineConfig(P=1, M=12, B=4), [(0, [(1, 1)])])
        m.parallel_step([Input(0)])
        with pytest.raises(ValueError, match="no operation"):
            cm.track_potential(m, {}.get)


class TestPotentialDeltas:
    def test_output_only_step_never_increases(self):
        m = recording(create_machine(MachineConfig(P=2, M=12, B=4),
                                     [(0, [(i, i) for i in range(4)]),
                                      (1, [(i + 4, i) for i in range(4)])]))
        mapping = {e: 0 for e in m.peek(0)}
        mapping.update({e: 1 for e in m.peek(1)})
        r = m.parallel_step([Input(0), Input(1)])
        m.parallel_step([Output(10, r[0]), Output(11, r[1])])
        m.discard(0, r[0])
        m.discard(1, r[1])
        rep = cm.check_potential_deltas(m.observer, m.initial_image,
                                        mapping.get, 2, 12, 4)
        assert rep.deltas[1] <= 1e-9

    def test_single_merging_input_delta(self):
        # y held elements plus x co-destined arrivals: f(x+y)-f(x)-f(y)
        x, y = 3, 2
        m = recording(create_machine(MachineConfig(P=1, M=12, B=4),
                                     [(0, [(i, i) for i in range(x)]),
                                      (1, [(10 + i, i) for i in range(y)])]))
        mapping = {e: 0 for e in list(m.peek(0)) + list(m.peek(1))}
        m.parallel_step([Input(1)])
        m.parallel_step([Input(0)])
        rep = cm.check_potential_deltas(m.observer, m.initial_image,
                                        mapping.get, 1, 12, 4)
        f = lambda n: n * math.log2(n) if n else 0.0
        assert rep.deltas[1] == pytest.approx(f(x + y) - f(x) - f(y))

    def test_full_transposition_within_bound(self):
        inst = generate(8, 8, 64, regularity="both", layout=COLUMN_MAJOR, seed=3)
        cfg = MachineConfig(P=2, M=16, B=4)
        m, region, mapping = loaded(cfg, inst)
        phi0 = cm.potential(m, mapping.get)
        out = complete_sort(m, region, inst)
        assert [e.payload for e in m.region_elements(out)] == oracle_shuffle(inst)
        rep = cm.check_potential_deltas(m.observer, m.initial_image,
                                        mapping.get, cfg.P, cfg.M, cfg.B)
        assert rep.applicable and not rep.violations
        assert rep.bound == pytest.approx(
            cfg.P * cfg.B * math.log2(2 * math.e)
            + cfg.P * cfg.B * math.log2(min(cfg.M, 64 / cfg.P) / cfg.B))
        assert rep.total_delta == pytest.approx(64 * math.log2(cfg.B) - phi0)

    def test_telescoping_any_trace(self):
        inst = generate(16, 16, 128, layout="mixed_column", seed=4)
        cfg = MachineConfig(P=4, M=24, B=4)
        m, region, mapping = loaded(cfg, inst)
        complete_sort(m, region, inst)
        rep = cm.check_potential_deltas(m.observer, m.initial_image,
                                        mapping.get, cfg.P, cfg.M, cfg.B)
        assert rep.total_delta == pytest.approx(rep.phi_final - rep.phi_initial)
