import pytest
from hypothesis import given, settings, strategies as st

from pemshuffle.workload import (
    COLUMN_MAJOR,
    MIXED_COLUMN,
    GenerationError,
    ShuffleInstance,
    Triple,
    elementary_products,
    generate,
    make_map_task,
    oracle_combined_mxv,
    oracle_shuffle,
)


class TestGenerate:
    def test_dense_column_major_is_jl_sorted(self):
        inst = generate(4, 4, 16, layout=COLUMN_MAJOR, seed=0)
        assert [(t.j, t.i) for t in inst.triples] == \
            sorted((t.j, t.i) for t in inst.triples)
        assert {(t.i, t.j) for t in inst.triples} == \
            {(i, j) for i in range(1, 5) for j in range(1, 5)}

    def test_column_regular(self):
        inst = generate(8, 8, 16, regularity="column", seed=1)
        per_col = {}
        for t in inst.triples:
            per_col[t.j] = per_col.get(t.j, 0) + 1
        assert all(per_col.get(j, 0) == 2 for j in range(1, 9))

    def test_row_regular(self):
        inst = generate(8, 8, 16, regularity="row", seed=1)
        per_row = {}
        for t in inst.triples:
            per_row[t.i] = per_row.get(t.i, 0) + 1
        assert all(per_row.get(i, 0) == 2 for i in range(1, 9))

    def test_bi_regular(self):
        inst = generate(8, 4, 16, regularity="both", seed=2)
        rows, cols = {}, {}
        for t in inst.triples:
            rows[t.i] = rows.get(t.i, 0) + 1
            cols[t.j] = cols.get(t.j, 0) + 1
        assert set(rows.values()) == {4} and set(cols.values()) == {2}

    def test_determinism(self):
        a = generate(8, 8, 20, v=2, w=2, layout=MIXED_COLUMN, seed=7)
        b = generate(8, 8, 20, v=2, w=2, layout=MIXED_COLUMN, seed=7)
        assert a == b

    def test_infeasible(self):
        with pytest.raises(GenerationError):
            generate(2, 2, 5)
        with pytest.raises(GenerationError):
            generate(3, 3, 8, regularity="column")
        with pytest.raises(GenerationError):
            generate(16, 8, 64, layout="meta_column")

    def test_distinct_values(self):
        inst = generate(16, 16, 100, seed=3)
        vals = [t.value for t in inst.triples]
        assert len(set(vals)) == len(vals)

    def test_origin_destination_ranges(self):
        inst = generate(8, 8, 32, v=3, w=2, seed=4)
        assert all(1 <= t.k <= 3 and 1 <= t.l <= 2 for t in inst.triples)

    # Explicit ids keep these cases' test ids stable across revisions.
    @pytest.mark.parametrize("layout,rank", [
        (MIXED_COLUMN, lambda t: t.j),
        (COLUMN_MAJOR, lambda t: (t.j, t.i)),
    ], ids=["mixed_column-kwargs0", "column_major-kwargs1"])
    def test_layout_self_check(self, layout, rank):
        inst = generate(16, 8, 64, layout=layout, seed=5)
        ranks = [rank(t) for t in inst.triples]
        assert ranks == sorted(ranks)

    def test_uniformity_smoke(self):
        # column-regular 4x4 with one triple per column: each row position
        # should appear with frequency about 1/4
        counts = [[0] * 4 for _ in range(4)]
        trials = 1000
        for seed in range(trials):
            inst = generate(4, 4, 4, regularity="column", seed=seed)
            for t in inst.triples:
                counts[t.j - 1][t.i - 1] += 1
        for j in range(4):
            for i in range(4):
                assert abs(counts[j][i] / trials - 0.25) <= 0.05


class TestLastDrawKept:
    def test_repeated_call_returns_the_same_object(self, draws):
        a = generate(16, 8, 64, v=2, layout=COLUMN_MAJOR, seed=3)
        assert generate(16, 8, 64, v=2, layout=COLUMN_MAJOR, seed=3) is a
        assert len(draws) == 1

    def test_only_the_last_result_is_kept(self, draws):
        a = generate(16, 8, 64, seed=3)
        b = generate(16, 8, 64, seed=4)
        again = generate(16, 8, 64, seed=3)
        assert again == a and again is not a and b != a
        assert len(draws) == 3

    def test_failed_call_keeps_nothing(self, draws):
        a = generate(16, 8, 64, seed=3)
        for _ in range(2):
            with pytest.raises(GenerationError):
                generate(2, 2, 5)
        assert generate(16, 8, 64, seed=3) is a
        # a draw that fails has already let the last result go
        for _ in range(2):
            with pytest.raises(GenerationError):
                generate(16, 8, 64, regularity="diagonal", seed=3)
        assert generate(16, 8, 64, seed=3) == a
        assert len(draws) == 4


class TestOracles:
    def test_layout_independent(self):
        mixed = generate(8, 8, 40, layout=MIXED_COLUMN, seed=9)
        column = ShuffleInstance(
            mixed.N_M, mixed.N_R, mixed.H, mixed.v, mixed.w, COLUMN_MAJOR,
            tuple(sorted(mixed.triples, key=lambda t: (t.j, t.i))), mixed.seed)
        assert oracle_shuffle(mixed) == oracle_shuffle(column)

    def test_hand_sorted_order(self):
        triples = (Triple(2, 1, 10, 1, 1), Triple(1, 2, 11, 1, 1),
                   Triple(3, 2, 12, 1, 1), Triple(1, 3, 13, 1, 1))
        inst = ShuffleInstance(3, 3, 4, 1, 1, MIXED_COLUMN, triples, 0)
        got = [(t.i, t.j) for t in oracle_shuffle(inst)]
        assert got == [(1, 2), (1, 3), (2, 1), (3, 2)]

    def test_all_ones_vector_gives_row_sums(self):
        inst = generate(8, 8, 32, seed=10)
        out = oracle_combined_mxv(inst, [[1] * 8])
        sums = [0] * 8
        for t in inst.triples:
            sums[t.i - 1] += t.value
        assert out == [sums]

    def test_empty_instance(self):
        inst = ShuffleInstance(3, 3, 0, 1, 1, MIXED_COLUMN, (), 0)
        assert oracle_combined_mxv(inst, [[1, 1, 1]]) == [[0, 0, 0]]

    def test_diagonal_hand_case(self):
        triples = (Triple(1, 1, 5, 1, 1), Triple(2, 2, 6, 1, 1),
                   Triple(3, 3, 7, 1, 1))
        inst = ShuffleInstance(3, 3, 3, 1, 1, COLUMN_MAJOR, triples, 0)
        out = oracle_combined_mxv(inst, [[1, 2, 3]])
        assert out == [[5, 12, 21]]

    @settings(max_examples=30, deadline=None)
    @given(st.randoms(use_true_random=False))
    def test_mxv_permutation_invariant(self, rnd):
        inst = generate(6, 6, 18, v=2, w=2, seed=13)
        vectors = [[rnd.randrange(5) for _ in range(6)] for _ in range(2)]
        shuffled = list(inst.triples)
        rnd.shuffle(shuffled)
        other = ShuffleInstance(6, 6, 18, 2, 2, MIXED_COLUMN,
                                tuple(shuffled), 13)
        assert oracle_combined_mxv(inst, vectors) == \
            oracle_combined_mxv(other, vectors)

    def test_elementary_products(self):
        inst = generate(4, 4, 8, v=2, w=2, seed=14)
        vectors = [[2, 3, 4, 5], [1, 1, 2, 2]]
        prod = elementary_products(inst, vectors)
        for a, b in zip(inst.triples, prod.triples):
            assert b.value == a.value * vectors[a.k - 1][a.j - 1]


class TestMapTask:
    def test_emission_reproduces_columns(self):
        inst = generate(8, 8, 32, layout=COLUMN_MAJOR, seed=30)
        task = make_map_task(inst)
        emitted = []
        for j in range(1, 9):
            emitted.extend(task.emission(j))
        assert sorted(emitted, key=lambda t: (t.i, t.j)) == oracle_shuffle(inst)

    def test_emission_with_vectors(self):
        inst = generate(4, 4, 8, v=2, seed=31)
        vectors = [[1, 2, 3, 4], [5, 6, 7, 8]]
        task = make_map_task(inst, vectors)
        for j in range(1, 5):
            for t in task.emission(j):
                orig = next(x for x in inst.triples
                            if (x.i, x.j) == (t.i, t.j))
                assert t.value == orig.value * vectors[orig.k - 1][j - 1]

