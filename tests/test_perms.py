import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhatmc.perms import (
    MAX_TABLE_SIZE,
    Permutation,
    dominance_table,
    format_permutation,
    inversion_count,
    parse_permutation,
    permutation_rows,
    prefix_sums,
    sample_uniform,
    symmetry_map,
    trial_stream,
)

from oracles import fisher_yates_words

perm_words = st.integers(1, 8).flatmap(
    lambda n: st.permutations(list(range(1, n + 1)))
)


def random_perm(n, seed, trial=0):
    return sample_uniform(n, trial_stream(seed, trial))


class TestPermutation:
    def test_validates_bijection(self):
        with pytest.raises(ValueError, match="duplicate"):
            Permutation((1, 1, 3))
        with pytest.raises(ValueError, match="out of range"):
            Permutation((0, 1, 2))
        with pytest.raises(ValueError):
            Permutation(())

    def test_call_is_one_indexed(self):
        p = Permutation((2, 3, 1))
        assert [p(i) for i in (1, 2, 3)] == [2, 3, 1]
        with pytest.raises(IndexError):
            p(0)

    def test_inverse(self):
        assert Permutation((2, 3, 1)).inverse().values == (3, 1, 2)


class TestSampling:
    def test_s1_is_unique(self):
        assert random_perm(1, 0).values == (1,)

    def test_size_zero_rejected(self):
        with pytest.raises(ValueError, match="n=0"):
            sample_uniform(0, trial_stream(0))

    def test_fixed_seed_and_trial_reproduce(self):
        a = random_perm(17, seed=5, trial=3)
        b = random_perm(17, seed=5, trial=3)
        c = random_perm(17, seed=5, trial=4)
        assert a.values == b.values
        assert a.values != c.values

    def test_uniform_on_s3(self):
        # every cell frequency within 4 standard errors of 1/6
        samples = 600_000
        stream = trial_stream(2024)
        counts = {}
        for _ in range(samples):
            w = sample_uniform(3, stream).values
            counts[w] = counts.get(w, 0) + 1
        assert len(counts) == 6
        se = (1 / 6 * 5 / 6 / samples) ** 0.5
        for w, c in counts.items():
            assert abs(c / samples - 1 / 6) < 4 * se, (w, c / samples)


class TestTrialStream:
    @staticmethod
    def draws(seed, trial=0):
        return trial_stream(seed, trial).integers(0, 2**32, size=3).tolist()

    @pytest.mark.parametrize(
        "seed, trial, expected",
        [
            (0, 0, [149215387, 49592932, 2628306354]),
            (20261017, 5, [1010042568, 7928791, 692053260]),
            (2**63 - 1, 2**63 - 1, [55308712, 236915710, 551247929]),
        ],
    )
    def test_seeds_below_2_63_keep_their_streams(self, seed, trial, expected):
        assert self.draws(seed, trial) == expected

    @pytest.mark.filterwarnings("error")
    def test_seeds_from_2_63_do_not_alias(self):
        # a key built through float64 gave 2^63 and 2^63 + 1 one stream, and
        # 2^64 - 1 the stream of seed 0
        assert self.draws(2**63) != self.draws(2**63 + 1)
        assert self.draws(2**64 - 1) != self.draws(0)
        assert self.draws(0, 2**63) != self.draws(0, 2**63 + 1)

    @pytest.mark.parametrize("seed, trial", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64)])
    def test_outside_64_bits_rejected(self, seed, trial):
        with pytest.raises(ValueError, match=r"\[0, 2\^64\)"):
            trial_stream(seed, trial)


class TestDominanceTable:
    def test_identity_is_min(self):
        table = dominance_table(Permutation.identity(3))
        for a in range(4):
            for b in range(4):
                assert table[a, b] == min(a, b)

    def test_reverse_is_antidiagonal(self):
        table = dominance_table(Permutation.reverse(3))
        for a in range(4):
            for b in range(4):
                assert table[a, b] == max(0, a + b - 3)

    def test_213_by_enumeration(self):
        p = Permutation((2, 1, 3))
        table = dominance_table(p)
        for a in range(4):
            for b in range(4):
                expected = sum(1 for i in range(1, a + 1) if p(i) <= b)
                assert table[a, b] == expected
        assert (table[1, 1], table[2, 1], table[2, 2]) == (0, 1, 2)

    @given(perm_words)
    def test_invariants_small(self, word):
        self._check_invariants(Permutation(tuple(word)))

    def test_invariants_random_up_to_256(self):
        stream = trial_stream(99)
        for trial in range(1000):
            n = int(stream.integers(1, 257))
            self._check_invariants(sample_uniform(n, stream))

    @staticmethod
    def _check_invariants(p):
        c = dominance_table(p).counts.astype(np.int64)
        n = p.n
        assert (c[0, :] == 0).all() and (c[:, 0] == 0).all()
        assert (c[:, n] == np.arange(n + 1)).all()
        assert (c[n, :] == np.arange(n + 1)).all()
        for diffs in (np.diff(c, axis=0), np.diff(c, axis=1)):
            assert diffs.min() >= 0 and diffs.max() <= 1

    @given(perm_words)
    def test_second_difference_recovers_matrix(self, word):
        p = Permutation(tuple(word))
        c = dominance_table(p).counts.astype(np.int64)
        matrix = np.diff(np.diff(c, axis=0), axis=1)
        for i in range(1, p.n + 1):
            for j in range(1, p.n + 1):
                assert matrix[i - 1, j - 1] == (1 if p(i) == j else 0)

    def test_large_tables_must_stream(self):
        p = Permutation(tuple(range(1, MAX_TABLE_SIZE + 2)))
        with pytest.raises(ValueError, match="materialization cap"):
            dominance_table(p)

    def test_prefix_sums_run_in_place_on_the_last_two_axes(self):
        table = np.zeros((2, 3, 4), dtype=np.int64)
        table[:, 1:, 1:] = np.arange(12).reshape(2, 2, 3)
        expected = table.cumsum(axis=1).cumsum(axis=2)
        assert prefix_sums(table) is table
        assert (table == expected).all()


class TestPermutationRows:
    @pytest.mark.parametrize(
        "n, rows, count",
        [(6, 6, 40), (6, 0, 5), (40, 7, 300), (5000, 3, 500), (40000, 2, 60)],
        ids=["full", "no-rows", "one-sub-batch", "three-sub-batches", "int32-draws"],
    )
    def test_replays_list_swaps(self, n, rows, count):
        # 5000: sub-batches of 209, 209 and 82; 40000: of 26, 26 and 8
        words = permutation_rows(n, rows, count, trial_stream(41, n))
        expected = fisher_yates_words(n, rows, count, trial_stream(41, n))
        assert words.shape == (count, rows)
        assert words.dtype == (np.int16 if n < 2 ** 15 else np.int32)
        assert words.tolist() == [w[:rows] for w in expected]
        assert all(sorted(w) == list(range(1, n + 1)) for w in expected)

    def test_memory_is_one_sub_batch_of_pools(self):
        # at n = 20000 a sub-batch is 52 permutations, 2.0 MiB of pools;
        # 208 permutations run four sub-batches on the same pools
        permutation_rows(20000, 2, 52, trial_stream(43))  # warm up numpy's allocations
        peaks = []
        for count in (52, 208):
            tracemalloc.start()
            try:
                permutation_rows(20000, 2, count, trial_stream(43))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.1 * peaks[0]

    def test_full_rows_are_uniform_on_s4(self):
        trials = 24_000
        words = permutation_rows(4, 4, trials, trial_stream(42))
        _, counts = np.unique(words, axis=0, return_counts=True)
        assert counts.size == 24
        # each count is Binomial(trials, 1/24): 5 standard deviations
        sd = math.sqrt(trials * (1 / 24) * (23 / 24))
        assert np.abs(counts - trials / 24).max() < 5 * sd


class TestInversions:
    def test_examples(self):
        assert inversion_count(Permutation.identity(5)) == 0
        assert inversion_count(Permutation.reverse(6)) == 15
        assert inversion_count(Permutation((2, 3, 1))) == 2

    @given(perm_words)
    def test_matches_quadratic_definition(self, word):
        p = Permutation(tuple(word))
        n = p.n
        brute = sum(
            1 for i in range(1, n + 1) for j in range(i + 1, n + 1) if p(i) > p(j)
        )
        assert inversion_count(p) == brute

    @given(perm_words)
    def test_column_reverse_complement(self, word):
        p = Permutation(tuple(word))
        n = p.n
        total = inversion_count(p) + inversion_count(symmetry_map(p, "column-reverse"))
        assert total == n * (n - 1) // 2


class TestSymmetries:
    def test_transpose_examples(self):
        assert symmetry_map(Permutation.identity(4), "transpose") == Permutation.identity(4)
        assert symmetry_map(Permutation((2, 3, 1)), "transpose").values == (3, 1, 2)

    def test_full_reverse_fixes_identity(self):
        # brute-force over S_3: full-reverse is i -> n+1-p(n+1-i)
        import itertools

        for word in itertools.permutations((1, 2, 3)):
            p = Permutation(word)
            fr = symmetry_map(p, "full-reverse")
            assert fr.values == tuple(4 - p(4 - i) for i in (1, 2, 3))
        assert symmetry_map(Permutation.identity(3), "full-reverse") == Permutation.identity(3)

    @given(perm_words, st.sampled_from(["row-reverse", "column-reverse", "transpose"]))
    def test_involutions(self, word, kind):
        p = Permutation(tuple(word))
        assert symmetry_map(symmetry_map(p, kind), kind) == p

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown symmetry"):
            symmetry_map(Permutation.identity(2), "rotate")


class TestSerialization:
    def test_round_trip(self):
        p = random_perm(9, 4)
        assert parse_permutation(format_permutation(p)) == p

    def test_parse_examples(self):
        assert parse_permutation("2 1 3").values == (2, 1, 3)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("2 x 3", "token 'x' at position 2"),
            ("2 5 3", "token 5 at position 2"),
            ("2 2 3", "token 2 at position 2: duplicate"),
            ("", "empty"),
        ],
    )
    def test_parse_errors_name_the_token(self, text, message):
        with pytest.raises(ValueError, match=message):
            parse_permutation(text)


def test_inversion_count_matches_quadratic_count_n3000():
    # the hypothesis check stops at n = 8; this one spans many tree levels
    p = sample_uniform(3001, trial_stream(29, 0))
    w = np.array(p.values)
    assert inversion_count(p) == int(np.triu(w[:, None] > w[None, :], k=1).sum())
