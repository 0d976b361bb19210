import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bruhatmc.order import all_perms, is_leq_strong
from bruhatmc.perms import Permutation, dominance_table, sample_uniform, trial_stream
from bruhatmc.zprocess import (
    Rectangle,
    _window_stats,
    decompose_check,
    max_rect_stat,
    max_strip_stat,
    persistence_holds,
    rect_sum,
    z_table,
)

from oracles import fisher_yates_words

def perm_pairs_up_to(top):
    return st.integers(1, top).flatmap(
        lambda n: st.tuples(
            st.permutations(list(range(1, n + 1))), st.permutations(list(range(1, n + 1)))
        )
    )


perm_pairs = perm_pairs_up_to(6)


def random_pair(n, seed, trial=0):
    stream = trial_stream(seed, trial)
    return sample_uniform(n, stream), sample_uniform(n, stream)


def chainstat_words(n, trials, seed, r0, r1):
    """Replay the chainstat-v3 draw as full permutations: block k of 256
    trials draws the r1 - r0 window rows of each trial from
    trial_stream(seed, k), which become rows (r0, r1]; the values not drawn
    fill the other rows in list order."""
    words = []
    for lo in range(0, trials, 256):
        g = trial_stream(seed, lo // 256)
        for w in fisher_yates_words(n, r1 - r0, min(256, trials - lo), g):
            rest = w[r1 - r0 :]
            words.append(rest[:r0] + w[: r1 - r0] + rest[r0:])
    return np.array(words)


def window_args(stat, n, x, y):
    """(r0, r1, first, y0, y1): the rectangle reads rows (x, 5x/4] from
    a = 0 on, the strip rows (0, x] at a = x only; both columns (y, 5y/4]."""
    y0, y1 = y, min(5 * y // 4, n)
    if stat == "rect":
        return x, min(5 * x // 4, n), 0, y0, y1
    return 0, x, x, y0, y1


def table_window_stat(word, r0, r1, first, y0, y1):
    """max over a in [r0 + first, r1], b in [y0, y1] of the centered count
    of (r0, a] x (y0, b], by inclusion-exclusion on the full dominance table."""
    n = len(word)
    c = dominance_table(Permutation(tuple(int(v) for v in word))).counts.astype(np.int64)
    a = np.arange(r0 + first, r1 + 1)[:, None]
    b = np.arange(y0, y1 + 1)[None, :]
    count = c[a, b] - c[r0, b] - c[a, y0] + c[r0, y0]
    return float(np.abs(count - (a - r0) * (b - y0) / n).max())


def rect_sum_window_stat(word, r0, r1, first, y0, y1):
    """The same maximum, one rect_sum per rectangle."""
    p = Permutation(tuple(int(v) for v in word))
    return max(
        abs(rect_sum(p, Rectangle(r0, a, y0, b)) - (a - r0) * (b - y0) / p.n)
        for a in range(r0 + first, r1 + 1)
        for b in range(y0, y1 + 1)
    )


STAT_CASES = [  # (n, x, y, trials, seed)
    (24, 8, 6, 600, 31),  # three blocks, the last one partial
    (40, 1, 40, 300, 32),  # x = 1, y = n
    (40, 1, 12, 300, 33),
    (40, 40, 12, 300, 34),  # the strip over every row
    (40, 36, 34, 300, 35),  # 5x/4 and 5y/4 clipped at n
    (1024, 512, 512, 8, 36),  # a 129 x 129 window: three sub-batches of the block
]
STATS = {"rect": max_rect_stat, "strip": max_strip_stat}


class TestZTable:
    def test_equal_pair_is_zero(self):
        p, _ = random_pair(9, 1)
        assert not z_table(p, p).z.any()

    def test_identity_vs_reverse_n2(self):
        assert z_table(Permutation.identity(2), Permutation.reverse(2))[1, 1] == 1

    def test_identity_vs_reverse_n3_formula(self):
        z = z_table(Permutation.identity(3), Permutation.reverse(3))
        for a in range(4):
            for b in range(4):
                assert z[a, b] == min(a, b) - max(0, a + b - 3)
        assert persistence_holds(z)

    @given(perm_pairs)
    def test_boundary_and_band_invariants(self, words):
        self._check_invariants(Permutation(tuple(words[0])), Permutation(tuple(words[1])))

    def test_invariants_random_n50(self):
        for trial in range(50):
            self._check_invariants(*random_pair(50, 7, trial))

    @staticmethod
    def _check_invariants(p, t):
        n = p.n
        z = z_table(p, t).z.astype(np.int64)
        assert not z[0, :].any() and not z[:, 0].any()
        assert not z[n, :].any() and not z[:, n].any()
        for a in range(n + 1):
            for b in range(n + 1):
                assert abs(z[a, b]) <= min(a, b, n - a, n - b)

    @given(perm_pairs)
    def test_antisymmetry(self, words):
        p, t = Permutation(tuple(words[0])), Permutation(tuple(words[1]))
        assert (z_table(p, t).z == -z_table(t, p).z).all()

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            z_table(Permutation.identity(3), Permutation.identity(4))


def sorted_prefix_dominance(p, t, a):
    """The tableau criterion: sorted p(1..a) <= sorted t(1..a) entrywise."""
    return all(x <= y for x, y in zip(sorted(p.values[:a]), sorted(t.values[:a])))


class TestTableauCriterion:
    # row a of Z stays >= 0 exactly when the sorted prefixes dominate
    # (Bjorner-Brenti, Combinatorics of Coxeter Groups, Thm 2.1.5)
    def test_exhaustive_s4(self):
        perms = all_perms(4)
        for p in perms:
            for t in perms:
                z = z_table(p, t).z
                for a in range(1, 5):
                    assert (z[a, 1:].min() >= 0) == sorted_prefix_dominance(p, t, a), (p, t, a)

    @given(perm_pairs_up_to(30))
    def test_first_two_rows_up_to_n30(self, words):
        p, t = Permutation(tuple(words[0])), Permutation(tuple(words[1]))
        z = z_table(p, t).z
        for a in range(1, min(2, p.n) + 1):
            assert (z[a, 1:].min() >= 0) == sorted_prefix_dominance(p, t, a)


class TestPersistenceEquivalence:
    def test_exhaustive_s3(self):
        for p in all_perms(3):
            for t in all_perms(3):
                assert persistence_holds(z_table(p, t)) == is_leq_strong(p, t).leq

    def test_random_n50(self):
        for trial in range(2000):
            p, t = random_pair(50, 13, trial)
            assert persistence_holds(z_table(p, t)) == is_leq_strong(p, t).leq


class TestRectSum:
    def test_full_square(self):
        p, _ = random_pair(11, 5)
        assert rect_sum(p, Rectangle(0, 11, 0, 11)) == 11
        assert rect_sum(p, Rectangle(0, 11, 0, 11), centered=True) == 0

    def test_identity_window(self):
        assert rect_sum(Permutation.identity(4), Rectangle(1, 3, 1, 3)) == 2

    def test_centered_is_exact_rational(self):
        value = rect_sum(Permutation.identity(4), Rectangle(0, 1, 0, 3), centered=True)
        assert value == Fraction(1) - Fraction(3, 4)

    def test_bounds_checked(self):
        with pytest.raises(ValueError, match="out of bounds"):
            rect_sum(Permutation.identity(4), Rectangle(0, 5, 0, 2))
        with pytest.raises(ValueError, match="degenerate"):
            Rectangle(2, 1, 0, 0)


class TestDecompose:
    def test_empty_parts(self):
        p, t = random_pair(10, 2)
        assert decompose_check(p, t, 6, 4, 6, 4)

    def test_random_cuts_n50(self):
        stream = trial_stream(77)
        p, t = sample_uniform(50, stream), sample_uniform(50, stream)
        for _ in range(100):
            x, y = int(stream.integers(0, 51)), int(stream.integers(0, 51))
            a, b = int(stream.integers(x, 51)), int(stream.integers(y, 51))
            assert decompose_check(p, t, x, y, a, b)

    def test_exhaustive_grid_n8(self):
        p, t = random_pair(8, 21)
        grid = [0, 2, 5, 8]
        for x in grid:
            for a in grid:
                if x > a:
                    continue
                for y in grid:
                    for b in grid:
                        if y > b:
                            continue
                        assert decompose_check(p, t, x, y, a, b)

    def test_index_violations(self):
        p, t = random_pair(8, 22)
        with pytest.raises(ValueError):
            decompose_check(p, t, 5, 0, 3, 8)
        with pytest.raises(ValueError):
            decompose_check(p, t, 0, 0, 9, 2)


class TestMaxStats:
    def test_rect_single_cell_window(self):
        summary = max_rect_stat(16, 1, 1, 50, 3)
        assert summary.mean <= 1.0

    def test_strip_empty_range_at_y_equals_n(self):
        summary = max_strip_stat(64, 8, 64, 20, 4)
        assert summary.mean == 0.0

    def test_window_draw_memory_is_bounded(self):
        # a 2-row window at n = 65536 draws 2 rows per trial, in sub-batches
        tracemalloc.start()
        try:
            max_rect_stat(65536, 8, 8, 256, 1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2 ** 20, peak

    def test_strip_max_monotone_in_width(self):
        # per-trial: the max over nested windows can only grow
        stream = trial_stream(11)
        n, x, y = 64, 16, 16
        for _ in range(20):
            p = sample_uniform(n, stream)

            def strip_max(width):
                vals = []
                for b in range(y, y + width + 1):
                    count = rect_sum(p, Rectangle(0, x, y, b))
                    vals.append(abs(count - x * (b - y) / n))
                return max(vals)

            assert strip_max(2) <= strip_max(4) <= strip_max(8)

    def test_rect_transpose_symmetry(self):
        a = max_rect_stat(256, 32, 64, 400, 17)
        b = max_rect_stat(256, 64, 32, 400, 18)
        joint = (a.stderr ** 2 + b.stderr ** 2) ** 0.5
        assert abs(a.mean - b.mean) <= 3 * joint

    @pytest.mark.parametrize("stat", STATS)
    def test_reproducible_across_workers(self, stat):
        one = STATS[stat](128, 16, 16, 600, 9, workers=1)
        two = STATS[stat](128, 16, 16, 600, 9, workers=2)
        assert one == two

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            max_rect_stat(16, 0, 4, 10, 0)
        with pytest.raises(ValueError):
            max_strip_stat(16, 4, 17, 10, 0)
        with pytest.raises(ValueError):
            max_rect_stat(16, 4, 4, 0, 0)

    @staticmethod
    def _check_replay(stat):
        # every replayed trial against both oracles, then the public mean
        for n, x, y, trials, seed in STAT_CASES:
            window = window_args(stat, n, x, y)
            r0, r1, first, y0, y1 = window
            words = chainstat_words(n, trials, seed, r0, r1)
            expected = [table_window_stat(w, *window) for w in words]
            if n <= 64:
                assert expected == [rect_sum_window_stat(w, *window) for w in words]
            got = _window_stats(words[:, r0:r1], n, first, y0, y1)
            assert got.tolist() == expected, (n, x, y)
            summary = STATS[stat](n, x, y, trials, seed)
            assert summary.trials == trials
            assert summary.mean == pytest.approx(np.mean(expected), rel=1e-12, abs=1e-12)
            assert summary.stderr == pytest.approx(
                np.std(expected, ddof=1) / np.sqrt(trials), rel=1e-9, abs=1e-12
            )

    def test_rect_stat_against_direct_enumeration(self):
        self._check_replay("rect")

    def test_strip_stat_against_direct_enumeration(self):
        self._check_replay("strip")

    @pytest.mark.parametrize(
        "stat, seeds",
        [("rect", (20261018, 20261019)), ("strip", (20261020, 20261021))],
        ids=["rect", "strip"],
    )
    def test_law_matches_fresh_per_trial_streams(self, stat, seeds):
        # an independent estimator: one sample_uniform stream per trial
        n, x, y, trials = 64, 16, 16, 2000
        window = window_args(stat, n, x, y)
        fresh = [
            table_window_stat(sample_uniform(n, trial_stream(seeds[0], t)).values, *window)
            for t in range(trials)
        ]
        summary = STATS[stat](n, x, y, trials, seeds[1])
        joint = np.sqrt(np.var(fresh, ddof=1) / trials + summary.stderr ** 2)
        assert abs(np.mean(fresh) - summary.mean) <= 5 * joint
