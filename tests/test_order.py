import itertools
from fractions import Fraction

import numpy as np
import pytest

from bruhatmc.order import (
    EXACT_COUNT_CAP,
    ComparabilityVerdict,
    _window_count,
    all_perms,
    covering_successors,
    exact_comparability_count,
    is_leq_strong,
    is_leq_weak,
)
from bruhatmc.perms import Permutation, inversion_count, sample_uniform, symmetry_map, trial_stream
from bruhatmc.zprocess import z_table
from oracles import comparable_pairs, reachable
from oracles import bitmask_window_count

# frozen by the cover-closure oracle in tests/oracles.py (see
# test_scan_and_closure_agree)
EXACT_COMPARABLE = {1: 1, 2: 3, 3: 19, 4: 213, 5: 3781, 6: 98407, 7: 3_550_919}


def random_pair(n, seed, trial=0):
    stream = trial_stream(seed, trial)
    return sample_uniform(n, stream), sample_uniform(n, stream)


class TestStrongOrder:
    def test_identity_is_minimum(self):
        for trial in range(20):
            _, t = random_pair(30, 17, trial)
            assert is_leq_strong(Permutation.identity(30), t).leq

    def test_reflexive(self):
        p, _ = random_pair(25, 3)
        assert is_leq_strong(p, p).leq

    def test_equal_inversion_count_incomparable(self):
        verdict = is_leq_strong(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
        assert not verdict.leq
        assert verdict.witness is not None

    def test_witness_points_at_violation(self):
        for trial in range(50):
            p, t = random_pair(12, 23, trial)
            verdict = is_leq_strong(p, t)
            z = z_table(p, t)
            if verdict.leq:
                assert z.z.min() >= 0
            else:
                a, b = verdict.witness
                assert 1 <= a <= 12 and 1 <= b <= 12
                assert z[a, b] < 0
                # first violation in row-major order
                for a2 in range(1, a + 1):
                    for b2 in range(1, (12 if a2 < a else b)):
                        assert z[a2, b2] >= 0

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            is_leq_strong(Permutation.identity(3), Permutation.identity(4))

    def test_verdict_shape(self):
        with pytest.raises(ValueError):
            ComparabilityVerdict(leq=True, witness=(1, 1))
        with pytest.raises(ValueError):
            ComparabilityVerdict(leq=False, witness=None)


class TestPartialOrderAxioms:
    def test_antisymmetry_n5(self):
        perms = all_perms(5)
        for p in perms:
            for t in perms:
                if p != t and is_leq_strong(p, t).leq:
                    assert not is_leq_strong(t, p).leq

    def test_transitivity_n4(self):
        perms = all_perms(4)
        leq = {
            (p.values, t.values)
            for p in perms
            for t in perms
            if is_leq_strong(p, t).leq
        }
        for p, t in leq:
            for u in perms:
                if (t, u.values) in leq:
                    assert (p, u.values) in leq


class TestDuality:
    def test_row_reverse_is_order_reversing(self):
        # p <= t iff row-reverse(t) <= row-reverse(p), exhaustively on S_4
        for p in all_perms(4):
            for t in all_perms(4):
                lhs = is_leq_strong(p, t).leq
                rhs = is_leq_strong(
                    symmetry_map(t, "row-reverse"), symmetry_map(p, "row-reverse")
                ).leq
                assert lhs == rhs

    def test_full_reverse_is_order_preserving_random_n50(self):
        for trial in range(2000):
            p, t = random_pair(50, 31, trial)
            lhs = is_leq_strong(p, t).leq
            rhs = is_leq_strong(
                symmetry_map(p, "full-reverse"), symmetry_map(t, "full-reverse")
            ).leq
            assert lhs == rhs


class TestWeakOrder:
    def test_identity_below_everything(self):
        for trial in range(10):
            _, t = random_pair(15, 41, trial)
            assert is_leq_weak(Permutation.identity(15), t)

    def test_example_by_enumeration(self):
        # oracle: explicit inversion sets over value pairs
        def inversions(p):
            pos = {p(i): i for i in range(1, p.n + 1)}
            return {
                (u, v)
                for u in range(1, p.n + 1)
                for v in range(u + 1, p.n + 1)
                if pos[u] > pos[v]
            }

        p, t = Permutation((2, 1, 3)), Permutation((2, 3, 1))
        assert inversions(p) <= inversions(t)
        assert is_leq_weak(p, t)
        assert not is_leq_weak(t, p)

    def test_weak_implies_strong_s4(self):
        for p in all_perms(4):
            for t in all_perms(4):
                if is_leq_weak(p, t):
                    assert is_leq_strong(p, t).leq


class TestCovers:
    def test_s2_identity(self):
        assert [q.values for q in covering_successors(Permutation.identity(2))] == [(2, 1)]

    def test_maximum_has_no_covers(self):
        assert covering_successors(Permutation.reverse(5)) == []

    def test_s3_identity(self):
        covers = {q.values for q in covering_successors(Permutation.identity(3))}
        assert covers == {(2, 1, 3), (1, 3, 2)}

    def test_characterization_matches_inversion_filter_s5(self):
        # covers = transposed pairs raising the inversion count by exactly 1
        for p in all_perms(5):
            base = inversion_count(p)
            expected = set()
            for i in range(5):
                for j in range(i + 1, 5):
                    w = list(p.values)
                    w[i], w[j] = w[j], w[i]
                    q = Permutation(tuple(w))
                    if inversion_count(q) == base + 1:
                        expected.add(q.values)
            assert {q.values for q in covering_successors(p)} == expected


class TestReachability:
    def test_reflexive_and_extremes(self):
        p = Permutation((3, 1, 2))
        assert reachable(p, p)
        assert reachable(Permutation.identity(3), Permutation.reverse(3))

    def test_agrees_with_scan_on_s3(self):
        for p in all_perms(3):
            for t in all_perms(3):
                assert reachable(p, t) == is_leq_strong(p, t).leq

    def test_closure_spans_n7(self):
        assert reachable(Permutation.identity(7), Permutation.reverse(7))
        assert not reachable(Permutation.reverse(7), Permutation.identity(7))


class TestExactCounts:
    def test_scan_and_closure_agree(self):
        for n in range(1, 8):
            scan = exact_comparability_count(n).comparable_pairs
            assert scan == comparable_pairs(n) == EXACT_COMPARABLE[n]

    def test_matches_pair_enumeration(self):
        for n in range(1, 7):
            perms = all_perms(n)
            count = sum(1 for p in perms for t in perms if is_leq_strong(p, t).leq)
            assert exact_comparability_count(n).comparable_pairs == count

    def test_n7_pinned(self):
        count = exact_comparability_count(7)
        assert count.comparable_pairs == EXACT_COMPARABLE[7]
        assert count.total_pairs == 5040**2

    def test_windows_match_z_tables(self):
        for n in range(1, 5):
            perms = all_perms(n)
            zs = np.stack([z_table(p, t).z for p in perms for t in perms])
            for r0, r1, c0, c1 in itertools.product(range(1, n + 1), repeat=4):
                if r0 <= r1 and c0 <= c1:
                    brute = int((zs[:, r0 : r1 + 1, c0 : c1 + 1].min(axis=(1, 2)) >= 0).sum())
                    assert _window_count(n, range(r0, r1 + 1), range(c0, c1 + 1)) == brute

    def test_known_probabilities(self):
        assert exact_comparability_count(2).probability == Fraction(3, 4)
        assert exact_comparability_count(3).probability == Fraction(19, 36)

    def test_reflexive_pairs_lower_bound(self):
        for n in range(1, 5):
            count = exact_comparability_count(n)
            assert count.comparable_pairs >= len(all_perms(n))

    def test_pairing_parity(self):
        # distinct comparable pairs pair up under (p, t) -> (t w0, p w0)
        # except the fixed pairs (p, p w0); parity must match the fixed count
        for n in range(2, 9):
            count = exact_comparability_count(n).comparable_pairs
            import math

            distinct = count - math.factorial(n)
            fixed = sum(
                1
                for p in all_perms(n)
                if is_leq_strong(p, symmetry_map(p, "row-reverse")).leq
            )
            assert (distinct - fixed) % 2 == 0

    def test_n_out_of_range(self):
        with pytest.raises(ValueError, match="need n >= 1"):
            exact_comparability_count(0)
        with pytest.raises(ValueError, match="need n >= 1"):
            exact_comparability_count(-2)
        with pytest.raises(ValueError, match=f"above the exact-count cap {EXACT_COUNT_CAP}"):
            exact_comparability_count(EXACT_COUNT_CAP + 1)


class TestLumpedWindowCount:
    """The lumped-word count against the bitmask row-transfer oracle."""

    @staticmethod
    def corners(n):
        half = -(-n // 2)
        head, tail = range(1, half + 1), range(max(n - half, 1), n + 1)
        return [(head, head), (tail, head), (head, tail), (tail, tail)]

    def test_every_window_matches_bitmask_oracle(self):
        for n in range(1, 7):
            for r0, r1, c0, c1 in itertools.product(range(1, n + 1), repeat=4):
                if r0 <= r1 and c0 <= c1:
                    rows, cols = range(r0, r1 + 1), range(c0, c1 + 1)
                    assert _window_count(n, rows, cols) == bitmask_window_count(n, rows, cols)

    @pytest.mark.parametrize("n", [8, 9, 10])
    def test_square_matches_bitmask_oracle(self, n):
        square = range(1, n + 1)
        assert exact_comparability_count(n).comparable_pairs == bitmask_window_count(n, square, square)

    @pytest.mark.parametrize("n", [8, 9])
    def test_corners_match_bitmask_oracle(self, n):
        for rows, cols in self.corners(n):
            assert _window_count(n, rows, cols) == bitmask_window_count(n, rows, cols)

    def test_n11_n12_pinned(self):
        # both from the bitmask DP (tests/oracles.py) run above its cap
        assert EXACT_COUNT_CAP >= 12
        assert exact_comparability_count(11).comparable_pairs == 76_797_806_584_091
        assert exact_comparability_count(12).comparable_pairs == 8_755_950_728_110_301
