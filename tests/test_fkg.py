import math
from fractions import Fraction

import pytest

from bruhatmc.fkg import (
    ProductEvent,
    UpSet,
    comparability_probability,
    corner_events_equal,
    fkg_check,
    fkg_product_check,
    random_upset,
    upward_closure,
)
from bruhatmc.order import EXACT_COUNT_CAP, all_perms, covering_successors, is_leq_strong
from bruhatmc.perms import Permutation, trial_stream
from bruhatmc.zprocess import z_table

# frozen by an enumeration of z_table over all of S_n x S_n
CORNER_PROBS = {2: Fraction(3, 4), 3: Fraction(19, 36), 4: Fraction(77, 144), 5: Fraction(443, 1200)}


def quadrant_event(n):
    half = math.ceil(n / 2)

    def predicate(p, t):
        return int(z_table(p, t).z[1 : half + 1, 1 : half + 1].min()) >= 0

    return ProductEvent(n, predicate, pi_direction="decreasing", tau_direction="increasing")


class TestUpSets:
    def test_empty_seed(self):
        assert upward_closure(4, []).members == 0

    def test_identity_seed_gives_everything(self):
        up = upward_closure(4, [Permutation.identity(4)])
        assert up.probability == 1

    def test_closure_invariant_verified_on_construction(self):
        with pytest.raises(ValueError, match="not upward closed"):
            UpSet(3, 0b000001)  # the lexicographic minimum alone

    def test_random_upsets_are_closed(self):
        stream = trial_stream(60)
        index = {p.values: i for i, p in enumerate(all_perms(5))}
        for _ in range(30):
            up = random_upset(5, stream)
            for p in all_perms(5):
                if up.members >> index[p.values] & 1:
                    for q in covering_successors(p):
                        assert up.members >> index[q.values] & 1

    def test_membership(self):
        up = upward_closure(3, [Permutation((2, 1, 3))])
        assert Permutation((3, 2, 1)) in up
        assert Permutation.identity(3) not in up

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            UpSet(7, 0)


class TestFkgCheck:
    def test_self_pair_holds(self):
        up = upward_closure(4, [Permutation((2, 1, 3, 4))])
        report = fkg_check(up, up)
        assert report.holds and report.lhs >= report.rhs

    def test_full_event_is_equality(self):
        full = upward_closure(4, [Permutation.identity(4)])
        other = upward_closure(4, [Permutation((3, 1, 2, 4))])
        report = fkg_check(full, other)
        assert report.lhs == report.rhs

    def test_random_pairs_n4(self):
        stream = trial_stream(61)
        for _ in range(60):
            report = fkg_check(random_upset(4, stream), random_upset(4, stream))
            assert report.holds

    def test_size_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            fkg_check(upward_closure(3, []), upward_closure(4, []))

    def test_complement_identity(self):
        # P(Ac and Bc) - P(Ac)P(Bc) = P(A and B) - P(A)P(B) for any events
        import itertools

        size = math.factorial(3)
        full = (1 << size) - 1
        stream = trial_stream(62)
        for _ in range(50):
            a = int(stream.integers(0, full + 1))
            b = int(stream.integers(0, full + 1))
            pa = Fraction((a & b == a & b) and bin(a).count("1"), size)
            pb = Fraction(bin(b).count("1"), size)
            pab = Fraction(bin(a & b).count("1"), size)
            ac, bc = full & ~a, full & ~b
            pac = Fraction(bin(ac).count("1"), size)
            pbc = Fraction(bin(bc).count("1"), size)
            pacbc = Fraction(bin(ac & bc).count("1"), size)
            assert pacbc - pac * pbc == pab - pa * pb


class TestProductEvents:
    def test_quadrant_event_holds(self):
        for n in (3, 4):
            event = quadrant_event(n)
            report = fkg_product_check(event, event)
            assert report.holds

    def test_full_event_equality(self):
        everything = ProductEvent(3, lambda p, t: True, "decreasing", "increasing")
        event = quadrant_event(3)
        report = fkg_product_check(everything, event)
        assert report.lhs == report.rhs

    def test_single_corner_events(self):
        def corner(a, b):
            return ProductEvent(
                4,
                lambda p, t: int(z_table(p, t).z[a, b]) >= 0,
                pi_direction="decreasing",
                tau_direction="increasing",
            )

        report = fkg_product_check(corner(2, 2), corner(3, 1))
        assert report.holds

    def test_comparability_event_is_monotone(self):
        event = ProductEvent(
            4, lambda p, t: is_leq_strong(p, t).leq, "decreasing", "increasing"
        )
        assert event.probability == Fraction(213, 576)

    def test_misdeclared_monotonicity_rejected(self):
        with pytest.raises(ValueError, match="not increasing"):
            ProductEvent(3, lambda p, t: is_leq_strong(p, t).leq, "increasing", "increasing")

    def test_direction_mismatch_rejected(self):
        a = quadrant_event(3)
        b = ProductEvent(3, lambda p, t: True, "increasing", "increasing")
        with pytest.raises(ValueError, match="directions"):
            fkg_product_check(a, b)

    def test_cap(self):
        with pytest.raises(ValueError, match="capped"):
            ProductEvent(5, lambda p, t: True)


class TestCornerEvents:
    def test_equal_and_frozen(self):
        for n, expected in CORNER_PROBS.items():
            probs = corner_events_equal(n)
            assert len(set(probs)) == 1
            assert probs[0] == expected

    def test_each_contains_comparability(self):
        for n in (2, 3, 4):
            probs = corner_events_equal(n)
            p_leq = comparability_probability(n)
            for p in probs:
                assert p >= p_leq

    def test_intersection_equals_comparability_n4(self):
        # the four quadrant events jointly characterize p <= t
        n, half = 4, 2
        lo = n - half
        for p in all_perms(n):
            for t in all_perms(n):
                z = z_table(p, t).z
                joint = (
                    int(z[1 : half + 1, 1 : half + 1].min()) >= 0
                    and int(z[lo : n + 1, 1 : half + 1].min()) >= 0
                    and int(z[1 : half + 1, lo : n + 1].min()) >= 0
                    and int(z[lo : n + 1, lo : n + 1].min()) >= 0
                )
                assert joint == is_leq_strong(p, t).leq

    def test_product_lower_bound_n4(self):
        for n in (2, 3, 4):
            corner = corner_events_equal(n)[0]
            assert comparability_probability(n) >= corner ** 4

    def test_cap(self):
        with pytest.raises(ValueError, match=f"above the exact-count cap {EXACT_COUNT_CAP}"):
            corner_events_equal(EXACT_COUNT_CAP + 1)
        with pytest.raises(ValueError, match="need n >= 1"):
            corner_events_equal(0)
