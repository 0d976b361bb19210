"""Exact positive-correlation checks for the strong Bruhat order.

Events over S_n are bitmasks indexed by the lexicographic one-line
enumeration (order.all_perms), so probabilities are exact rationals and a
reported inequality violation can only mean a code bug, never noise.  The
corner-event and comparability probabilities come from order's row-transfer
count, up to order.EXACT_COUNT_CAP.
"""
from __future__ import annotations

import dataclasses
from fractions import Fraction
from math import ceil, factorial
from typing import Callable

import numpy as np

from .order import _lex_index, _window_count, all_perms, covering_successors, exact_comparability_count
from .perms import Permutation, sample_uniform

UPSET_CAP = 6
PRODUCT_EVENT_CAP = 4
_UPSET_SEEDS = 3  # most seed permutations random_upset closes upward


@dataclasses.dataclass(frozen=True)
class UpSet:
    """An upward-closed event over S_n as a bitmask in lexicographic order."""

    n: int
    members: int

    def __post_init__(self):
        if self.n > UPSET_CAP:
            raise ValueError(f"up-sets capped at n={UPSET_CAP}, got {self.n}")
        if self.members >> factorial(self.n):
            raise ValueError("bitmask has bits beyond |S_n|")
        index = _lex_index(self.n)
        for w, i in index.items():
            if self.members >> i & 1:
                for q in covering_successors(Permutation(w)):
                    if not self.members >> index[q.values] & 1:
                        raise ValueError(f"not upward closed: {w} in, cover {q.values} out")

    @property
    def probability(self) -> Fraction:
        return Fraction(self.members.bit_count(), factorial(self.n))

    def __contains__(self, p: Permutation) -> bool:
        return bool(self.members >> _lex_index(self.n)[p.values] & 1)


def upward_closure(n: int, seeds: list[Permutation]) -> UpSet:
    """Smallest up-set containing the seed permutations, grown along covers."""
    index = _lex_index(n)
    mask = 0
    frontier = [p.values for p in seeds]
    for w in frontier:
        mask |= 1 << index[w]
    while frontier:
        nxt = []
        for w in frontier:
            for q in covering_successors(Permutation(w)):
                bit = 1 << index[q.values]
                if not mask & bit:
                    mask |= bit
                    nxt.append(q.values)
        frontier = nxt
    return UpSet(n, mask)


def random_upset(n: int, stream: np.random.Generator) -> UpSet:
    """Up-set generated by a random seed: k uniform permutations, k
    uniform on 0.._UPSET_SEEDS, closed upward."""
    k = int(stream.integers(0, _UPSET_SEEDS + 1))
    return upward_closure(n, [sample_uniform(n, stream) for _ in range(k)])


@dataclasses.dataclass(frozen=True)
class CorrelationReport:
    lhs: Fraction  # P(A and B)
    rhs: Fraction  # P(A) P(B)
    holds: bool


def fkg_check(a: UpSet, b: UpSet) -> CorrelationReport:
    """Exact P(A and B) vs P(A)P(B) under the uniform measure on S_n."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    size = factorial(a.n)
    lhs = Fraction((a.members & b.members).bit_count(), size)
    rhs = a.probability * b.probability
    return CorrelationReport(lhs, rhs, lhs >= rhs)


class ProductEvent:
    """An event over S_n x S_n monotone in each coordinate of the strong order.

    The truth table is evaluated on construction and the declared directions
    ("increasing" or "decreasing" per coordinate) are verified exhaustively
    along cover edges, so misdeclared predicates are rejected up front.
    """

    def __init__(
        self,
        n: int,
        predicate: Callable[[Permutation, Permutation], bool],
        pi_direction: str = "increasing",
        tau_direction: str = "decreasing",
    ):
        if n > PRODUCT_EVENT_CAP:
            raise ValueError(f"product events capped at n={PRODUCT_EVENT_CAP}, got {n}")
        if pi_direction not in ("increasing", "decreasing") or tau_direction not in (
            "increasing",
            "decreasing",
        ):
            raise ValueError("directions must be 'increasing' or 'decreasing'")
        self.n = n
        self.predicate = predicate
        self.pi_direction = pi_direction
        self.tau_direction = tau_direction
        perms = all_perms(n)
        size = len(perms)
        table = np.zeros((size, size), dtype=bool)
        for i, p in enumerate(perms):
            for j, t in enumerate(perms):
                table[i, j] = bool(predicate(p, t))
        self._table = table
        index = _lex_index(n)
        edges = [
            (index[p.values], index[q.values])
            for p in perms
            for q in covering_successors(p)
        ]
        for view, direction, coord in ((table, pi_direction, "first"), (table.T, tau_direction, "second")):
            for low, high in edges:
                below, above = view[low], view[high]
                bad = below & ~above if direction == "increasing" else above & ~below
                if bad.any():
                    raise ValueError(f"predicate is not {direction} in the {coord} coordinate")

    @property
    def probability(self) -> Fraction:
        return Fraction(int(self._table.sum()), self._table.size)


def fkg_product_check(a: ProductEvent, b: ProductEvent) -> CorrelationReport:
    """Exact P(A and B) vs P(A)P(B) over uniform S_n x S_n for events
    monotone the same way in each coordinate."""
    if a.n != b.n:
        raise ValueError(f"size mismatch: {a.n} vs {b.n}")
    if (a.pi_direction, a.tau_direction) != (b.pi_direction, b.tau_direction):
        raise ValueError("events must share monotonicity directions")
    size = a._table.size
    lhs = Fraction(int((a._table & b._table).sum()), size)
    rhs = a.probability * b.probability
    return CorrelationReport(lhs, rhs, lhs >= rhs)


def corner_events_equal(n: int) -> tuple[Fraction, Fraction, Fraction, Fraction]:
    """Exact probabilities of the four quadrant persistence events with
    N = ceil(n/2): Z non-negative on [N]x[N], on [n-N,n]x[N], on
    [N]x[n-N,n], and on [n-N,n]x[n-N,n].  All four are equal by the
    reflection symmetries of Z; each is counted on its own window, so that
    equality is a check, not an assumption."""
    half = ceil(n / 2)
    head = range(1, half + 1)
    tail = range(max(n - half, 1), n + 1)  # Z(0, .) = Z(., 0) = 0
    counts = [
        _window_count(n, rows, cols)
        for rows, cols in ((head, head), (tail, head), (head, tail), (tail, tail))
    ]
    size = factorial(n) ** 2
    return tuple(Fraction(c, size) for c in counts)


def comparability_probability(n: int) -> Fraction:
    """Exact P(p <= t) over uniform S_n x S_n, for cross-checks against the
    corner-event product bound."""
    return exact_comparability_count(n).probability
