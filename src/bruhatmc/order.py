"""Comparability tests for the strong and weak Bruhat orders.

The strong order is decided by the prefix-count criterion: p <= t iff every
top-left prefix count of t's permutation matrix is dominated by the matching
prefix count of p's matrix.  The scan below walks rows top to bottom keeping
the running prefix difference, so a violated coordinate near the top-left
(the typical case for an incomparable random pair) aborts after O(n) work.

Exact counts come from one dynamic program over rows, _window_count: the
state after row a is the pair of value sets p and t have used so far, which
fixes Z(a, .).
"""
from __future__ import annotations

import dataclasses
import functools
import itertools
from collections import defaultdict
from fractions import Fraction
from math import factorial

from .perms import Permutation

# row-transfer counts: the largest n whose full square and four corner
# windows each take about 3 s or less
EXACT_COUNT_CAP = 10


@dataclasses.dataclass(frozen=True)
class ComparabilityVerdict:
    """Outcome of a strong-order comparison.

    ``witness`` is the first coordinate pair (a, b), in row-major scan order,
    where the prefix-count criterion fails; it is present exactly when
    ``leq`` is false.
    """

    leq: bool
    witness: tuple[int, int] | None = None

    def __post_init__(self):
        if self.leq == (self.witness is not None):
            raise ValueError("witness must be present iff leq is false")


@dataclasses.dataclass(frozen=True)
class ExactCount:
    """Exact count of ordered comparable pairs (p, t) with p <= t."""

    n: int
    comparable_pairs: int
    total_pairs: int

    @property
    def probability(self) -> Fraction:
        return Fraction(self.comparable_pairs, self.total_pairs)


def _leq_scan(p: tuple[int, ...], t: tuple[int, ...], n: int) -> tuple[int, int] | None:
    """Return the first (a, b) in row-major order where the prefix difference
    X_p(a,b) - X_t(a,b) goes negative, or None if p <= t.

    Row a changes the difference only on the value range between p(a) and
    t(a), so each row costs |p(a) - t(a)| updates and new violations can only
    appear where the row decrements.
    """
    z = [0] * (n + 1)
    for a0 in range(n):
        pa = p[a0]
        ta = t[a0]
        if pa < ta:
            for b in range(pa, ta):
                z[b] += 1
        elif ta < pa:
            for b in range(ta, pa):
                zb = z[b] - 1
                z[b] = zb
                if zb < 0:
                    return (a0 + 1, b)
    return None


def is_leq_strong(p: Permutation, t: Permutation) -> ComparabilityVerdict:
    """Decide p <= t in the strong Bruhat order in O(n^2) worst case.

    >>> is_leq_strong(Permutation.identity(3), Permutation((3, 1, 2))).leq
    True
    >>> is_leq_strong(Permutation((2, 1, 3)), Permutation((1, 3, 2)))
    ComparabilityVerdict(leq=False, witness=(1, 1))
    """
    if p.n != t.n:
        raise ValueError(f"size mismatch: {p.n} vs {t.n}")
    witness = _leq_scan(p.values, t.values, p.n)
    return ComparabilityVerdict(leq=witness is None, witness=witness)


def _value_inversions(w: tuple[int, ...]) -> set[tuple[int, int]]:
    """Pairs of values (u, v), u < v, whose positions in w are out of order."""
    n = len(w)
    pos = [0] * (n + 1)
    for i, v in enumerate(w):
        pos[v] = i
    return {(u, v) for u in range(1, n) for v in range(u + 1, n + 1) if pos[u] > pos[v]}


def is_leq_weak(p: Permutation, t: Permutation) -> bool:
    """Decide p <= t in the (right) weak order: containment of the sets of
    value pairs placed out of order.

    >>> is_leq_weak(Permutation((2, 1, 3)), Permutation((2, 3, 1)))
    True
    """
    if p.n != t.n:
        raise ValueError(f"size mismatch: {p.n} vs {t.n}")
    return _value_inversions(p.values) <= _value_inversions(t.values)


def covering_successors(p: Permutation) -> list[Permutation]:
    """All q covering p in the strong order.

    Covers are transpositions of positions i < j with p(i) < p(j) and no
    intermediate position holding a value strictly between the two; exactly
    these swaps raise the inversion count by 1.

    >>> [q.values for q in covering_successors(Permutation.identity(3))]
    [(2, 1, 3), (1, 3, 2)]
    """
    w = p.values
    n = p.n
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            lo, hi = w[i], w[j]
            if lo >= hi:
                continue
            if any(lo < w[k] < hi for k in range(i + 1, j)):
                continue
            q = list(w)
            q[i], q[j] = q[j], q[i]
            out.append(Permutation(tuple(q)))
    return out


def all_perms(n: int) -> list[Permutation]:
    """S_n in lexicographic one-line order; the fixed enumeration that
    bitset-indexed event code relies on."""
    return [Permutation(w) for w in itertools.permutations(range(1, n + 1))]


@functools.cache
def _lex_index(n: int) -> dict[tuple[int, ...], int]:
    """Position of each one-line tuple in the lexicographic order of S_n;
    one shared dict per n, which callers only read."""
    return {w: i for i, w in enumerate(itertools.permutations(range(1, n + 1)))}


def _window_count(n: int, rows: range, cols: range) -> int:
    """Number of pairs (p, t) in S_n x S_n with Z(a, b) >= 0 for every a in
    ``rows`` and b in ``cols``, counted row by row.

    A state is the pair of value sets p and t have used, as bitmasks (bit
    v - 1 for value v), mapped to its number of partial pairs.  Row a adds
    p's value, then t's value v; on a checked row that keeps Z >= 0 exactly
    when no column is negative and v exceeds every column where Z is 0.
    """
    if n < 1:
        raise ValueError(f"n={n}: exact counts need n >= 1")
    if n > EXACT_COUNT_CAP:
        raise ValueError(f"n={n} above the exact-count cap {EXACT_COUNT_CAP}")
    masks = [(b, (1 << b) - 1) for b in cols]  # bits of the values <= b
    last = max(rows)
    states = {(0, 0): 1}
    for a in range(1, last + 1):
        half = defaultdict(int)  # states once p's value of row a is in
        for (used_p, used_t), count in states.items():
            for u in range(n):
                if not used_p >> u & 1:
                    half[used_p | 1 << u, used_t] += count
        checked = masks if a in rows else ()
        states = defaultdict(int)
        for (used_p, used_t), count in half.items():
            low = 0  # lowest bit t's value may take: above every column where Z is 0
            for b, m in checked:
                z = (used_p & m).bit_count() - (used_t & m).bit_count()
                if z < 0:
                    low = n
                    break
                if z == 0:
                    low = b
            for v in range(low, n):
                if not used_t >> v & 1:
                    states[used_p, used_t | 1 << v] += count
    # rows past the window are free: (n - last)! ways for each permutation
    return sum(states.values()) * factorial(n - last) ** 2


def exact_comparability_count(n: int) -> ExactCount:
    """Count ordered pairs (p, t) with p <= t: the row-transfer count over
    the full n x n square, for 1 <= n <= EXACT_COUNT_CAP.

    >>> exact_comparability_count(3).comparable_pairs
    19
    """
    square = range(1, n + 1)
    return ExactCount(n, _window_count(n, square, square), factorial(n) ** 2)
