"""Comparability tests for the strong and weak Bruhat orders.

The strong order is decided by the prefix-count criterion: p <= t iff every
top-left prefix count of t's permutation matrix is dominated by the matching
prefix count of p's matrix.  The scan below walks rows top to bottom keeping
the running prefix difference, so a violated coordinate near the top-left
(the typical case for an incomparable random pair) aborts after O(n) work.

Exact counts come from one dynamic program over rows, _window_count: the
state after row a is a word of letters, one per value: 0 unused, +1 used by
p only, -1 used by t only, so that Z(a, b) is the sum of the letters up to
b.  A value both have used adds 0 from then on, and leaves the word.
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
# windows each take about 3 s or less (on two cores, best of three runs:
# n = 12 takes 1.0 s and 0.5 s, n = 13 3.4 s and 1.9 s)
EXACT_COUNT_CAP = 12


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

    A state holds one letter per value: 0 unused, +1 used by p only, -1 used
    by t only; a value used by both adds 0 to every column from then on and
    is dropped.  Its three parts are the letters of values 1..cols.start,
    which count only by their multiset and are kept sorted (their sum is
    Z(a, cols.start)), the letters of the rest of the window in value order,
    and the sorted letters of the values above it.  One half-step serves
    side s = +1 (p's value of row a), then s = -1 (t's): s takes a 0, which
    becomes s, or a -s, which is dropped.  A checked row keeps a state iff
    the sum of its first part plus every prefix sum of its second is >= 0.
    ``states`` maps each state to its number of partial pairs.
    """
    if n < 1:
        raise ValueError(f"n={n}: exact counts need n >= 1")
    if n > EXACT_COUNT_CAP:
        raise ValueError(f"n={n} above the exact-count cap {EXACT_COUNT_CAP}")
    last = max(rows)
    states = {((0,) * cols.start, (0,) * (len(cols) - 1), (0,) * (n + 1 - cols.stop)): 1}
    for a in range(1, last + 1):
        for s in (1, -1):  # p's value of row a, then t's
            after = defaultdict(int)
            for parts, count in states.items():
                for k, part in enumerate(parts):
                    for i, x in enumerate(part):
                        if x == 0 or x == -s:
                            new = part[:i] + (s,) * (x == 0) + part[i + 1:]
                            new = new if k == 1 else tuple(sorted(new))
                            after[parts[:k] + (new,) + parts[k + 1:]] += count
            states = after
        if a in rows:  # Z(a, b) on cols: the first part's sum, then one letter of the second per b
            states = {
                w: count for w, count in states.items() if min(itertools.accumulate(w[1], initial=sum(w[0]))) >= 0
            }
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
