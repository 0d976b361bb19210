"""Permutations in one-line notation, dominance tables, and sampling streams.

Permutations are 1-indexed: ``p(i)`` is the value in row ``i`` of the
corresponding permutation matrix, i.e. the matrix has a one at ``(i, p(i))``.
The matrix itself is never stored; everything is derived from the one-line
word.  Prefix counts of the matrix live in :class:`DominanceTable`.
"""
from __future__ import annotations

import dataclasses
from typing import Iterator

import numpy as np

_MASK64 = (1 << 64) - 1

# Full (n+1) x (n+1) tables are materialized only up to this size; above it
# callers must stream rows (see dominance_rows).
MAX_TABLE_SIZE = 1 << 14


def trial_stream(seed: int, trial: int = 0) -> np.random.Generator:
    """Deterministic pseudorandom stream for one (seed, trial) pair.

    Built on the counter-based Philox generator keyed by the two integers, so
    streams for distinct trials are independent and trial ``t`` yields the
    same draws no matter how trials are scheduled across workers.  Both must
    lie in [0, 2^64); the key is built as exact uint64 words, so no two
    (seed, trial) pairs share a stream.
    """
    if not (0 <= seed <= _MASK64 and 0 <= trial <= _MASK64):
        raise ValueError(f"seed and trial must lie in [0, 2^64), got seed={seed} trial={trial}")
    return np.random.Generator(np.random.Philox(key=np.array([seed, trial], dtype=np.uint64)))


@dataclasses.dataclass(frozen=True)
class Permutation:
    """A bijection of [n] stored as the tuple (p(1), ..., p(n))."""

    values: tuple[int, ...]

    def __post_init__(self):
        n = len(self.values)
        if n == 0:
            raise ValueError("permutation size must be at least 1")
        seen = [False] * (n + 1)
        for v in self.values:
            if not isinstance(v, int) or not 1 <= v <= n:
                raise ValueError(f"value {v!r} out of range 1..{n}")
            if seen[v]:
                raise ValueError(f"duplicate value {v}")
            seen[v] = True

    @property
    def n(self) -> int:
        return len(self.values)

    def __call__(self, i: int) -> int:
        """p(i) with 1-indexed i."""
        if not 1 <= i <= self.n:
            raise IndexError(f"index {i} out of range 1..{self.n}")
        return self.values[i - 1]

    def inverse(self) -> "Permutation":
        inv = [0] * self.n
        for i, v in enumerate(self.values):
            inv[v - 1] = i + 1
        return Permutation(tuple(inv))

    @staticmethod
    def identity(n: int) -> "Permutation":
        return Permutation(tuple(range(1, n + 1)))

    @staticmethod
    def reverse(n: int) -> "Permutation":
        """The order-reversing word (n, n-1, ..., 1)."""
        return Permutation(tuple(range(n, 0, -1)))


@dataclasses.dataclass(frozen=True)
class DominanceTable:
    """Prefix counts counts[a][b] = #{ i <= a : p(i) <= b }, with sentinel
    zero row and column so the indices match the 1-indexed math directly."""

    n: int
    counts: np.ndarray

    def __post_init__(self):
        self.counts.setflags(write=False)

    def __getitem__(self, ab) -> int:
        a, b = ab
        return int(self.counts[a, b])


def sample_uniform(n: int, stream: np.random.Generator) -> Permutation:
    """Draw a uniform permutation of [n] from the stream (unbiased shuffle)."""
    if n < 1:
        raise ValueError(f"invalid size n={n}; need n >= 1")
    word = stream.permutation(n) + 1
    return Permutation(tuple(word.tolist()))


def dominance_table(p: Permutation) -> DominanceTable:
    """The full (n+1) x (n+1) prefix-count table of p, built in O(n^2).

    >>> dominance_table(Permutation((2, 1, 3))).counts.tolist()
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]]
    """
    n = p.n
    if n > MAX_TABLE_SIZE:
        raise ValueError(
            f"n={n} exceeds the table materialization cap {MAX_TABLE_SIZE}; "
            "stream rows with dominance_rows instead"
        )
    counts = np.zeros((n + 1, n + 1), dtype=np.min_scalar_type(n))
    counts[np.arange(1, n + 1), np.fromiter(p.values, dtype=np.intp, count=n)] = 1
    np.cumsum(counts, axis=0, out=counts)
    np.cumsum(counts, axis=1, out=counts)
    return DominanceTable(n, counts)


def dominance_rows(p: Permutation) -> Iterator[np.ndarray]:
    """Yield rows 1..n of the dominance table one at a time in O(n) memory."""
    n = p.n
    row = np.zeros(n + 1, dtype=np.min_scalar_type(n))
    for i in range(n):
        row[p.values[i]:] += 1
        yield row


def inversion_count(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j).

    O(n log n) via merge counting; the identity gives 0 and the reversal
    n(n-1)/2.

    >>> inversion_count(Permutation((2, 3, 1)))
    2
    """
    # merge-sort inversion count over a working list
    def count(xs):
        m = len(xs)
        if m <= 1:
            return xs, 0
        left, a = count(xs[: m // 2])
        right, b = count(xs[m // 2:])
        merged = []
        inv = a + b
        i = j = 0
        while i < len(left) and j < len(right):
            if left[i] <= right[j]:
                merged.append(left[i])
                i += 1
            else:
                merged.append(right[j])
                inv += len(left) - i
                j += 1
        merged.extend(left[i:])
        merged.extend(right[j:])
        return merged, inv

    return count(list(p.values))[1]


SYMMETRY_KINDS = ("row-reverse", "column-reverse", "transpose", "full-reverse")


def symmetry_map(p: Permutation, kind: str) -> Permutation:
    """Apply one of the dihedral symmetries of the permutation matrix.

    row-reverse     i -> p(n+1-i)        (flip the matrix upside down)
    column-reverse  i -> n+1-p(i)        (flip left-right)
    transpose       the inverse permutation
    full-reverse    i -> n+1-p(n+1-i)    (180-degree rotation)

    >>> symmetry_map(Permutation((2, 3, 1)), "transpose").values
    (3, 1, 2)
    """
    n = p.n
    w = p.values
    if kind == "row-reverse":
        return Permutation(tuple(w[n - i] for i in range(1, n + 1)))
    if kind == "column-reverse":
        return Permutation(tuple(n + 1 - v for v in w))
    if kind == "transpose":
        return p.inverse()
    if kind == "full-reverse":
        return Permutation(tuple(n + 1 - w[n - i] for i in range(1, n + 1)))
    raise ValueError(f"unknown symmetry kind {kind!r}; expected one of {SYMMETRY_KINDS}")


def format_permutation(p: Permutation) -> str:
    """Space-separated one-line notation, e.g. "2 1 3"."""
    return " ".join(str(v) for v in p.values)


def parse_permutation(text: str) -> Permutation:
    """Parse space-separated one-line notation, naming the offending token
    on failure.

    >>> parse_permutation("2 1 3").values
    (2, 1, 3)
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty permutation string")
    values = []
    for pos, tok in enumerate(tokens, start=1):
        try:
            values.append(int(tok))
        except ValueError:
            raise ValueError(f"bad token {tok!r} at position {pos}: not an integer") from None
    n = len(values)
    seen = set()
    for pos, v in enumerate(values, start=1):
        if not 1 <= v <= n:
            raise ValueError(f"bad token {v!r} at position {pos}: out of range 1..{n}")
        if v in seen:
            raise ValueError(f"bad token {v!r} at position {pos}: duplicate value")
        seen.add(v)
    return Permutation(tuple(values))
