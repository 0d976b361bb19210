"""Permutations in one-line notation, dominance tables, and sampling streams.

Permutations are 1-indexed: ``p(i)`` is the value in row ``i`` of the
corresponding permutation matrix, i.e. the matrix has a one at ``(i, p(i))``.
The matrix itself is never stored; everything is derived from the one-line
word.  Prefix counts of the matrix live in :class:`DominanceTable`.  The
package keys each block of trials' stream with :func:`block_streams`, builds
every prefix table with :func:`prefix_sums` and draws the first rows of
many permutations at once with :func:`permutation_rows`, a row-by-row
Fisher-Yates shuffle.
"""
from __future__ import annotations

import dataclasses

import numpy as np

_MASK64 = (1 << 64) - 1

MAX_TABLE_SIZE = 1 << 14  # largest n whose full (n+1) x (n+1) table is materialized
_ROW_DRAW = 1 << 20  # pool entries per sub-batch of permutation_rows (bounds its memory for any n)


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


def draw_dtype(n: int) -> type:
    """The integer type that index draws and values of permutations of [n]
    are held in: int16 below n = 2^15, else int32.  Every stream layout
    that draws indices in it depends on it."""
    return np.int16 if n < 2 ** 15 else np.int32


def block_streams(seed: int, lo: int, hi: int, block: int) -> list[tuple[np.random.Generator, int, int]]:
    """(trial_stream(seed, k), start, end) for each block k of ``block``
    trials that trials lo..hi-1 span; ``lo`` must start a block."""
    return [(trial_stream(seed, s // block), s, min(s + block, hi)) for s in range(lo, hi, block)]


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


def prefix_sums(table: np.ndarray) -> np.ndarray:
    """Prefix sums, in place, over the last two axes of a contiguous table
    whose first row and column the caller zeroed (faster than into a view)."""
    np.cumsum(table, axis=-2, out=table)
    np.cumsum(table, axis=-1, out=table)
    return table


def dominance_table(p: Permutation) -> DominanceTable:
    """The full (n+1) x (n+1) prefix-count table of p, built in O(n^2).

    >>> dominance_table(Permutation((2, 1, 3))).counts.tolist()
    [[0, 0, 0, 0], [0, 0, 1, 1], [0, 1, 2, 2], [0, 1, 2, 3]]
    """
    n = p.n
    if n > MAX_TABLE_SIZE:
        raise ValueError(f"n={n} exceeds the table materialization cap {MAX_TABLE_SIZE}")
    counts = np.zeros((n + 1, n + 1), dtype=np.min_scalar_type(n))
    counts[np.arange(1, n + 1), np.fromiter(p.values, dtype=np.intp, count=n)] = 1
    return DominanceTable(n, prefix_sums(counts))


def permutation_rows(n: int, rows: int, count: int, stream: np.random.Generator) -> np.ndarray:
    """Rows 1..``rows`` of ``count`` uniform permutations of [n], a
    (count, rows) array in int16 below n = 2^15, else int32.  Sub-batches of
    max(1, _ROW_DRAW // n) permutations each draw all their indices in one
    call of shape (rows, size), row a's uniform on 0..n - a, and apply them
    row by row to pools that start as 1..n: row a takes the value at place
    a - 1 + j of each pool and moves the value at place a - 1 into the
    freed place, so each pool's places a.. hold its unused values.  One
    sub-batch's pools are allocated per call and refilled in place for
    each sub-batch."""
    dtype = draw_dtype(n)
    words = np.empty((rows, count), dtype)  # rows-major: each step writes one run
    batch = max(1, _ROW_DRAW // n)
    pools = np.empty((min(batch, count), n), dtype)
    for s in range(0, count, batch):
        size = min(batch, count - s)
        j = stream.integers(0, n - np.arange(rows)[:, None], size=(rows, size), dtype=dtype)
        pools[:size] = np.arange(1, n + 1, dtype=dtype)
        flat = pools.reshape(-1)
        for a in range(rows):
            heads = np.arange(a, size * n, n)
            at = heads + j[a]
            words[a, s : s + size] = flat[at]
            flat[at] = flat[heads]
    return words.T


def inversion_count(p: Permutation) -> int:
    """Number of pairs i < j with p(i) > p(j).

    O(n log n) by a Fenwick tree over values, read right to left; the
    identity gives 0 and the reversal n(n-1)/2.

    >>> inversion_count(Permutation((2, 3, 1)))
    2
    """
    n = p.n
    tree = [0] * (n + 1)  # tree[v] counts the values seen in (v - (v & -v), v]
    inv = 0
    for v in reversed(p.values):
        i = v - 1
        while i:  # seen values below v, all to its right
            inv += tree[i]
            i &= i - 1
        while v <= n:
            tree[v] += 1
            v += v & -v
    return inv


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
