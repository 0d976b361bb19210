"""The two-dimensional prefix-difference process Z(a,b) for permutation pairs.

Z(a,b) counts the ones of the first permutation's matrix in the top-left
a x b corner minus the same count for the second permutation.  p <= t in the
strong Bruhat order exactly when Z stays non-negative over the whole square,
which makes comparability a two-dimensional persistence event.

Centered rectangle counts subtract the exact expectation area/n; those terms
are kept as rationals so identity checks stay exact.

The window maxima (max_rect_stat, max_strip_stat) and box persistence in
estimators share one row source, the rank rows of perms: the strip reads
one exact draw of the unused counts at row x (perms.unused_counts), the
rectangle steps rank rows from no row drawn (perms.rank_step) and keeps a
running max.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import partial

import numpy as np

from ._parallel import processes, run_blocks, task_size
from .perms import (
    MAX_TABLE_SIZE, Permutation, block_streams, draw_dtype, prefix_sums, rank_indices, rank_step, unused_counts,
)

_STAT_BLOCK = 256  # trials per merge block; each block owns one stream


@dataclasses.dataclass(frozen=True)
class ZTable:
    """z[a][b] = Z(a,b) on the (n+1) x (n+1) index grid, zero on both
    boundary rows/columns and on the full-width margins a = n and b = n."""

    n: int
    z: np.ndarray

    def __post_init__(self):
        self.z.setflags(write=False)

    def __getitem__(self, ab) -> int:
        a, b = ab
        return int(self.z[a, b])

    def min_entry(self) -> tuple[int, int, int]:
        """(min value, argmin a, argmin b), row-major first minimizer."""
        flat = int(np.argmin(self.z))
        a, b = divmod(flat, self.n + 1)
        return int(self.z[a, b]), a, b


@dataclasses.dataclass(frozen=True)
class Rectangle:
    """Half-open integer rectangle (a1, a2] x (b1, b2]."""

    a1: int
    a2: int
    b1: int
    b2: int

    def __post_init__(self):
        if not (0 <= self.a1 <= self.a2 and 0 <= self.b1 <= self.b2):
            raise ValueError(f"degenerate rectangle bounds {self}")

    @property
    def area(self) -> int:
        return (self.a2 - self.a1) * (self.b2 - self.b1)


@dataclasses.dataclass(frozen=True)
class TrialSummary:
    """Monte Carlo point estimate of an expectation."""

    mean: float
    stderr: float
    trials: int


def z_table(p: Permutation, t: Permutation) -> ZTable:
    """Full prefix-difference table for the pair (p, t), O(n^2)."""
    if p.n != t.n:
        raise ValueError(f"size mismatch: {p.n} vs {t.n}")
    n = p.n
    if n > MAX_TABLE_SIZE:
        raise ValueError(f"n={n} exceeds the table materialization cap {MAX_TABLE_SIZE}")
    z = np.zeros((n + 1, n + 1), dtype=draw_dtype(n))
    rows = np.arange(1, n + 1)
    z[rows, np.fromiter(p.values, dtype=np.intp, count=n)] += 1
    z[rows, np.fromiter(t.values, dtype=np.intp, count=n)] -= 1
    return ZTable(n, prefix_sums(z))


def persistence_holds(zt: ZTable) -> bool:
    """True iff Z(a,b) >= 0 everywhere, i.e. the pair is comparable."""
    return int(zt.z.min()) >= 0


def rect_sum(p: Permutation, r: Rectangle, centered: bool = False):
    """Count the i in (a1, a2] with p(i) in (b1, b2].

    With ``centered`` the exact expectation area/n is subtracted and the
    result is a Fraction; otherwise an int.

    >>> rect_sum(Permutation.identity(4), Rectangle(1, 3, 1, 3))
    2
    """
    n = p.n
    if r.a2 > n or r.b2 > n:
        raise ValueError(f"rectangle {r} out of bounds for n={n}")
    count = sum(1 for i in range(r.a1, r.a2) if r.b1 < p.values[i] <= r.b2)
    if not centered:
        return count
    return Fraction(count) - Fraction(r.area, n)


def decompose_check(p: Permutation, t: Permutation, x: int, y: int, a: int, b: int) -> bool:
    """Verify the exact additive split of Z(a,b) into the four blocks cut at
    (x, y): the prefix box, the two side strips, and the corner rectangle."""
    n = p.n
    if p.n != t.n:
        raise ValueError(f"size mismatch: {p.n} vs {t.n}")
    if not (0 <= x <= a <= n and 0 <= y <= b <= n):
        raise ValueError(f"need 0 <= x <= a <= n and 0 <= y <= b <= n, got {(x, y, a, b, n)}")

    def zr(rect: Rectangle) -> int:
        return rect_sum(p, rect) - rect_sum(t, rect)

    whole = zr(Rectangle(0, a, 0, b))
    parts = (
        zr(Rectangle(0, x, 0, y))
        + zr(Rectangle(0, x, y, b))
        + zr(Rectangle(x, a, 0, y))
        + zr(Rectangle(x, a, y, b))
    )
    return whole == parts


def _window_stats(g: np.random.Generator, n: int, rows: int, first: int, count: int, y0: int, y1: int) -> np.ndarray:
    """For each of ``count`` uniform permutations of [n] drawn from ``g``,
    the max over a in [first, rows], b in [y0, y1] of
    |C(a, b) - C(a, y0) - a(b - y0)/n|, C(a, b) = #{i <= a : p(i) <= b}.

    U(first, .) = b - C(first, .) on the columns is one exact draw
    (perms.unused_counts); each later row a is one rank row for all the
    permutations, rank_step on rank_indices(n, a, (count,)), and the max
    runs over the rows."""
    span = np.arange(y1 - y0 + 1)[:, None]
    u = unused_counts(n, first, range(y0, y1 + 1), (count,), g)
    stat = np.zeros(count)
    for a in range(first, rows + 1):
        if a > first:
            rank_step(u, rank_indices(n, a, (count,), g))
        dev = np.subtract(span, u - u[0], dtype=np.float64)  # C(a, b) - C(a, y0)
        dev -= a * span / n
        np.maximum(stat, np.abs(dev, out=dev).max(axis=0), out=stat)
    return stat


def _window_stat_block(
    lo: int, hi: int, seed: int, n: int, rows: int, first: int, y0: int, y1: int
) -> list[tuple[int, float, float]]:
    """For each block of trials lo..hi-1, which may span several blocks,
    (count, sum, sum of squares) of _window_stats on the block's
    trial_stream(seed, block) (CSV schema chainstat-v4).  ``lo`` must start
    a block."""
    stats = (_window_stats(g, n, rows, first, e - s, y0, y1) for g, s, e in block_streams(seed, lo, hi, _STAT_BLOCK))
    return [(stat.size, float(stat.sum()), float(stat @ stat)) for stat in stats]


def _window_max(
    n: int, x: int, y: int, trials: int, seed: int, workers: int, rows: int, first: int
) -> TrialSummary:
    """Mean of _window_stats to row ``rows`` from row ``first`` on the
    columns [y, 5y/4]."""
    if not (1 <= x <= n and 1 <= y <= n):
        raise ValueError(f"need 1 <= x, y <= n, got x={x} y={y} n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    y1 = min(5 * y // 4, n)
    fn = partial(_window_stat_block, seed=seed, n=n, rows=rows, first=first, y0=y, y1=y1)
    tasks = run_blocks(trials, task_size(_STAT_BLOCK, trials, processes(workers)), fn, workers)
    # summed block by block, in block order, for the same floats at any grouping
    count, total, sumsq = (sum(col) for col in zip(*(block for task in tasks for block in task)))
    mean = total / count
    var = max(sumsq / count - mean * mean, 0.0) * (count / max(count - 1, 1))
    return TrialSummary(mean=mean, stderr=math.sqrt(var / count), trials=count)


def max_rect_stat(n: int, x: int, y: int, trials: int, seed: int, workers: int = 1) -> TrialSummary:
    """Monte Carlo mean of max |centered count of (x,a] x (y,b]| over the
    window a in [x, 5x/4], b in [y, 5y/4], one fresh permutation per trial.

    Rows (x, 5x/4] of a uniform permutation have the law of its rows 1..R,
    R = 5x/4 - x, so a trial draws R rank rows from U(0, b) = b, O(y)
    cells, and builds no full table.
    """
    return _window_max(n, x, y, trials, seed, workers, min(5 * x // 4, n) - x, 0)


def max_strip_stat(n: int, x: int, y: int, trials: int, seed: int, workers: int = 1) -> TrialSummary:
    """Monte Carlo mean of max |centered count of (0,x] x (y,b]| over
    b in [y, 5y/4]; the one-dimensional strip analogue of max_rect_stat.
    It reads only C(x, .) on the window, one unused_counts draw, and draws
    no row."""
    return _window_max(n, x, y, trials, seed, workers, x, x)
