"""The two-dimensional prefix-difference process Z(a,b) for permutation pairs.

Z(a,b) counts the ones of the first permutation's matrix in the top-left
a x b corner minus the same count for the second permutation.  p <= t in the
strong Bruhat order exactly when Z stays non-negative over the whole square,
which makes comparability a two-dimensional persistence event.

Centered rectangle counts subtract the exact expectation area/n; those terms
are kept as rationals so identity checks stay exact.
"""
from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from functools import partial

import numpy as np

from ._parallel import merge_mean_var, run_blocks
from .perms import MAX_TABLE_SIZE, Permutation, dominance_counts, trial_stream

_STAT_BLOCK = 256  # trials per merge block; fixed so merges are reproducible


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
    z = np.zeros((n + 1, n + 1), dtype=np.int16 if n < 2 ** 15 else np.int32)
    rows = np.arange(1, n + 1)
    z[rows, np.fromiter(p.values, dtype=np.intp, count=n)] += 1
    z[rows, np.fromiter(t.values, dtype=np.intp, count=n)] -= 1
    np.cumsum(z, axis=0, out=z)
    np.cumsum(z, axis=1, out=z)
    return ZTable(n, z)


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


def _window(v: int, n: int) -> tuple[int, int]:
    """Index window [v, floor(5v/4)] clipped to n."""
    return v, min((5 * v) // 4, n)


def _rect_stat_block(lo: int, hi: int, seed: int, n: int, x: int, y: int) -> tuple[int, float, float]:
    x0, x1 = _window(x, n)
    y0, y1 = _window(y, n)
    total = 0.0
    sumsq = 0.0
    area = np.arange(x1 - x0 + 1, dtype=np.float64)[:, None] * np.arange(y1 - y0 + 1, dtype=np.float64)[None, :]
    expect = area / n
    for t in range(lo, hi):
        word = trial_stream(seed, t).permutation(n) + 1
        c = dominance_counts(word)
        sub = c[x0 : x1 + 1, y0 : y1 + 1].astype(np.float64)
        cnt = sub - c[x0, y0 : y1 + 1][None, :] - c[x0 : x1 + 1, y0][:, None] + c[x0, y0]
        stat = float(np.abs(cnt - expect).max())
        total += stat
        sumsq += stat * stat
    return hi - lo, total, sumsq


def _strip_stat_block(lo: int, hi: int, seed: int, n: int, x: int, y: int) -> tuple[int, float, float]:
    y0, y1 = _window(y, n)
    widths = np.arange(y1 - y0 + 1, dtype=np.float64)
    expect = x * widths / n
    grid = np.arange(y0, y1 + 1)
    total = 0.0
    sumsq = 0.0
    for t in range(lo, hi):
        word = trial_stream(seed, t).permutation(n) + 1
        vals = np.sort(word[:x])
        cnt = np.searchsorted(vals, grid, side="right").astype(np.float64)
        cnt -= cnt[0]
        stat = float(np.abs(cnt - expect).max())
        total += stat
        sumsq += stat * stat
    return hi - lo, total, sumsq


def _summarize(partials) -> TrialSummary:
    count, total, sumsq = merge_mean_var(partials)
    mean = total / count
    var = max(sumsq / count - mean * mean, 0.0) * (count / max(count - 1, 1))
    return TrialSummary(mean=mean, stderr=math.sqrt(var / count), trials=count)


def max_rect_stat(n: int, x: int, y: int, trials: int, seed: int, workers: int = 1) -> TrialSummary:
    """Monte Carlo mean of max |centered count of (x,a] x (y,b]| over the
    window a in [x, 5x/4], b in [y, 5y/4], one fresh permutation per trial.

    Per trial the full prefix table is built once (O(n^2)) and every
    rectangle in the window is an O(1) corner query.
    """
    if not (1 <= x <= n and 1 <= y <= n):
        raise ValueError(f"need 1 <= x, y <= n, got x={x} y={y} n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fn = partial(_rect_stat_block, seed=seed, n=n, x=x, y=y)
    return _summarize(run_blocks(trials, _STAT_BLOCK, fn, workers))


def max_strip_stat(n: int, x: int, y: int, trials: int, seed: int, workers: int = 1) -> TrialSummary:
    """Monte Carlo mean of max |centered count of (0,x] x (y,b]| over
    b in [y, 5y/4]; the one-dimensional strip analogue of max_rect_stat."""
    if not (1 <= x <= n and 1 <= y <= n):
        raise ValueError(f"need 1 <= x, y <= n, got x={x} y={y} n={n}")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    fn = partial(_strip_stat_block, seed=seed, n=n, x=x, y=y)
    return _summarize(run_blocks(trials, _STAT_BLOCK, fn, workers))
