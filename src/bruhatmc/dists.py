"""Exact hypergeometric laws, tail bounds, and the binomial comparison ratio.

Probabilities are exact rationals wherever the parameters allow big-integer
binomials cheaply; the large-parameter paths go through mpmath log-gamma at
60 significant digits, or more where n has many digits, so every floating
result here carries relative error far below 1e-10.
"""
from __future__ import annotations

import dataclasses
import math
import warnings
from fractions import Fraction

import numpy as np

from .perms import permutation_rows
from .zprocess import Rectangle

_MP_DPS = 60
# above this population size pmf floats switch from exact rationals to
# log-gamma evaluation
_EXACT_PMF_CAP = 4000


class RegimeError(ValueError):
    """A bound was requested outside the parameter regime it is proven in."""


@dataclasses.dataclass(frozen=True)
class HyperGeomParams:
    """(population N, draws B, successes A); the law of the number of
    successes seen when drawing B of N objects without replacement."""

    N: int
    B: int
    A: int

    def __post_init__(self):
        if not (0 <= self.A <= self.N and 0 <= self.B <= self.N):
            raise ValueError(f"need 0 <= A, B <= N, got {self}")

    @property
    def support(self) -> range:
        return range(max(0, self.A + self.B - self.N), min(self.A, self.B) + 1)


@dataclasses.dataclass(frozen=True)
class FrameCounts:
    """Point counts on the three frame blocks around a nested box pair:
    m1 in (0,x1] x (y1,y2], m2 in (x1,x2] x (0,y1], m3 in (x1,x2] x (y1,y2]."""

    m1: int
    m2: int
    m3: int

    def __post_init__(self):
        if min(self.m1, self.m2, self.m3) < 0:
            raise ValueError(f"negative frame counts {self}")


@dataclasses.dataclass(frozen=True)
class BoxLawReport:
    """Goodness of fit of sampled box counts against the hypergeometric law."""

    params: HyperGeomParams
    trials: int
    tv_distance: float
    chi_square: float
    histogram: dict[int, int]


@dataclasses.dataclass(frozen=True)
class RatioResult:
    """Exact pmf ratio hypergeometric / binomial at one point."""

    n: int
    k: int
    submatrix_side: int
    ratio: float
    regime_ok: bool


def hypergeom_pmf_exact(params: HyperGeomParams, k: int) -> Fraction:
    """P(xi = k) as an exact rational; zero outside the support."""
    if k not in params.support:
        return Fraction(0)
    N, B, A = params.N, params.B, params.A
    return Fraction(math.comb(A, k) * math.comb(N - A, B - k), math.comb(N, B))


def hypergeom_pmf(params: HyperGeomParams, k: int) -> float:
    """P(xi = k) as a float; exact rationals up to N=4000, log-gamma above."""
    if k not in params.support:
        return 0.0
    if params.N <= _EXACT_PMF_CAP:
        return float(hypergeom_pmf_exact(params, k))
    import mpmath  # imported here, not with the module, so commands that never need it start faster

    N, B, A = params.N, params.B, params.A
    with mpmath.workdps(_MP_DPS):
        val = mpmath.exp(
            _logcomb(A, k) + _logcomb(N - A, B - k) - _logcomb(N, B)
        )
        return float(val)


def _logcomb(a: int, b: int):
    import mpmath

    return (
        mpmath.loggamma(a + 1)
        - mpmath.loggamma(b + 1)
        - mpmath.loggamma(a - b + 1)
    )


def hypergeom_moments(params: HyperGeomParams) -> tuple[Fraction, Fraction]:
    """(mean, variance) as exact rationals: AB/N and AB(N-A)(N-B)/(N^2(N-1))."""
    N, B, A = params.N, params.B, params.A
    if N <= 1:
        raise ValueError(f"variance undefined for N={N} <= 1")
    mean = Fraction(A * B, N)
    var = Fraction(A * B * (N - A) * (N - B), N * N * (N - 1))
    return mean, var


def hypergeom_sample(params: HyperGeomParams, stream: np.random.Generator, size: int | None = None):
    """Draw from the law by simulating the urn: B sequential draws without
    replacement, each a uniform pick among the remaining objects.

    Returns an int64 array of length ``size``, the urn process run on all
    lanes at once; ``size=None`` returns the one draw of ``size=1`` as an int.
    """
    if size is None:
        return int(hypergeom_sample(params, stream, size=1)[0])
    N, B, A = params.N, params.B, params.A
    reds = np.full(size, A, dtype=np.int64)
    hits = np.zeros(size, dtype=np.int64)
    for j in range(B):
        draw = stream.integers(0, N - j, size=size)
        hit = draw < reds
        hits += hit
        reds -= hit
    return hits


def bernstein_bound(params: HyperGeomParams, t: float, override: bool = False) -> float:
    """Two-sided tail bound 2 exp(-min(t^2/(ab/n), t)/16) for the count with
    a = params.A successes and b = params.B draws from n = params.N.

    Proven for a <= b <= 3n/4; outside that regime the call raises unless
    ``override`` is set, in which case the formula is evaluated anyway with
    a warning that it carries no guarantee there.
    """
    if t <= 0:
        raise ValueError(f"need t > 0, got {t}")
    a, b, n = params.A, params.B, params.N
    if not a <= b <= 3 * n / 4:
        if not override:
            raise RegimeError(
                f"bound proven only for a <= b <= 3n/4; got a={a} b={b} n={n}"
            )
        warnings.warn(
            f"bernstein_bound outside proven regime (a={a} b={b} n={n}); value is unproven",
            stacklevel=2,
        )
    ab_over_n = a * b / n
    if ab_over_n == 0:
        exponent = t
    else:
        exponent = min(t * t / ab_over_n, t)
    return 2.0 * math.exp(-exponent / 16.0)


def box_count_law_check(n: int, rect: Rectangle, trials: int, stream: np.random.Generator) -> BoxLawReport:
    """Sample box counts of uniform permutations and compare the histogram to
    HyperGeom(n, b2-b1, a2-a1): total-variation distance and the chi-square
    statistic over the support.  Rows (a1, a2] have the law of rows
    1..a2-a1, so a trial draws only a2 - a1 rows (permutation_rows)."""
    if rect.a2 > n or rect.b2 > n:
        raise ValueError(f"rectangle {rect} out of bounds for n={n}")
    params = HyperGeomParams(n, rect.b2 - rect.b1, rect.a2 - rect.a1)
    vals = permutation_rows(n, rect.a2 - rect.a1, trials, stream)
    counts = ((vals > rect.b1) & (vals <= rect.b2)).sum(axis=1)
    hist = {int(k): int(c) for k, c in zip(*np.unique(counts, return_counts=True))}
    tv = 0.0
    chi2 = 0.0
    for k in params.support:
        pk = hypergeom_pmf_exact(params, k)
        obs = hist.get(k, 0)
        expected = float(pk) * trials
        tv += abs(obs / trials - float(pk))
        if expected > 0:
            chi2 += (obs - expected) ** 2 / expected
    tv += sum(c for k, c in hist.items() if k not in params.support) / trials
    return BoxLawReport(params, trials, tv / 2.0, chi2, hist)


def frame_conditional_params(
    n: int, x1: int, x2: int, y1: int, y2: int, f: FrameCounts
) -> HyperGeomParams:
    """Exact law of the count in (0,x1] x (0,y1] given the frame counts on
    (0,x2] x (0,y2] outside that box: removing the revealed rows and columns
    leaves a uniform without-replacement draw, so the conditional law is
    HyperGeom(n - (x2-x1) - (y2-y1) + m3, y1 - m2, x1 - m1).
    """
    if not (0 <= x1 <= x2 <= n and 0 <= y1 <= y2 <= n):
        raise ValueError(f"need 0 <= x1 <= x2 <= n and 0 <= y1 <= y2 <= n, got {(x1, x2, y1, y2)}")
    if f.m1 > min(x1, y2 - y1) or f.m2 > min(y1, x2 - x1) or f.m3 > min(x2 - x1, y2 - y1):
        raise ValueError(f"frame counts {f} infeasible for frame {(x1, x2, y1, y2)}")
    pop = n - (x2 - x1) - (y2 - y1) + f.m3
    draws = y1 - f.m2
    succ = x1 - f.m1
    if draws < 0 or succ < 0:
        raise ValueError(f"frame counts {f} leave negative parameters ({pop}, {draws}, {succ})")
    return HyperGeomParams(pop, draws, succ)


def _int_floor_root_power(n: int, num: int, den: int) -> int:
    """floor(n**(num/den)) for n >= 1, computed exactly on integers: Newton's
    method for the den-th root of n**num, from a power of two above it."""
    m = n ** num
    root = 1 << -(-m.bit_length() // den)
    while (step := ((den - 1) * root + m // root ** (den - 1)) // den) < root:
        root = step
    return root


def submatrix_side(n: int) -> int:
    """N = floor(n^(7/12)), the submatrix side that bernoulli_ratio uses."""
    return _int_floor_root_power(n, 7, 12)


def bernoulli_ratio(n: int, k: int) -> RatioResult:
    """Exact pmf ratio P(HyperGeom(n, N, N) = k) / P(Binomial(N^2, 1/n) = k)
    with N = floor(n^(7/12)), evaluated with 60 + 2 * (digits of n)
    significant digits, so the log-gamma differences keep 60 of them.

    The comparison is meaningful for k up to n^(1/5); beyond that the result
    carries ``regime_ok=False``.
    """
    if n < 2 or k < 0:
        raise ValueError(f"need n >= 2 and k >= 0, got n={n} k={k}")
    N = submatrix_side(n)
    if k > N:
        raise ValueError(f"k={k} above the hypergeometric support (N={N})")
    regime_ok = k ** 5 <= n
    import mpmath  # imported on first use, as in hypergeom_pmf

    with mpmath.workdps(_MP_DPS + 2 * (int(math.log10(n)) + 1)):
        log_hyper = _logcomb(N, k) + _logcomb(n - N, N - k) - _logcomb(n, N)
        log_binom = (
            _logcomb(N * N, k)
            - k * mpmath.log(n)
            + (N * N - k) * mpmath.log(1 - mpmath.mpf(1) / n)
        )
        ratio = float(mpmath.exp(log_hyper - log_binom))
    return RatioResult(n=n, k=k, submatrix_side=N, ratio=ratio, regime_ok=regime_ok)
