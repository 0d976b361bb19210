"""Monte Carlo estimators and scaling fits for comparability and persistence.

Comparability, box persistence and sheet persistence each ask whether a
prefix-sum field stays at or above a floor; all three run on one batched
kernel, _survivors, a loop of steps that each extend the field by a few
cells for the trials still alive and drop a trial at the first step where
it fails.  For a permutation pair a step is one row of Z; for a sheet it is
the border that grows the k-1 x k-1 square to k x k.  Pair rows come from a
row-by-row Fisher-Yates shuffle over per-pair pools of unused values:
comparability draws a row only for the pairs still alive, and box
persistence draws its window's rows for every pair before its scan so that
its floors stay coupled, then scans from the window's first row on.  Pair
draws and pools use the draw dtype (int16, or int32 from n = 2^15), which
is part of the stream layout; Z cells use a cell dtype that only needs to
hold [-n, n] (int8 below n = 128), which changes no result.  Sheet borders
are drawn only for the trials still alive.  Each fixed-size block of
trials draws from one counter-based stream keyed by (seed, block index),
so results are bit-identical no matter how many workers execute the
blocks.
"""
from __future__ import annotations

import dataclasses
import math
import time
import warnings
from fractions import Fraction
from functools import partial

import numpy as np

from ._parallel import run_blocks
from .perms import trial_stream

_Z95 = 1.959963984540054  # normal 97.5% quantile for Wilson intervals
_MC_BLOCK = 4096  # trials per merge block (comparability / box persistence)
_SHEET_BLOCK = 8192  # trials per sheet block; each block owns one stream
_PAIR_DRAW = 1 << 18  # entries per Fisher-Yates pool array (sub-batch cap)
LOW_COUNT_THRESHOLD = 20


def wilson_interval(successes: int, trials: int, z: float = _Z95) -> tuple[float, float]:
    """Wilson score 95% interval; well behaved at small success counts."""
    if not 0 <= successes <= trials or trials < 1:
        raise ValueError(f"bad counts {successes}/{trials}")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    # clamp so rounding never pushes the interval off p_hat or out of [0, 1]
    return max(0.0, min(center - half, phat)), min(1.0, max(center + half, phat))


@dataclasses.dataclass(frozen=True)
class EstimateResult:
    """A Monte Carlo point estimate with its reproducibility record."""

    n: int
    trials: int
    successes: int
    p_hat: float
    ci_low: float
    ci_high: float
    seed: int
    wall_time: float

    @staticmethod
    def from_counts(n: int, trials: int, successes: int, seed: int, wall_time: float) -> "EstimateResult":
        lo, hi = wilson_interval(successes, trials)
        return EstimateResult(
            n=n,
            trials=trials,
            successes=successes,
            p_hat=successes / trials,
            ci_low=lo,
            ci_high=hi,
            seed=seed,
            wall_time=wall_time,
        )

    @property
    def low_count(self) -> bool:
        return self.successes < LOW_COUNT_THRESHOLD


def _survivors(step, steps: range, floor_level: float, count: int, z: np.ndarray | None = None) -> int:
    """Number of a block's ``count`` trials whose field stays at or above
    ``floor_level`` on every step of ``steps``.

    ``z = step(a, idx, z)`` returns the cells that step a adds for the
    trials ``idx`` still alive, given the cells it returned for them at
    step a - 1 (the ``z`` passed in at the first step).  The scan drops the
    trials that fail and stops when none is left.
    """
    idx = np.arange(count)
    for a in steps:
        z = step(a, idx, z)
        # a comparison and a boolean all(), and take() on the row numbers,
        # run faster on short rows than min(axis=1) and a boolean mask
        keep = (z >= floor_level).all(axis=1)
        if not keep.all():
            live = np.flatnonzero(keep)
            idx, z = idx[live], z.take(live, axis=0)
            if idx.size == 0:
                return 0
    return idx.size


def _pair_block(
    lo: int, hi: int, seed: int, n: int, last: int, first: int, cols: range, floor_level: float,
    upfront: bool = False,
) -> int:
    """Successes within one block of permutation pairs (p, t).

    Step a of the scan is row a of Z on the columns b in ``cols``: row a - 1
    plus the increment [b >= p(a)] - [b >= t(a)], whose entries already hold
    their whole row prefix.  The scan checks rows ``first``..``last``.
    The block's pairs come from trial_stream(seed, block) in sub-batches of
    at most _PAIR_DRAW // n pairs, drawn row by row by a Fisher-Yates
    shuffle (CSV schema mc-v3).  Each pair keeps two pools of unused values,
    one for p and one for t, both starting as 0..n-1.  Row a takes
    p(a) = pool[a - 1 + j] for an index j uniform on 0..n-a, then moves
    pool[a - 1] into the freed slot; t(a) likewise from its own pool.
    Indices and pools use the draw dtype (int16 below n = 2^15, else
    int32), which is part of mc-v3.  Z cells use the narrowest signed dtype
    that holds [-n, n]: int8 below n = 128, else the draw dtype.

    By default row a is drawn only for the k pairs still alive after row
    a - 1, by two calls integers(0, n - a + 1, size=k): the p indices, then
    the t indices.  A pair costs draws up to the row where it fails, and
    the stream depends on which pairs fail.  With ``upfront`` the indices
    of rows 1..``last`` are drawn for every pair of the sub-batch in one
    call of shape (last, 2, count) before the scan (row by row, p's then
    t's), so the pairs do not depend on the floor: box persistence couples
    its floors this way, across sub-batches too.  Rows before ``first``
    then only move pool entries, and Z(first - 1, .) on ``cols`` comes from
    one count of the values they drew.
    """
    g = trial_stream(seed, lo // _MC_BLOCK)
    dtype = np.int16 if n < 2 ** 15 else np.int32
    cell = np.int8 if n < 128 else dtype
    b = np.arange(cols.start - 1, cols.stop - 1, dtype=dtype)  # 0-based b - 1
    batch = max(1, _PAIR_DRAW // n)
    succ = 0
    for start in range(lo, hi, batch):
        count = min(batch, hi - start)
        pools = np.tile(np.arange(n, dtype=dtype), 2 * count)  # p's pools, then t's
        if upfront:
            highs = n - np.arange(last)[:, None, None]  # n + 1 - a for rows a = 1..last
            drawn = g.integers(0, highs, size=(last, 2, count), dtype=dtype)

        def draw(a, idx, jp, jt):
            # p(a) - 1 and t(a) - 1 for the pairs idx, from pool indices jp, jt
            hp = idx * n + (a - 1)  # flat position of p's pool[a - 1]
            ht = hp + count * n
            at_p, at_t = hp + jp, ht + jt
            vp, vt = pools[at_p], pools[at_t]
            pools[at_p], pools[at_t] = pools[hp], pools[ht]
            return vp, vt

        def row(a, idx, z):
            if upfront:
                jp, jt = drawn[a - 1][:, idx]
            else:  # p's indices, then t's
                jp = g.integers(0, n - a + 1, size=idx.size, dtype=dtype)
                jt = g.integers(0, n - a + 1, size=idx.size, dtype=dtype)
            vp, vt = draw(a, idx, jp, jt)
            inc = np.subtract(b >= vp[:, None], b >= vt[:, None], dtype=cell)
            return inc if z is None else np.add(inc, z, out=inc)

        z = None
        if first > 1:  # Z(first - 1, b) = #{p(i) <= b} - #{t(i) <= b} over i < first
            every = np.arange(count)
            done = np.array([draw(a, every, *drawn[a - 1]) for a in range(1, first)])
            keys = done + every * n  # (first - 1, 2, count): each pair's values in its own n bins
            counts = np.bincount(keys[:, 0].ravel(), minlength=count * n)
            counts -= np.bincount(keys[:, 1].ravel(), minlength=count * n)
            z = counts.reshape(count, n).cumsum(axis=1)[:, cols.start - 1 : cols.stop - 1].astype(cell)
        succ += _survivors(row, range(first, last + 1), floor_level, count, z)
    return succ


def estimate_comparability(n: int, trials: int, seed: int, workers: int = 1) -> EstimateResult:
    """Estimate P(p <= t) for independent uniform permutations of [n].

    Z(a, b) must stay >= 0 on every row and column; the batched scan drops a
    pair at its first failing row, so failed comparisons stay cheap.
    """
    if n < 1 or trials < 1:
        raise ValueError(f"need n >= 1 and trials >= 1, got n={n} trials={trials}")
    start = time.perf_counter()
    fn = partial(
        _pair_block, seed=seed, n=n, last=n, first=1, cols=range(1, n + 1),
        floor_level=0,
    )
    succ = sum(run_blocks(trials, _MC_BLOCK, fn, workers))
    return EstimateResult.from_counts(n, trials, succ, seed, time.perf_counter() - start)


def estimate_box_persistence(
    n: int, x: int, y: int, c_log: float, trials: int, seed: int, workers: int = 1
) -> EstimateResult:
    """Estimate P(min Z(a,b) >= -c_log * ln n) over the window
    a in [x, 5x/4], b in [y, 5y/4], for fresh uniform pairs."""
    if not (1 <= x <= n // 2 and 1 <= y <= n // 2):
        raise ValueError(f"need 1 <= x, y <= n/2, got x={x} y={y} n={n}")
    if c_log < 0 or trials < 1:
        raise ValueError(f"need c_log >= 0 and trials >= 1, got {c_log}, {trials}")
    start = time.perf_counter()
    fn = partial(
        _pair_block, seed=seed, n=n, last=min((5 * x) // 4, n), first=x,
        cols=range(y, min((5 * y) // 4, n) + 1), floor_level=-c_log * math.log(n), upfront=True,
    )
    succ = sum(run_blocks(trials, _MC_BLOCK, fn, workers))
    return EstimateResult.from_counts(n, trials, succ, seed, time.perf_counter() - start)


def _sheet_q(m: int, mode: str, p: float | None) -> float | None:
    """Check a sheet's increment law.  Returns None for standard normal
    increments, or in zeta mode q = p(1-p), the probability of each of +1
    and -1 (default p = 1/m^2, a sparse sheet)."""
    if mode == "gaussian":
        if p is not None:
            raise ValueError("p applies to zeta mode only")
        return None
    if mode != "zeta":
        raise ValueError(f"unknown mode {mode!r}; expected 'gaussian' or 'zeta'")
    if p is None:
        p = 1.0 / (m * m)
    if not 0 < p <= 0.5:
        raise ValueError(f"zeta mode needs p in (0, 1/2], got {p}")
    return p * (1.0 - p)


def _sheet_increments(g: np.random.Generator, shape, q: float | None) -> np.ndarray:
    """Draw increments of the law that _sheet_q returned."""
    if q is None:
        return g.standard_normal(shape)
    u = g.random(shape)
    return (u < q).astype(np.float64) - (u > 1.0 - q)


def _square_border(border: np.ndarray, k: int, z: np.ndarray | None) -> np.ndarray:
    """Turn, in place, the increments of row k on columns 1..k, then of
    column k on rows 1..k-1, into the border [Z(k, 1..k) | Z(1..k-1, k)],
    given the previous border ``z`` (None at k = 1)."""
    row, col = border[:, :k], border[:, k:]
    np.cumsum(row, axis=1, out=row)
    np.cumsum(col, axis=1, out=col)
    if z is not None:
        row[:, :-1] += z[:, : k - 1]
        col[:, :-1] += z[:, k - 1 :]
        col[:, -1] += z[:, k - 2]  # the old corner Z(k-1, k-1)
        row[:, -1] += col[:, -1]  # Z(k-1, k)
    return border


def _sheet_block(lo: int, hi: int, seed: int, m: int, floor_level: float, q: float | None) -> int:
    """Successes within one block; all randomness from the block's stream.

    The sheet is scanned as a growing square: step k extends the
    (k-1) x (k-1) square to k x k, so a trial dies at the first square whose
    new border drops below the floor.  Step k draws, only for the trials
    still alive, one array of shape (alive, 2k - 1) in _square_border's
    layout (CSV schema gauss-v3), so the draw order depends on the block's
    own trials, not on the worker count.
    """
    g = trial_stream(seed, lo // _SHEET_BLOCK)

    def square(k, idx, z):
        return _square_border(_sheet_increments(g, (idx.size, 2 * k - 1), q), k, z)

    return _survivors(square, range(1, m + 1), floor_level, hi - lo)


def sheet_persistence(
    m: int,
    threshold: float,
    trials: int,
    seed: int,
    mode: str = "gaussian",
    p: float | None = None,
    workers: int = 1,
) -> EstimateResult:
    """Estimate P(min over the m x m grid of the prefix-sum sheet >= -threshold).

    ``gaussian`` mode uses i.i.d. standard normal increments.  ``zeta`` mode
    uses increments valued +-1 with probability p(1-p) each (default
    p = 1/m^2, a sparse sheet); its threshold is matched by increment
    standard deviation sqrt(2 p (1-p)) so the two modes are compared on the
    same scale.
    """
    if m < 1 or trials < 1:
        raise ValueError(f"need m >= 1 and trials >= 1, got m={m} trials={trials}")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"need a finite threshold >= 0, got {threshold}")
    q = _sheet_q(m, mode, p)
    floor_level = -threshold if q is None else -threshold * math.sqrt(2.0 * q)
    start = time.perf_counter()
    fn = partial(_sheet_block, seed=seed, m=m, floor_level=floor_level, q=q)
    succ = sum(run_blocks(trials, _SHEET_BLOCK, fn, workers))
    return EstimateResult.from_counts(m, trials, succ, seed, time.perf_counter() - start)


@dataclasses.dataclass(frozen=True)
class SheetGrid:
    """Prefix sums G(a,b) of an m x m field of increments, padded with the
    zero row and column so G(0, .) = G(., 0) = 0."""

    m: int
    g: np.ndarray

    def __post_init__(self):
        self.g.setflags(write=False)

    def increments(self) -> np.ndarray:
        """Second difference of g; recovers the underlying m x m field."""
        return np.diff(np.diff(self.g, axis=0), axis=1)


def sheet_grid(
    m: int, stream: np.random.Generator, mode: str = "gaussian", p: float | None = None
) -> SheetGrid:
    """Materialize one sheet: standard normal increments, or +-1 increments
    with probability p(1-p) each in zeta mode."""
    if m < 1:
        raise ValueError(f"need m >= 1, got {m}")
    inc = _sheet_increments(stream, (m, m), _sheet_q(m, mode, p))
    g = np.zeros((m + 1, m + 1))
    np.cumsum(inc, axis=0, out=g[1:, 1:])
    np.cumsum(g[1:, 1:], axis=1, out=g[1:, 1:])
    return SheetGrid(m, g)


def _log_variance(r: EstimateResult) -> float:
    # delta method: Var(ln p_hat) ~ (1 - p_hat) / (trials * p_hat)
    return (1.0 - r.p_hat) / (r.trials * r.p_hat)


def _wls(design: np.ndarray, y: np.ndarray, weights: np.ndarray):
    sw = np.sqrt(weights)
    beta, *_ = np.linalg.lstsq(design * sw[:, None], y * sw, rcond=None)
    fitted = design @ beta
    chi2 = float(np.sum(weights * (y - fitted) ** 2))
    ybar = float(np.sum(weights * y) / np.sum(weights))
    sst = float(np.sum(weights * (y - ybar) ** 2))
    r2 = 1.0 - chi2 / sst if sst > 0 else 1.0
    return beta, fitted, chi2, r2


def _aicc(chi2: float, n_points: int, k: int) -> float | None:
    if n_points - k - 1 <= 0:
        return None
    return chi2 + 2 * k + 2 * k * (k + 1) / (n_points - k - 1)


@dataclasses.dataclass(frozen=True)
class ScalingFit:
    """Weighted fit of -ln p_hat = alpha (ln n)^2 + beta ln n + gamma, with a
    penalized comparison against the alpha = 0 (polynomial decay) submodel."""

    alpha: float
    beta: float
    gamma: float
    residuals: tuple[float, ...]
    r_squared: float
    aicc_full: float | None  # None: too few points for the AICc
    aicc_submodel: float
    preferred: str  # "log-squared", "polynomial" or "undetermined"
    n_points: int
    excluded: tuple[int, ...]

    @property
    def comparison_score(self) -> float | None:
        """aicc_submodel - aicc_full; positive favors the (ln n)^2 model."""
        return None if self.aicc_full is None else self.aicc_submodel - self.aicc_full


def fit_scaling(results: list[EstimateResult], include_low_count: bool = False) -> ScalingFit:
    """Fit the decay model to a grid of comparability estimates.

    Points with p_hat = 0 or 1 are excluded (no usable log variance), as are
    LOW-COUNT points unless ``include_low_count`` is set.  With exactly four
    usable sizes the full model's AICc is undefined, so the comparison is
    None and ``preferred`` is "undetermined".
    """
    usable = []
    excluded = []
    for r in results:
        if r.p_hat <= 0.0 or r.p_hat >= 1.0:
            warnings.warn(f"excluding n={r.n}: p_hat={r.p_hat} has no usable log variance")
            excluded.append(r.n)
        elif r.low_count and not include_low_count:
            warnings.warn(f"excluding n={r.n}: LOW-COUNT ({r.successes} successes)")
            excluded.append(r.n)
        else:
            usable.append(r)
    if len({r.n for r in usable}) < 4:
        raise ValueError(f"need >= 4 distinct usable sizes, have {len(usable)}")
    logn = np.array([math.log(r.n) for r in usable])
    y = np.array([-math.log(r.p_hat) for r in usable])
    weights = 1.0 / np.array([_log_variance(r) for r in usable])
    design = np.column_stack([logn ** 2, logn, np.ones_like(logn)])
    beta_full, fitted, chi2_full, r2 = _wls(design, y, weights)
    _, _, chi2_sub, _ = _wls(design[:, 1:], y, weights)
    aicc_full = _aicc(chi2_full, len(usable), 3)
    aicc_sub = _aicc(chi2_sub, len(usable), 2)  # defined: four or more points
    if aicc_full is None:
        preferred = "undetermined"
    else:
        preferred = "log-squared" if aicc_sub > aicc_full else "polynomial"
    return ScalingFit(
        alpha=float(beta_full[0]),
        beta=float(beta_full[1]),
        gamma=float(beta_full[2]),
        residuals=tuple(float(v) for v in (y - fitted)),
        r_squared=r2,
        aicc_full=aicc_full,
        aicc_submodel=aicc_sub,
        preferred=preferred,
        n_points=len(usable),
        excluded=tuple(excluded),
    )


@dataclasses.dataclass(frozen=True)
class PsiFit:
    """Slope of -ln p_hat against (ln m)^2 with its regression error."""

    psi_hat: float
    stderr: float
    intercept: float
    n_points: int


def psi_fit(results: list[EstimateResult]) -> PsiFit:
    """Estimate the persistence exponent from sheet results over grid sizes
    spanning at least two octaves."""
    usable = [r for r in results if 0.0 < r.p_hat < 1.0]
    sizes = sorted({r.n for r in usable})
    if len(sizes) < 3:
        raise ValueError(f"need >= 3 distinct grid sizes with 0 < p_hat < 1, have {len(sizes)}")
    if sizes[-1] < 4 * sizes[0]:
        raise ValueError(f"grid sizes {sizes} span less than two octaves")
    logm = np.array([math.log(r.n) for r in usable])
    y = np.array([-math.log(r.p_hat) for r in usable])
    weights = 1.0 / np.array([_log_variance(r) for r in usable])
    design = np.column_stack([logm ** 2, np.ones_like(logm)])
    beta, _, _, _ = _wls(design, y, weights)
    cov = np.linalg.inv(design.T @ (design * weights[:, None]))
    return PsiFit(
        psi_hat=float(beta[0]),
        stderr=float(math.sqrt(cov[0, 0])),
        intercept=float(beta[1]),
        n_points=len(usable),
    )


@dataclasses.dataclass(frozen=True)
class LiShaoResult:
    """Row sums of the dyadic-scale correlation kernel of the prefix-sum
    sheet, against the closed form ((1 + rho^-1/2)/(1 - rho^-1/2))^2."""

    rho: int
    index_range: int
    supremum_over_ij: float
    closed_form: Fraction | float
    bound_satisfied: bool  # closed form <= 5/4

    @property
    def closed_form_float(self) -> float:
        return float(self.closed_form)


def li_shao_sum(rho: int, index_range: int = 200) -> LiShaoResult:
    """Evaluate the correlation row-sum condition at scale ratio rho.

    The kernel rho^(-|i-a|/2 - |j-b|/2) factorizes, so the supremum over
    (i, j) of the truncated double sum is the square of the maximal
    one-dimensional sum, the centre row's, in O(index_range) memory; the
    doubly infinite sum has the exact closed form
    ((1 + rho^-1/2)/(1 - rho^-1/2))^2.
    """
    if rho < 2:
        raise ValueError(f"need rho >= 2, got {rho}")
    if index_range < 1:
        raise ValueError(f"need index_range >= 1, got {index_range}")
    root = math.isqrt(rho)
    if root * root == rho:
        closed = (Fraction(root + 1, root - 1)) ** 2
    else:
        r = rho ** -0.5
        closed = ((1 + r) / (1 - r)) ** 2
    # the kernel matrix is Toeplitz and symmetric-unimodal, so its centre row sums largest
    sup = float((rho ** (-np.abs(np.arange(-index_range, index_range + 1)) / 2.0)).sum()) ** 2
    return LiShaoResult(
        rho=rho,
        index_range=index_range,
        supremum_over_ij=sup,
        closed_form=closed,
        bound_satisfied=closed <= Fraction(5, 4),
    )
