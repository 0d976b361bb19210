"""Monte Carlo estimators and scaling fits for comparability and persistence.

Comparability, box persistence and sheet persistence each ask whether a
prefix-sum field stays at or above a floor row after row; all three run on
one batched kernel, _survivors, fed rows of permutation-pair or sheet
increments.  Each fixed-size block of trials draws from one counter-based
stream keyed by (seed, block index), so results are bit-identical no matter
how many workers execute the blocks.
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
_SHEET_PREFILTER = 256  # leading row-1 columns checked before the full row
_PAIR_DRAW = 1 << 18  # entries per drawn permutation array (sub-batch cap)
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


def _survivors(row, rows: range, first: int, floor_level: float, count: int) -> int:
    """Number of a block's ``count`` trials whose running row stays at or
    above ``floor_level`` on every row a >= ``first`` of ``rows``.

    ``row(a, idx)`` returns ``(live, inc)``: the trials of ``idx`` it has not
    already ruled out (a mask or ``slice(None)``) and their column-prefix-
    summed increments of row a on the column window.  Failed trials are
    compacted away after each row; the scan stops when none are left.
    """
    idx = np.arange(count)
    z = None
    for a in rows:
        live, inc = row(a, idx)
        idx = idx[live]
        z = inc if z is None else z[live] + inc
        if a >= first:
            keep = z.min(axis=1) >= floor_level
            idx, z = idx[keep], z[keep]
            if idx.size == 0:
                break
    return idx.size


def _pair_block(
    lo: int, hi: int, seed: int, n: int, rows: range, first: int, cols: range, floor_level: float
) -> int:
    """Successes within one block of permutation pairs (p, t).

    Row a of Z adds [b >= p(a)] - [b >= t(a)] on the columns b in ``cols``.
    The block's pairs come from trial_stream(seed, block), drawn p then t in
    sub-batches of at most _PAIR_DRAW entries per array; each sub-batch is
    drawn in full before its scan, so the pairs do not depend on the floor.
    """
    g = trial_stream(seed, lo // _MC_BLOCK)
    dtype = np.int16 if n < 2 ** 15 else np.int32
    base = np.arange(n, dtype=dtype)
    b = np.arange(cols.start - 1, cols.stop - 1, dtype=dtype)  # 0-based b - 1
    batch = max(1, _PAIR_DRAW // n)
    succ = 0
    for start in range(lo, hi, batch):
        count = min(batch, hi - start)
        tile = np.tile(base, (count, 1))
        p = g.permuted(tile, axis=1)
        t = g.permuted(tile, axis=1)

        def row(a, idx):
            ge_p = b >= p[idx, a - 1][:, None]
            ge_t = b >= t[idx, a - 1][:, None]
            return slice(None), np.subtract(ge_p, ge_t, dtype=dtype)

        succ += _survivors(row, rows, first, floor_level, count)
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
        _pair_block, seed=seed, n=n, rows=range(1, n + 1), first=1, cols=range(1, n + 1),
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
        _pair_block, seed=seed, n=n, rows=range(1, min((5 * x) // 4, n) + 1), first=x,
        cols=range(y, min((5 * y) // 4, n) + 1), floor_level=-c_log * math.log(n),
    )
    succ = sum(run_blocks(trials, _MC_BLOCK, fn, workers))
    return EstimateResult.from_counts(n, trials, succ, seed, time.perf_counter() - start)


def _sheet_block(
    lo: int, hi: int, seed: int, m: int, floor_level: float, mode: str, q: float
) -> int:
    """Successes within one block; all randomness from the block's stream.

    Rows are drawn only for surviving trials.  Row 1 draws its first
    _SHEET_PREFILTER columns for every trial and the rest only for trials
    that stay above the floor on those columns.
    """
    g = trial_stream(seed, lo // _SHEET_BLOCK)

    def draw(shape):
        if mode == "gaussian":
            return g.standard_normal(shape)
        u = g.random(shape)
        return (u < q).astype(np.float64) - (u > 1.0 - q)

    def row(a, idx):
        c1 = m if a > 1 else min(_SHEET_PREFILTER, m)
        inc = draw((idx.size, c1))
        np.cumsum(inc, axis=1, out=inc)
        if c1 == m:
            return slice(None), inc
        live = inc.min(axis=1) >= floor_level
        head = inc[live]
        rest = draw((head.shape[0], m - c1))
        np.cumsum(rest, axis=1, out=rest)
        rest += head[:, -1][:, None]
        return live, np.concatenate([head, rest], axis=1)

    return _survivors(row, range(1, m + 1), 1, floor_level, hi - lo)


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
    if mode == "gaussian":
        if p is not None:
            raise ValueError("p applies to zeta mode only")
        floor_level = -threshold
        q = 0.0
    elif mode == "zeta":
        if p is None:
            p = 1.0 / (m * m)
        if not 0 < p <= 0.5:
            raise ValueError(f"zeta mode needs p in (0, 1/2], got {p}")
        q = p * (1.0 - p)
        floor_level = -threshold * math.sqrt(2.0 * q)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'gaussian' or 'zeta'")
    start = time.perf_counter()
    fn = partial(_sheet_block, seed=seed, m=m, floor_level=floor_level, mode=mode, q=q)
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
    if mode == "gaussian":
        inc = stream.standard_normal((m, m))
    elif mode == "zeta":
        if p is None:
            p = 1.0 / (m * m)
        if not 0 < p <= 0.5:
            raise ValueError(f"zeta mode needs p in (0, 1/2], got {p}")
        q = p * (1.0 - p)
        u = stream.random((m, m))
        inc = (u < q).astype(np.float64) - (u > 1.0 - q)
    else:
        raise ValueError(f"unknown mode {mode!r}; expected 'gaussian' or 'zeta'")
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


def _aicc(chi2: float, n_points: int, k: int) -> float:
    if n_points - k - 1 <= 0:
        return math.inf
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
    aicc_full: float
    aicc_submodel: float
    preferred: str  # "log-squared" or "polynomial"
    n_points: int
    excluded: tuple[int, ...]

    @property
    def comparison_score(self) -> float:
        """aicc_submodel - aicc_full; positive favors the (ln n)^2 model."""
        return self.aicc_submodel - self.aicc_full


def fit_scaling(results: list[EstimateResult], include_low_count: bool = False) -> ScalingFit:
    """Fit the decay model to a grid of comparability estimates.

    Points with p_hat = 0 or 1 are excluded (no usable log variance), as are
    LOW-COUNT points unless ``include_low_count`` is set.
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
    aicc_sub = _aicc(chi2_sub, len(usable), 2)
    return ScalingFit(
        alpha=float(beta_full[0]),
        beta=float(beta_full[1]),
        gamma=float(beta_full[2]),
        residuals=tuple(float(v) for v in (y - fitted)),
        r_squared=r2,
        aicc_full=aicc_full,
        aicc_submodel=aicc_sub,
        preferred="log-squared" if aicc_sub > aicc_full else "polynomial",
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
    one-dimensional sum; the doubly infinite sum has the exact closed form
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
    idx = np.arange(-index_range, index_range + 1)
    decay = rho ** (-np.abs(idx[:, None] - idx[None, :]) / 2.0)
    row_sums = decay.sum(axis=1)
    sup = float(row_sums.max()) ** 2
    return LiShaoResult(
        rho=rho,
        index_range=index_range,
        supremum_over_ij=sup,
        closed_form=closed,
        bound_satisfied=closed <= Fraction(5, 4),
    )
