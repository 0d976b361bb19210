"""Monte Carlo estimators and scaling fits for comparability and persistence.

Comparability, box persistence and sheet persistence each ask whether a
prefix-sum field stays at or above a floor; all three run on one batched
kernel, _survivors, a loop of steps that each update a small state for
the trials still alive and drop a trial at the first step where a cell of
its state falls below the floor; it returns the survival curve, the
number of trials alive after each step, whose last entry is the count of
successes.  The kernel holds its states cells-major:
cells on axis 0, trials on axis 1, so the floor check, the compaction and
the prefix sums work on whole rows of trials.  For box persistence a step
is one rank row of each side's unused counts on the window's columns
(perms.rank_step), which moves Z = U_t - U_p there; for a sheet it is the
border that grows the k-1 x k-1 square to k x k.
Comparability checks each row by the tableau criterion on sorted
prefixes: its state after row a is 2a cells, one sorted column of
p(1..a) and one of t(1..a), where a row of Z has n.  It draws a row only
for the pairs still alive, with one index draw per row for p and t
together; an index j picks the j-th smallest value a side has not used,
which its sorted column already tells, so no pair keeps a pool of unused
values.  It stops at row n - 1, since Z(n, .) is 0.  Its index draws use
the draw dtype, perms.draw_dtype, which is part of the stream layout;
state cells use a cell dtype, _cell_dtype, that only needs to hold
[-n, n] (int8 below n = 128), which changes no result.  Box persistence
draws the unused counts of both sides at the row before its window in one
exact draw (perms.unused_counts, which chainstat shares), then draws each
window row's indices for every pair of a block, so that its floors stay
coupled, and steps the pairs still alive.  Sheet borders are drawn only
for the trials still alive.  Each
fixed-size block of trials (16384 pairs for comparability, 4096 for box
persistence, 8192 sheets) draws from one counter-based stream keyed by
(seed, block index).
Every estimator hands _parallel.run_blocks tasks of up to four blocks,
sized by _parallel.task_size for the processes the run uses; comparability
and sheet scans carry a task's blocks at once, so that a scan's fixed cost
per step is shared, while box persistence scans them one after another,
each in O(window columns) cells per pair.  Results are bit-identical no
matter how many workers execute the blocks or how tasks group them.

A grid of sheet estimates (sheet_persistence_grid, which `gauss` runs and
sheet_persistence calls with one point) scans each block once for all the
points that hold the same trials in it: a block's draw at square k does
not depend on m, so its survival curve to the largest such m gives every
smaller m its count.  Full block k holds the same trials for every point
with at least k + 1 blocks of trials, a partial last block only for the
points with exactly its trial count, and points share only under one law
and floor (gaussian mode, or zeta mode at a given p, not the default
p = 1/m^2).  No count changes.
"""
from __future__ import annotations

import dataclasses
import math
import time
import warnings
from fractions import Fraction
from functools import partial

import numpy as np

from ._parallel import processes, run_blocks, task_size
from .perms import block_streams, draw_dtype, prefix_sums, rank_indices, rank_step, unused_counts

_Z95 = 1.959963984540054  # normal 97.5% quantile for Wilson intervals
_PAIR_BLOCK = 1 << 14  # pairs per comparability block; each block owns one stream
_MC_BLOCK = 4096  # pairs per box-persistence block; each block owns one stream
_SHEET_BLOCK = 8192  # trials per sheet block; each block owns one stream
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


def _survivors(step, steps: range, floor_level: float, count: int, z: np.ndarray | None = None) -> np.ndarray:
    """Survival curve of a scan of ``count`` trials over ``steps``: entry 0
    is ``count``, entry i the number of trials whose field stays at or above
    ``floor_level`` on the first i steps, and the entries after extinction
    are 0, so the last entry counts the trials that pass every step.

    ``z = step(a, idx, z)`` returns the state rows that step a checks for
    the trials ``idx`` still alive, cells-major: one row per state cell,
    one column per trial, given the rows it returned for them at step
    a - 1 (the ``z`` passed in at the first step).  A trial fails at the
    first step where one of its cells is below the floor; the scan drops
    the trials that fail and stops when none is left.
    """
    curve = np.zeros(len(steps) + 1, np.int64)
    curve[0] = count
    idx = np.arange(count)
    for i, a in enumerate(steps, 1):
        z = step(a, idx, z)
        keep = (z >= floor_level).all(axis=0)
        if not keep.all():
            live = np.flatnonzero(keep)
            idx, z = idx[live], z.take(live, axis=1)
            if idx.size == 0:
                break
        curve[i] = idx.size
    return curve


def _scan_streams(seed: int, lo: int, hi: int, block: int) -> tuple[list, list[int]]:
    """The streams of the blocks of ``block`` trials that a scan of trials
    lo..hi-1 spans, and the bounds _block_runs takes for them."""
    blocks = block_streams(seed, lo, hi, block)
    return [g for g, _, _ in blocks], [s - lo for _, s, _ in blocks] + [hi - lo]


def _block_runs(streams: list, bounds: list[int], idx: np.ndarray) -> list[tuple]:
    """(stream, s, e) for each block of a scan that has trials alive: they
    are idx[s:e].  ``bounds`` holds each block's first position in the scan,
    then the scan's size."""
    cuts = np.searchsorted(idx, bounds).tolist()
    return [(g, s, e) for g, s, e in zip(streams, cuts, cuts[1:]) if e > s]


def _cell_dtype(n: int) -> type:
    """The integer type of scan state cells, which only hold [-n, n]: int8
    below n = 128, else perms.draw_dtype(n).  It changes no result."""
    return np.int8 if n < 128 else draw_dtype(n)


def _pair_block(lo: int, hi: int, seed: int, n: int) -> int:
    """Comparable pairs (p <= t) among pairs lo..hi-1, which may span several
    blocks of _PAIR_BLOCK pairs, all carried by one scan.

    Step a of the scan checks Z(a, .) >= 0 for rows 1..n - 1.  Row a is
    drawn only for the pairs still alive after row a - 1: each block, from
    its own trial_stream(seed, block), makes one call
    integers(0, n - a + 1, size=(2, k)) for its k pairs alive, whose row 0
    holds the p indices and row 1 the t indices, in the draw dtype (int16
    below n = 2^15, else int32); all of this is CSV schema mc-v5.  Index j
    takes the j-th smallest (from 0) value that side has not used yet.

    Every row is checked by the tableau criterion (Bjorner-Brenti,
    Combinatorics of Coxeter Groups, Thm 2.1.5): Z(a, .) >= 0 exactly when
    the sorted p(1..a) is entrywise at most the sorted t(1..a).  After row
    a - 1 a side's sorted values s(0) < ... < s(a - 2) are held as
    u(i) = s(i) - i, the number of values below s(i) that the side has not
    used.  u never decreases, so the side's j-th unused value has the
    #{i : u(i) <= j} used values below it.  Inserting that value keeps the
    cells below it, puts u = j at its place and moves the cells above it up
    one place, each less 1: new u(i) = min(u(i), max(u(i - 1), j + 1) - 1),
    with u(-1) = -inf and u(a - 1) = +inf, for both sides at once, without
    a sort and without a pool of unused values.  A pair's state after row a
    is 2a cells, p's u then t's u minus p's u; the sorted p is entrywise at
    most the sorted t exactly when p's u is at most t's, so the floor-0
    check on the whole state is the tableau check.  Row 1 is the same step
    on an empty state.  State cells use a cell dtype that only needs to
    hold [-n, n] (int8 below n = 128, else the draw dtype), which changes
    no result.  A block's draws depend only on its own pairs, so the count
    is the same for any grouping of blocks into tasks and any worker
    count.  ``lo`` must start a block.
    """
    dtype, cell = draw_dtype(n), _cell_dtype(n)
    streams, bounds = _scan_streams(seed, lo, hi, _PAIR_BLOCK)

    def row(a, idx, z):
        state = np.empty((2 * a, idx.size), cell)
        new = state.reshape(2, a, -1)  # p's cells, then t's
        for g, s, e in _block_runs(streams, bounds, idx):
            new[:, 0, s:e] = g.integers(0, n - a + 1, size=(2, e - s), dtype=dtype)  # p's j, then t's
        sides = z.reshape(2, a - 1, idx.size)
        sides[1] += sides[0]  # t's u back from the difference
        # insert j: new u(i) = min(u(i), max(u(i - 1), j + 1) - 1)
        np.maximum(sides, new[:, :1] + 1, out=new[:, 1:])
        new[:, 1:] -= 1
        np.minimum(new[:, :-1], sides, out=new[:, :-1])
        new[1] -= new[0]
        return state

    return int(_survivors(row, range(1, n), 0, hi - lo, np.empty((0, hi - lo), cell))[-1])


def _box_block(lo: int, hi: int, seed: int, n: int, x: int, cols: range, floor_level: int) -> int:
    """Pairs among lo..hi-1, which may span several blocks, whose Z stays
    >= floor_level (<= 0) on rows x..5x/4 and columns ``cols``.

    Each side of a pair is held as its unused counts on ``cols``,
    U(a, b) = b - C(a, b), so Z = U_t - U_p.  Each block, from its own
    trial_stream(seed, block), draws U(x - 1, .) of every p, then of every
    t, in one perms.unused_counts call of shape (2, pairs); then for each
    row a the scan draws rank_indices(n, a, (2, pairs)) for every pair of
    the block, p's indices in row 0, so that every floor sees the same
    pairs, and steps the pairs still alive by perms.rank_step.  A pair's
    state holds, for each column, U_p then Z; U_p >= 0 never fails the
    floor.  Blocks are scanned one after another, so the count is the same
    for any grouping of blocks into tasks.  ``lo`` must start a block.
    """
    succ = 0
    for g, s, e in block_streams(seed, lo, hi, _MC_BLOCK):
        u = unused_counts(n, x - 1, cols, (2, e - s), g)
        u[:, 1] -= u[:, 0]  # each column's cells: U_p, then Z = U_t - U_p

        def row(a, idx, z):
            j = rank_indices(n, a, (2, e - s), g).take(idx, axis=1)
            up, zz = z.reshape(-1, 2, idx.size).transpose(1, 0, 2)
            ut = rank_step(zz + up, j[1])
            np.subtract(ut, rank_step(up, j[0]), out=zz)
            return z

        succ += int(_survivors(row, range(x, 5 * x // 4 + 1), floor_level, e - s, u.reshape(-1, e - s))[-1])
    return succ


def estimate_comparability(n: int, trials: int, seed: int, workers: int = 1) -> EstimateResult:
    """Estimate P(p <= t) for independent uniform permutations of [n].

    Z(a, b) must stay >= 0 on every row and column; the batched scan drops a
    pair at its first failing row, so failed comparisons stay cheap.  Row n
    is not scanned: Z(n, .) is 0, and its range-1 draws take nothing from
    the stream.  Pairs come in blocks of _PAIR_BLOCK, each on its own
    stream (CSV schema mc-v5), run as tasks of up to four blocks that
    _pair_block carries in one scan.
    """
    if n < 1 or trials < 1:
        raise ValueError(f"need n >= 1 and trials >= 1, got n={n} trials={trials}")
    start = time.perf_counter()
    fn = partial(_pair_block, seed=seed, n=n)
    succ = sum(run_blocks(trials, task_size(_PAIR_BLOCK, trials, processes(workers)), fn, workers))
    return EstimateResult.from_counts(n, trials, succ, seed, time.perf_counter() - start)


def estimate_box_persistence(
    n: int, x: int, y: int, c_log: float, trials: int, seed: int, workers: int = 1
) -> EstimateResult:
    """Estimate P(min Z(a,b) >= -c_log * ln n), checked at the floor's integer
    ceiling (Z is an integer), over a in [x, 5x/4], b in [y, 5y/4], for fresh
    pairs.  Like every scan, it runs tasks of up to four blocks of pairs
    (_parallel.task_size)."""
    if not (1 <= x <= n // 2 and 1 <= y <= n // 2):
        raise ValueError(f"need 1 <= x, y <= n/2, got x={x} y={y} n={n}")
    if c_log < 0 or trials < 1:
        raise ValueError(f"need c_log >= 0 and trials >= 1, got {c_log}, {trials}")
    start = time.perf_counter()
    cols = range(y, 5 * y // 4 + 1)
    fn = partial(_box_block, seed=seed, n=n, x=x, cols=cols, floor_level=math.ceil(-c_log * math.log(n)))
    succ = sum(run_blocks(trials, task_size(_MC_BLOCK, trials, processes(workers)), fn, workers))
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
    given the previous border ``z`` (None at k = 1).

    Borders are cells-major: ``border`` has shape (2k - 1, alive).  Each
    half's prefix sums run in cell order, one left-to-right add at a time,
    by one of two paths that give the same floats: with many trials per
    cell (alive > 16k), one np.add of two whole rows per cell; otherwise
    one cumsum per half along each trial's cells, whose inner loop runs
    once per trial and then costs less than 2k calls.
    """
    if border.shape[1] > 16 * k:
        for j in range(1, 2 * k - 1):
            if j != k:  # row k 1..k and column k 1..k-1 sum separately
                np.add(border[j - 1], border[j], out=border[j])
    else:
        trials = border.T
        np.cumsum(trials[:, :k], axis=1, out=trials[:, :k])
        np.cumsum(trials[:, k:], axis=1, out=trials[:, k:])
    if z is not None:
        border[: k - 1] += z[: k - 1]
        border[k:-1] += z[k - 1 :]
        border[-1] += z[k - 2]  # the old corner Z(k-1, k-1)
        border[k - 1] += border[-1]  # Z(k-1, k)
    return border


def _sheet_block(
    lo: int, hi: int, seed: int, m: int, floor_level: float, q: float | None, offset: int = 0
) -> np.ndarray:
    """Survival curve, by square 0..m, of trials offset + lo .. offset + hi - 1,
    which may span several blocks.

    The sheet is scanned as a growing square: step k extends the
    (k-1) x (k-1) square to k x k, so a trial dies at the first square whose
    new border drops below the floor.  Step k draws, for each block from
    its own trial_stream(seed, block) and only for its trials still alive,
    the values of one C-order array of shape (alive, 2k - 1) in
    _square_border's layout (CSV schema gauss-v3), and writes them
    transposed into the block's columns of the cells-major border.  The
    draw is split into runs of whole trials; a stream yields the same
    values however a draw is split.  A block's draws depend only on its own
    trials, and step k's draw does not depend on m, so the curve's entry at
    any m' <= m is the count a scan to m' gives, for any grouping of blocks
    into scans and any worker count.  ``offset + lo`` must start a block.
    """
    streams, bounds = _scan_streams(seed, offset + lo, offset + hi, _SHEET_BLOCK)

    def square(k, idx, z):
        border = np.empty((2 * k - 1, idx.size))
        # a block's (alive, 2k - 1) draw comes in runs of whole trials,
        # each about 2^16 cells (512 KB), so its transposed copy stays in cache
        run = max(1, (1 << 16) // (2 * k - 1))
        for g, s, e in _block_runs(streams, bounds, idx):
            for i in range(s, e, run):
                j = min(i + run, e)
                border[:, i:j] = _sheet_increments(g, (j - i, 2 * k - 1), q).T
        return _square_border(border, k, z)

    return _survivors(square, range(1, m + 1), floor_level, hi - lo)


def _sheet_scans(trials: list[int]) -> list[tuple[int, int, list[int]]]:
    """(lo, hi, users) for each scan that a grid of sheet estimates with
    these trial counts, all of one law and floor, runs: trials lo..hi-1,
    whose counts go to the points ``users`` (indices into ``trials``).

    Full block k holds the same trials for every point with at least
    (k + 1) blocks of trials; a point's partial last block holds the same
    trials only for the points with exactly its trial count, since a larger
    block's (alive, 2k - 1) draws interleave its trials differently.
    Adjacent blocks with the same users are one scan, so a grid of one
    point is one scan of all its trials.
    """
    pieces, lo = [], 0
    for cut in sorted({t - t % _SHEET_BLOCK for t in trials} - {0}):
        pieces.append((lo, cut, [i for i, t in enumerate(trials) if t >= cut]))
        lo = cut
    for total in {t for t in trials if t % _SHEET_BLOCK}:
        pieces.append((total - total % _SHEET_BLOCK, total, [i for i, t in enumerate(trials) if t == total]))
    scans = []
    for lo, hi, users in sorted(pieces):
        if scans and scans[-1][1:] == (lo, users):
            scans[-1] = (scans[-1][0], hi, users)
        else:
            scans.append((lo, hi, users))
    return scans


def sheet_persistence_grid(
    ms: list[int],
    threshold: float,
    trials: list[int],
    seed: int,
    mode: str = "gaussian",
    p: float | None = None,
    workers: int = 1,
) -> list[EstimateResult]:
    """The sheet persistence estimate (see sheet_persistence) of each (m, t)
    of zip(ms, trials), from one scan per block that the grid's points
    share; each count is the one a scan of that point alone gives.

    Points of one law and floor (all of gaussian mode, and zeta mode at a
    given p; the default p = 1/m^2 differs for each m) share the scan of
    each block that holds the same trials for them (_sheet_scans).  A scan
    runs to the largest m among the points it serves, and each point adds
    the scan's survival curve at its own m to its count: a block's draws at
    square k are the same whatever m the scan runs to, so no count changes.
    A point's wall_time runs from the start of the grid to the end of the
    last scan it needs.
    """
    ms, trials = list(ms), list(trials)
    if len(ms) != len(trials):
        raise ValueError(f"need one trial count per m, got {len(ms)} sizes and {len(trials)} counts")
    for m, t in zip(ms, trials):
        if m < 1 or t < 1:
            raise ValueError(f"need m >= 1 and trials >= 1, got m={m} trials={t}")
    if not (math.isfinite(threshold) and threshold >= 0):
        raise ValueError(f"need a finite threshold >= 0, got {threshold}")
    laws: dict[tuple, list[int]] = {}  # (q, floor) -> the points of that law and floor
    for i, m in enumerate(ms):
        q = _sheet_q(m, mode, p)
        laws.setdefault((q, -threshold if q is None else -threshold * math.sqrt(2.0 * q)), []).append(i)
    start = time.perf_counter()
    succ, wall = [0] * len(ms), [0.0] * len(ms)
    procs = processes(workers)
    for (q, floor_level), points in laws.items():
        for lo, hi, users in _sheet_scans([trials[i] for i in points]):
            users = [points[u] for u in users]
            horizon = max(ms[i] for i in users)
            fn = partial(_sheet_block, seed=seed, m=horizon, floor_level=floor_level, q=q, offset=lo)
            curve = sum(run_blocks(hi - lo, task_size(_SHEET_BLOCK, hi - lo, procs), fn, workers))
            for i in users:
                succ[i] += int(curve[ms[i]])
                wall[i] = time.perf_counter() - start
    return [EstimateResult.from_counts(m, t, s, seed, w) for m, t, s, w in zip(ms, trials, succ, wall)]


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
    same scale.  This is the one-point sheet_persistence_grid: one scan of
    its trials, in tasks of up to four blocks.
    """
    return sheet_persistence_grid([m], threshold, [trials], seed, mode, p, workers)[0]


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
    g = np.zeros((m + 1, m + 1))
    g[1:, 1:] = _sheet_increments(stream, (m, m), _sheet_q(m, mode, p))
    return SheetGrid(m, prefix_sums(g))


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
    if (sizes := len({r.n for r in usable})) < 4:
        raise ValueError(f"need >= 4 distinct usable sizes, have {sizes}")
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
    one-dimensional sum, the centre row's.  That sum stops at the first
    term that is exactly 0.0 in floats, so its cost is bounded for any
    index_range.  The doubly infinite sum has the exact closed form
    ((1 + rho^-1/2)/(1 - rho^-1/2))^2.
    """
    if rho < 2:
        raise ValueError(f"need rho >= 2, got {rho}")
    if index_range < 1:
        raise ValueError(f"need index_range >= 1, got {index_range}")
    half_log = math.log(rho) / 2  # math.log takes ints of any size
    r = math.exp(-half_log)  # rho^-1/2
    root = math.isqrt(rho)
    if root * root == rho:
        closed = (Fraction(root + 1, root - 1)) ** 2
    else:
        closed = ((1 + r) / (1 - r)) ** 2
    # the kernel matrix is Toeplitz and symmetric-unimodal, so its centre row
    # sums largest: 1 + 2 (r + r^2 + ...), whose terms are exactly 0.0 from
    # r^k < 2^-1075 on, that is from k >= 1075 ln 2 / ln(rho^1/2)
    k = np.arange(1, min(index_range, math.ceil(1076 * math.log(2) / half_log)) + 1)
    sup = float(1 + 2 * (r ** k).sum()) ** 2
    return LiShaoResult(
        rho=rho,
        index_range=index_range,
        supremum_over_ij=sup,
        closed_form=closed,
        bound_satisfied=closed <= Fraction(5, 4),
    )
