import math
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from bruhatmc.estimators import (
    _MC_BLOCK,
    _PAIR_BLOCK,
    EstimateResult,
    _box_block,
    _pair_block,
    _square_border,
    _survivors,
    estimate_box_persistence,
    estimate_comparability,
    fit_scaling,
    li_shao_sum,
    psi_fit,
    sheet_grid,
    sheet_persistence,
    wilson_interval,
)
from bruhatmc._parallel import task_size
from bruhatmc.order import EXACT_COUNT_CAP, exact_comparability_count, is_leq_strong
from bruhatmc.perms import Permutation, permutation_rows, trial_stream
from bruhatmc.zprocess import z_table
from fractions import Fraction


def synth(n, p, trials=10**9, seed=0):
    return EstimateResult.from_counts(n, trials, round(p * trials), seed, 0.0)


class TestWilson:
    def test_interval_shape(self):
        for succ, trials in [(0, 10), (3, 10), (10, 10), (19, 36), (500, 10**6)]:
            lo, hi = wilson_interval(succ, trials)
            assert 0 <= lo <= succ / trials <= hi <= 1

    def test_coverage_on_synthetic_bernoulli(self):
        p, trials, reps = 0.3, 200, 1000
        covered = 0
        for rep in range(reps):
            stream = trial_stream(606, rep)
            succ = int((stream.random(trials) < p).sum())
            lo, hi = wilson_interval(succ, trials)
            covered += lo <= p <= hi
        assert covered >= 0.93 * reps

    def test_bad_counts(self):
        with pytest.raises(ValueError):
            wilson_interval(5, 4)


def drawn_pairs(n, count, seed):
    """Replay, in plain Python, the pairs the blocks of estimate_comparability
    draw (schema mc-v5): blocks of up to 16384 pairs, each from its own
    stream trial_stream(seed, block).

    Row a takes, for p and for t, the value at place j (from 0) of that
    side's unused values in increasing order, with j uniform on 0..n-a,
    drawn in int16 below n = 2^15, else in int32.  Row a is drawn only for
    the k pairs of a block whose Z rows 1..a-1 all stayed >= 0, by one call
    integers(0, n - a + 1, size=(2, k)): p's indices in its row 0, t's in
    its row 1.

    Returns (p, t, rows drawn, Z rows drawn stayed >= 0) per pair, where p
    and t are the drawn values followed by the unused ones in increasing
    order.
    """
    dtype = np.int16 if n < 2 ** 15 else np.int32
    out = []
    for block in range(0, count, 1 << 14):
        g, size = trial_stream(seed, block >> 14), min(1 << 14, count - block)
        words = [([], []) for _ in range(size)]
        alive = [True] * size
        for a in range(1, n + 1):
            live = [i for i in range(size) if alive[i]]
            if not live:
                break
            js = g.integers(0, n - a + 1, size=(2, len(live)), dtype=dtype).tolist()
            for k, i in enumerate(live):
                for word, j in zip(words[i], (js[0][k], js[1][k])):
                    # walk up from j + 1 past each used value at or below it
                    v = j + 1
                    for u in sorted(word):
                        v += u <= v
                    word.append(v)
                p, t = words[i]
                # Z(a, .) steps only at the drawn values, and Z(a, b) = 0 below them all
                alive[i] = min(sum(v <= b for v in p) - sum(v <= b for v in t) for b in p + t) >= 0
        for (p, t), ok in zip(words, alive):
            out.append(tuple(w + sorted(set(range(1, n + 1)).difference(w)) for w in (p, t)) + (len(p), ok))
    return out


def box_pairs(n, x, y, count, seed):
    """Replay with permutation_rows the pairs block 0 of box persistence
    draws; count <= 4096 stays inside block 0.

    Sub-batches hold at most (1 << 18) // max(5x/4, 5y/4 - y + 1) pairs and
    draw rows 1..5x/4 of their p's, then of their t's.  Each drawn word is
    completed to a permutation by its unused values in increasing order,
    which changes no row of Z up to 5x/4.  Returns the (p, t) pairs and the
    sub-batch sizes.
    """
    last = 5 * x // 4
    g = trial_stream(seed, 0)
    batch = (1 << 18) // max(last, 5 * y // 4 - y + 1)
    pairs, sizes = [], []
    for start in range(0, count, batch):
        sizes.append(min(batch, count - start))
        words = [permutation_rows(n, last, sizes[-1], g).tolist() for _ in range(2)]
        for p, t in zip(*words):
            pairs.append(tuple(as_perm(w + sorted(set(range(1, n + 1)).difference(w))) for w in (p, t)))
    return pairs, sizes


# 7 comparability blocks of pairs, run as tasks of [4, 3], [4, 3], [3, 3, 1]
# and [2, 2, 2, 1] blocks on 1, 2, 3 and 4 processes
GROUPED_TRIALS = 6 * _PAIR_BLOCK + 17


def grouped_counts(fn):
    """fn(lo, hi) summed over the tasks that 1, 2, 3 and 4 processes get for
    GROUPED_TRIALS pairs, then over one-block calls."""
    sizes = [task_size(_PAIR_BLOCK, GROUPED_TRIALS, workers) for workers in (1, 2, 3, 4)] + [_PAIR_BLOCK]
    return [sum(fn(lo, min(lo + size, GROUPED_TRIALS)) for lo in range(0, GROUPED_TRIALS, size)) for size in sizes]


def test_task_sizes_group_up_to_four_blocks():
    assert [task_size(_PAIR_BLOCK, GROUPED_TRIALS, w) // _PAIR_BLOCK for w in (1, 2, 3, 4)] == [4, 4, 3, 2]
    assert [task_size(8192, 8192 * k, 2) // 8192 for k in (1, 2, 3, 8, 9, 40)] == [1, 1, 2, 4, 4, 4]
    assert task_size(_MC_BLOCK, 1, 10**20) == _MC_BLOCK


def traced_peak(fn, *args):
    """tracemalloc peak of fn(*args), after one call that warms up numpy's
    allocations."""
    fn(*args)
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def as_perm(values):
    return Permutation(tuple(values))


class TestSurvivalKernel:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 100, 127, 128, 200, 3, 4, 2**15])
    def test_comparability_matches_strong_order_oracle(self, n):
        # n = 3 spans two blocks, carried by one scan; state cells are int8
        # up to n = 127 and int16 from n = 128, and n = 2^15 draws in int32
        count, seed = {3: 20_000, 2**15: 300}.get(n, 3000), 123
        pairs = drawn_pairs(n, count, seed)
        for p, t, rows, alive in pairs:
            verdict = is_leq_strong(as_perm(p), as_perm(t))
            assert verdict.leq == alive
            if not alive:
                # the pair died on its last drawn row, whatever comes after it
                assert verdict.witness[0] == rows
                tail = slice(rows, None)
                assert not is_leq_strong(as_perm(p[:rows] + p[tail][::-1]), as_perm(t[:rows] + t[tail][::-1])).leq
        assert _pair_block(0, count, seed, n) == sum(alive for *_, alive in pairs)

    def test_box_window_matches_z_table_oracle(self):
        # n = 240 spans three sub-batches: 1747, 1747, then 2 pairs; n = 127
        # is the largest size with int8 Z cells, here under a negative floor;
        # x = 1 scans row 1 alone from Z(0, .) = 0
        cases = [
            (40, 10, 12, 0.5, 2000, 77), (200, 40, 50, 0.5, 1400, 78), (127, 30, 40, 0.5, 2000, 79),
            (240, 120, 60, 1.0, 3496, 80), (8, 1, 2, 0.0, 2000, 81),
        ]
        for n, x, y, c_log, count, seed in cases:
            floor_level = -c_log * math.log(n)
            pairs, sizes = box_pairs(n, x, y, count, seed)
            assert n != 240 or sizes == [1747, 1747, 2]
            expected = sum(
                int(z_table(p, t).z[x : 5 * x // 4 + 1, y : 5 * y // 4 + 1].min()) >= floor_level for p, t in pairs
            )
            assert 0 < expected < count
            assert estimate_box_persistence(n, x, y, c_log, count, seed).successes == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 15, 16, 17, 48, 49, 64, 112, 113])
    def test_square_scan_matches_brute_force_minimum(self, m):
        # the square scan against the brute-force minimum; integer increments
        # keep every sum exact, so ties at the floor count
        count = min(3000, 5_000_000 // (m * m))  # field and its sums stay under 100 MB
        field = trial_stream(606, m).integers(-2, 3, size=(count, m, m)).astype(np.float64)
        minima = np.cumsum(np.cumsum(field, axis=1), axis=2).min(axis=(1, 2))

        def square(k, idx, z):
            # row k on columns 1..k, then column k on rows 1..k-1, cells-major
            drawn = np.concatenate([field[idx, k - 1, :k], field[idx, : k - 1, k - 1]], axis=1)
            return _square_border(drawn.T, k, z)

        floors = sorted({float(f) for f in np.quantile(minima, [0.05, 0.3, 0.6, 0.95], method="lower")})
        for floor_level in floors + [-1.0]:
            expected = int((minima >= floor_level).sum())
            assert _survivors(square, range(1, m + 1), floor_level, count) == expected, (m, floor_level)

    @pytest.mark.parametrize("k, count", [(3, 4000), (40, 50), (40, 700), (1, 10), (2, 5)])
    def test_square_border_sums_floats_in_row_order(self, k, count):
        # normal increments make the sum order visible; (3, 4000) and
        # (40, 700) add whole rows (alive > 16k), the others run cumsum
        g = trial_stream(707, k)
        prev = g.standard_normal((count, 2 * k - 3)) if k > 1 else None
        drawn = g.standard_normal((count, 2 * k - 1))
        # the row-major formula: cumsum along each half, then four adds
        row, col = np.cumsum(drawn[:, :k], axis=1), np.cumsum(drawn[:, k:], axis=1)
        if prev is not None:
            row[:, :-1] += prev[:, : k - 1]
            col[:, :-1] += prev[:, k - 1 :]
            col[:, -1] += prev[:, k - 2]
            row[:, -1] += col[:, -1]
        expected = np.concatenate([row, col], axis=1)
        z = None if prev is None else np.ascontiguousarray(prev.T)
        got = _square_border(np.ascontiguousarray(drawn.T), k, z)
        assert got.shape == (2 * k - 1, count)
        assert np.array_equal(got.T, expected)

    @pytest.mark.parametrize(
        "args, kwargs, successes",
        [
            pytest.param((32, 1.0, 30_000, 21), {}, 114, id="gaussian-m32"),
            pytest.param((300, 60.0, 8192, 9), {}, 160, id="gaussian-m300"),
            pytest.param((16, 1.0, 20_000, 5), {"mode": "zeta"}, 9112, id="zeta-m16"),
            pytest.param((300, 60.0, 8192, 9), {"mode": "zeta", "p": 0.5}, 166, id="zeta-half-m300"),
        ],
    )
    def test_sheet_layout_pinned(self, args, kwargs, successes):
        # gauss-v3 counts: m = 300 squares grow to borders of 599 cells
        assert sheet_persistence(*args, **kwargs).successes == successes

    @pytest.mark.parametrize(
        "estimate, args, successes",
        [
            (estimate_comparability, (40, 50_000, 2), 30),
            (estimate_box_persistence, (1000, 300, 200, 1.0, 3000, 3), 1419),
            (estimate_box_persistence, (60, 20, 20, 0, 400, 9), 128),
            (estimate_box_persistence, (60, 20, 20, 0.5, 400, 9), 258),
            (estimate_box_persistence, (60, 20, 20, 1, 400, 9), 360),
            (estimate_box_persistence, (60, 20, 20, 2, 400, 9), 400),
        ],
    )
    def test_pair_layout_pinned(self, estimate, args, successes):
        # comparability counts are mc-v5; n = 1000 box persistence draws
        # 375 rows of p, then of t, by permutation_rows for each sub-batch
        # of at most 699 pairs
        assert estimate(*args).successes == successes


class TestComparabilityEstimator:
    def test_n1_is_certain(self):
        r = estimate_comparability(1, 100, 0)
        assert r.p_hat == 1.0 and r.successes == 100

    def test_one_block_holds_no_pools(self):
        # a pair carries only its 2a sorted-prefix cells, which say which
        # values each side has used: the 2n-cell pools of unused values
        # that an n = 64 block kept before mc-v5 peaked at 1.24 MiB
        assert traced_peak(estimate_comparability, 64, _PAIR_BLOCK, 8) < 2**19

    def test_four_block_task_memory_is_bounded(self):
        # one scan carries a task's four blocks at once; its pairs' states
        # are O(a) cells, so the peak stays small at any n
        for n in (64, 4096):
            assert traced_peak(estimate_comparability, n, 4 * _PAIR_BLOCK, 8) < 2 * 2**20, n

    def test_large_n_state_is_sorted_prefixes(self):
        # a pair carries 2a sorted-prefix cells, not an n-cell Z row: at
        # n = 1000 a Z of the row-2 survivors peaked at 2.58 MiB
        assert traced_peak(estimate_comparability, 1000, _PAIR_BLOCK, 8) < 2 * 2**20

    def test_ci_contains_exact_n3(self):
        # a 3.7-sigma Wilson interval: a correct layout fails it about 2e-4
        # of the time, where it failed a 95% interval one time in twenty
        r = estimate_comparability(3, 3_200_000, 11)
        lo, hi = wilson_interval(r.successes, r.trials, z=3.7)
        assert lo <= 19 / 36 <= hi

    def test_reproducible_and_worker_invariant(self):
        a = estimate_comparability(12, 30_000, 5, workers=1)
        b = estimate_comparability(12, 30_000, 5, workers=2)
        keep = ("n", "trials", "successes", "p_hat", "ci_low", "ci_high", "seed")
        assert {k: getattr(a, k) for k in keep} == {k: getattr(b, k) for k in keep}

    @pytest.mark.parametrize("n", [12, 100, 3])
    def test_task_grouping_changes_no_count(self, n):
        fn = partial(_pair_block, seed=4, n=n)
        one_block = grouped_counts(fn)[-1]
        counts = [estimate_comparability(n, GROUPED_TRIALS, 4, workers=w).successes for w in (1, 2, 3, 4)]
        assert counts == [one_block] * 4
        # every count is 0 at n = 100; at n = 65 a few pairs are comparable
        counts = grouped_counts(partial(_pair_block, seed=4, n=65) if n == 100 else fn)
        assert counts == [counts[-1]] * 5 and counts[0] > 0

    @staticmethod
    def assert_agrees_with_exact(n, seed):
        exact = float(exact_comparability_count(n).probability)
        r = estimate_comparability(n, 200_000, seed)
        se = math.sqrt(exact * (1 - exact) / r.trials)
        assert abs(r.p_hat - exact) <= 5 * se

    def test_agrees_with_exact_n8(self):
        self.assert_agrees_with_exact(8, 20261018)

    @pytest.mark.parametrize("n, seed", [(9, 20261019), (10, 20261020)])
    def test_agrees_with_exact_up_to_cap(self, n, seed):
        # the lazy row draws must give the uniform law up to EXACT_COUNT_CAP
        assert n <= EXACT_COUNT_CAP
        self.assert_agrees_with_exact(n, seed)

    def test_monotone_decrease_with_ci_separation(self):
        small = estimate_comparability(8, 200_000, 6)
        large = estimate_comparability(16, 200_000, 6)
        assert large.ci_high < small.ci_low

    def test_low_count_flag(self):
        r = EstimateResult.from_counts(10, 1000, 7, 0, 0.0)
        assert r.low_count

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            estimate_comparability(0, 10, 0)
        with pytest.raises(ValueError):
            estimate_comparability(5, 0, 0)


class TestBoxPersistence:
    def test_huge_floor_is_certain(self):
        # floor below -min(x, y) makes the event trivial
        r = estimate_box_persistence(20, 5, 5, 10.0, 200, 3)
        assert r.p_hat == 1.0

    def test_monotone_in_c_log_coupled(self):
        values = [
            estimate_box_persistence(60, 20, 20, c, 400, 9).p_hat
            for c in (0.0, 0.5, 1.0, 2.0)
        ]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_coupled_across_sub_batches(self):
        # 1500 pairs at n = 1000 fill three sub-batches (699, 699, 102);
        # every floor must see the same pairs in each of them.  The floors
        # -(k + 1/2) step the integer floor one at a time, where pairs drawn
        # anew for each floor would break the order by chance.
        grid = {0.0, 0.5, 1.0, 2.0} | {(k + 0.5) / math.log(1000) for k in range(16)}
        values = [estimate_box_persistence(1000, 300, 200, c, 1500, 3).successes for c in sorted(grid)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_worker_invariance(self):
        # three blocks, so that 2 to 4 workers each share them out differently
        results = [estimate_box_persistence(40, 10, 12, 1.0, 2 * _MC_BLOCK + 300, 8, workers=w) for w in (1, 2, 3, 4)]
        assert len({(r.successes, r.p_hat) for r in results}) == 1

    def test_task_grouping_changes_no_count(self):
        # each block draws from its own stream only: a run counts the sum of
        # its blocks, however tasks group them and whatever the worker
        # count, and a shorter run counts the sum of its own first blocks
        n, x, y, c_log, trials, seed = 200, 40, 50, 0.5, 5 * _MC_BLOCK + 3, 6
        floor_level = math.ceil(-c_log * math.log(n))
        fn = partial(_box_block, seed=seed, n=n, x=x, cols=range(y, 5 * y // 4 + 1), floor_level=floor_level)
        blocks = [fn(lo, min(lo + _MC_BLOCK, trials)) for lo in range(0, trials, _MC_BLOCK)]
        assert 0 < sum(blocks) < trials
        assert fn(0, trials) == sum(blocks)
        for workers in (1, 2, 3, 4):
            assert estimate_box_persistence(n, x, y, c_log, trials, seed, workers=workers).successes == sum(blocks)
        assert estimate_box_persistence(n, x, y, c_log, 2 * _MC_BLOCK, seed).successes == sum(blocks[:2])

    def test_block_memory_follows_sub_batch_cap(self):
        # a block of 4096 pairs at n = 1000, x = 300 scans sub-batches of at
        # most 699 pairs; its rows 1..375 of p and t alone, drawn whole,
        # would take 5.9 MiB
        args = (1000, 300, 200, 1.0, _MC_BLOCK, 3)
        assert traced_peak(estimate_box_persistence, *args) < 5 * 2**20

    def test_parameter_bounds(self):
        with pytest.raises(ValueError):
            estimate_box_persistence(20, 11, 5, 1.0, 10, 0)
        with pytest.raises(ValueError):
            estimate_box_persistence(20, 5, 5, -1.0, 10, 0)


class TestScalingFit:
    def test_recovers_log_squared_model(self):
        results = [synth(n, math.exp(-0.3 * math.log(n) ** 2)) for n in (8, 16, 32, 64, 128, 256)]
        fit = fit_scaling(results)
        assert fit.alpha == pytest.approx(0.3, abs=0.02)
        assert abs(fit.beta) < 0.02 and abs(fit.gamma) < 0.02
        assert fit.preferred == "log-squared"
        assert fit.r_squared > 0.999

    def test_prefers_submodel_on_polynomial_decay(self):
        results = [synth(n, n ** -2.5) for n in (8, 16, 32, 64, 128, 256)]
        fit = fit_scaling(results)
        assert abs(fit.alpha) < 0.01
        assert fit.preferred == "polynomial"
        assert fit.comparison_score < 0

    def test_excludes_zero_phat_with_warning(self):
        results = [synth(n, math.exp(-0.3 * math.log(n) ** 2)) for n in (8, 16, 32, 64, 128)]
        results.append(EstimateResult.from_counts(512, 1000, 0, 0, 0.0))
        with pytest.warns(UserWarning, match="no usable log variance"):
            fit = fit_scaling(results)
        assert 512 in fit.excluded
        assert fit.n_points == 5

    def test_excludes_low_count_by_default(self):
        results = [synth(n, math.exp(-0.3 * math.log(n) ** 2)) for n in (8, 16, 32, 64)]
        results.append(EstimateResult.from_counts(128, 10**6, 12, 0, 0.0))
        with pytest.warns(UserWarning, match="LOW-COUNT"):
            fit = fit_scaling(results)
        assert 128 in fit.excluded
        included = fit_scaling(results, include_low_count=True)
        assert included.n_points == 5

    def test_needs_four_points(self):
        results = [synth(n, 0.3) for n in (4, 8, 16)]
        with pytest.raises(ValueError, match=">= 4"):
            fit_scaling(results)


class TestSheet:
    def test_single_cell_threshold_zero(self):
        r = sheet_persistence(1, 0.0, 20_000, 13)
        se = 0.5 / math.sqrt(20_000)
        assert abs(r.p_hat - 0.5) < 4 * se

    def test_huge_threshold_certain(self):
        r = sheet_persistence(8, 1e9, 500, 2)
        assert r.p_hat == 1.0

    @pytest.mark.parametrize("m, threshold", [(2, 1.0), (2, 2.0), (3, 1.0), (3, 2.0)])
    def test_dense_sign_sheet_matches_enumeration(self, m, threshold):
        # zeta mode at p = 1/2: each cell is +1 or -1 with probability 1/4
        # and 0 with probability 1/2; sum the law over all 3^(m^2) fields
        cells = np.array(np.meshgrid(*[[-1.0, 0.0, 1.0]] * (m * m), indexing="ij")).reshape(m * m, -1).T
        weight = np.prod(np.where(cells == 0, 0.5, 0.25), axis=1)
        sums = np.cumsum(np.cumsum(cells.reshape(-1, m, m), axis=1), axis=2)
        exact = float(weight[sums.min(axis=(1, 2)) >= -threshold * math.sqrt(0.5)].sum())
        r = sheet_persistence(m, threshold, 100_000, 3107, mode="zeta", p=0.5)
        assert abs(r.p_hat - exact) <= 5 * math.sqrt(exact * (1 - exact) / r.trials)

    def test_single_cell_is_normal_cdf(self):
        threshold = 0.7
        exact = 0.5 * (1 + math.erf(threshold / math.sqrt(2)))
        r = sheet_persistence(1, threshold, 50_000, 3108)
        assert abs(r.p_hat - exact) <= 5 * math.sqrt(exact * (1 - exact) / r.trials)

    @pytest.mark.parametrize("kwargs, seed", [({}, 3109), ({"mode": "zeta", "p": 0.5}, 3110)])
    def test_square_scan_matches_materialized_sheets(self, kwargs, seed):
        # the square scan at m = 50 (borders of up to 99 cells) against
        # whole sheets built by sheet_grid from fresh streams
        m, threshold, grids = 50, 20.0, 8000
        r = sheet_persistence(m, threshold, 40_000, seed, **kwargs)
        # zeta thresholds scale by sqrt(2 p (1 - p)) = sqrt(1/2) at p = 1/2
        floor_level = -threshold * (1.0 if not kwargs else math.sqrt(0.5))
        stream = trial_stream(seed, 1 << 20)  # a block key the estimate does not use
        hits = sum(sheet_grid(m, stream, **kwargs).g.min() >= floor_level for _ in range(grids))
        other = hits / grids
        assert 0.05 < other < 0.5
        se = math.sqrt(r.p_hat * (1 - r.p_hat) / r.trials + other * (1 - other) / grids)
        assert abs(r.p_hat - other) <= 5 * se

    @pytest.mark.parametrize("threshold", [math.nan, math.inf, -1.0])
    def test_rejects_bad_threshold(self, threshold):
        with pytest.raises(ValueError, match="finite threshold >= 0"):
            sheet_persistence(8, threshold, 100, 0)

    def test_worker_invariance(self):
        # 6 x 8192 + 17 trials are 7 blocks, scanned as [4, 3], [4, 3],
        # [3, 3, 1] and [2, 2, 2, 1] blocks at 1, 2, 3 and 4 workers
        for m, trials in [(32, 30_000), (12, 6 * 8192 + 17)]:
            a = sheet_persistence(m, 1.0, trials, 21, workers=1)
            for workers in (2, 3, 4):
                b = sheet_persistence(m, 1.0, trials, 21, workers=workers)
                assert (a.successes, a.p_hat) == (b.successes, b.p_hat), (m, workers)

    def test_zeta_mode_parameters(self):
        with pytest.raises(ValueError, match="p in"):
            sheet_persistence(8, 1.0, 100, 0, mode="zeta", p=0.9)
        with pytest.raises(ValueError, match="zeta mode only"):
            sheet_persistence(8, 1.0, 100, 0, mode="gaussian", p=0.1)
        with pytest.raises(ValueError, match="unknown mode"):
            sheet_persistence(8, 1.0, 100, 0, mode="brownian")

    def test_zeta_sparse_default_runs(self):
        r = sheet_persistence(16, 1.0, 2000, 5, mode="zeta")
        assert 0.0 <= r.p_hat <= 1.0

    def test_grid_total_is_standard_normal(self):
        # Kolmogorov-Smirnov distance of G(m,m)/m against the normal cdf
        m, samples = 16, 10_000
        values = np.empty(samples)
        stream = trial_stream(31)
        for i in range(samples):
            values[i] = sheet_grid(m, stream).g[m, m] / m
        values.sort()
        cdf = 0.5 * (1.0 + np.vectorize(math.erf)(values / math.sqrt(2)))
        grid = np.arange(1, samples + 1) / samples
        ks = max(np.abs(cdf - grid).max(), np.abs(cdf - (grid - 1 / samples)).max())
        assert ks < 0.02

    def test_grid_invariants(self):
        g = sheet_grid(6, trial_stream(8))
        assert not g.g[0, :].any() and not g.g[:, 0].any()
        inc = g.increments()
        rebuilt = np.cumsum(np.cumsum(inc, axis=0), axis=1)
        assert np.allclose(rebuilt, g.g[1:, 1:])

    def test_grid_law_parameters(self):
        with pytest.raises(ValueError, match="zeta mode only"):
            sheet_grid(4, trial_stream(1), mode="gaussian", p=0.1)
        with pytest.raises(ValueError, match="p in"):
            sheet_grid(4, trial_stream(1), mode="zeta", p=0.9)
        with pytest.raises(ValueError, match="unknown mode"):
            sheet_grid(4, trial_stream(1), mode="brownian")

    def test_zeta_grid_increments_are_signs(self):
        g = sheet_grid(12, trial_stream(9), mode="zeta", p=0.5)
        assert set(np.unique(g.increments())) <= {-1.0, 0.0, 1.0}


class TestPsiFit:
    def test_exact_recovery(self):
        results = [synth(m, math.exp(-0.5 * math.log(m) ** 2)) for m in (16, 32, 64, 128)]
        fit = psi_fit(results)
        assert fit.psi_hat == pytest.approx(0.5, abs=0.01)

    def test_positive_on_real_gaussian_data(self):
        results = [
            sheet_persistence(8, 1.0, 20_000, 41),
            sheet_persistence(16, 1.0, 20_000, 41),
            sheet_persistence(32, 1.0, 60_000, 41),
        ]
        fit = psi_fit(results)
        assert fit.psi_hat > 0

    def test_requires_three_sizes_two_octaves(self):
        with pytest.raises(ValueError, match=">= 3"):
            psi_fit([synth(16, 0.1), synth(64, 0.01)])
        with pytest.raises(ValueError, match="octaves"):
            psi_fit([synth(16, 0.1), synth(20, 0.05), synth(25, 0.02)])

    def test_dense_sign_sheet_matches_gaussian_exponent(self):
        # universality: +-1 increments at p=1/2 give the same fitted
        # exponent as gaussian increments, within joint regression error
        gs, zs = [], []
        for m, trials in [(16, 100_000), (32, 300_000), (64, 1_500_000)]:
            gs.append(sheet_persistence(m, 1.0, trials, 2101, workers=2))
            zs.append(sheet_persistence(m, 1.0, trials, 2202, mode="zeta", p=0.5, workers=2))
        fg, fz = psi_fit(gs), psi_fit(zs)
        joint = math.hypot(fg.stderr, fz.stderr)
        assert abs(fg.psi_hat - fz.psi_hat) <= 3 * joint


class TestLiShao:
    def test_exact_value_at_400(self):
        result = li_shao_sum(400, 50)
        assert result.closed_form == Fraction(441, 361)
        assert result.bound_satisfied
        assert abs(result.supremum_over_ij - 441 / 361) < 1e-10

    def test_large_index_range_is_linear_memory(self):
        # the full (2R+1)^2 kernel matrix at R = 10^6 would need about 30 TB
        start = time.perf_counter()
        result = li_shao_sum(400, 10**6)
        assert time.perf_counter() - start < 1.0
        assert abs(result.supremum_over_ij - 441 / 361) < 1e-10

    def test_limit_for_large_rho(self):
        assert li_shao_sum(10**8).closed_form_float == pytest.approx(1.0, abs=1e-3)

    def test_non_square_rho_uses_floats(self):
        result = li_shao_sum(5, 100)
        assert isinstance(result.closed_form, float)
        expected = ((1 + 5 ** -0.5) / (1 - 5 ** -0.5)) ** 2
        assert result.closed_form == pytest.approx(expected)

    def test_small_rho_violates_bound(self):
        # the closed form exceeds 5/4 for rho = 4: ((1+1/2)/(1-1/2))^2 = 9
        result = li_shao_sum(4, 50)
        assert result.closed_form == Fraction(9)
        assert not result.bound_satisfied

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            li_shao_sum(1)
        with pytest.raises(ValueError):
            li_shao_sum(400, 0)
