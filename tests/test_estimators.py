import math
import time

import numpy as np
import pytest

from bruhatmc.estimators import (
    EstimateResult,
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
from bruhatmc.order import EXACT_COUNT_CAP, exact_comparability_count, is_leq_strong
from bruhatmc.perms import Permutation, trial_stream
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


def drawn_pairs(n, count, seed, window_rows=None):
    """Replay, in plain Python, the pairs block 0 of the pair estimators draws
    (schema mc-v3); count <= 4096 stays inside block 0.

    Sub-batches hold at most (1 << 18) // n pairs.  Each pair keeps a pool
    for p and one for t, both 1..n; row a swaps pool[a - 1] with
    pool[a - 1 + j], j uniform on 0..n-a, so pool[:a] holds the row values
    drawn so far and pool[a:] the unused ones; every j is drawn in int16.
    With ``window_rows`` = None (comparability) row a is drawn only for the
    k pairs whose Z rows 1..a-1 all stayed >= 0, by two calls
    integers(0, n - a + 1, size=k), p's then t's.  Otherwise (box
    persistence) rows 1..window_rows are drawn for every pair, in one call
    of shape (window_rows, 2, size) per sub-batch, before any row is used.

    Returns (p pool, t pool, rows drawn, Z rows drawn stayed >= 0) per pair.
    """
    g = trial_stream(seed, 0)
    batch = max(1, (1 << 18) // n)
    out = []
    for start in range(0, count, batch):
        size = min(batch, count - start)
        pools = [(list(range(1, n + 1)), list(range(1, n + 1))) for _ in range(size)]
        zrow = [[0] * n for _ in range(size)]
        drawn = [0] * size
        alive = [True] * size
        if window_rows is not None:
            highs = n + 1 - np.arange(1, window_rows + 1)[:, None, None]
            upfront = g.integers(0, highs, size=(window_rows, 2, size), dtype=np.int16).tolist()
        for a in range(1, (window_rows or n) + 1):
            if window_rows is None:
                live = [i for i in range(size) if alive[i]]
                if not live:
                    break
                js = [g.integers(0, n - a + 1, size=len(live), dtype=np.int16).tolist() for _ in range(2)]
            else:
                live, js = range(size), upfront[a - 1]
            for k, i in enumerate(live):
                for pool, j in zip(pools[i], (js[0][k], js[1][k])):
                    pool[a - 1], pool[a - 1 + j] = pool[a - 1 + j], pool[a - 1]
                pa, ta = pools[i][0][a - 1], pools[i][1][a - 1]
                zrow[i] = [z + (b >= pa) - (b >= ta) for b, z in enumerate(zrow[i], 1)]
                drawn[i] = a
                alive[i] = alive[i] and min(zrow[i]) >= 0
        out.extend(zip((p for p, _ in pools), (t for _, t in pools), drawn, alive))
    return out


def as_perm(values):
    return Permutation(tuple(values))


class TestSurvivalKernel:
    @pytest.mark.parametrize("n", [1, 2, 5, 12, 100, 127, 128])
    def test_comparability_matches_strong_order_oracle(self, n):
        # n = 100 spans two sub-batches: 2621 pairs, then 379; Z cells are
        # int8 up to n = 127 and int16 from n = 128
        count, seed = 3000, 123
        pairs = drawn_pairs(n, count, seed)
        for p, t, rows, alive in pairs:
            verdict = is_leq_strong(as_perm(p), as_perm(t))
            assert verdict.leq == alive
            if not alive:
                # the pair died on its last drawn row, whatever comes after it
                assert verdict.witness[0] == rows
                tail = slice(rows, None)
                assert not is_leq_strong(as_perm(p[:rows] + p[tail][::-1]), as_perm(t[:rows] + t[tail][::-1])).leq
        assert estimate_comparability(n, count, seed).successes == sum(alive for *_, alive in pairs)

    def test_box_window_matches_z_table_oracle(self):
        # n = 200 spans two sub-batches: 1310 pairs, then 90; n = 127 is the
        # largest size with int8 Z cells, here under a negative floor
        cases = [(40, 10, 12, 0.5, 2000, 77), (200, 40, 50, 0.5, 1400, 78), (127, 30, 40, 0.5, 2000, 79)]
        for n, x, y, c_log, count, seed in cases:
            floor_level = -c_log * math.log(n)
            expected = sum(
                int(z_table(as_perm(p), as_perm(t)).z[x : 5 * x // 4 + 1, y : 5 * y // 4 + 1].min()) >= floor_level
                for p, t, *_ in drawn_pairs(n, count, seed, min(5 * x // 4, n))
            )
            assert 0 < expected < count
            assert estimate_box_persistence(n, x, y, c_log, count, seed).successes == expected

    @pytest.mark.parametrize("m", [1, 2, 3, 15, 16, 17, 48, 49, 64, 112, 113])
    def test_chunked_rows_match_brute_force_minimum(self, m):
        # the square scan against the brute-force minimum; integer increments
        # keep every sum exact, so ties at the floor count
        count = min(3000, 5_000_000 // (m * m))  # field and its sums stay under 100 MB
        field = trial_stream(606, m).integers(-2, 3, size=(count, m, m)).astype(np.float64)
        minima = np.cumsum(np.cumsum(field, axis=1), axis=2).min(axis=(1, 2))

        def square(k, idx, z):
            # row k on columns 1..k, then column k on rows 1..k-1
            drawn = np.concatenate([field[idx, k - 1, :k], field[idx, : k - 1, k - 1]], axis=1)
            return _square_border(drawn, k, z)

        floors = sorted({float(f) for f in np.quantile(minima, [0.05, 0.3, 0.6, 0.95], method="lower")})
        for floor_level in floors + [-1.0]:
            expected = int((minima >= floor_level).sum())
            assert _survivors(square, range(1, m + 1), floor_level, count) == expected, (m, floor_level)

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
            (estimate_comparability, (40, 50_000, 2), 27),
            (estimate_box_persistence, (1000, 300, 200, 1.0, 3000, 3), 1450),
            (estimate_box_persistence, (60, 20, 20, 0, 400, 9), 143),
            (estimate_box_persistence, (60, 20, 20, 0.5, 400, 9), 261),
            (estimate_box_persistence, (60, 20, 20, 1, 400, 9), 353),
            (estimate_box_persistence, (60, 20, 20, 2, 400, 9), 400),
        ],
    )
    def test_pair_layout_pinned(self, estimate, args, successes):
        # mc-v3 counts; n = 40 blocks are one sub-batch each, n = 1000 box
        # persistence draws 375 rows up front for each 262-pair sub-batch
        assert estimate(*args).successes == successes


class TestComparabilityEstimator:
    def test_n1_is_certain(self):
        r = estimate_comparability(1, 100, 0)
        assert r.p_hat == 1.0 and r.successes == 100

    def test_ci_contains_exact_n3(self):
        r = estimate_comparability(3, 200_000, 11)
        assert r.ci_low <= 19 / 36 <= r.ci_high

    def test_reproducible_and_worker_invariant(self):
        a = estimate_comparability(12, 30_000, 5, workers=1)
        b = estimate_comparability(12, 30_000, 5, workers=2)
        keep = ("n", "trials", "successes", "p_hat", "ci_low", "ci_high", "seed")
        assert {k: getattr(a, k) for k in keep} == {k: getattr(b, k) for k in keep}

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
        # 600 pairs at n = 1000 fill three sub-batches (262, 262, 76); every
        # floor must see the same pairs in each of them.  The floors
        # -(k + 1/2) step the integer floor one at a time, where pairs drawn
        # anew for each floor would break the order by chance.
        grid = {0.0, 0.5, 1.0, 2.0} | {(k + 0.5) / math.log(1000) for k in range(16)}
        values = [estimate_box_persistence(1000, 300, 200, c, 600, 3).successes for c in sorted(grid)]
        assert all(a <= b for a, b in zip(values, values[1:]))

    def test_worker_invariance(self):
        a = estimate_box_persistence(40, 10, 12, 1.0, 300, 8, workers=1)
        b = estimate_box_persistence(40, 10, 12, 1.0, 300, 8, workers=2)
        assert (a.successes, a.p_hat) == (b.successes, b.p_hat)

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
        a = sheet_persistence(32, 1.0, 30_000, 21, workers=1)
        b = sheet_persistence(32, 1.0, 30_000, 21, workers=2)
        assert (a.successes, a.p_hat) == (b.successes, b.p_hat)

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
