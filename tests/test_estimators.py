import math

import numpy as np
import pytest

from bruhatmc.estimators import (
    EstimateResult,
    estimate_box_persistence,
    estimate_comparability,
    fit_scaling,
    li_shao_sum,
    psi_fit,
    sheet_grid,
    sheet_persistence,
    wilson_interval,
)
from bruhatmc.order import is_leq_strong
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


def drawn_pairs(n, count, seed):
    """The pairs block 0 of the pair estimators draws: p then t, one row each."""
    g = trial_stream(seed, 0)
    tile = np.tile(np.arange(n), (count, 1))
    p, t = g.permuted(tile, axis=1) + 1, g.permuted(tile, axis=1) + 1
    return [(Permutation(tuple(a.tolist())), Permutation(tuple(b.tolist()))) for a, b in zip(p, t)]


class TestSurvivalKernel:
    @pytest.mark.parametrize("n", [1, 2, 5, 12])
    def test_comparability_matches_strong_order_oracle(self, n):
        count, seed = 3000, 123
        expected = sum(is_leq_strong(p, t).leq for p, t in drawn_pairs(n, count, seed))
        assert estimate_comparability(n, count, seed).successes == expected

    def test_box_window_matches_z_table_oracle(self):
        n, x, y, c_log, count, seed = 40, 10, 12, 0.5, 2000, 77
        floor_level = -c_log * math.log(n)
        expected = sum(
            int(z_table(p, t).z[x : 5 * x // 4 + 1, y : 5 * y // 4 + 1].min()) >= floor_level
            for p, t in drawn_pairs(n, count, seed)
        )
        assert 0 < expected < count
        assert estimate_box_persistence(n, x, y, c_log, count, seed).successes == expected

    @pytest.mark.parametrize(
        "args, kwargs, successes",
        [
            ((32, 1.0, 30_000, 21), {}, 84),
            ((300, 60.0, 8192, 9), {}, 143),
            ((16, 1.0, 20_000, 5), {"mode": "zeta"}, 9101),
            ((300, 60.0, 8192, 9), {"mode": "zeta", "p": 0.5}, 187),
        ],
    )
    def test_sheet_layout_pinned(self, args, kwargs, successes):
        # m = 300 takes the 256-column row-1 prefilter path
        assert sheet_persistence(*args, **kwargs).successes == successes


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
