import collections
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bruhatmc.dists import (
    FrameCounts,
    HyperGeomParams,
    RegimeError,
    bernoulli_ratio,
    bernstein_bound,
    box_count_law_check,
    frame_conditional_params,
    hypergeom_moments,
    hypergeom_pmf,
    hypergeom_pmf_exact,
    hypergeom_sample,
    submatrix_side,
)
from bruhatmc.perms import trial_stream
from bruhatmc.zprocess import Rectangle

from oracles import rank_words


class TestPmf:
    def test_normalization_exact(self):
        # full sweep at small N, spot checks up to the N=200 scale
        for N in range(1, 13):
            for B in range(N + 1):
                for A in range(N + 1):
                    params = HyperGeomParams(N, B, A)
                    assert sum(hypergeom_pmf_exact(params, k) for k in params.support) == 1
        for N, B, A in [(50, 17, 31), (200, 60, 111), (200, 199, 1), (9, 0, 4)]:
            params = HyperGeomParams(N, B, A)
            assert sum(hypergeom_pmf_exact(params, k) for k in params.support) == 1

    def test_enumeration_oracle_4_2_2(self):
        # enumerate all C(4,2) draws from {r, r, b, b} and count one-red draws
        objects = ["r", "r", "b", "b"]
        draws = list(itertools.combinations(range(4), 2))
        by_count = {}
        for d in draws:
            k = sum(1 for i in d if objects[i] == "r")
            by_count[k] = by_count.get(k, 0) + 1
        params = HyperGeomParams(4, 2, 2)
        for k, c in by_count.items():
            assert hypergeom_pmf_exact(params, k) == Fraction(c, len(draws))
        assert hypergeom_pmf_exact(params, 1) == Fraction(2, 3)

    def test_out_of_support_is_zero(self):
        params = HyperGeomParams(10, 4, 5)
        assert hypergeom_pmf_exact(params, -1) == 0
        assert hypergeom_pmf_exact(params, 5) == 0
        assert hypergeom_pmf(params, 99) == 0.0

    def test_float_path_matches_exact(self):
        # dual route across the exact/log-gamma switch
        params = HyperGeomParams(5000, 700, 1200)
        for k in (140, 168, 200):
            exact = float(hypergeom_pmf_exact(params, k))
            assert hypergeom_pmf(params, k) == pytest.approx(exact, rel=1e-10)

    def test_symmetric_in_draws_and_successes(self):
        a = HyperGeomParams(100, 30, 20)
        b = HyperGeomParams(100, 20, 30)
        for k in a.support:
            assert hypergeom_pmf_exact(a, k) == hypergeom_pmf_exact(b, k)

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            HyperGeomParams(5, 6, 2)
        with pytest.raises(ValueError):
            HyperGeomParams(5, 2, -1)


class TestMoments:
    def test_paper_values_10_4_5(self):
        mean, var = hypergeom_moments(HyperGeomParams(10, 4, 5))
        assert mean == Fraction(2)
        assert var == Fraction(2, 3)

    def test_all_red_degenerate(self):
        _, var = hypergeom_moments(HyperGeomParams(6, 3, 6))
        assert var == 0

    def test_tiny_population_rejected(self):
        with pytest.raises(ValueError, match="variance undefined"):
            hypergeom_moments(HyperGeomParams(1, 1, 1))

    def test_sampler_agrees_within_4_se(self):
        params = HyperGeomParams(10, 4, 5)
        mean, var = hypergeom_moments(params)
        samples = 100_000
        draws = hypergeom_sample(params, trial_stream(5), size=samples)
        mu4 = sum(
            float(hypergeom_pmf_exact(params, k)) * (k - float(mean)) ** 4
            for k in params.support
        )
        se_mean = math.sqrt(float(var) / samples)
        se_var = math.sqrt((mu4 - float(var) ** 2) / samples)
        assert abs(draws.mean() - float(mean)) < 4 * se_mean
        assert abs(draws.var(ddof=1) - float(var)) < 4 * se_var


class TestSampler:
    def test_degenerate_draws(self):
        stream = trial_stream(0)
        assert hypergeom_sample(HyperGeomParams(10, 0, 5), stream) == 0
        assert hypergeom_sample(HyperGeomParams(10, 10, 4), stream) == 4

    def test_scalar_draws_pinned(self):
        stream = trial_stream(5)
        draws = [hypergeom_sample(HyperGeomParams(100, 37, 60), stream) for _ in range(20)]
        assert all(type(k) is int for k in draws)
        assert draws == [25, 22, 21, 24, 20, 24, 20, 22, 21, 21, 25, 22, 20, 19, 25, 20, 22, 24, 21, 22]

    def test_scalar_matches_law(self):
        params = HyperGeomParams(6, 3, 2)
        stream = trial_stream(8)
        counts = {}
        trials = 30_000
        for _ in range(trials):
            k = hypergeom_sample(params, stream)
            counts[k] = counts.get(k, 0) + 1
        tv = 0.5 * sum(
            abs(counts.get(k, 0) / trials - float(hypergeom_pmf_exact(params, k)))
            for k in params.support
        )
        assert tv < 0.01

    def test_vector_tv_to_pmf(self):
        params = HyperGeomParams(10, 4, 5)
        draws = hypergeom_sample(params, trial_stream(9), size=100_000)
        tv = 0.5 * sum(
            abs((draws == k).mean() - float(hypergeom_pmf_exact(params, k)))
            for k in params.support
        )
        assert tv < 0.01


class TestBernstein:
    def test_formula_value(self):
        # ab/n = 1, t = 4: exponent is min(16, 4)/16
        bound = bernstein_bound(HyperGeomParams(16, 4, 4), 4.0)
        assert bound == pytest.approx(2 * math.exp(-0.25))

    def test_vacuous_at_small_t(self):
        bound = bernstein_bound(HyperGeomParams(100, 40, 20), 1e-9)
        assert bound == pytest.approx(2.0)

    def test_monotone_nonincreasing_in_t(self):
        params = HyperGeomParams(400, 200, 100)
        values = [bernstein_bound(params, t) for t in np.linspace(0.1, 60, 120)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    def test_regime_gate(self):
        with pytest.raises(RegimeError):
            bernstein_bound(HyperGeomParams(100, 40, 50), 2.0)
        with pytest.raises(RegimeError):
            bernstein_bound(HyperGeomParams(100, 90, 20), 2.0)
        with pytest.warns(UserWarning, match="unproven"):
            value = bernstein_bound(HyperGeomParams(100, 90, 20), 2.0, override=True)
        assert 0 < value <= 2

    def test_requires_positive_t(self):
        with pytest.raises(ValueError):
            bernstein_bound(HyperGeomParams(100, 40, 20), 0.0)

    def test_empirical_tail_below_bound(self):
        params = HyperGeomParams(100, 40, 20)
        mean, _ = hypergeom_moments(params)
        draws = hypergeom_sample(params, trial_stream(12), size=50_000)
        sigma = math.sqrt(params.A * params.B / params.N)
        for mult in (1.0, 2.0, 4.0):
            t = mult * sigma
            tail = (np.abs(draws - float(mean)) >= t).mean()
            mc_se = math.sqrt(tail * (1 - tail) / draws.size + 1e-12)
            assert tail <= bernstein_bound(params, t) + 4 * mc_se


class TestBoxLaw:
    def test_full_square_degenerate(self):
        report = box_count_law_check(12, Rectangle(0, 12, 0, 12), 500, trial_stream(1))
        assert report.tv_distance == 0.0
        assert report.histogram == {12: 500}

    def test_small_box_matches(self):
        report = box_count_law_check(30, Rectangle(0, 6, 0, 10), 20_000, trial_stream(2))
        assert report.params == HyperGeomParams(30, 10, 6)
        assert report.tv_distance < 0.02

    def test_offset_box_same_law(self):
        # the law depends only on the side lengths
        a = box_count_law_check(25, Rectangle(5, 10, 7, 17), 20_000, trial_stream(3))
        assert a.params == HyperGeomParams(25, 10, 5)
        assert a.tv_distance < 0.02

    def test_counts_replay_rank_rows(self):
        # rows (5, 10] as rows 1..5 by rank over the whole of [25]
        report = box_count_law_check(25, Rectangle(5, 10, 7, 17), 2000, trial_stream(4))
        words = rank_words(25, 0, 5, None, (2000,), trial_stream(4))
        expected = collections.Counter(sum(7 < v <= 17 for v in w[:5]) for w in words)
        assert report.histogram == dict(expected)

    def test_out_of_bounds(self):
        with pytest.raises(ValueError):
            box_count_law_check(10, Rectangle(0, 11, 0, 5), 10, trial_stream(0))


class TestFrameLaw:
    def test_substitution_example(self):
        params = frame_conditional_params(10, 3, 5, 3, 5, FrameCounts(1, 0, 1))
        assert params == HyperGeomParams(7, 3, 2)

    def test_empty_frame_is_unconditional(self):
        params = frame_conditional_params(10, 4, 4, 3, 3, FrameCounts(0, 0, 0))
        assert params == HyperGeomParams(10, 3, 4)

    def test_infeasible_counts(self):
        with pytest.raises(ValueError, match="infeasible"):
            frame_conditional_params(10, 3, 5, 3, 5, FrameCounts(4, 0, 0))
        with pytest.raises(ValueError, match="infeasible"):
            frame_conditional_params(10, 3, 5, 3, 5, FrameCounts(0, 0, 3))
        with pytest.raises(ValueError):
            FrameCounts(-1, 0, 0)

    def test_bad_frame_geometry(self):
        with pytest.raises(ValueError):
            frame_conditional_params(10, 5, 3, 3, 5, FrameCounts(0, 0, 0))

    def test_tower_property(self):
        # averaging the conditional mean over sampled frames recovers the
        # unconditional mean x1*y1/n within 3 standard errors
        n, x1, x2, y1, y2 = 40, 10, 14, 10, 14
        stream = trial_stream(21)
        base = np.tile(np.arange(1, n + 1), (4000, 1))
        words = stream.permuted(base, axis=1)
        cond_means = []
        for w in words:
            inner = w[:x1]
            band = w[x1:x2]
            m1 = int(((inner > y1) & (inner <= y2)).sum())
            m2 = int((band <= y1).sum())
            m3 = int(((band > y1) & (band <= y2)).sum())
            params = frame_conditional_params(n, x1, x2, y1, y2, FrameCounts(m1, m2, m3))
            cond_means.append(params.A * params.B / params.N)
        cond_means = np.array(cond_means)
        se = cond_means.std(ddof=1) / math.sqrt(cond_means.size)
        assert abs(cond_means.mean() - x1 * y1 / n) < 3 * se


# frozen values from the exact 60-digit evaluation
BERNOULLI_RATIOS = {
    (10_000, 0): 0.9035037131125713,
    (10_000, 6): 1.0192090096325215,
    (1_000_000, 0): 0.9687763299337431,
    (1_000_000, 15): 0.9968041417552652,
}


class TestBernoulliRatio:
    def test_frozen_values(self):
        for (n, k), expected in BERNOULLI_RATIOS.items():
            assert bernoulli_ratio(n, k).ratio == pytest.approx(expected, abs=5e-7)

    def test_submatrix_side(self):
        assert bernoulli_ratio(10_000, 0).submatrix_side == 215
        assert bernoulli_ratio(1_000_000, 0).submatrix_side == 3162

    def test_submatrix_side_is_the_exact_floor(self):
        # N^12 <= n^7 < (N + 1)^12, also next to powers of ten far past floats
        sizes = list(range(1, 2000)) + [10**e + d for e in range(4, 400, 7) for d in (-1, 0, 1)]
        for n in sizes:
            side = submatrix_side(n)
            assert side**12 <= n**7 < (side + 1) ** 12, n

    def test_closer_to_one_at_larger_n(self):
        small = abs(bernoulli_ratio(10_000, 0).ratio - 1)
        large = abs(bernoulli_ratio(1_000_000, 0).ratio - 1)
        assert large < small

    def test_small_n_deviates_materially(self):
        # reported, not asserted against 1: n=16 sits far outside the regime
        result = bernoulli_ratio(16, 0)
        assert result.regime_ok
        assert result.ratio == pytest.approx(0.5309791107840637, abs=5e-7)

    def test_regime_flag(self):
        assert not bernoulli_ratio(100, 3).regime_ok  # 3^5 = 243 > 100
        assert bernoulli_ratio(100, 2).regime_ok

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            bernoulli_ratio(1, 0)
        with pytest.raises(ValueError):
            bernoulli_ratio(10_000, 300)
