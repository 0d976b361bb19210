"""Acceptance suite: one test per criterion, each printing a PASS line.

Budgets and seeds are frozen; every expected value is either an exact
in-repo oracle (exhaustive enumeration, closed form) or a Monte Carlo figure
whose tolerance is stated in the criterion.  Heavy criteria use two worker
processes; worker count never changes any result (see criterion 13).

Criterion 12's m=1024 point is expected to FAIL: a naive run at that size
(seed 20261022, 2^31 trials) found 10 successes, p_hat = 4.66e-9 with
Wilson 95% interval [2.53e-9, 8.57e-9], so the required 100 successes would
need 1.2e10 to 4.0e10 trials, hours beyond the criterion's 30-minute
budget and below the library's documented rare-event floor of p ~ 1e-7.
The test runs an in-budget attempt, checks the decay form on the points
that do resolve, and reports the m=1024 shortfall honestly rather than
loosening the check.
"""
import math
import os
from fractions import Fraction

import numpy as np
import pytest

from bruhatmc.cli import main
from bruhatmc.dists import (
    FrameCounts,
    HyperGeomParams,
    bernoulli_ratio,
    bernstein_bound,
    box_count_law_check,
    frame_conditional_params,
    hypergeom_moments,
    hypergeom_pmf_exact,
    hypergeom_sample,
)
from bruhatmc.estimators import (
    EstimateResult,
    estimate_comparability,
    fit_scaling,
    li_shao_sum,
    psi_fit,
    sheet_persistence,
)
from bruhatmc.fkg import (
    comparability_probability,
    corner_events_equal,
    fkg_check,
    random_upset,
)
from bruhatmc.order import (
    all_perms,
    exact_comparability_count,
    is_leq_strong,
)
from bruhatmc.perms import sample_uniform, trial_stream
from bruhatmc.zprocess import Rectangle, max_rect_stat, max_strip_stat, persistence_holds, z_table
from oracles import comparable_pairs, reachable

WORKERS = 2

EXACT_PROBS = {
    1: Fraction(1, 1),
    2: Fraction(3, 4),
    3: Fraction(19, 36),
    4: Fraction(213, 576),
    5: Fraction(3781, 14400),
    6: Fraction(98407, 518400),
}


def report(number, name):
    print(f"[acceptance] criterion {number:02d} ({name}): PASS")


def random_pair(n, seed, trial):
    stream = trial_stream(seed, trial)
    return sample_uniform(n, stream), sample_uniform(n, stream)


def test_c01_criterion_equivalence_vs_cover_reachability():
    for n in (2, 3, 4, 5):
        for p in all_perms(n):
            for t in all_perms(n):
                assert is_leq_strong(p, t).leq == reachable(p, t), (p, t)
    report(1, "prefix criterion == cover reachability, n <= 5")


def test_c02_persistence_equivalence():
    for n in (2, 3, 4):
        for p in all_perms(n):
            for t in all_perms(n):
                assert persistence_holds(z_table(p, t)) == is_leq_strong(p, t).leq
    for n in (20, 50, 100):
        for trial in range(10_000):
            p, t = random_pair(n, 42_000 + n, trial)
            assert persistence_holds(z_table(p, t)) == is_leq_strong(p, t).leq
    report(2, "persistence event == comparability")


def test_c03_exact_small_n_probabilities():
    for n in range(1, 7):
        scan = exact_comparability_count(n)
        assert scan.probability == EXACT_PROBS[n]
        if n <= 5:
            assert comparable_pairs(n) == scan.comparable_pairs
    # 3.7 standard errors at the exact p: a correct stream layout fails one
    # n with probability about 2.2e-4, and some n of the four about 8.6e-4
    for n in (3, 4, 5, 6):
        p = float(EXACT_PROBS[n])
        r = estimate_comparability(n, 4 * 10**6, 20260810, workers=WORKERS)
        assert abs(r.p_hat - p) <= 3.7 * math.sqrt(p * (1 - p) / r.trials), (n, r)
    report(3, "exact counts by two paths + MC bracketing")


def test_c04_li_shao_constant():
    result = li_shao_sum(400)
    assert result.closed_form == Fraction(441, 361)
    assert result.closed_form <= Fraction(5, 4)
    assert abs(result.supremum_over_ij - 441 / 361) < 1e-10
    report(4, "correlation row-sum constant at rho=400")


def test_c05_box_count_hypergeometric_law():
    report_ = box_count_law_check(100, Rectangle(0, 20, 0, 30), 100_000, trial_stream(505))
    assert report_.params == HyperGeomParams(100, 30, 20)
    assert report_.tv_distance < 0.01, report_.tv_distance
    report(5, f"box-count law, TV={report_.tv_distance:.4f}")


def test_c06_conditional_frame_law():
    n, x1, x2, y1, y2 = 60, 15, 25, 15, 25
    target = FrameCounts(2, 2, 2)
    params = frame_conditional_params(n, x1, x2, y1, y2, target)
    assert params == HyperGeomParams(42, 13, 13)

    stream = trial_stream(606)
    needed, batch = 20_000, 100_000
    base = np.tile(np.arange(1, n + 1), (batch, 1))
    hist: dict[int, int] = {}
    accepted = 0
    for _ in range(40):  # hard cap well above the expected 7 batches
        words = stream.permuted(base, axis=1)
        inner = words[:, :x1]
        band = words[:, x1:x2]
        m1 = ((inner > y1) & (inner <= y2)).sum(axis=1)
        m2 = (band <= y1).sum(axis=1)
        m3 = ((band > y1) & (band <= y2)).sum(axis=1)
        keep = (m1 == target.m1) & (m2 == target.m2) & (m3 == target.m3)
        counts = (inner[keep] <= y1).sum(axis=1)
        for k, c in zip(*np.unique(counts, return_counts=True)):
            hist[int(k)] = hist.get(int(k), 0) + int(c)
        accepted += int(keep.sum())
        if accepted >= needed:
            break
    assert accepted >= needed, f"only {accepted} accepted samples"
    tv = 0.5 * sum(
        abs(hist.get(k, 0) / accepted - float(hypergeom_pmf_exact(params, k)))
        for k in range(0, 14)
    )
    assert tv < 0.05, tv
    # sharpness: the unconditional law is measurably farther from the data
    uncond = HyperGeomParams(60, 15, 15)
    tv_uncond = 0.5 * sum(
        abs(hist.get(k, 0) / accepted - float(hypergeom_pmf_exact(uncond, k)))
        for k in range(0, 16)
    )
    assert tv_uncond > tv
    report(6, f"conditional frame law, {accepted} accepted, TV={tv:.4f}")


def test_c07_bernstein_tail_bound():
    for n, a, b in [(100, 20, 40), (400, 100, 200), (1000, 300, 600)]:
        params = HyperGeomParams(n, b, a)
        mean, _ = hypergeom_moments(params)
        draws = hypergeom_sample(params, trial_stream(707 + n), size=100_000)
        sigma = math.sqrt(a * b / n)
        for mult in (1.0, 2.0, 4.0, 8.0):
            t = mult * sigma
            tail = float((np.abs(draws - float(mean)) >= t).mean())
            bound = bernstein_bound(params, t)
            mc_se = math.sqrt(max(tail * (1 - tail), 1e-12) / draws.size)
            assert tail <= bound + 4 * mc_se, (n, a, b, mult, tail, bound)
    report(7, "empirical tails below the Bernstein-type bound")


def test_c08_bernoulli_comparison():
    big = [bernoulli_ratio(10**6, k).ratio for k in range(0, 16)]
    assert all(0.9 <= r <= 1.1 for r in big), big
    small = [bernoulli_ratio(10**4, k).ratio for k in range(0, 7)]
    assert max(abs(r - 1) for r in big) < max(abs(r - 1) for r in small)
    report(8, f"pmf ratios in [0.9, 1.1] at n=1e6 (max dev {max(abs(r-1) for r in big):.4f})")


def test_c09_fkg_suite():
    for n in (3, 4, 5):
        stream = trial_stream(909 + n)
        for _ in range(200):
            result = fkg_check(random_upset(n, stream), random_upset(n, stream))
            assert result.holds and result.lhs >= result.rhs
    for n in (2, 3, 4, 5):
        probs = corner_events_equal(n)
        assert len(set(probs)) == 1, probs
    for n in (2, 3, 4):
        corner = corner_events_equal(n)[0]
        assert comparability_probability(n) >= corner ** 4
    report(9, "FKG holds on 600 up-set pairs; corner events equal; product bound")


def test_c10_chaining_and_strip_conclusions():
    n, trials, seed = 1024, 1000, 1010
    rect_ratios = []
    strip_ratios = []
    for x, y in [(64, 64), (64, 512), (512, 512)]:
        rect = max_rect_stat(n, x, y, trials, seed, workers=WORKERS)
        strip = max_strip_stat(n, x, y, trials, seed + 1, workers=WORKERS)
        rect_ratio = rect.mean / (math.sqrt(x * y / n) + math.log(n))
        strip_ratio = strip.mean / (math.sqrt(x * y / n) + 1.0)
        assert rect_ratio <= 10.0, (x, y, rect_ratio)
        assert strip_ratio <= 10.0, (x, y, strip_ratio)
        rect_ratios.append(rect_ratio)
        strip_ratios.append(strip_ratio)
    assert max(rect_ratios) / min(rect_ratios) <= 10.0, rect_ratios
    assert max(strip_ratios) / min(strip_ratios) <= 10.0, strip_ratios
    report(
        10,
        f"windowed max statistics uniformly bounded "
        f"(rect {min(rect_ratios):.2f}..{max(rect_ratios):.2f}, "
        f"strip {min(strip_ratios):.2f}..{max(strip_ratios):.2f})",
    )


C11_BUDGETS = [
    (4, 20_000),
    (6, 20_000),
    (8, 20_000),
    (12, 50_000),
    (16, 100_000),
    (24, 200_000),
    (32, 400_000),
    (48, 1_200_000),
    (64, 4_000_000),
]


def test_c11_scaling_shape():
    results = []
    for n, trials in C11_BUDGETS:
        r = estimate_comparability(n, trials, 971, workers=WORKERS)
        print(f"  n={n}: successes={r.successes} p_hat={r.p_hat:.4e}")
        assert r.successes >= 100, (n, r.successes)
        results.append(r)
    phats = [r.p_hat for r in results]
    assert all(a > b for a, b in zip(phats, phats[1:])), phats
    fit = fit_scaling(results)
    assert fit.alpha > 0, fit
    assert fit.r_squared > 0.99, fit.r_squared
    # synthetic recovery at the stated tolerances
    synth = [
        EstimateResult.from_counts(n, 10**9, round(math.exp(-0.3 * math.log(n) ** 2) * 10**9), 0, 0.0)
        for n in (8, 16, 32, 64, 128, 256)
    ]
    recovered = fit_scaling(synth)
    assert recovered.alpha == pytest.approx(0.3, abs=0.02)
    poly = [
        EstimateResult.from_counts(n, 10**9, round(n ** -2.5 * 10**9), 0, 0.0)
        for n in (8, 16, 32, 64, 128, 256)
    ]
    assert fit_scaling(poly).preferred == "polynomial"
    report(
        11,
        f"decay shape: alpha={fit.alpha:.3f}, r2={fit.r_squared:.4f}, "
        f"preferred={fit.preferred}",
    )


# The m=1024 budget is capped to keep the (expected, documented) failure
# affordable: 12M trials expect about 0.06 successes, and the criterion's
# full 30-minute budget about 20, nowhere near 100.
C12_BUDGETS = [
    (16, 30_000),
    (64, 1_000_000),
    (256, 35_000_000),
    (1024, int(os.environ.get("SHEET_M1024_TRIALS", 12_000_000))),
]


def sheet_form_r2(results):
    """r^2 of the unweighted least-squares line -ln p_hat ~ (ln m)^2."""
    logm = np.array([math.log(r.n) for r in results])
    y = np.array([-math.log(r.p_hat) for r in results])
    design = np.column_stack([logm**2, np.ones_like(logm)])
    beta, *_ = np.linalg.lstsq(design, y, rcond=None)
    resid = y - design @ beta
    return 1 - float(resid @ resid) / float(((y - y.mean()) ** 2).sum())


def test_c12_sheet_persistence_form():
    results = []
    for m, trials in C12_BUDGETS:
        r = sheet_persistence(m, 1.0, trials, 1203, workers=WORKERS)
        print(f"  m={m}: trials={trials} successes={r.successes} p_hat={r.p_hat:.4e} wall={r.wall_time:.1f}s")
        results.append(r)
    usable = [r for r in results if r.successes > 0]
    if len(usable) >= 3:
        fit = psi_fit(usable)
        print(f"  psi_hat={fit.psi_hat:.4f} +- {fit.stderr:.4f} over {len(usable)} points")
        assert fit.psi_hat > 0
    synth = [
        EstimateResult.from_counts(m, 10**9, round(math.exp(-0.5 * math.log(m) ** 2) * 10**9), 0, 0.0)
        for m in (16, 32, 64, 128)
    ]
    assert psi_fit(synth).psi_hat == pytest.approx(0.5, abs=0.01)
    resolved = [r for r in results if r.successes >= 100]
    assert len(resolved) >= 3, [(r.n, r.successes) for r in results]
    resolved_r2 = sheet_form_r2(resolved)
    print(f"  r2={resolved_r2:.4f} over the {len(resolved)} points with >= 100 successes")
    assert resolved_r2 > 0.95, resolved_r2
    shortfall = {r.n: r.successes for r in results if r.successes < 100}
    assert not shortfall, (
        f"points below 100 successes: {shortfall}. The m=1024 event has measured "
        f"probability 4.66e-9 (10 successes in 2^31 trials, Wilson 95% "
        f"[2.53e-9, 8.57e-9]), so 100 successes need 1.2e10 to 4.0e10 trials: "
        f"unreachable within the 30-minute budget and below "
        f"the documented rare-event floor of ~1e-7. On the "
        f"{len(resolved)} points that do resolve, -ln p_hat vs (ln m)^2 fits "
        f"with r^2 = {resolved_r2:.4f}."
    )
    # only reached if every point resolved (requires a multi-hour budget)
    fit = psi_fit(results)
    r2 = sheet_form_r2(results)
    assert r2 > 0.95
    report(12, f"sheet persistence form: psi_hat={fit.psi_hat:.3f}, r2={r2:.3f}")


def test_c13_reproducibility_across_worker_counts(tmp_path):
    jobs = [
        ["mc", "--n", "12,16", "--trials", "20000", "--seed", "4242"],
        ["gauss", "--grid", "16,32", "--threshold", "1", "--trials", "20000", "--seed", "77"],
        ["chainstat", "--n", "256", "--x", "32", "--y", "32", "--trials", "512", "--seed", "5"],
    ]
    for i, job in enumerate(jobs):
        outputs = []
        for workers in (1, 8):
            out = tmp_path / f"job{i}-w{workers}.csv"
            code = main(job + ["--workers", str(workers), "--out", str(out)])
            assert code == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1], f"worker count changed bytes for {job[0]}"
    report(13, "byte-identical outputs under worker counts 1 and 8")
