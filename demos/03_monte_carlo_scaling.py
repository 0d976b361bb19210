"""Monte Carlo estimates of P(p <= t) across a size grid and the decay fit.

The estimated probabilities fall faster than any single polynomial; fitting
-ln p_hat against (ln n)^2 + ln n + 1 quantifies that, and an information
criterion compares the fit against the pure-polynomial submodel.

Run with: python demos/03_monte_carlo_scaling.py   (under a second on two cores)
"""
from bruhatmc import estimate_comparability, fit_scaling

GRID = [(4, 20_000), (6, 20_000), (8, 20_000), (12, 20_000), (16, 50_000), (24, 100_000), (32, 200_000)]
SEED = 20_25

results = []
print("n      trials   successes  p_hat        95% interval")
for n, trials in GRID:
    r = estimate_comparability(n, trials, SEED, workers=2)
    results.append(r)
    print(
        f"{n:<5} {r.trials:<9} {r.successes:<10} {r.p_hat:<12.5g} "
        f"[{r.ci_low:.5g}, {r.ci_high:.5g}]"
    )

fit = fit_scaling(results)
print("\n-ln p_hat  ~  alpha (ln n)^2 + beta ln n + gamma")
print(f"alpha = {fit.alpha:.4f}   beta = {fit.beta:.4f}   gamma = {fit.gamma:.4f}")
print(f"weighted r^2 = {fit.r_squared:.5f}")
print(f"model comparison (AICc, submodel minus full): {fit.comparison_score:.1f}")
print(f"preferred decay shape: {fit.preferred}")

print("\nsame pipeline via the CLI:")
print("  bruhatmc mc --n 4,8,16,32 --trials 100000 --seed 7 --out results.csv")
print("  bruhatmc fit --input results.csv --out fit.json")
print("  bruhatmc pipeline-scaling --n-grid 4,6,8,12,16,24,32 --trials 100000 --seed 7 --out-dir run/")
