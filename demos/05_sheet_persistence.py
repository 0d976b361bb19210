"""Persistence of the prefix-sum sheet: the probability that the running
two-dimensional sums of i.i.d. increments stay above -1 over an m x m grid.

-ln p is close to linear in (ln m)^2, the same decay shape the permutation
comparability probability follows in n; the fitted slope estimates the
persistence exponent.  A dense +-1 increment sheet gives a matching
exponent, a small universality check.

Run with: python demos/05_sheet_persistence.py   (about a second on two cores)
"""
import math

from bruhatmc import li_shao_sum, psi_fit, sheet_grid, sheet_persistence_grid, trial_stream

GRID = [(8, 20_000), (16, 50_000), (32, 100_000), (64, 800_000)]

print("gaussian increments, threshold 1:")
ms, trials = zip(*GRID)
gauss = sheet_persistence_grid(ms, 1.0, trials, 51, workers=2)
for m, r in zip(ms, gauss):
    print(f"  m={m:<5} p_hat={r.p_hat:.4e}   -ln p={-math.log(r.p_hat):.2f}   (ln m)^2={math.log(m)**2:.2f}")

fit = psi_fit(gauss)
print(f"fitted exponent: psi_hat = {fit.psi_hat:.3f} +- {fit.stderr:.3f}")

print("\ndense +-1 increments (p = 1/2), matched threshold:")
zeta = sheet_persistence_grid(ms, 1.0, trials, 52, mode="zeta", p=0.5, workers=2)
for m, r in zip(ms, zeta):
    print(f"  m={m:<5} p_hat={r.p_hat:.4e}")
zfit = psi_fit(zeta)
print(f"fitted exponent: psi_hat = {zfit.psi_hat:.3f} +- {zfit.stderr:.3f}")
print(f"gaussian vs dense-sign difference: {abs(fit.psi_hat - zfit.psi_hat):.4f}")

# A materialized sheet exposes the prefix sums directly.
grid = sheet_grid(4, trial_stream(5))
print("\na 4x4 sheet (prefix sums, zero-padded):")
print(grid.g.round(2))

# The correlation row sums over dyadic scales stay below 5/4 once the scale
# ratio is 400, the hypothesis the Gaussian persistence upper bound needs.
res = li_shao_sum(400)
print(f"\ncorrelation row-sum constant at rho=400: {res.closed_form} <= 5/4: {res.bound_satisfied}")
