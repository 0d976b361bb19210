"""The exact distributional laws of box counts in a random permutation
matrix: the hypergeometric law of any box, the conditional law given a
frame, the Bernstein-type tail bound, and the sparse-binomial comparison.

Run with: python demos/04_hypergeometric_laws.py
"""
import math

import numpy as np

from bruhatmc import (
    FrameCounts,
    HyperGeomParams,
    Rectangle,
    bernoulli_ratio,
    bernstein_bound,
    box_count_law_check,
    frame_conditional_params,
    hypergeom_moments,
    hypergeom_pmf_exact,
    hypergeom_sample,
    trial_stream,
)

# The number of ones of a random permutation matrix inside any box depends
# only on the side lengths and follows a hypergeometric law exactly.  The
# check draws the box's 20 rows one by one, each value by its rank among
# the values not used yet, and keeps only how many unused values lie at or
# below the box's two column edges: it never draws the law it checks.
report = box_count_law_check(100, Rectangle(10, 30, 40, 70), 50_000, trial_stream(1))
print(f"box 20x30 in a 100x100 permutation matrix: law {report.params}")
print(f"  TV(empirical, exact pmf) = {report.tv_distance:.4f} on 50k samples")

params = HyperGeomParams(10, 4, 5)
mean, var = hypergeom_moments(params)
print(f"\nHyperGeom(10, 4, 5): mean = {mean}, variance = {var}")
print("  pmf:", {k: str(hypergeom_pmf_exact(params, k)) for k in params.support})

# Conditioning on the counts in an L-shaped frame shifts the law of the
# inner box to another explicit hypergeometric.
cond = frame_conditional_params(10, 3, 5, 3, 5, FrameCounts(1, 0, 1))
print(f"\nconditional law of the 3x3 corner given frame counts (1, 0, 1): {cond}")

# Tail bound vs simulation.
params = HyperGeomParams(400, 200, 100)
mean, _ = hypergeom_moments(params)
draws = hypergeom_sample(params, trial_stream(2), size=50_000)
sigma = math.sqrt(params.A * params.B / params.N)
print("\ntwo-sided tails of HyperGeom(400, 200, 100):")
for mult in (1, 2, 4):
    t = mult * sigma
    empirical = float((np.abs(draws - float(mean)) >= t).mean())
    print(f"  t = {mult} sigma: empirical {empirical:.4f}  <=  bound {bernstein_bound(params, t):.4f}")

# On an n^(7/12) x n^(7/12) corner, the permutation-matrix count is close in
# law to a Binomial(N^2, 1/n): the exact pmf ratio drifts to 1 as n grows.
print("\npmf ratio hypergeometric/binomial at k=0:")
for n in (10**4, 10**6):
    r = bernoulli_ratio(n, 0)
    print(f"  n = {n:>8}: N = {r.submatrix_side:>5}, ratio = {r.ratio:.5f}")
