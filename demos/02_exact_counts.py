"""Exact comparability counts from the row-transfer dynamic program, next to
a brute-force count of all pairs with the prefix-count scan where that is
small enough, plus the exact corner-event probabilities behind the product
lower bound.  The program's state after row a is one letter per value
(unused, used by p only, used by t only), with the values both have used
dropped, so exact P reaches order.EXACT_COUNT_CAP = 12 in a few seconds.

Run with: python demos/02_exact_counts.py
"""
from bruhatmc import exact_comparability_count, is_leq_strong
from bruhatmc.fkg import comparability_probability, corner_events_equal
from bruhatmc.order import EXACT_COUNT_CAP, all_perms

print("ordered comparable pairs (p <= t): row-transfer DP | scan over S_n x S_n")
for n in range(1, 6):
    dp = exact_comparability_count(n).comparable_pairs
    perms = all_perms(n)
    scan = sum(1 for p in perms for t in perms if is_leq_strong(p, t).leq)
    print(f"  n={n}: {dp:>6} | {scan:>6}  ({'agree' if dp == scan else 'DIFFER'})")

print(f"\nexact P(p <= t) up to the cap n = {EXACT_COUNT_CAP}:")
for n in range(1, EXACT_COUNT_CAP + 1):
    count = exact_comparability_count(n)
    print(
        f"  n={n:>2}: {count.comparable_pairs:>13} / {count.total_pairs:<15}"
        f" P = {float(count.probability):.6f}"
    )

# The four corner events ask Z >= 0 on one quadrant only; all four have the
# same probability by the reflection symmetries, and their product lower
# bounds the full comparability probability.
print("\nquadrant persistence events:")
for n in range(2, 9):
    probs = corner_events_equal(n)
    total = comparability_probability(n)
    print(
        f"  n={n}: P(corner) = {float(probs[0]):.6f}  (all four equal: {len(set(probs)) == 1})"
        f"   P(p<=t) = {float(total):.6f} >= P(corner)^4 = {float(probs[0] ** 4):.6f}"
    )
