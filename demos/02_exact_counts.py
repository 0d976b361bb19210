"""Exact comparability counts from the row-transfer dynamic program, next to
the independent cover-graph closure count where that is small enough, plus
the exact corner-event probabilities behind the product lower bound.

Run with: python demos/02_exact_counts.py
"""
from bruhatmc import exact_comparability_count
from bruhatmc.fkg import comparability_probability, corner_events_equal
from bruhatmc.order import CLOSURE_COUNT_CAP, EXACT_COUNT_CAP, comparability_count_via_covers

print("ordered comparable pairs (p <= t): row-transfer DP | cover-graph closure")
for n in range(1, CLOSURE_COUNT_CAP + 1):
    dp = exact_comparability_count(n).comparable_pairs
    covers = comparability_count_via_covers(n).comparable_pairs
    print(f"  n={n}: {dp:>6} | {covers:>6}  ({'agree' if dp == covers else 'DIFFER'})")

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
