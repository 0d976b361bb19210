"""Independent oracles for the strong Bruhat order, kept out of the library.

The strong order is the transitive closure of its covers: transpositions
that raise the inversion count by exactly 1.  The closure below follows that
definition directly and shares nothing with the prefix criterion or the
row-transfer count it checks.  It holds one bitmask of (n!) bits per
permutation, so it stops at n = 7 (n = 8 would need about 200 MB).
"""
import functools

from bruhatmc.order import _lex_index, covering_successors
from bruhatmc.perms import Permutation, inversion_count

CLOSURE_MAX_N = 7


@functools.cache
def cover_closure(n: int) -> dict[tuple[int, ...], int]:
    """For each one-line tuple w in S_n, the bitmask (over lexicographic
    indices) of every permutation reachable from w along covers, w included."""
    if not 1 <= n <= CLOSURE_MAX_N:
        raise ValueError(f"need 1 <= n <= {CLOSURE_MAX_N}, got n={n}")
    index = _lex_index(n)
    masks: dict[tuple[int, ...], int] = {}
    # descending inversion count, so every cover's mask is already built
    for w in sorted(index, key=lambda w: inversion_count(Permutation(w)), reverse=True):
        mask = 1 << index[w]
        for q in covering_successors(Permutation(w)):
            mask |= masks[q.values]
        masks[w] = mask
    return masks


def reachable(p: Permutation, t: Permutation) -> bool:
    """Is t reachable from p in the directed cover graph, i.e. p <= t?"""
    if p.n != t.n:
        raise ValueError(f"size mismatch: {p.n} vs {t.n}")
    return bool(cover_closure(p.n)[p.values] >> _lex_index(p.n)[t.values] & 1)


def comparable_pairs(n: int) -> int:
    """Number of ordered pairs (p, t) in S_n x S_n with t reachable from p."""
    return sum(mask.bit_count() for mask in cover_closure(n).values())

