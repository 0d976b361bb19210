"""Independent oracles, kept out of the library.

The strong order is the transitive closure of its covers: transpositions
that raise the inversion count by exactly 1.  The closure below follows that
definition directly and shares nothing with the prefix criterion or the
row-transfer count it checks.  It holds one bitmask of (n!) bits per
permutation, so it stops at n = 7 (n = 8 would need about 200 MB).

rank_words replays the rank rows of bruhatmc.perms one permutation at a
time, by pops from an explicit list of unused values in pure Python.

permutation_error walks a one-line word value by value and names the
error that Permutation must raise for it.
"""
import functools
from collections import defaultdict
from math import factorial, prod

import numpy as np

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


def bitmask_window_count(n: int, rows: range, cols: range) -> int:
    """Number of pairs (p, t) in S_n x S_n with Z(a, b) >= 0 for every a in
    ``rows`` and b in ``cols``, by a row-transfer count on both value sets.

    A state is the pair of value sets p and t have used, as bitmasks (bit
    v - 1 for value v), mapped to its number of partial pairs.  Row a adds
    p's value, then t's value v; on a checked row that keeps Z >= 0 exactly
    when no column is negative and v exceeds every column where Z is 0.
    It has no size cap: n = 10 takes about 2 s for the four corner windows,
    n = 12 about 10 s for the square.
    """
    masks = [(b, (1 << b) - 1) for b in cols]  # bits of the values <= b
    last = max(rows)
    states = {(0, 0): 1}
    for a in range(1, last + 1):
        half = defaultdict(int)  # states once p's value of row a is in
        for (used_p, used_t), count in states.items():
            for u in range(n):
                if not used_p >> u & 1:
                    half[used_p | 1 << u, used_t] += count
        checked = masks if a in rows else ()
        states = defaultdict(int)
        for (used_p, used_t), count in half.items():
            low = 0  # lowest bit t's value may take: above every column where Z is 0
            for b, m in checked:
                z = (used_p & m).bit_count() - (used_t & m).bit_count()
                if z < 0:
                    low = n
                    break
                if z == 0:
                    low = b
            for v in range(low, n):
                if not used_t >> v & 1:
                    states[used_p, used_t | 1 << v] += count
    # rows past the window are free: (n - last)! ways for each permutation
    return sum(states.values()) * factorial(n - last) ** 2



def rank_words(n: int, first: int, last: int, cols: range | None, shape: tuple, stream) -> list[list[int]]:
    """Full permutations of 1..n, one per trial of ``shape`` in C order,
    whose rows 1..last replay the draws that perms' row source makes from
    ``stream``, in plain Python.

    Rows 1..first replay perms.unused_counts on ``cols`` (nothing is drawn
    when first is 0): a hypergeometric draw of how many of them lie at or
    below cols.start, then for each column b but the last an index k
    uniform on 0..n - b - 1, and b + 1 is used when k is below the number
    of values still to place.  They take the smallest values that agree
    with those counts, in increasing order.  Each row a after them draws
    one index j per trial, uniform on 0..n - a, and pops place j of an
    explicit sorted list of the values not used yet; the values left follow
    in increasing order.  Indices are drawn in int16 below n = 2^15, else
    in int32.
    """
    dtype = np.int16 if n < 2 ** 15 else np.int32
    size = prod(shape)
    used = [[] for _ in range(size)]
    if first:
        below = stream.hypergeometric(cols.start, n - cols.start, first, size=shape).ravel().tolist()
        used = [list(range(1, c + 1)) for c in below]
        for b in cols[:-1]:
            ks = stream.integers(0, n - b, size=shape, dtype=dtype).ravel().tolist()
            for word, k in zip(used, ks):
                if k < first - len(word):
                    word.append(b + 1)
        used = [word + list(range(cols[-1] + 1, cols[-1] + 1 + first - len(word))) for word in used]
    unused = [sorted(set(range(1, n + 1)).difference(word)) for word in used]
    for a in range(first + 1, last + 1):
        js = stream.integers(0, n - a + 1, size=shape, dtype=dtype).ravel().tolist()
        for word, rest, j in zip(used, unused, js):
            word.append(rest.pop(j))
    return [word + rest for word, rest in zip(used, unused)]


def permutation_error(values) -> str | None:
    """The message Permutation(values) must raise for a non-empty word, from
    its first value that is not an int, is out of 1..n or repeats an
    earlier one; None for a permutation of [n]."""
    n = len(values)
    seen = [False] * (n + 1)
    for v in values:
        if not isinstance(v, int) or not 1 <= v <= n:
            return f"value {v!r} out of range 1..{n}"
        if seen[v]:
            return f"duplicate value {v}"
        seen[v] = True
    return None
