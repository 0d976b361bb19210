"""Independent oracles, kept out of the library.

The strong order is the transitive closure of its covers: transpositions
that raise the inversion count by exactly 1.  The closure below follows that
definition directly and shares nothing with the prefix criterion or the
row-transfer count it checks.  It holds one bitmask of (n!) bits per
permutation, so it stops at n = 7 (n = 8 would need about 200 MB).

fisher_yates_words replays the batched row draw of bruhatmc.perms one
permutation at a time, by list swaps in pure Python.
"""
import functools
from collections import defaultdict
from math import factorial

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



ROW_DRAW = 1 << 20  # pool entries per sub-batch of the batched row draw


def fisher_yates_words(n: int, rows: int, count: int, stream) -> list[list[int]]:
    """``count`` full permutations of 1..n whose first ``rows`` values are
    the rows that perms.permutation_rows draws from ``stream``.

    Sub-batches of max(1, ROW_DRAW // n) permutations each take one
    (rows, size) index draw, row a's index uniform on 0..n - a, in int16
    below n = 2^15, else int32.  Permutation c of a sub-batch starts from
    the list 1..n and swaps entry a - 1 with entry a - 1 + j[a - 1, c]
    for a = 1..rows, so the rest of the list holds the values not drawn.
    """
    dtype = np.int16 if n < 2 ** 15 else np.int32
    batch = max(1, ROW_DRAW // n)
    words = []
    for s in range(0, count, batch):
        size = min(batch, count - s)
        j = stream.integers(0, n - np.arange(rows)[:, None], size=(rows, size), dtype=dtype).tolist()
        for c in range(size):
            word = list(range(1, n + 1))
            for a in range(rows):
                i = a + j[a][c]
                word[a], word[i] = word[i], word[a]
            words.append(word)
    return words
