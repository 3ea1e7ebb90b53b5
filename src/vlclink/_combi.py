"""Combinatorial ranking/unranking helpers for bit-to-symbol mappings.

All orderings here are deterministic and invertible; they back the codeword
indexing of the pulse-position constellations.
"""

from math import comb

import numpy as np

from .errors import CapacityError


def rank_subset_colex(positions):
    """Colex rank of a k-subset of {0..n-1}, given as a sorted sequence."""
    return sum(comb(c, j + 1) for j, c in enumerate(positions))


def unrank_subset_colex(r, n, k):
    """k-subset of {0..n-1} with colex rank r, returned sorted ascending."""
    out = [0] * k
    while k > 0:
        lo = k - 1
        while lo < n:
            mid = (lo + n + 1) // 2
            if r < comb(mid, k):
                n = mid - 1
            else:
                lo = mid
        r -= comb(n, k)
        k -= 1
        out[k] = n
    return out


def count_multisets(n_items, size):
    """Number of size-`size` multisets drawn from `n_items` item types."""
    return comb(n_items + size - 1, size)


# entries of the largest rank table built (32 MB); a lattice that needs a
# larger one raises CapacityError when indexed instead of exhausting memory
_TABLE_LIMIT = 1 << 22


def _int64_table(table, total):
    """`table` (Python ints) as int64, or None when its entries or the
    total do not fit: indexing such a lattice raises CapacityError."""
    if table.size > _TABLE_LIMIT or max(table.max(), total) >= 1 << 62:
        return None
    return table.astype(np.int64)


def _require(table, total):
    if table is None:
        raise CapacityError(f"{total} symbols are too many to index")
    return table


def _ranks(ranks, total):
    r = np.array(ranks, dtype=np.int64)
    if np.any((r < 0) | (r >= total)):
        raise ValueError("rank out of range")
    return r


def _stack(vectors, m):
    v = np.asarray(vectors, dtype=np.int64)
    if v.ndim != 2 or v.shape[1] != m:
        raise ValueError("vector length mismatch")
    return v


class MultisetCounter:
    """Ranks count vectors a in Z^m, a >= 0, sum(a) == size: the multisets
    of `size` items drawn from m item types.

    The order matches itertools.combinations_with_replacement(range(m),
    size) on the multisets' sorted item tuples.  `total` is exact;
    rank/unrank work on stacks of vectors and ranks.
    """

    def __init__(self, m, size):
        self.m = m
        self.size = size
        # ways[k, s] = #count vectors of length k summing to s
        ways = np.zeros((m + 1, size + 1), dtype=object)
        ways[0, 0] = 1
        for k in range(1, m + 1):
            ways[k] = np.cumsum(ways[k - 1])
        self.total = int(ways[m, size])
        # before[rest, x] = #completions over `rest` later items of fewer
        # than x items, i.e. of a larger count at the current item
        before = np.zeros((m, size + 2), dtype=object)
        before[:, 1:] = ways[1:]
        self._before = _int64_table(before, self.total)

    def rank(self, counts):
        """Ranks (n,) of count vectors (n, m)."""
        a = _stack(counts, self.m)
        if np.any(a < 0) or np.any(a.sum(axis=1) != self.size):
            raise ValueError("not a multiset of the counted size")
        before = _require(self._before, self.total)
        left = self.size - np.cumsum(a, axis=1)  # items after each entry
        return before[np.arange(self.m - 1, -1, -1), left].sum(axis=1)

    def unrank(self, ranks):
        """Count vectors (n, m) of ranks (n,)."""
        before = _require(self._before, self.total)
        r = _ranks(ranks, self.total)
        out = np.empty((r.size, self.m), dtype=np.int64)
        left = np.full(r.size, self.size)
        x = np.arange(1, self.size + 1)
        for i in range(self.m):
            row = before[self.m - 1 - i]
            # x items go to later types: the largest x with row[x] <= r
            later = ((x <= left[:, None]) & (row[x] <= r[:, None])).sum(axis=1)
            out[:, i] = left - later
            r -= row[later]
            left = later
        return out


class SignedBallCounter:
    """Counts and ranks integer vectors c in Z^m with sum(|c|) <= budget.

    Vectors are additionally constrained to a fixed parity of sum(|c|).
    Ordering is lexicographic on the raw tuples (components compared as
    plain integers, most significant first).  `total` is exact (a Python
    int); rank/unrank work on stacks of vectors and ranks in int64.
    """

    def __init__(self, m, budget, parity):
        self.m = m
        self.budget = budget
        self.parity = parity & 1
        b = np.arange(budget + 1)
        # count[b, p] = #vectors in Z^k, sum|.| <= b, sum|.| == p mod 2;
        # prefix[k, s, x] sums count over b < x at parity s ^ (b & 1), so
        # that every run of first entries is one difference of it
        count = np.zeros((budget + 1, 2), dtype=object)
        count[:, 0] = 1
        prefix = np.zeros((m, 2, budget + 2), dtype=object)
        for k in range(m):
            prefix[k, 0, 1:] = np.cumsum(count[b, b & 1])
            prefix[k, 1, 1:] = np.cumsum(count[b, 1 - (b & 1)])
            # first entry u != 0 (two signs) leaves budget b - |u|
            flip = (b[:, None] ^ np.arange(2)) & 1
            count = count + 2 * prefix[k, flip, b[:, None]]
        self.total = int(count[budget, self.parity])
        self._below = self._below_table(_int64_table(prefix, self.total))

    def _below_table(self, prefix):
        """below[k, b, p, v + b]: #vectors ranked before entry v, with k
        entries after it and budget b, parity p left for it and them."""
        width = 2 * self.budget + 2
        if prefix is None or prefix.size * width > _TABLE_LIMIT:
            return None
        k = np.arange(self.m)[:, None, None, None]
        b = np.arange(self.budget + 1)[:, None, None]
        s = (np.arange(2)[:, None] ^ b) & 1
        v = np.minimum(np.arange(width) - b, b + 1)
        below = (prefix[k, s, b + 1] + prefix[k, s, b + np.minimum(v, 0)]
                 - prefix[k, s, b + 1 - np.maximum(v, 0)])
        # past v = b + 1 (the whole level) nothing is ranked below
        return np.where(np.arange(width) - b <= b + 1, below,
                        np.iinfo(np.int64).max)

    def rank(self, vectors):
        """Ranks (n,) of vectors (n, m)."""
        c = _stack(vectors, self.m)
        a = np.abs(c)
        norm = a.sum(axis=1)
        if np.any(norm > self.budget):
            raise ValueError("vector outside the ball")
        if np.any((norm & 1) != self.parity):
            raise ValueError("vector parity mismatch")
        below = _require(self._below, self.total)
        spent = np.cumsum(a, axis=1) - a  # sum|.| of the entries before
        budget = self.budget - spent
        parity = (self.parity ^ spent) & 1
        rest = np.arange(self.m - 1, -1, -1)
        return below[rest, budget, parity, c + budget].sum(axis=1)

    def unrank(self, ranks):
        """Vectors (n, m) of ranks (n,)."""
        below = _require(self._below, self.total)
        r = _ranks(ranks, self.total)
        out = np.empty((r.size, self.m), dtype=np.int64)
        budget = np.full(r.size, self.budget)
        parity = np.full(r.size, self.parity)
        rows = np.arange(r.size)
        for i in range(self.m):
            level = below[self.m - 1 - i, budget, parity]
            # the entry is the largest v in [-b, b] ranked at or below r
            shift = (level[:, 1:] <= r[:, None]).sum(axis=1)
            r -= level[rows, shift]
            out[:, i] = shift - budget
            budget = budget - np.abs(out[:, i])
            parity = parity ^ (np.abs(out[:, i]) & 1)
        return out
