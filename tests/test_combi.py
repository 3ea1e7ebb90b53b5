"""Ranking/unranking helper properties."""

import functools
import itertools
from math import comb

import numpy as np
import pytest

from vlclink._combi import (
    MultisetCounter,
    SignedBallCounter,
    count_multisets,
    rank_subset_colex,
    unrank_subset_colex,
)
from vlclink.errors import CapacityError


class TestSubsetColex:
    def test_roundtrip_all(self):
        for n, k in [(6, 3), (8, 2), (9, 5)]:
            for r in range(comb(n, k)):
                s = unrank_subset_colex(r, n, k)
                assert rank_subset_colex(s) == r
                assert len(s) == k
                assert sorted(set(s)) == s

    def test_order_matches_colex_enumeration(self):
        subsets = sorted(
            itertools.combinations(range(5), 3),
            key=lambda s: tuple(reversed(s)),
        )
        for r, s in enumerate(subsets):
            assert tuple(unrank_subset_colex(r, 5, 3)) == s


def cwr_counts(n_items, size):
    """Count vectors of every multiset, in combinations_with_replacement
    order: the enumeration oracle for MultisetCounter."""
    return np.array([
        np.bincount(t, minlength=n_items) for t in
        itertools.combinations_with_replacement(range(n_items), size)
    ])


def ball_vectors(m, budget, parity):
    """Every vector of the signed ball, in lexicographic order."""
    return np.array([
        v for v in itertools.product(range(-budget, budget + 1), repeat=m)
        if sum(abs(x) for x in v) <= budget
        and sum(abs(x) for x in v) % 2 == parity
    ])


class TestMultisets:
    def test_matches_cwr_enumeration(self):
        for n_items, size in [(4, 3), (5, 2), (3, 5), (7, 4)]:
            counts = cwr_counts(n_items, size)
            counter = MultisetCounter(n_items, size)
            assert counter.total == len(counts) == count_multisets(n_items, size)
            ranks = np.arange(counter.total)
            assert np.array_equal(counter.unrank(ranks), counts)
            assert np.array_equal(counter.rank(counts), ranks)

    def test_rank_out_of_range(self):
        counter = MultisetCounter(3, 2)
        with pytest.raises(ValueError):
            counter.unrank([count_multisets(3, 2)])
        with pytest.raises(ValueError):
            counter.unrank([-1])
        with pytest.raises(ValueError):
            counter.rank([(1, 0, 0)])  # one item, not two
        with pytest.raises(ValueError):
            counter.rank([(3, -1, 0)])


class TestSignedBall:
    @pytest.mark.parametrize("m,budget,parity", [(3, 4, 0), (3, 5, 1), (5, 3, 1)])
    def test_roundtrip_and_membership(self, m, budget, parity):
        counter = SignedBallCounter(m, budget, parity)
        ranks = np.arange(counter.total)
        vecs = counter.unrank(ranks)
        norms = np.abs(vecs).sum(axis=1)
        assert np.all(norms <= budget)
        assert np.all(norms % 2 == parity)
        assert np.array_equal(counter.rank(vecs), ranks)
        assert len({tuple(v) for v in vecs}) == counter.total
        # every vector of the ball, in order
        assert np.array_equal(vecs, ball_vectors(m, budget, parity))

    def test_total_matches_enumeration(self):
        counter = SignedBallCounter(3, 4, 0)
        assert counter.total == len(ball_vectors(3, 4, 0))

    def test_lexicographic_order(self):
        counter = SignedBallCounter(2, 3, 1)
        vecs = [tuple(v) for v in counter.unrank(np.arange(counter.total))]
        assert vecs == sorted(vecs)

    def test_invalid_vectors_rejected(self):
        counter = SignedBallCounter(3, 4, 0)
        with pytest.raises(ValueError):
            counter.rank([(4, 1, 0)])  # parity mismatch
        with pytest.raises(ValueError):
            counter.rank([(5, 0, 0)])  # outside the ball
        with pytest.raises(ValueError):
            counter.rank([(0, 0, 0), (-3, 2, 1)])  # one bad row of two
        with pytest.raises(ValueError):
            counter.unrank([counter.total])
        with pytest.raises(ValueError):
            counter.unrank([0, -1])

    def test_random_ranks_n21(self):
        """The MEPPM(7,3,21)+complements lattice: ranks past every small
        ball, checked against a scalar walk of the definition."""
        counter = SignedBallCounter(7, 21, 1)
        ranks = np.random.default_rng(5).integers(0, counter.total, size=2000)
        vecs = counter.unrank(ranks)
        assert np.array_equal(counter.rank(vecs), ranks)
        for r, v in zip(ranks, vecs):
            assert scalar_rank(counter, v) == r

    @pytest.mark.parametrize("m,budget", [(31, 40), (3, 1000)],
                             ids=["total-beyond-int64", "table-too-large"])
    def test_unindexable_lattice_raises_capacity_error(self, m, budget):
        counter = SignedBallCounter(m, budget, 0)
        assert counter.total == len_ball(m, budget, 0)
        with pytest.raises(CapacityError):
            counter.unrank([0])
        with pytest.raises(CapacityError):
            counter.rank(np.zeros((1, m), dtype=np.int64))


def len_ball(m, budget, parity):
    """Vectors in Z^m with sum|.| <= budget of the given parity: choose
    the k nonzero entries, their signs and a positive composition of each
    even or odd norm t <= budget into k parts."""
    return sum(comb(m, k) * 2 ** k * comb(t - 1, k - 1) if k else int(t == 0)
               for t in range(parity, budget + 1, 2)
               for k in range(min(m, t) + 1))


def scalar_rank(counter, vec):
    """Rank by the definition: count the ball's vectors that precede `vec`,
    one entry at a time, with counts from brute-force recursion."""

    @functools.cache
    def count(m, budget, parity):
        if m == 0:
            return int(parity == 0)
        return sum(count(m - 1, budget - abs(u), parity ^ (abs(u) & 1))
                   for u in range(-budget, budget + 1))

    r, budget, parity = 0, counter.budget, counter.parity
    for i, v in enumerate(int(x) for x in vec):
        rest = counter.m - 1 - i
        r += sum(count(rest, budget - abs(u), parity ^ (abs(u) & 1))
                 for u in range(-budget, v))
        budget -= abs(v)
        parity ^= abs(v) & 1
    return r
