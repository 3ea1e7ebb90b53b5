"""Constellation construction, distance spectra, and bit-mapping tests."""

import itertools
import tracemalloc

import numpy as np
import pytest

from vlclink import constellations as con
from vlclink.errors import CapacityError, ParameterError


def brute_min_l1(symbols):
    m = len(symbols)
    return min(
        int(np.abs(symbols[i].astype(int) - symbols[j].astype(int)).sum())
        for i in range(m)
        for j in range(i + 1, m)
    )


def enumerate_meppm_sums(q, k, n, use_complements):
    """Independent oracle: all distinct sums by direct multiset enumeration."""
    comps = con.build_eppm(q, k).symbols
    if use_complements:
        comps = np.concatenate([comps, 1 - comps])
    sums = set()
    for combo in itertools.combinations_with_replacement(range(len(comps)), n):
        sums.add(comps[list(combo)].sum(axis=0).astype(np.int64).tobytes())
    return sums


class TestPpm:
    def test_q4_symbols_and_distance(self):
        c = con.build_ppm(4)
        expected = [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1]]
        assert c.symbols.tolist() == expected
        assert brute_min_l1(c.symbols) == 2

    def test_q2(self):
        c = con.build_ppm(2)
        assert c.size == 2
        assert c.bits_per_symbol == 1

    def test_q7_bits_and_papr(self):
        c = con.build_ppm(7)
        assert c.size == 7
        assert c.bits_per_symbol == 2
        assert con.code_stats(c).papr == pytest.approx(7.0, abs=1e-12)

    def test_invalid_q(self):
        with pytest.raises(ParameterError):
            con.build_ppm(1)


class TestMppm:
    def test_q4k2(self):
        c = con.build_mppm(4, 2)
        assert c.size == 6
        assert con.code_stats(c).min_distance == 2

    def test_q3k1_matches_ppm(self):
        a = con.build_mppm(3, 1)
        b = con.build_ppm(3)
        assert {r.tobytes() for r in a.symbols} == {r.tobytes() for r in b.symbols}

    def test_q7k3(self):
        c = con.build_mppm(7, 3)
        assert c.size == 35
        assert con.code_stats(c).papr == pytest.approx(7 / 3, abs=1e-12)

    def test_rank0_is_1100(self):
        c = con.build_mppm(4, 2)
        bits = np.array([0, 0, 0])  # one symbol at 3 bits (floor log2 6 = 2)?
        # bits_per_symbol is 2 for 6 symbols; index 0 must be 1100
        assert c.bits_per_symbol == 2
        first = con.encode_bits(c, [0, 0])
        assert first.tolist() == [[1, 1, 0, 0]]

    def test_invalid_k(self):
        with pytest.raises(ParameterError):
            con.build_mppm(4, 0)
        with pytest.raises(ParameterError):
            con.build_mppm(4, 4)


class TestEppm:
    def test_q7k3_all_pairwise_distance_4(self):
        c = con.build_eppm(7, 3)
        dists = {
            int(np.sum(c.symbols[i] != c.symbols[j]))
            for i in range(7)
            for j in range(i + 1, 7)
        }
        assert dists == {4}

    def test_q4k1_degenerates_to_ppm(self):
        a = con.build_eppm(4, 1)
        b = con.build_ppm(4)
        assert np.array_equal(a.symbols, b.symbols)

    def test_papr(self):
        c = con.build_eppm(7, 3)
        assert con.code_stats(c).papr == pytest.approx(7 / 3, abs=1e-12)

    @pytest.mark.parametrize("q,k,lam", [(7, 3, 1), (11, 5, 2), (13, 4, 1)])
    def test_difference_set_distance_law(self, q, k, lam):
        c = con.build_eppm(q, k)
        assert con.difference_set_lambda(q, c.seed_positions) == lam
        target = 2 * (k - lam)
        for i in range(q):
            for j in range(i + 1, q):
                assert int(np.sum(c.symbols[i] != c.symbols[j])) == target

    def test_cyclic_closure(self):
        c = con.build_eppm(7, 3)
        keys = {r.tobytes() for r in c.symbols}
        for row in c.symbols:
            assert np.roll(row, 1).astype(np.int16).tobytes() in keys

    def test_searched_seed_no_difference_set(self):
        # (8, 3) admits no cyclic difference set; the necklace search applies
        c = con.build_eppm(8, 3)
        assert c.size == 8
        assert np.all(c.symbols.sum(axis=1) == 3)
        assert len({r.tobytes() for r in c.symbols}) == 8

    def test_tabled_sets_are_difference_sets(self):
        for (q, k), positions in con._TABLED_SETS.items():
            lam = con.difference_set_lambda(q, positions)
            assert lam is not None, (q, k)
            assert lam * (q - 1) == k * (k - 1)

    def test_distance_law_across_catalog_up_to_q31(self):
        # every catalog seed (quadratic residues, planar sets, and their
        # complements) must give pairwise-equidistant shifts at 2(K - lambda)
        cases = [(7, 3), (7, 4), (11, 5), (11, 6), (13, 4), (13, 9),
                 (15, 7), (15, 8), (19, 9), (21, 5), (23, 11), (31, 6),
                 (31, 15)]
        for q, k in cases:
            seed = con.known_difference_set(q, k)
            assert seed is not None, (q, k)
            lam = con.difference_set_lambda(q, seed)
            c = con.build_eppm(q, k)
            target = 2 * (k - lam)
            for i in range(q):
                for j in range(i + 1, q):
                    assert int(np.sum(c.symbols[i] != c.symbols[j])) == target

    def test_hill_climb_search_above_exhaustive_range(self):
        # (24, 3) has no catalog set and Q > 20, so the randomized search runs
        c = con.build_eppm(24, 3)
        assert c.size == 24
        assert np.all(c.symbols.sum(axis=1) == 3)
        assert len({r.tobytes() for r in c.symbols}) == 24
        # deterministic for a fixed search seed
        again = con.build_eppm(24, 3)
        assert np.array_equal(c.symbols, again.symbols)


class TestMeppm:
    def test_n1_equals_eppm(self):
        a = con.build_meppm(7, 3, 1)
        b = con.build_eppm(7, 3)
        assert {r.tobytes() for r in a.symbols} == {r.tobytes() for r in b.symbols}

    def test_n2_count_matches_enumeration_oracle(self):
        oracle = enumerate_meppm_sums(7, 3, 2, False)
        c = con.build_meppm(7, 3, 2)
        assert c.size == len(oracle) == 28

    def test_n2_complements_count_matches_oracle(self):
        oracle = enumerate_meppm_sums(7, 3, 2, True)
        c = con.build_meppm(7, 3, 2, use_complements=True)
        assert c.size == len(oracle)
        got = {c.codeword_at(i).astype(np.int64).tobytes() for i in range(c.size)}
        assert got == oracle

    def test_amplitude_bounds(self):
        c = con.build_meppm(7, 3, 3, use_complements=True)
        assert c.symbols.min() >= 0
        assert c.symbols.max() <= 3

    def test_lattice_matches_explicit(self):
        # both builds come from the lattice, so each is checked against the
        # enumeration oracle, and the table must hold the lattice's rank
        # order: the table cap decides no symbol's index
        for q, k, n, comp in [(7, 3, 3, False), (7, 3, 3, True),
                              (7, 3, 4, False), (13, 4, 3, False),
                              (7, 3, 2, True), (7, 3, 4, True)]:
            oracle = enumerate_meppm_sums(q, k, n, comp)
            explicit = con.build_meppm(q, k, n, use_complements=comp)
            implicit = con.build_meppm(q, k, n, use_complements=comp,
                                       max_table_size=1)
            assert explicit.is_materialized and not implicit.is_materialized
            assert implicit.size == explicit.size == len(oracle)
            assert {r.astype(np.int64).tobytes()
                    for r in explicit.symbols} == oracle
            assert {
                np.asarray(implicit.codeword_at(i), dtype=np.int64).tobytes()
                for i in range(implicit.size)
            } == oracle
            for i in range(implicit.size):
                assert implicit.index_of(implicit.codeword_at(i)) == i
            assert np.array_equal(explicit.symbols, implicit.encode_indices(
                np.arange(implicit.size)))

    @pytest.mark.parametrize("q, k, n, comp", [
        (8, 4, 2, True), (6, 3, 3, True), (8, 2, 3, False)])
    def test_code_without_lattice(self, q, k, n, comp):
        # a seed whose shift matrix is singular: enumerated and tabulated
        c = con.build_meppm(q, k, n, use_complements=comp, max_table_size=1)
        assert c.lattice is None and c.is_materialized
        assert {r.astype(np.int64).tobytes()
                for r in c.symbols} == enumerate_meppm_sums(q, k, n, comp)
        idx = np.arange(c.size)
        assert np.array_equal(c.index_of(c.encode_indices(idx)), idx)

    def test_implicit_min_distance_matches_brute(self):
        for comp in (False, True):
            explicit = con.build_meppm(7, 3, 3, use_complements=comp)
            implicit = con.build_meppm(7, 3, 3, use_complements=comp,
                                       max_table_size=1)
            assert (
                con.code_stats(implicit).min_distance
                == brute_min_l1(explicit.symbols)
            )

    def test_constellation_too_small(self):
        with pytest.raises(ParameterError):
            con.build_meppm(7, 3, 0)


class TestLatticeMinDistance:
    @pytest.mark.parametrize("q, k, n, comp", [
        (7, 3, 1, False), (7, 3, 2, False), (7, 3, 4, False),
        (7, 3, 1, True), (7, 3, 2, True), (7, 3, 4, True),
        (8, 4, 2, False), (8, 4, 3, False), (13, 4, 2, True),
        (15, 7, 2, False)])
    def test_matches_every_pair(self, q, k, n, comp):
        c = con.build_meppm(q, k, n, use_complements=comp)
        sym = c.symbols.astype(np.int64)
        d2 = ((sym[:, None] - sym[None]) ** 2).sum(axis=2)
        d2[np.diag_indices(c.size)] = d2.max() + 1
        assert c.lattice.min_distance2 == d2.min()

    @pytest.mark.parametrize("q, k, n, comp, d2", [
        (7, 3, 21, True, 3.0), (7, 3, 21, False, 4.0), (8, 4, 2, False, 4.0)])
    def test_search_is_lazy_and_small(self, q, k, n, comp, d2):
        lat = con.build_meppm(q, k, n, use_complements=comp).lattice
        # nothing runs when the constellation is built
        assert "min_distance2" not in vars(lat)
        tracemalloc.start()
        try:
            assert lat.min_distance2 == d2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_gives_up_with_zero_past_its_node_budget(self, monkeypatch):
        monkeypatch.setattr(con, "MIN_DISTANCE_NODES", 10)
        assert con.build_meppm(7, 3, 21, True).lattice.min_distance2 == 0.0


class TestStatsInvariants:
    def test_papr_formulas(self):
        for q in (4, 7, 8, 15):
            assert con.code_stats(con.build_ppm(q)).papr == pytest.approx(q, abs=1e-12)
        for q, k in [(4, 2), (7, 3), (8, 3), (15, 7)]:
            assert con.code_stats(con.build_mppm(q, k)).papr == pytest.approx(
                q / k, abs=1e-12
            )
            assert con.code_stats(con.build_eppm(q, k)).papr == pytest.approx(
                q / k, abs=1e-12
            )

    def test_meppm_papr_without_complements(self):
        c = con.build_meppm(7, 3, 3)
        assert con.code_stats(c).papr == pytest.approx(7 / 3, abs=1e-12)

    def test_constant_symbol_energy(self):
        for c, w in [
            (con.build_ppm(8), 1),
            (con.build_mppm(7, 3), 3),
            (con.build_eppm(11, 5), 5),
            (con.build_meppm(7, 3, 4), 12),
        ]:
            assert np.all(c.symbols.sum(axis=1) == w)

    def test_size_covers_bits(self):
        for c in [con.build_ppm(7), con.build_mppm(7, 3),
                  con.build_eppm(13, 4), con.build_meppm(7, 3, 2, True)]:
            assert c.size >= 1 << c.bits_per_symbol


class TestBitMapping:
    def test_ppm_q4_examples(self):
        c = con.build_ppm(4)
        words = con.encode_bits(c, [0, 0, 0, 1, 1, 0, 1, 1])
        assert np.array_equal(words, np.eye(4, dtype=np.int16))

    def test_empty_bitstring(self):
        c = con.build_ppm(4)
        assert con.encode_bits(c, []).shape == (0, 4)

    def test_roundtrip_all_schemes(self):
        rng = np.random.default_rng(3)
        for c in [con.build_ppm(8), con.build_mppm(6, 2), con.build_eppm(7, 3),
                  con.build_meppm(7, 3, 2, use_complements=True)]:
            bits = rng.integers(0, 2, size=c.bits_per_symbol * 40)
            assert np.array_equal(
                c.index_of(con.encode_bits(c, bits)),
                con.bits_to_indices(bits, c.bits_per_symbol),
            )

    def test_bijection_small_full(self):
        for c in [con.build_mppm(7, 3), con.build_eppm(11, 5),
                  con.build_meppm(7, 3, 2, use_complements=True)]:
            seen = set()
            for i in range(c.size):
                key = np.asarray(c.codeword_at(i)).astype(np.int64).tobytes()
                assert key not in seen
                seen.add(key)
                assert c.index_of(c.codeword_at(i)) == i

    def test_bijection_random_above_2_16(self):
        c = con.build_meppm(7, 3, 21, use_complements=True)
        assert c.size > 1 << 16
        rng = np.random.default_rng(11)
        for i in rng.integers(0, c.size, size=200):
            assert c.index_of(c.codeword_at(int(i))) == int(i)

    def test_bad_bit_length(self):
        c = con.build_ppm(4)
        with pytest.raises(ParameterError):
            con.encode_bits(c, [1, 0, 1])

    def test_symbols_capacity_error_when_implicit(self):
        c = con.build_meppm(7, 3, 21, use_complements=True)
        with pytest.raises(CapacityError):
            _ = c.symbols
