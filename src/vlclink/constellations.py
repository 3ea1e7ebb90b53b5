"""Pulse-position constellation family: PPM, MPPM, EPPM and multilevel EPPM.

Codewords are integer slot-amplitude vectors of length Q (numpy rows).  The
binary schemes keep amplitudes in {0,1}; multilevel EPPM sums N binary
codewords (optionally their complements) slot-wise, so amplitudes run 0..N.

Every constellation carries a deterministic, invertible bit mapping:
  * PPM/MPPM symbols are ordered by the colex rank of their pulse positions,
  * EPPM symbols are the Q cyclic shifts of a seed word, in shift order,
  * MEPPM symbols are ordered by the rank of the canonical (first-seen)
    component multiset when the table is materialized, and by a lattice
    ranking of the distinct-sum representation when it is not.
"""

import itertools
import json
from dataclasses import dataclass
from math import comb

import numpy as np

from ._combi import (
    MultisetCounter,
    SignedBallCounter,
    count_multisets,
    unrank_subset_colex,
)
from .errors import CapacityError, ParameterError

PPM = "ppm"
MPPM = "mppm"
EPPM = "eppm"
MEPPM = "meppm"

SCHEMES = (PPM, MPPM, EPPM, MEPPM)

# Above this many distinct symbols, MEPPM constellations are kept implicit
# (symbols computed on demand instead of materialized).
DEFAULT_MAX_TABLE = 1 << 16

# Hard guard on explicit multiset enumeration when no implicit path exists.
_ENUM_GUARD = 2_000_000


# ---------------------------------------------------------------------------
# cyclic difference sets and seed search
# ---------------------------------------------------------------------------

def _is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def difference_set_lambda(q, positions):
    """Return lambda if `positions` is a (q, k, lambda) cyclic difference set.

    Returns None when the nonzero differences are not uniformly covered.
    """
    counts = [0] * q
    pos = list(positions)
    for a in pos:
        for b in pos:
            if a != b:
                counts[(a - b) % q] += 1
    lam = counts[1] if q > 1 else 0
    if any(c != lam for c in counts[1:]):
        return None
    return lam


def quadratic_residue_set(p):
    """Quadratic residues mod a prime p, as a sorted tuple."""
    return tuple(sorted({(x * x) % p for x in range(1, p)}))


# Planar / Singer difference sets not covered by the quadratic-residue
# construction; each entry is verified by difference_set_lambda in the tests.
_TABLED_SETS = {
    (13, 4): (0, 1, 3, 9),
    (15, 7): (0, 1, 2, 4, 5, 8, 10),
    (21, 5): (3, 6, 7, 12, 14),
    (31, 6): (1, 5, 11, 24, 25, 27),
}


def known_difference_set(q, k):
    """A (q, k, lambda) cyclic difference set from the built-in catalog.

    Covers the trivial k=1 / k=q-1 sets, quadratic residues of primes
    q = 3 mod 4 (and their complements), and a small table of planar sets
    (and their complements).  Returns None when nothing applies.
    """
    if k == 1:
        return (0,)
    if k == q - 1:
        return tuple(range(1, q))
    candidates = []
    if (q, k) in _TABLED_SETS:
        candidates.append(_TABLED_SETS[(q, k)])
    if (q, q - k) in _TABLED_SETS:
        base = set(_TABLED_SETS[(q, q - k)])
        candidates.append(tuple(x for x in range(q) if x not in base))
    if _is_prime(q) and q % 4 == 3:
        if k == (q - 1) // 2:
            candidates.append(quadratic_residue_set(q))
        if k == (q + 1) // 2:
            res = set(quadratic_residue_set(q))
            candidates.append(tuple(x for x in range(q) if x not in res))
    for cand in candidates:
        if difference_set_lambda(q, cand) is not None:
            return cand
    return None


def _positions_to_word(q, positions):
    word = np.zeros(q, dtype=np.int16)
    word[list(positions)] = 1
    return word


def min_cyclic_distance(word):
    """Minimum Hamming distance between a word and its nonzero cyclic shifts."""
    q = len(word)
    w = np.asarray(word)
    return min(int(np.sum(w != np.roll(w, s))) for s in range(1, q))


def search_eppm_seed(q, k):
    """Find a weight-k seed whose cyclic shifts are far apart in Hamming
    distance.

    Exhaustive over support sets containing slot 0 for q <= 20, randomized
    hill climbing above (from a fixed RNG seed, so deterministic).  The
    result maximizes the minimum distance over the searched space only.
    """
    if q <= 20:
        best = None
        best_d = -1
        for rest in itertools.combinations(range(1, q), k - 1):
            word = _positions_to_word(q, (0,) + rest)
            d = min_cyclic_distance(word)
            if d > best_d:
                best_d = d
                best = (0,) + rest
        if best_d <= 0:
            raise ParameterError(f"no aperiodic weight-{k} word of length {q}")
        return best

    rng = np.random.default_rng(0)
    positions = np.concatenate(([0], 1 + rng.permutation(q - 1)[: k - 1]))
    word = _positions_to_word(q, positions)
    best_d = min_cyclic_distance(word)
    for _ in range(2000):
        ones = np.flatnonzero(word)
        zeros = np.flatnonzero(word == 0)
        i = ones[rng.integers(len(ones))]
        j = zeros[rng.integers(len(zeros))]
        word[i], word[j] = 0, 1
        d = min_cyclic_distance(word)
        if d >= best_d and np.any(word[0:1]):
            best_d = d
        else:
            word[i], word[j] = 1, 0
    if best_d <= 0:
        raise ParameterError(f"no aperiodic weight-{k} word of length {q}")
    positions = tuple(int(x) for x in np.flatnonzero(word))
    return positions


def resolve_eppm_seed(q, k, seed_positions=None):
    """Pick the EPPM seed support: explicit > catalog > search."""
    if seed_positions is not None:
        positions = tuple(sorted(int(p) % q for p in seed_positions))
        if len(positions) != k or len(set(positions)) != k:
            raise ParameterError("seed_positions must be k distinct slots")
        return positions
    known = known_difference_set(q, k)
    if known is not None:
        return tuple(sorted(known))
    return tuple(sorted(search_eppm_seed(q, k)))


# ---------------------------------------------------------------------------
# MEPPM distinct-sum lattice
# ---------------------------------------------------------------------------

class _MeppmLattice:
    """Implicit indexing of the distinct slot-wise sums of N EPPM components.

    Components are the Q cyclic shifts of the seed (plus their complements
    when enabled).  A sum vector is identified by the per-shift count
    difference c = (#shift_i) - (#complement_i); two component multisets
    collide exactly when they share c, provided the shift matrix is
    invertible, which `usable` checks via the seed's DFT.
    """

    def __init__(self, shifts, n, use_complements):
        self.shifts = shifts            # (q, q) int rows: shift i
        self.q = shifts.shape[0]
        self.k = int(shifts[0].sum())
        self.n = n
        self.use_complements = use_complements
        self._inv = np.linalg.inv(shifts.astype(float))
        if use_complements:
            self.counter = SignedBallCounter(self.q, n, n & 1)
        else:
            self.counter = MultisetCounter(self.q, n)
        self.size = self.counter.total

    @staticmethod
    def usable(seed_word, n, use_complements):
        q = len(seed_word)
        k = int(np.sum(seed_word))
        spectrum = np.abs(np.fft.fft(np.asarray(seed_word, dtype=float)))
        if np.any(spectrum[1:] < 1e-9) or k == 0:
            return False
        if use_complements and 2 * k == q:
            return False
        return True

    def _sums_from_c(self, c):
        sums = c @ self.shifts.astype(np.int64)
        if self.use_complements:
            sums += ((self.n - c.sum(axis=1)) // 2)[:, None]
        return sums

    def codewords(self, indices):
        """Sum vectors (n, q) of the symbol indices (n,)."""
        return self._sums_from_c(self.counter.unrank(indices))

    def indices(self, sums):
        """Symbol indices (n,) of the sum vectors (n, q)."""
        sums = np.asarray(sums, dtype=np.int64)
        s = sums.astype(float)
        if self.use_complements:
            sum_c = (2.0 * s.sum(axis=1) - self.q * self.n) / (2 * self.k - self.q)
            s = s - ((self.n - sum_c) / 2.0)[:, None]
        c = np.rint(s @ self._inv).astype(np.int64)
        if not np.array_equal(self._sums_from_c(c), sums):
            raise ValueError("not a constellation sum vector")
        return self.counter.rank(c)


# ---------------------------------------------------------------------------
# the constellation object
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CodeStats:
    papr: float
    min_distance: int
    size: int


class Constellation:
    """Ordered symbol set with an invertible index <-> codeword mapping.

    Immutable after construction; symbol tables are flagged read-only so
    instances can be shared freely across concurrent trial workers.
    """

    def __init__(self, scheme, q, k, n, use_complements, *, symbols=None,
                 seed_positions=None, lattice=None, size=None):
        self.scheme = scheme
        self.q = q
        self.k = k
        self.n = n
        self.use_complements = use_complements
        self.seed_positions = seed_positions
        self._lattice = lattice
        if symbols is not None:
            symbols = np.ascontiguousarray(symbols, dtype=np.int16)
            symbols.setflags(write=False)
            self._symbols = symbols
            self.size = symbols.shape[0]
            self._index = {
                row.tobytes(): i for i, row in enumerate(symbols)
            }
            if len(self._index) != self.size:
                raise ParameterError("constellation symbols are not distinct")
        else:
            self._symbols = None
            self._index = None
            self.size = size
        if self.size < 2:
            raise ParameterError("constellation has fewer than 2 symbols")
        self.bits_per_symbol = self.size.bit_length() - 1

    # -- access ------------------------------------------------------------

    @property
    def is_materialized(self):
        return self._symbols is not None

    @property
    def symbols(self):
        if self._symbols is None:
            raise CapacityError(
                f"{self.size} symbols are indexed implicitly; "
                "use codeword_at/index_of"
            )
        return self._symbols

    def codeword_at(self, index):
        if not 0 <= index < self.size:
            raise ParameterError(f"symbol index {index} out of range")
        if self._symbols is not None:
            return self._symbols[index]
        return self._lattice.codewords([index])[0]

    def index_of(self, codeword):
        """Index of one codeword, or the indices (n,) of a stack (n, Q)."""
        cw = np.asarray(codeword)
        rows = cw.reshape(-1, self.q)
        if self._index is not None:
            keys = np.ascontiguousarray(rows, dtype=np.int16)
            try:
                idx = np.array([self._index[k.tobytes()] for k in keys],
                               dtype=np.int64)
            except KeyError:
                raise ValueError("codeword not in constellation") from None
        else:
            idx = self._lattice.indices(rows)
        return int(idx[0]) if cw.ndim == 1 else idx

    def components_base(self):
        """The Q cyclic shifts underlying an EPPM/MEPPM constellation."""
        if self.seed_positions is None:
            raise ParameterError("constellation has no cyclic seed")
        seed = _positions_to_word(self.q, self.seed_positions)
        return np.stack([np.roll(seed, i) for i in range(self.q)])

    def components(self):
        """Decoder component list: shifts, then complements when enabled."""
        base = self.components_base()
        if self.use_complements:
            return np.concatenate([base, 1 - base], axis=0)
        return base

    @property
    def used_size(self):
        """Number of symbols addressable by the bit mapping (a power of two)."""
        return 1 << self.bits_per_symbol

    # -- bit mapping ---------------------------------------------------------

    def encode_indices(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.size):
            raise ParameterError("symbol index out of range")
        if self._symbols is not None:
            return self._symbols[indices]
        return self._lattice.codewords(indices)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        doc = {
            "scheme": self.scheme,
            "Q": self.q,
            "K": self.k,
            "N": self.n,
            "use_complements": self.use_complements,
            "seed_word": (
                None
                if self.seed_positions is None
                else [int(p) for p in self.seed_positions]
            ),
            "symbol_count": self.size,
            "bits_per_symbol": self.bits_per_symbol,
        }
        return doc


def constellation_from_json(doc):
    """Regenerate a constellation from its exported description."""
    scheme = doc["scheme"]
    if scheme == PPM:
        c = build_ppm(doc["Q"])
    elif scheme == MPPM:
        c = build_mppm(doc["Q"], doc["K"])
    elif scheme == EPPM:
        c = build_eppm(doc["Q"], doc["K"], seed_positions=doc.get("seed_word"))
    elif scheme == MEPPM:
        c = build_meppm(
            doc["Q"], doc["K"], doc["N"],
            use_complements=doc.get("use_complements", False),
            seed_positions=doc.get("seed_word"),
        )
    else:
        raise ParameterError(f"unknown scheme {scheme!r}")
    if c.size != doc["symbol_count"] or c.bits_per_symbol != doc["bits_per_symbol"]:
        raise ParameterError("exported constellation does not regenerate")
    return c


def save_constellation(c, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(c.to_json(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_constellation(path):
    with open(path, encoding="utf-8") as fh:
        return constellation_from_json(json.load(fh))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def check_pulse_scheme(scheme, q, k=1, n=1):
    """Range rules of the pulse schemes: Q >= 2, 1 <= K < Q for the
    multi-pulse ones and N >= 1 for MEPPM."""
    if q < 2:
        raise ParameterError(f"{scheme.upper()} needs Q >= 2")
    if scheme != PPM and not 1 <= k < q:
        raise ParameterError(f"{scheme.upper()} needs 1 <= K < Q")
    if scheme == MEPPM and n < 1:
        raise ParameterError("MEPPM needs N >= 1")


def build_ppm(q):
    """Q single-pulse symbols; symbol i pulses in slot i."""
    check_pulse_scheme(PPM, q)
    return Constellation(PPM, q, 1, 1, False, symbols=np.eye(q, dtype=np.int16))


def build_mppm(q, k):
    """All C(Q,K) weight-K words, ordered by the colex rank of their support."""
    check_pulse_scheme(MPPM, q, k)
    m = comb(q, k)
    symbols = np.zeros((m, q), dtype=np.int16)
    for r in range(m):
        symbols[r, unrank_subset_colex(r, q, k)] = 1
    return Constellation(MPPM, q, k, 1, False, symbols=symbols)


def build_eppm(q, k, seed_positions=None):
    """The Q cyclic shifts of a weight-K seed word.

    The seed is a known (Q,K,lambda) cyclic difference set when one exists,
    otherwise the best word found by necklace search; for a difference-set
    seed every symbol pair sits at Hamming distance exactly 2(K - lambda).
    """
    check_pulse_scheme(EPPM, q, k)
    positions = resolve_eppm_seed(q, k, seed_positions)
    seed = _positions_to_word(q, positions)
    if min_cyclic_distance(seed) == 0:
        raise ParameterError("seed word is periodic; shifts would collide")
    symbols = np.stack([np.roll(seed, i) for i in range(q)])
    return Constellation(EPPM, q, k, 1, False, symbols=symbols,
                         seed_positions=positions)


def build_meppm(q, k, n, use_complements=False, seed_positions=None,
                max_table_size=DEFAULT_MAX_TABLE):
    """All distinct slot-wise sums of N EPPM codewords (and complements).

    Small constellations are materialized, keeping the first-seen
    (lexicographically least) component multiset as each sum's canonical
    preimage.  Large ones switch to implicit lattice indexing, which is
    available whenever the seed's cyclic structure makes component sums
    collide only through the counted representation.
    """
    check_pulse_scheme(MEPPM, q, k, n)
    eppm = build_eppm(q, k, seed_positions)
    base = eppm.components_base()
    seed = base[0]
    lattice_ok = _MeppmLattice.usable(seed, n, use_complements)
    lattice = (
        _MeppmLattice(base, n, use_complements) if lattice_ok else None
    )

    if lattice_ok and lattice.size > max_table_size:
        return Constellation(MEPPM, q, k, n, use_complements,
                             seed_positions=eppm.seed_positions,
                             lattice=lattice, size=lattice.size)

    comps = np.concatenate([base, 1 - base]) if use_complements else base
    n_multi = count_multisets(len(comps), n)
    if n_multi > _ENUM_GUARD:
        raise CapacityError(
            f"{n_multi} component multisets exceed the enumeration guard "
            "and no implicit indexing applies to this seed"
        )
    seen = {}
    rows = []
    for combo in itertools.combinations_with_replacement(range(len(comps)), n):
        s = comps[list(combo)].sum(axis=0).astype(np.int16)
        key = s.tobytes()
        if key not in seen:
            seen[key] = len(rows)
            rows.append(s)
    symbols = np.stack(rows)
    if lattice_ok and len(rows) != lattice.size:
        raise AssertionError("lattice count disagrees with enumeration")
    return Constellation(MEPPM, q, k, n, use_complements, symbols=symbols,
                         seed_positions=eppm.seed_positions,
                         lattice=lattice if lattice_ok else None)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------

def _pairwise_min_l1(symbols):
    sym = symbols.astype(np.int64)
    m = sym.shape[0]
    if np.all((sym == 0) | (sym == 1)):
        weights = sym.sum(axis=1)
        best = None
        step = max(1, (1 << 22) // max(1, m))
        for lo in range(0, m, step):
            block = sym[lo:lo + step]
            gram = block @ sym.T
            dist = weights[lo:lo + step, None] + weights[None, :] - 2 * gram
            for i in range(block.shape[0]):
                dist[i, lo + i] = np.iinfo(np.int64).max
            d = int(dist.min())
            best = d if best is None else min(best, d)
        return best
    best = None
    step = max(1, (1 << 21) // max(1, m))
    for lo in range(0, m, step):
        block = sym[lo:lo + step]
        dist = np.abs(block[:, None, :] - sym[None, :, :]).sum(axis=2)
        for i in range(block.shape[0]):
            dist[i, lo + i] = np.iinfo(np.int64).max
        d = int(dist.min())
        best = d if best is None else min(best, d)
    return best


def _l1_ball_vectors(m, radius):
    """All nonzero integer vectors of length m with sum|.| <= radius."""
    out = []

    def extend(prefix, budget):
        if len(prefix) == m:
            out.append(tuple(prefix))
            return
        for v in range(-budget, budget + 1):
            prefix.append(v)
            extend(prefix, budget - abs(v))
            prefix.pop()

    extend([], radius)
    return [v for v in out if any(v)]


def _implicit_min_l1(c, radius=6):
    """Minimum pairwise L1 distance of an implicit MEPPM constellation.

    Searches over small component-count differences d (sum|d| <= radius);
    exact whenever the true minimum is achieved inside the searched radius,
    which holds for every case cross-checked against enumeration.
    """
    lat = c._lattice
    shifts = lat.shifts.astype(np.int64)
    best = None
    for dv in _l1_ball_vectors(c.q, radius):
        d = np.array(dv, dtype=np.int64)
        if not lat.use_complements and d.sum() != 0:
            continue
        if lat.use_complements and (d.sum() % 2) != 0:
            continue
        diff = d @ shifts - (d.sum() // 2 if lat.use_complements else 0)
        dist = int(np.abs(diff).sum())
        if dist > 0 and (best is None or dist < best):
            best = dist
    return best


def code_stats(c):
    """Peak-to-average ratio and minimum pairwise L1 distance.

    PAPR is the constellation peak slot amplitude over the grand mean slot
    amplitude (mean over every slot of every symbol).
    """
    if c.is_materialized:
        sym = c.symbols.astype(np.float64)
        papr = float(sym.max() / sym.mean())
        dmin = _pairwise_min_l1(c.symbols)
        return CodeStats(papr=papr, min_distance=dmin, size=c.size)
    # implicit MEPPM: peak is N; grand mean follows from count symmetry
    if c.use_complements:
        grand_mean = c.n / 2.0
    else:
        grand_mean = c.n * c.k / c.q
    return CodeStats(
        papr=c.n / grand_mean,
        min_distance=_implicit_min_l1(c),
        size=c.size,
    )


# ---------------------------------------------------------------------------
# bitstream mapping
# ---------------------------------------------------------------------------

def bits_to_indices(bits, bits_per_symbol):
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size % bits_per_symbol:
        raise ParameterError("bit count is not a multiple of bits_per_symbol")
    if bits.size and (bits.min() < 0 or bits.max() > 1):
        raise ParameterError("bits must be 0/1")
    groups = bits.reshape(-1, bits_per_symbol)
    powers = 1 << np.arange(bits_per_symbol - 1, -1, -1, dtype=np.int64)
    return groups @ powers


def indices_to_bits(indices, bits_per_symbol):
    indices = np.asarray(indices, dtype=np.int64)
    shifts = np.arange(bits_per_symbol - 1, -1, -1, dtype=np.int64)
    return ((indices[:, None] >> shifts) & 1).ravel()


def encode_bits(c, bits):
    """Map a bitstream (length multiple of bits_per_symbol) to codewords."""
    if c.size < 2:
        raise ParameterError("empty constellation")
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size == 0:
        return np.zeros((0, c.q), dtype=np.int16)
    indices = bits_to_indices(bits, c.bits_per_symbol)
    return c.encode_indices(indices)
