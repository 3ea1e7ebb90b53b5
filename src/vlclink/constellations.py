"""Pulse-position constellation family: PPM, MPPM, EPPM and multilevel EPPM.

Codewords are integer slot-amplitude vectors of length Q (numpy rows).  The
binary schemes keep amplitudes in {0,1}; multilevel EPPM sums N binary
codewords (optionally their complements) slot-wise, so amplitudes run 0..N.

Every constellation carries a deterministic, invertible bit mapping:
  * PPM/MPPM symbols are ordered by the colex rank of their pulse positions,
  * EPPM symbols are the Q cyclic shifts of a seed word, in shift order,
  * MEPPM symbols are ordered by the lattice rank of their component
    counts whenever the seed has a lattice, tabulated or not; a seed with
    none is enumerated, each sum at its first-seen component multiset.
"""

import functools
import itertools
from dataclasses import dataclass
from math import ceil, comb, floor, sqrt

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

# Above this many distinct symbols, MEPPM lattice codes are kept implicit
# (symbols computed on demand instead of materialized).
DEFAULT_MAX_TABLE = 1 << 16

# Hard guard on the multiset enumeration of a seed with no lattice.
_ENUM_GUARD = 2_000_000

# Search nodes after which a lattice's minimum-distance search gives up
# with the bound 0 (MEPPM(7,3,N)+c takes 156, Q = 63 about 17k).
MIN_DISTANCE_NODES = 1 << 16


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


def resolve_eppm_seed(q, k):
    """Pick the EPPM seed support: catalog > search."""
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
    invertible, which `usable` checks.  The lattice owns the map between
    sums and counts both ways: exact for ranking, and real-valued with its
    nearest valid c for the component decoder.
    """

    def __init__(self, shifts, n, use_complements):
        self.shifts = shifts.astype(np.int64)   # (q, q) rows: shift i
        self.q = shifts.shape[0]
        self.n = n
        self.use_complements = use_complements
        # with complements, sums = c @ shifts + (N - sum c) / 2, so
        # sums - N/2 = c @ (shifts - 1/2)
        mat = shifts.astype(np.float64)
        self._inv = np.linalg.inv(mat - 0.5 if use_complements else mat)
        if use_complements:
            self.counter = SignedBallCounter(self.q, n, n & 1)
        else:
            self.counter = MultisetCounter(self.q, n)
        self.size = self.counter.total

    @staticmethod
    def usable(seed_word, use_complements):
        """Whether the matrix that `solve` inverts is regular.  It is
        circulant, so its eigenvalues are the seed's DFT, the DC one
        lowered by Q/2 when complements take 1/2 off every entry."""
        spectrum = np.fft.fft(np.asarray(seed_word, dtype=float))
        if use_complements:
            spectrum[0] -= len(seed_word) / 2
        return bool(np.abs(spectrum).min() >= 1e-9)

    def solve(self, sums):
        """Real-valued component counts (n, q) of sum vectors (n, q)."""
        s = np.asarray(sums, dtype=np.float64)
        if self.use_complements:
            s = s - self.n / 2.0
        return s @ self._inv

    def sums(self, c):
        """Sum vectors (n, q) int64 of component counts (n, q)."""
        sums = c @ self.shifts
        if self.use_complements:
            sums += ((self.n - c.sum(axis=1)) // 2)[:, None]
        return sums

    def nearest(self, c_float):
        """Valid component counts (n, q) int64 near real-valued ones:
        rounded, then repaired into the valid set."""
        c_int = np.rint(c_float).astype(np.int64)
        _repair_lattice_vector(c_int, c_float, self.n, self.use_complements)
        return c_int

    @functools.cached_property
    def min_distance2(self):
        """A proven lower bound on the squared distance between two distinct
        valid sum vectors, computed on first use (0 past
        MIN_DISTANCE_NODES search nodes).

        It is the shortest nonzero vector of the difference sublattice:
        counts c with an even total (complements) or a zero one (none),
        whose sum vectors are c @ B with B = shifts - 1/2 or shifts.  A
        Fincke-Pohst search on the Gram matrix of the integer basis 2B
        (or B) visits, coordinate by coordinate, only the points shorter
        than the best pair e_i -+ e_j; each lies in the box |c_j| <=
        sqrt(best / lambda_min).  Squared lengths there are integers, so
        searching below best - 1/2 loses none to the Cholesky factor's
        rounding, and rounding a point's float length gives it exactly.
        """
        basis = 2 * self.shifts - 1 if self.use_complements else self.shifts
        gram = basis @ basis.T
        q, diag = self.q, gram.diagonal()
        pairs = diag[:, None] + diag - 2 * gram     # e_i - e_j
        pairs[np.diag_indices(q)] = pairs.max() + 1
        best = int(pairs.min())
        if self.use_complements:                     # e_i + e_j and 2 e_i
            best = min(best, int((diag[:, None] + diag + 2 * gram).min()))
        r = np.linalg.cholesky(gram.astype(np.float64)).T
        scale = r.diagonal().tolist()
        mu = (r / r.diagonal()[:, None]).tolist()
        x, center, left, top = [0] * q, [0.0] * q, [0.0] * q, [0] * q

        def enter(i):
            # the interval of x_i whose partial length fits in left[i]
            center[i] = -sum(mu[i][j] * x[j] for j in range(i + 1, q))
            half = sqrt(left[i]) / scale[i]
            x[i] = ceil(center[i] - half)
            top[i] = floor(center[i] + half)

        i, nodes = q - 1, 0
        left[i] = best - 0.5
        enter(i)
        while i < q:
            if x[i] > top[i]:
                x[i] = 0
                i += 1
                if i < q:
                    x[i] += 1
                continue
            rest = left[i] - (scale[i] * (x[i] - center[i])) ** 2
            if rest < 0:
                x[i] += 1
            elif i == 0:
                total = sum(x)
                if any(x) and (total % 2 == 0 if self.use_complements
                               else total == 0):
                    best = min(best, round(left[q - 1] - rest))
                x[0] += 1
            else:
                nodes += 1
                if nodes > MIN_DISTANCE_NODES:
                    return 0.0
                i -= 1
                left[i] = rest
                enter(i)
        return best / 4 if self.use_complements else float(best)

    def codewords(self, indices):
        """Sum vectors (n, q) of the symbol indices (n,)."""
        return self.sums(self.counter.unrank(indices))

    def indices(self, sums):
        """Symbol indices (n,) of the sum vectors (n, q)."""
        sums = np.asarray(sums, dtype=np.int64)
        c = np.rint(self.solve(sums)).astype(np.int64)
        if not np.array_equal(self.sums(c), sums):
            raise ValueError("not a constellation sum vector")
        return self.counter.rank(c)


def _repair_lattice_vector(c_int, c_float, n, use_complements):
    """Clamp rounded component-count vectors (rows) into the valid set, in
    place.

    With complements: sum|c| <= N with the parity of N; without: c >= 0 with
    sum exactly N.  Each repair step moves, in every row still invalid, the
    entry whose rounding cost is smallest (the first such entry, and -1
    before +1).
    """
    c_int = c_int.reshape(-1, c_int.shape[-1])
    c_float = c_float.reshape(c_int.shape)
    if not use_complements:
        np.maximum(c_int, 0, out=c_int)
        while True:
            total = c_int.sum(axis=1)
            up, down = np.flatnonzero(total < n), np.flatnonzero(total > n)
            if not (up.size or down.size):
                return
            err = c_float - c_int
            c_int[up, np.argmax(err[up], axis=1)] += 1
            masked = np.where(c_int[down] > 0, err[down], np.inf)
            c_int[down, np.argmin(masked, axis=1)] -= 1
    # past the ball only steps toward zero shorten sum|c|, at most one per
    # entry at a time.  Taking the first cheapest such step sum|c| - N
    # times takes each entry's steps in runs that start at a new maximum of
    # its step costs, so it takes the sum|c| - N first steps in the order
    # (running maximum of the entry's costs, entry, step).  A valid vector
    # has every |c_j| <= N, so an entry's steps past N are always taken
    rows = np.flatnonzero(np.abs(c_int).sum(axis=1) > n)
    if rows.size:
        old, f = np.clip(c_int[rows], -n, n), c_float[rows, :, None]
        sign = np.sign(old)[:, :, None]
        t = np.arange(np.abs(old).max())
        x = old[:, :, None] - sign * t          # entry before its step t
        cost = np.where(t < np.abs(old)[:, :, None],
                        np.abs(x - sign - f) - np.abs(x - f), np.inf)
        key = np.maximum.accumulate(cost, axis=2).reshape(rows.size, -1)
        order = np.argsort(key, axis=1, kind="stable")
        excess = np.abs(old).sum(axis=1) - n
        taken = np.empty(key.shape, dtype=bool)
        np.put_along_axis(taken, order,
                          np.arange(key.shape[1]) < excess[:, None], axis=1)
        c_int[rows] = old - sign[:, :, 0] * taken.reshape(cost.shape).sum(axis=2)
    # inside the ball with the wrong parity every single step is admissible
    rows = np.flatnonzero((n - np.abs(c_int).sum(axis=1)) % 2)
    if not rows.size:
        return
    old, f = c_int[rows], c_float[rows]
    steps = np.stack([old - 1, old + 1], axis=2)   # (rows, j, direction)
    cost = np.abs(steps - f[:, :, None]) - np.abs(old - f)[:, :, None]
    best = np.argmin(cost.reshape(rows.size, 2 * old.shape[1]), axis=1)
    c_int[rows, best // 2] += 2 * (best % 2) - 1


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
        self.lattice = lattice   # the MEPPM rank order, None without one
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
        return self.lattice.codewords([index])[0]

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
            idx = self.lattice.indices(rows)
        return int(idx[0]) if cw.ndim == 1 else idx

    @functools.cached_property
    def components(self):
        """Decoder component list: shifts, then complements when enabled
        (read-only, built once)."""
        if self.seed_positions is None:
            raise ParameterError("constellation has no cyclic seed")
        seed = _positions_to_word(self.q, self.seed_positions)
        base = np.stack([np.roll(seed, i) for i in range(self.q)])
        if self.use_complements:
            base = np.concatenate([base, 1 - base])
        base.setflags(write=False)
        return base

    @property
    def used_size(self):
        """Number of symbols addressable by the bit mapping (a power of two)."""
        return 1 << self.bits_per_symbol

    @functools.cached_property
    def top_level(self):
        """The highest slot level of the used symbols (N when implicit)."""
        table = self._symbols
        return self.n if table is None else int(table[:self.used_size].max())

    # -- bit mapping ---------------------------------------------------------

    def encode_indices(self, indices):
        indices = np.asarray(indices, dtype=np.int64)
        if indices.size and (indices.min() < 0 or indices.max() >= self.size):
            raise ParameterError("symbol index out of range")
        if self._symbols is not None:
            return self._symbols[indices]
        return self.lattice.codewords(indices)


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


def build_eppm(q, k):
    """The Q cyclic shifts of a weight-K seed word.

    The seed is a known (Q,K,lambda) cyclic difference set when one exists,
    otherwise the best word found by necklace search; for a difference-set
    seed every symbol pair sits at Hamming distance exactly 2(K - lambda).
    """
    check_pulse_scheme(EPPM, q, k)
    positions = resolve_eppm_seed(q, k)
    seed = _positions_to_word(q, positions)
    symbols = np.stack([np.roll(seed, i) for i in range(q)])
    return Constellation(EPPM, q, k, 1, False, symbols=symbols,
                         seed_positions=positions)


def build_meppm(q, k, n, use_complements=False,
                max_table_size=DEFAULT_MAX_TABLE):
    """All distinct slot-wise sums of N EPPM codewords (and complements).

    When the seed's cyclic structure makes component sums collide only
    through their counts, the symbols are in the lattice's rank order, and
    a code of at most `max_table_size` symbols caches them in a table; the
    cap decides no symbol's index.  A seed with no lattice is enumerated
    and always tabulated, keeping the first-seen (lexicographically least)
    component multiset as each sum's canonical preimage.
    """
    check_pulse_scheme(MEPPM, q, k, n)
    eppm = build_eppm(q, k)
    base = eppm.symbols
    if _MeppmLattice.usable(base[0], use_complements):
        lattice = _MeppmLattice(base, n, use_complements)
        symbols = (lattice.codewords(np.arange(lattice.size))
                   if lattice.size <= max_table_size else None)
        return Constellation(MEPPM, q, k, n, use_complements, symbols=symbols,
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
    for combo in itertools.combinations_with_replacement(range(len(comps)), n):
        s = comps[list(combo)].sum(axis=0).astype(np.int16)
        seen.setdefault(s.tobytes(), s)
    return Constellation(MEPPM, q, k, n, use_complements,
                         symbols=np.stack(list(seen.values())),
                         seed_positions=eppm.seed_positions)


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
    lat = c.lattice
    d = np.array(_l1_ball_vectors(c.q, radius), dtype=np.int64)
    total = d.sum(axis=1)
    # differences of two valid counts: an even total with complements,
    # a zero one without
    d = d[total % 2 == 0 if lat.use_complements else total == 0]
    dist = np.abs(lat.sums(d) - lat.sums(np.zeros_like(d[:1]))).sum(axis=1)
    return int(dist[dist > 0].min())


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
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size == 0:
        return np.zeros((0, c.q), dtype=np.int16)
    indices = bits_to_indices(bits, c.bits_per_symbol)
    return c.encode_indices(indices)
