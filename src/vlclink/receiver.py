"""Threshold-free demodulation for the pulse-position family.

The front end integrates the electrical waveform against the known F-slot
rectangular pulse, end-aligned so that a statistic at slot j sees only
pulses launched at or before j.  Within one symbol block the (past-
cancelled) statistics are then a unit-diagonal triangular convolution of
the slot amplitudes, so each block restores its amplitudes with a fixed
Q x Q solve before the decision; decided pulse tails are subtracted from
later statistics (decision feedback rather than stream-wide deconvolution,
which would accumulate noise).

Correlation decoding scores mean-removed symbol vectors, so decisions need
no threshold and survive any DC offset; an exhaustive minimum-distance
decoder doubles as the oracle for small constellations.
"""

import numpy as np
from scipy.linalg import toeplitz

from . import constellations as con
from . import waveform as wf
from .errors import CapacityError, InputError, ParameterError

ML_SIZE_LIMIT = 1 << 20
DECODERS = ("correlation", "ml", "components")


def pulse_kernel(f):
    """Slot-domain response of one unit pulse seen by the end-aligned
    correlator: a triangle rising over F slots and falling over F-1."""
    d = np.arange(2 * f - 1)
    return np.minimum(np.minimum(d + 1, 2 * f - 1 - d), f).astype(np.float64)


def slot_statistics(y, g):
    """Correlate a waveform with the known F-slot pulse at each slot offset.

    For F=1 this integrates each slot; for F>1 each statistic is the sum of
    the F most recent slot integrals (rectangular template, end-aligned).
    Returns one float64 value per slot, the F-1 trailing pad slots included;
    a stack of waveforms (n_frames, n_samples) gives one row per frame.
    """
    samples = np.asarray(y.samples, dtype=np.float64)
    sps = g.samples_per_slot
    if samples.shape[-1] % sps:
        raise InputError("waveform length is not slot-aligned")
    u = samples.reshape(samples.shape[:-1] + (-1, sps)).sum(axis=-1)
    u /= sps
    f = g.overlap_factor
    if f > 1:
        cs = np.cumsum(u, axis=-1)
        u[..., :f] = cs[..., :f]
        np.subtract(cs[..., f:], cs[..., :-f], out=u[..., f:])
    if not np.all(np.isfinite(u)):
        raise InputError("slot statistics must be finite")
    return u


def expected_statistics(codewords, g, peak_power_per_unit=1.0):
    """Noiseless slot statistics of a synthesized stream (unit responsivity)."""
    amps = wf.slot_amplitudes(codewords).astype(np.float64)
    kernel = pulse_kernel(g.overlap_factor)
    full = np.convolve(amps, kernel) * peak_power_per_unit
    return full[: amps.size + g.overlap_factor - 1]


def restoration_matrix(kernel, q):
    """Lower-triangular Toeplitz map from a block's q slot amplitudes to its
    own-block statistics, given the slot response `kernel` of one unit
    pulse (invertible whenever kernel[0] is nonzero)."""
    col = np.zeros(q)
    col[: min(q, kernel.size)] = kernel[:q]
    return toeplitz(col, np.zeros(q))


def _candidate_codewords(c):
    if not c.is_materialized and c.size > ML_SIZE_LIMIT:
        raise CapacityError("constellation too large for template decoding")
    return c.encode_indices(np.arange(c.size)).astype(np.int64)


class CorrelationDecoder:
    """Argmax of the inner product with mean-removed symbol vectors.

    Operates in the slot-amplitude domain over the full symbol set; ties
    resolve to the lowest symbol index.
    """

    def __init__(self, c):
        self.constellation = c
        self.codewords = _candidate_codewords(c)
        self.scoring = self.codewords - self.codewords.mean(axis=1, keepdims=True)

    def decode_block(self, stats_2d):
        scores = np.asarray(stats_2d, dtype=np.float64) @ self.scoring.T
        return np.argmax(scores, axis=1)

    def decide_block(self, stats_2d):
        """The decided codewords (n, Q) int64 of the rows."""
        return self.codewords[self.decode_block(stats_2d)]


class MlDecoder:
    """Exhaustive minimum-Euclidean-distance decision over unit-scaled slot
    amplitudes; the desk-scale oracle for the faster decoders."""

    def __init__(self, c):
        if c.size > ML_SIZE_LIMIT:
            raise CapacityError(
                f"{c.size} symbols exceed the ML decoder limit {ML_SIZE_LIMIT}"
            )
        self.constellation = c
        self.codewords = _candidate_codewords(c)

    def decode_block(self, stats_2d):
        cross = np.asarray(stats_2d, dtype=np.float64) @ self.codewords.T
        energy = (self.codewords ** 2).sum(axis=1)
        return np.argmax(cross - 0.5 * energy, axis=1)

    def decide_block(self, stats_2d):
        """The decided codewords (n, Q) int64 of the rows."""
        return self.codewords[self.decode_block(stats_2d)]


class MeppmComponentDecoder:
    """Successive-cancellation decoding of multilevel EPPM.

    N times: pick the component (shift or complement) with the largest
    energy-corrected residual correlation and subtract its expected
    contribution; the recovered multiset maps to its canonical symbol.
    Because complement mixtures can defeat the greedy peeling, a second
    candidate is formed by rounding the component-count solve to the
    nearest valid symbol, and whichever candidate reconstructs the observed
    statistics more closely wins.  Statistics are unit-scaled amplitudes.
    """

    def __init__(self, c):
        if c.scheme != con.MEPPM:
            raise ParameterError("component decoding is MEPPM-only")
        self.constellation = c
        self.templates = c.components().astype(np.float64)
        self._half_energy = 0.5 * (self.templates ** 2).sum(axis=1)
        # template inner products: peeling a component lowers every score
        # by its row, so the greedy rounds need no residual matmul
        self._gram = self.templates @ self.templates.T
        self._base = c.components_base().astype(np.float64)
        # linear solve for the nearest-valid-symbol candidate, available
        # whenever the shift matrix is invertible for this (seed, N)
        if con._MeppmLattice.usable(self._base[0], c.n, c.use_complements):
            if c.use_complements:
                mat = self._base - 0.5
            else:
                mat = self._base
            self._solve = np.linalg.inv(mat)
        else:
            self._solve = None

    def _greedy(self, calibrated):
        scores = calibrated @ self.templates.T - self._half_energy
        rows, n_comp = scores.shape
        picks = np.empty((self.constellation.n, rows), dtype=np.intp)
        peeled = np.empty_like(scores)
        for pick in picks:
            scores.argmax(axis=1, out=pick)
            scores -= self._gram.take(pick, axis=0, out=peeled, mode="clip")
        # count each row's picks: row r's component j is bin r * n_comp + j
        picks += np.arange(rows) * n_comp
        return np.bincount(picks.ravel(), minlength=rows * n_comp).reshape(
            rows, n_comp)

    def _reconstruct(self, c_rows):
        c_rows = np.asarray(c_rows, dtype=np.float64)
        if self.constellation.use_complements:
            bias = (self.constellation.n - c_rows.sum(axis=1)) / 2.0
            return c_rows @ self._base + bias[:, None]
        return c_rows @ self._base

    def _round_candidates(self, stats_2d):
        """Nearest valid component-count vectors by rounding the solve."""
        cst = self.constellation
        if cst.use_complements:
            target = stats_2d - cst.n / 2.0
        else:
            target = stats_2d
        c_float = target @ self._solve
        c_int = np.rint(c_float).astype(np.int64)
        _repair_lattice_vector(c_int, c_float, cst.n, cst.use_complements)
        return c_int

    def decode_block(self, stats_2d):
        return self.constellation.index_of(self.decide_block(stats_2d))

    def decide_block(self, stats_2d):
        """The decided sum vectors (n, Q) int64 of the rows."""
        stats_2d = np.asarray(stats_2d, dtype=np.float64)
        # both candidates' sums are small integers, so exact in float64
        best = self._greedy(stats_2d) @ self.templates
        if self._solve is not None:
            r_round = self._reconstruct(self._round_candidates(stats_2d))
            d_greedy = ((stats_2d - best) ** 2).sum(axis=1)
            d_round = ((stats_2d - r_round) ** 2).sum(axis=1)
            best = np.where((d_round < d_greedy)[:, None], r_round, best)
        return best.astype(np.int64)


_DECODER_CLASSES = dict(zip(DECODERS, (CorrelationDecoder, MlDecoder,
                                       MeppmComponentDecoder)))


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
    # (running maximum of the entry's costs, entry, step)
    rows = np.flatnonzero(np.abs(c_int).sum(axis=1) > n)
    if rows.size:
        old, f = c_int[rows], c_float[rows, :, None]
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


class StreamReceiver:
    """Waveform-to-indices pipeline for one scheme and geometry.

    `kernel` is the slot response of one unit pulse (default: the unit-gain
    `pulse_kernel`); its first value is the link's scale.  F=1 streams
    decode fully vectorized, after deinterleaving blocks of
    `interleaver_depth` symbols.  Overlapped streams decode causally:
    restore each block's amplitudes, decide, then cancel the decided
    pulses' tails from later statistics.
    """

    def __init__(self, c, g, decoder="correlation", interleaver_depth=1,
                 kernel=None):
        self.constellation = c
        self.geometry = g
        self.interleaver_depth = interleaver_depth
        if interleaver_depth < 1:
            raise ParameterError("interleaver_depth must be >= 1")
        if interleaver_depth != 1 and g.overlap_factor != 1:
            raise ParameterError("interleaving requires overlap_factor 1")
        if decoder not in _DECODER_CLASSES:
            raise ParameterError(f"unknown decoder {decoder!r}")
        self._decoder = _DECODER_CLASSES[decoder](c)
        self._kernel = np.asarray(
            pulse_kernel(g.overlap_factor) if kernel is None else kernel,
            dtype=np.float64)
        if self._kernel[0] <= 0:
            raise ParameterError("kernel must respond in its first slot")
        if g.overlap_factor > 1:
            self._restore = np.linalg.inv(restoration_matrix(self._kernel, c.q))
            # row i: the statistics a unit amplitude in slot i of a block
            # adds after that block (its tail in the following blocks)
            self._tails = toeplitz(
                np.r_[self._kernel[0], np.zeros(c.q - 1)],
                np.r_[self._kernel, np.zeros(c.q - 1)],
            )[:, c.q:]

    def decode_stats(self, stats):
        """Symbol indices of one stream's slot statistics, or (n_frames,
        n_symbols) indices of a stack of frames (n_frames, n_values), which
        overlapped streams decode in lockstep, one symbol position at a
        time for all frames.  The decoder sees unit-scaled amplitudes: at
        F=1 the statistics divided by kernel[0], at F>1 the restored ones."""
        q = self.constellation.q
        f = self.geometry.overlap_factor
        values = np.asarray(stats, dtype=np.float64)
        frames = np.atleast_2d(values)
        n_signal = frames.shape[1] - (f - 1)
        if n_signal % (q * self.interleaver_depth):
            raise InputError("statistics do not cover whole symbols or "
                             "interleaver blocks")
        n_sym = n_signal // q
        if f == 1:
            amps = wf.deinterleave_values(frames, self.interleaver_depth, q)
            out = self._decoder.decode_block(
                amps.reshape(-1, q) / self._kernel[0])
        else:
            out = self._decode_overlapped(frames, n_sym)
        return out.reshape(values.shape[:-1] + (n_sym,))

    def _decode_overlapped(self, frames, n_sym):
        c = self.constellation
        q = c.q
        res = frames.copy()
        words = np.empty((len(frames), n_sym, q), dtype=np.int64)
        soft_limit = 0.5 * q
        amp_ceiling = float(c.n)  # peak slot amplitude
        for m in range(n_sym):
            lo, hi = m * q, (m + 1) * q
            amps = res[:, lo:hi] @ self._restore.T
            words[:, m] = self._decoder.decide_block(amps)
            decided = words[:, m].astype(np.float64)
            # feedback: the decided symbol normally (kills noise carryover);
            # when the decision badly mismatches the restored amplitudes,
            # cancel the soft estimate instead so one bad decision cannot
            # avalanche through the following blocks
            soft = np.abs(amps - decided).sum(axis=1) > soft_limit
            if soft.any():
                decided[soft] = np.clip(amps[soft], 0.0, amp_ceiling)
            end = min(hi + self._tails.shape[1], res.shape[1])
            res[:, hi:end] -= (decided @ self._tails)[:, : end - hi]
        return c.index_of(words.reshape(-1, q)).reshape(len(frames), n_sym)

    def decode_waveform(self, y):
        return self.decode_stats(slot_statistics(y, self.geometry))
