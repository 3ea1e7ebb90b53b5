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

from . import analog_chain as ac
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


def slot_statistics(y, g, sps=None):
    """Correlate received samples with the known F-slot pulse at each slot
    offset.

    For F=1 this integrates each slot; for F>1 each statistic is the sum of
    the F most recent slot integrals (rectangular template, end-aligned).
    Returns one float64 value per slot, the F-1 trailing pad slots included;
    a stack of signals (n_frames, n_samples) gives one row per frame.  `y`
    holds `sps` samples a slot (by default `g.samples_per_slot`), which
    `ac.cell_means` integrates; at 1 each sample is its slot's mean, and
    the statistics start from a copy.
    """
    sps = g.samples_per_slot if sps is None else sps
    u = ac.cell_means(y, sps)
    if sps == 1:
        u = u.copy()
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
    return np.tril(col[np.arange(q)[:, None] - np.arange(q)])


def resolve_decoder(c, name=""):
    """The decoder `name`, or with "" the scheme's own (correlation; for
    MEPPM components on a lattice code, ML without), if it can take the
    constellation `c`: components needs a lattice, and a template decoder
    a table of at most ML_SIZE_LIMIT codewords (ML always, correlation
    unless the code is tabulated already)."""
    if not name:
        name = ("correlation" if c.scheme != con.MEPPM
                else "ml" if c.lattice is None else "components")
    if name not in DECODERS:
        raise ParameterError(f"unknown decoder {name!r}")
    if name == "components":
        if c.lattice is None:
            raise ParameterError('decoder "components" needs a MEPPM code '
                                 "with a lattice")
    elif c.size > ML_SIZE_LIMIT and (name == "ml" or not c.is_materialized):
        raise CapacityError(f'decoder "{name}": {c.size} symbols exceed the '
                            f"codeword table limit {ML_SIZE_LIMIT}")
    return name


def _best_rows(stats_2d, templates, offsets=None):
    """Per row, the index of the template that maximizes `row @ template -
    offset` (or `row @ template` without offsets), ties to the lowest
    index.  Rows are scored in chunks of at most ML_SIZE_LIMIT scores, so
    a large code never needs a (rows, size) array; a stack that fits one
    chunk is scored in one call, with no split, and the offsets come off
    its scores in place."""
    stats_2d = np.asarray(stats_2d, dtype=np.float64)
    rows_per_chunk = max(1, ML_SIZE_LIMIT // len(templates))
    n_chunks = -(-len(stats_2d) // rows_per_chunk)

    def best(chunk):
        scores = chunk @ templates.T
        if offsets is not None:
            scores -= offsets
        return np.argmax(scores, axis=1)

    if n_chunks <= 1:
        return best(stats_2d)
    return np.concatenate([best(chunk)
                           for chunk in np.array_split(stats_2d, n_chunks)])


class CorrelationDecoder:
    """Argmax of the inner product with mean-removed symbol vectors.

    Operates in the slot-amplitude domain over the full symbol set; ties
    resolve to the lowest symbol index.
    """

    def __init__(self, c):
        resolve_decoder(c, "correlation")
        self.constellation = c
        self.codewords = c.encode_indices(np.arange(c.size)).astype(np.int64)
        self.scoring = self.codewords - self.codewords.mean(axis=1, keepdims=True)

    def decode_block(self, stats_2d):
        return _best_rows(stats_2d, self.scoring)

    def decide_block(self, stats_2d):
        """The decided codewords (n, Q) int64 of the rows."""
        return self.codewords[self.decode_block(stats_2d)]


class MlDecoder:
    """Exhaustive minimum-Euclidean-distance decision over unit-scaled slot
    amplitudes; the desk-scale oracle for the faster decoders."""

    def __init__(self, c):
        resolve_decoder(c, "ml")
        self.constellation = c
        self.codewords = c.encode_indices(np.arange(c.size)).astype(np.int64)
        self._half_energy = 0.5 * (self.codewords ** 2).sum(axis=1)

    def decode_block(self, stats_2d):
        return _best_rows(stats_2d, self.codewords, self._half_energy)

    def decide_block(self, stats_2d):
        """The decided codewords (n, Q) int64 of the rows."""
        return self.codewords[self.decode_block(stats_2d)]


class MeppmComponentDecoder:
    """Successive-cancellation decoding of multilevel EPPM.

    N times: pick the component (shift or complement) with the largest
    energy-corrected residual correlation and subtract its expected
    contribution.  Because complement mixtures can defeat the greedy
    peeling, a second candidate comes from the constellation's lattice:
    the nearest valid component counts of its real-valued solve.
    Whichever candidate reconstructs the observed statistics more closely
    wins.  Statistics are unit-scaled amplitudes.
    """

    def __init__(self, c):
        resolve_decoder(c, "components")
        self.constellation = c
        self.templates = c.components.astype(np.float64)
        self._half_energy = 0.5 * (self.templates ** 2).sum(axis=1)
        # template inner products: peeling a component lowers every score
        # by its row, so the greedy rounds need no residual matmul
        self._gram = self.templates @ self.templates.T

    def _greedy(self, calibrated):
        scores = calibrated @ self.templates.T
        scores -= self._half_energy
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

    def decode_block(self, stats_2d):
        return self.constellation.index_of(self.decide_block(stats_2d))

    def decide_block(self, stats_2d):
        """The decided sum vectors (n, Q) int64 of the rows."""
        stats_2d = np.asarray(stats_2d, dtype=np.float64)
        # both candidates' sums are small integers, so exact in float64
        greedy = self._greedy(stats_2d) @ self.templates
        lat = self.constellation.lattice
        rounded = lat.sums(lat.nearest(lat.solve(stats_2d)))
        d_greedy = ((stats_2d - greedy) ** 2).sum(axis=1)
        d_round = ((stats_2d - rounded) ** 2).sum(axis=1)
        return np.where((d_round < d_greedy)[:, None], rounded,
                        greedy).astype(np.int64)


_DECODER_CLASSES = dict(zip(DECODERS, (CorrelationDecoder, MlDecoder,
                                       MeppmComponentDecoder)))


class StreamReceiver:
    """Waveform-to-indices pipeline for one scheme and geometry.

    `decoder` is one of DECODERS, or "" (`resolve_decoder`).  `kernel` is
    the slot response of one unit pulse (default: the unit-gain
    `pulse_kernel`); its first value is the link's scale.  F=1 streams
    decode fully vectorized; statistics arrive in symbol order, so an
    interleaving link deinterleaves them first.  Overlapped streams decode
    causally: restore each block's amplitudes, decide, then cancel the
    decided pulses' tails from later statistics.
    """

    def __init__(self, c, g, decoder="correlation", kernel=None):
        self.constellation = c
        self.geometry = g
        self._decoder = _DECODER_CLASSES[resolve_decoder(c, decoder)](c)
        self._kernel = np.asarray(
            pulse_kernel(g.overlap_factor) if kernel is None else kernel,
            dtype=np.float64)
        if self._kernel[0] <= 0:
            raise ParameterError("kernel must respond in its first slot")
        if g.overlap_factor > 1:
            self._restore = np.linalg.inv(restoration_matrix(self._kernel, c.q))
            # row i: the statistics a unit amplitude in slot i of a block
            # adds after that block (its tail in the following blocks):
            # row i, column j holds kernel[q + j - i], 0 past the kernel
            padded = np.r_[self._kernel, np.zeros(c.q - 1)]
            self._tails = padded[np.arange(c.q, padded.size)
                                 - np.arange(c.q)[:, None]]

    def decode_stats(self, stats):
        """Symbol indices of one stream's slot statistics, or (n_frames,
        n_symbols) indices of a stack of frames (n_frames, n_values), which
        overlapped streams decode in lockstep, one symbol position at a
        time for all frames.  The decoder sees unit-scaled amplitudes: at
        F=1 the statistics divided by kernel[0] (unless that is exactly 1),
        at F>1 the restored ones.  `stats` is left as it is."""
        q = self.constellation.q
        f = self.geometry.overlap_factor
        values = np.asarray(stats, dtype=np.float64)
        frames = np.atleast_2d(values)
        n_signal = frames.shape[1] - (f - 1)
        if n_signal % q:
            raise InputError("statistics do not cover whole symbols")
        n_sym = n_signal // q
        if f == 1:
            blocks = frames.reshape(-1, q)
            if self._kernel[0] != 1.0:  # x / 1.0 == x
                blocks = blocks / self._kernel[0]
            out = self._decoder.decode_block(blocks)
        else:
            out = self._decode_overlapped(frames, n_sym)
        return out.reshape(values.shape[:-1] + (n_sym,))

    def _decode_overlapped(self, frames, n_sym):
        c = self.constellation
        q = c.q
        res = frames.copy()
        words = np.empty((len(frames), n_sym, q), dtype=np.int64)
        for m in range(n_sym):
            lo, hi = m * q, (m + 1) * q
            amps = res[:, lo:hi] @ self._restore.T
            words[:, m] = self._decoder.decide_block(amps)
            end = min(hi + self._tails.shape[1], res.shape[1])
            res[:, hi:end] -= (words[:, m] @ self._tails)[:, : end - hi]
        return c.index_of(words.reshape(-1, q)).reshape(len(frames), n_sym)

    def decode_waveform(self, y):
        return self.decode_stats(slot_statistics(y, self.geometry))
