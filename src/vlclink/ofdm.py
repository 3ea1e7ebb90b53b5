"""DC-biased optical OFDM baseline.

Hermitian-symmetric QAM loading makes the IFFT output real; a DC bias of
`dc_bias_sigma` standard deviations plus clipping at zero makes it a valid
intensity signal.  Demodulation strips the prefix, applies a one-tap
equalizer from the known channel response, and makes hard QAM decisions.
"""

import functools
import warnings
from dataclasses import dataclass

import numpy as np

from . import constellations as con
from .errors import InputError, ParameterError
from .waveform import Waveform

QAM_ORDERS = (4, 16, 64)


@dataclass(frozen=True)
class OfdmConfig:
    n_subcarriers: int
    qam_order: int = 16
    dc_bias_sigma: float = 3.0
    cyclic_prefix: int = 0

    def __post_init__(self):
        n = self.n_subcarriers
        if n < 8 or n & (n - 1):
            raise ParameterError("n_subcarriers must be a power of two >= 8")
        if self.qam_order not in QAM_ORDERS:
            raise ParameterError(f"qam_order must be one of {QAM_ORDERS}")
        if not 0 <= self.cyclic_prefix <= n:
            raise ParameterError("cyclic_prefix must lie in [0, n_subcarriers]")
        if self.dc_bias_sigma < 0:
            raise ParameterError("dc_bias_sigma must be >= 0")

    @property
    def data_carriers(self):
        return self.n_subcarriers // 2 - 1

    @property
    def bits_per_frame(self):
        return self.data_carriers * int(np.log2(self.qam_order))

    @property
    def frame_samples(self):
        return self.n_subcarriers + self.cyclic_prefix


# ---------------------------------------------------------------------------
# Gray-coded square QAM
# ---------------------------------------------------------------------------

def _gray(n):
    return n ^ (n >> 1)


def _pam_levels(m):
    """Gray-ordered PAM levels: index g maps to amplitude of the g-th level."""
    amps = 2 * np.arange(m) - (m - 1)
    levels = np.empty(m)
    for pos in range(m):
        levels[_gray(pos)] = amps[pos]
    return levels


@functools.lru_cache(maxsize=8)
def qam_constellation(order):
    """Gray-coded square QAM with unit average energy; index = bit group.

    Built once per order and shared, so the table is read-only.
    """
    m = int(np.sqrt(order))
    if m * m != order:
        raise ParameterError("qam_order must be a perfect square")
    levels = _pam_levels(m)
    points = np.empty(order, dtype=np.complex128)
    half = int(np.log2(m))
    for idx in range(order):
        i_bits = idx >> half
        q_bits = idx & ((1 << half) - 1)
        points[idx] = levels[i_bits] + 1j * levels[q_bits]
    points /= np.sqrt((np.abs(points) ** 2).mean())
    points.flags.writeable = False
    return points


def _qam_decide(symbols, order):
    """Hard decisions back to bit-group indices."""
    m = int(np.sqrt(order))
    half = int(np.log2(m))
    amps = 2 * np.arange(m) - (m - 1)
    scale = np.sqrt((amps ** 2).mean() * 2)
    pos_i = np.clip(np.rint((symbols.real * scale + (m - 1)) / 2), 0, m - 1)
    pos_q = np.clip(np.rint((symbols.imag * scale + (m - 1)) / 2), 0, m - 1)
    gray_i = _gray(pos_i.astype(np.int64))
    gray_q = _gray(pos_q.astype(np.int64))
    return (gray_i << half) | gray_q


# ---------------------------------------------------------------------------
# modulation / demodulation
# ---------------------------------------------------------------------------

def hermitian_frame(data_symbols, n):
    """Frequency frame with X[N-k] = conj(X[k]); DC and Nyquist are zero.

    `data_symbols` holds one frame's N/2 - 1 carriers, or a stack of frames
    along its last axis; each row becomes one frame.
    """
    data = np.asarray(data_symbols)
    x = np.zeros(data.shape[:-1] + (n,), dtype=np.complex128)
    x[..., 1: n // 2] = data
    x[..., n // 2 + 1:] = np.conj(data[..., ::-1])
    return x


def dco_modulate(bits, cfg, sample_rate=1.0):
    """Bits -> nonnegative DCO-OFDM intensity waveform.

    The DC bias is dc_bias_sigma times the pre-clipping signal standard
    deviation (measured over the whole burst); negatives are clipped to 0.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    if bits.size == 0 or bits.size % cfg.bits_per_frame:
        raise InputError(
            f"bit count must be a positive multiple of {cfg.bits_per_frame}"
        )
    width = int(np.log2(cfg.qam_order))
    points = qam_constellation(cfg.qam_order)
    symbols = points[con.bits_to_indices(bits, width)]
    frames = symbols.reshape(-1, cfg.data_carriers)
    n, cp = cfg.n_subcarriers, cfg.cyclic_prefix
    time = np.fft.ifft(hermitian_frame(frames, n), norm="ortho", axis=1)
    if np.abs(time.imag).max() > 1e-9:
        raise AssertionError("Hermitian frame produced complex samples")
    out = np.empty((frames.shape[0], cfg.frame_samples))
    out[:, cp:] = time.real
    out[:, :cp] = time.real[:, n - cp:]
    flat = out.reshape(-1)
    bias = cfg.dc_bias_sigma * flat.std()
    return Waveform(np.maximum(flat + bias, 0.0), sample_rate)


def dco_demodulate(y, cfg, channel_response=None):
    """Electrical waveform -> bits, one-tap equalized by the known channel.

    `channel_response` is the sample-domain impulse response between the
    modulator output and this input (defaults to identity).  A prefix
    shorter than the channel memory degrades the one-tap model; that case
    is flagged with a warning.
    """
    h = np.ones(1) if channel_response is None else np.asarray(channel_response)
    if h.size == 0 or np.abs(h).max() == 0:
        raise InputError("channel response carries no energy")
    memory = int(np.flatnonzero(np.abs(h) > 1e-12 * np.abs(h).max())[-1])
    if cfg.cyclic_prefix < memory:
        warnings.warn(
            f"cyclic prefix {cfg.cyclic_prefix} shorter than channel memory "
            f"{memory}; one-tap equalization is degraded",
            RuntimeWarning,
            stacklevel=2,
        )
    samples = np.asarray(y.samples, dtype=np.float64)
    if samples.size % cfg.frame_samples:
        raise InputError("waveform length is not a multiple of the frame size")
    n = cfg.n_subcarriers
    # alias-fold responses longer than one frame: per-carrier gains are the
    # DFT of h modulo N, not of its truncation
    if h.size > n:
        padded = np.concatenate([h, np.zeros((-h.size) % n)])
        h = padded.reshape(-1, n).sum(axis=0)
    h_freq = np.fft.fft(h, n)
    frames = samples.reshape(-1, cfg.frame_samples)[:, cfg.cyclic_prefix:]
    spectra = np.fft.fft(frames, norm="ortho", axis=1)
    data = spectra[:, 1: n // 2] / h_freq[1: n // 2]
    width = int(np.log2(cfg.qam_order))
    groups = _qam_decide(data.reshape(-1), cfg.qam_order)
    return con.indices_to_bits(groups, width)


def qam_ber_awgn(order, ebn0_linear):
    """Gray-coded square-QAM bit error rate over AWGN."""
    from scipy.special import erfc

    k = np.log2(order)
    arg = np.sqrt(3.0 * k * ebn0_linear / (2.0 * (order - 1)))
    return 2.0 * (1.0 - 1.0 / np.sqrt(order)) / k * erfc(arg)


def papr_waveform(w, window_samples=None):
    """Peak sample power over mean sample power, per window (max across
    windows when a window size is given)."""
    x = np.asarray(w.samples if isinstance(w, Waveform) else w, dtype=np.float64)
    if x.size == 0:
        raise InputError("empty waveform")
    power = x ** 2
    if window_samples is None:
        return float(power.max() / power.mean())
    if not 1 <= window_samples <= power.size:
        raise ParameterError("window does not fit the waveform")
    n_win = power.size // window_samples
    tiles = power[: n_win * window_samples].reshape(n_win, window_samples)
    return float((tiles.max(axis=1) / tiles.mean(axis=1)).max())
