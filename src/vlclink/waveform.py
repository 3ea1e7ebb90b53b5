"""Codeword streams to sampled optical intensity waveforms.

Covers slot timing, the overlapping-pulse technique (pulses F slots wide,
superposing additively and running past symbol boundaries), block
interleaving, dimming control, and LED-array splitting of multilevel slots.
"""

from dataclasses import dataclass

import numpy as np

from . import constellations as con
from .errors import CapacityError, InputError, ParameterError


@dataclass(frozen=True)
class SlotGeometry:
    """Slot timing: duration, sampling grid, and pulse overlap factor F.

    Pulses are F x slot_duration wide, starting at their slot boundary.
    """

    slot_duration: float
    samples_per_slot: int
    overlap_factor: int = 1

    def __post_init__(self):
        if self.slot_duration <= 0:
            raise ParameterError("slot_duration must be positive")
        if self.overlap_factor < 1:
            raise ParameterError("overlap_factor must be >= 1")
        if self.samples_per_slot < 2 * self.overlap_factor:
            raise ParameterError(
                "samples_per_slot must be >= 2 x overlap_factor"
            )

    @property
    def sample_rate(self):
        return self.samples_per_slot / self.slot_duration


def slot_amplitudes(codewords):
    """Flatten codewords (n_symbols, Q) into one slot-amplitude stream, or
    a stack of frames (n_frames, n_symbols, Q) into one stream per frame."""
    codewords = np.asarray(codewords)
    if codewords.ndim not in (2, 3):
        raise InputError("codewords must be (n_symbols, Q) or "
                         "(n_frames, n_symbols, Q)")
    return codewords.reshape(codewords.shape[:-2] + (-1,))


def synthesize(codewords, g, peak=1.0, out=None, sps=None):
    """Render a codeword stream, or each frame of a stack, as an intensity
    waveform: float64 samples at `g.sample_rate`, time along the last axis.

    Each unit of slot amplitude contributes one rectangular pulse of width
    F x slot_duration starting at its slot boundary; pulses superpose
    additively and run into following symbols, so each stream is padded by
    F - 1 trailing slots and no pulse runs into the next frame.  `out`, a
    C-contiguous float64 array of the result's shape, receives the
    samples; by default they go into a new array.  `sps` renders that many
    samples a slot instead of `g.samples_per_slot`: at 1, each slot's
    level once, which is what a pulse trial renders.
    """
    amps = slot_amplitudes(codewords)
    f = g.overlap_factor
    coverage = amps
    if f > 1:
        # pulses start and end on slot boundaries, so per-slot coverage is
        # the F-wide running sum of the amplitude stream (exact: integer
        # amplitudes); at F=1 it is the amplitude stream itself
        n = amps.shape[-1]
        coverage = np.zeros(amps.shape[:-1] + (n + f - 1,))
        for lag in range(f):
            coverage[..., lag:lag + n] += amps
    sps = g.samples_per_slot if sps is None else sps
    if sps == 1:
        return np.multiply(coverage, peak, out=out, dtype=np.float64)
    if out is None:
        out = np.empty(coverage.shape[:-1] + (coverage.shape[-1] * sps,))
    # each slot's level fills its samples
    samples = out.reshape(coverage.shape + (sps,), copy=False)
    samples[...] = np.multiply(coverage, peak, dtype=np.float64)[..., None]
    return out


# ---------------------------------------------------------------------------
# interleaving
# ---------------------------------------------------------------------------

def interleave(codewords, depth):
    """Write each block of `depth` symbols as the rows of a depth x Q
    array and send its slots column by column."""
    codewords = np.asarray(codewords)
    if codewords.shape[0] % depth:
        raise InputError("symbol count is not a multiple of interleaver depth")
    q = codewords.shape[-1]
    return codewords.reshape(-1, depth, q).swapaxes(1, 2).reshape(
        codewords.shape)


def deinterleave_values(values, depth, q):
    """Invert `interleave` on slot values or codewords, in their shape; a
    stack of frames that each hold whole blocks deinterleaves at once."""
    values = np.asarray(values)
    if values.size % (depth * q):
        raise InputError("stream length is not a multiple of D*Q slots")
    return values.reshape(-1, q, depth).swapaxes(1, 2).reshape(values.shape)


# ---------------------------------------------------------------------------
# dimming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimmingResult:
    constellation: object
    power_scale: float
    achieved_ratio: float


def apply_dimming(c, target_fraction):
    """Set the average-to-peak power ratio of a scheme.

    MPPM/EPPM rebuild the code with K' = round(target * Q) pulses, achieving
    K'/Q exactly.  PPM has no pulse count to adjust and MEPPM dims through
    the per-unit drive level, so both fall back to scaling peak power.
    """
    if not 0 < target_fraction <= 1:
        raise ParameterError("target_fraction must be in (0, 1]")
    if c.scheme in (con.MPPM, con.EPPM):
        k_new = int(round(target_fraction * c.q))
        if not 1 <= k_new <= c.q - 1:
            raise ParameterError(
                f"target {target_fraction} needs K'={k_new}, outside [1, Q-1]"
            )
        builder = con.build_mppm if c.scheme == con.MPPM else con.build_eppm
        rebuilt = builder(c.q, k_new)
        return DimmingResult(rebuilt, 1.0, k_new / c.q)
    # PPM / MEPPM: scale the per-unit drive against the device full-scale
    if c.is_materialized:
        base_ratio = float(c.symbols.mean() / c.symbols.max())
    elif c.use_complements:
        base_ratio = 0.5  # grand mean N/2 over peak N
    else:
        base_ratio = c.k / c.q
    scale = target_fraction / base_ratio
    if scale > 1 + 1e-12:
        raise ParameterError(
            f"target {target_fraction} exceeds the code's natural "
            f"average-to-peak ratio {base_ratio:.4g}"
        )
    return DimmingResult(c, scale, target_fraction)


# ---------------------------------------------------------------------------
# LED array splitting
# ---------------------------------------------------------------------------

def array_split(codewords, n_leds):
    """Split multilevel slot values into binary on/off drives per LED.

    A slot amplitude a lights a consecutive (round-robin) run of a distinct
    LEDs, so each LED sees a two-level drive and the slot-wise sum of all
    per-LED streams reproduces the multilevel stream exactly.  Codewords
    are one stream (n_symbols, Q) or a stack of frames (n_frames,
    n_symbols, Q); the round robin restarts at each frame.
    """
    codewords = np.asarray(codewords, dtype=np.int64)
    if codewords.size and codewords.max() > n_leds:
        raise CapacityError(
            f"slot amplitude {codewords.max()} exceeds {n_leds} LEDs"
        )
    if n_leds < 1:
        raise ParameterError("n_leds must be >= 1")
    if codewords.size and codewords.min() < 0:
        raise ParameterError("slot amplitudes must be >= 0")
    # a slot's run starts where the previous slots of its frame left off
    a = slot_amplitudes(codewords)
    first = (np.cumsum(a, axis=-1) - a) % n_leds
    leds = np.arange(n_leds).reshape((-1,) + (1,) * a.ndim)
    drives = ((leds - first) % n_leds < a).astype(np.int16)
    return [d.reshape(codewords.shape) for d in drives]
