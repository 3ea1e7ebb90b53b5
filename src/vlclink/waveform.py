"""Codeword streams to sampled optical intensity waveforms.

Covers slot timing, the overlapping-pulse technique (pulses F slots wide,
superposing additively and running past symbol boundaries), block
interleaving, dimming control, and LED-array splitting of multilevel slots.
"""

from dataclasses import dataclass, field

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


@dataclass
class Waveform:
    """Uniformly sampled signal; optical waveforms keep samples >= 0.

    `geometry` is present for slot-structured signals and None otherwise
    (e.g. OFDM), in which case the slot-divisibility invariant is vacuous.
    """

    samples: np.ndarray
    sample_rate: float
    geometry: SlotGeometry | None = None

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.geometry is not None:
            if self.samples.size % self.geometry.samples_per_slot:
                raise InputError("length not divisible by samples_per_slot")


def slot_amplitudes(codewords):
    """Flatten a stack of codewords into one slot-amplitude stream."""
    codewords = np.asarray(codewords)
    if codewords.ndim != 2:
        raise InputError("codewords must be a 2-D (n_symbols, Q) array")
    return codewords.reshape(-1)


def synthesize(codewords, g, peak_power_per_unit=1.0):
    """Render a codeword stream as an intensity waveform.

    Each unit of slot amplitude contributes one rectangular pulse of width
    F x slot_duration starting at its slot boundary; pulses superpose
    additively and run into following symbols, so the stream is padded by
    F - 1 trailing slots.
    """
    amps = slot_amplitudes(codewords).astype(np.float64)
    f = g.overlap_factor
    # pulses start and end on slot boundaries, so per-slot coverage is the
    # F-wide running sum of the amplitude stream
    coverage = np.convolve(amps, np.ones(f)) if f > 1 else amps
    samples = peak_power_per_unit * np.repeat(coverage, g.samples_per_slot)
    return Waveform(samples, g.sample_rate, g)


# ---------------------------------------------------------------------------
# interleaving
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InterleaverSpec:
    """Slot permutation applied per block of `depth` symbols.

    `permutation` maps output slot position -> input slot position over the
    D*Q slots of a block; it is `row_column_permutation`.
    """

    depth: int
    q: int
    permutation: tuple = field(init=False)

    def __post_init__(self):
        if self.depth < 1:
            raise ParameterError("interleaver depth must be >= 1")
        object.__setattr__(self, "permutation",
                           row_column_permutation(self.depth, self.q))

    @property
    def inverse(self):
        inv = [0] * len(self.permutation)
        for out_pos, in_pos in enumerate(self.permutation):
            inv[in_pos] = out_pos
        return tuple(inv)


def row_column_permutation(depth, q):
    """Write symbols as rows of a D x Q block, read slots column-wise."""
    return tuple((k % depth) * q + (k // depth) for k in range(depth * q))


def _permute_stream(flat, spec, perm):
    flat = np.asarray(flat)
    block = spec.depth * spec.q
    if flat.size % block:
        raise InputError("stream length is not a multiple of D*Q slots")
    out = flat.reshape(-1, block)[:, list(perm)]
    return out.reshape(flat.shape)


def interleave(codewords, spec):
    """Permute slot values across each block of `depth` symbols."""
    codewords = np.asarray(codewords)
    if codewords.shape[0] % spec.depth:
        raise InputError("symbol count is not a multiple of interleaver depth")
    flat = _permute_stream(codewords.reshape(-1), spec, spec.permutation)
    return flat.reshape(codewords.shape)


def deinterleave_values(values, spec):
    """Invert `interleave` on slot values or codewords, in their shape."""
    return _permute_stream(np.asarray(values), spec, spec.inverse)


# ---------------------------------------------------------------------------
# dimming
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DimmingResult:
    constellation: object
    power_scale: float
    achieved_ratio: float
    mode: str  # "rebuild" or "scale"


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
        return DimmingResult(rebuilt, 1.0, k_new / c.q, "rebuild")
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
    return DimmingResult(c, scale, target_fraction, "scale")


# ---------------------------------------------------------------------------
# LED array splitting
# ---------------------------------------------------------------------------

def array_split(codewords, n_leds):
    """Split multilevel slot values into binary on/off drives per LED.

    A slot amplitude a lights a consecutive (round-robin) run of a distinct
    LEDs, so each LED sees a two-level drive and the slot-wise sum of all
    per-LED streams reproduces the multilevel stream exactly.
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
    # the run of a slot starts where the previous slots' runs left off
    a = codewords.reshape(-1)
    first = (np.cumsum(a) - a) % n_leds
    leds = np.arange(n_leds)[:, None]
    drives = ((leds - first) % n_leds < a).astype(np.int16)
    return [d.reshape(codewords.shape) for d in drives]
