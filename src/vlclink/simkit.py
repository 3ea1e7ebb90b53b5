"""Monte Carlo engine and metrics.

Runs the end-to-end chain (encode, interleave, synthesize, LED, channel,
detect, slot statistics, deinterleave, decode) in fixed-size batches whose
RNG streams derive from (master_seed, batch_index), scheduled in fixed
waves so results are bit-identical for any worker count; the points of a
sweep that draw alike share each batch's draws.  Also houses the
link budget arithmetic, the analytic SER oracles used to validate the
simulator, the flicker metric, and rate accounting.
"""

import contextlib
import functools
import itertools
import json
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import analog_chain as ac
from . import constellations as con
from . import ofdm as ofdm_mod
from . import receiver as rx
from . import waveform as wf
from .errors import ConfigError, ParameterError
from .schema import section

WAVE_BATCHES = 8  # batches per scheduling wave, independent of worker count
# values per stack of F=1 or DCO-OFDM batches: a pulse batch's slot values
# (one a slot is all that a pulse link runs), a DCO-OFDM batch's samples.
# DCO-OFDM (72-sample frames), medians of 30 rotating in-process runs (2
# vCPUs) against 2^15, with each slot summed in one matrix-vector product:
# 4-13% faster at 2^16 in 256-frame batches but 19-31% slower in 128-frame
# ones (2^17: 18-27% slower in 128-frame and 18-55% in 256-frame batches).
# Pulse stacks counted in slot values against configured samples (4 a
# slot), EPPM(7,3) over AWGN at depth 8, 2 workers, operations alternating
# between two processes, equal counts: 4096-symbol batches (2 a stack
# against 1) 1.10x faster, 170 of 200 operations; 2048-, 1024- and
# 512-symbol batches 1.27x, 1.11x and 1.04x, 59, 47 and 42 of 60, though
# at 1024 and 512 a wave is one stack, which one thread runs
STACK_SAMPLES = 1 << 16
KERNEL_TRIM = 1e-9  # an F>1 kernel ends at its last tap above this x peak
CALIBRATION_ITERATIONS = 3  # fixed-point steps of `calibrate_drive`


# ---------------------------------------------------------------------------
# link budget
# ---------------------------------------------------------------------------

def illuminance_to_power(illuminance, aperture_area, luminous_efficacy):
    """Received optical signal power implied by an illumination level (lux),
    a detector aperture (m^2) and the source's luminous efficacy (lm/W)."""
    if min(illuminance, aperture_area, luminous_efficacy) <= 0:
        raise ParameterError("link budget inputs must be positive")
    return illuminance * aperture_area / luminous_efficacy


# practical operating point: standard illumination through a
# sub-0.1 cm^2 aperture puts a few microwatts on the detector
PRACTICAL_RECEIVED_POWER = 5e-6


# ---------------------------------------------------------------------------
# analytic oracles
# ---------------------------------------------------------------------------

# the oracles import scipy when called: the simulator itself needs only numpy

def q_function(x):
    from scipy.special import erfc

    return 0.5 * erfc(np.asarray(x, dtype=np.float64) / np.sqrt(2.0))


def ser_exact_equicorrelated(m_symbols, k, lam, slot_snr):
    """Exact SER of correlation decoding for an equidistant constant-weight
    cyclic code over AWGN slot statistics.

    All symbol pairs overlap in lam slots, so the noise projections are
    equicorrelated and the common term cancels: the decision reduces to
    m-1 iid comparisons against the true score raised by sqrt(snr*(k-lam)).
    """
    from scipy.integrate import quad
    from scipy.special import ndtr

    shift = np.sqrt(slot_snr * (k - lam))

    def integrand(t):
        # standard normal pdf times cdf^(m-1), each computed as
        # scipy.stats.norm computes it
        pdf = np.exp(-t * t / 2.0) / np.sqrt(2.0 * np.pi)
        return pdf * ndtr(t + shift) ** (m_symbols - 1)

    p_correct, _ = quad(integrand, -12, 12, limit=200)
    return 1.0 - p_correct


def ser_exact_for(c, slot_snr):
    """Exact correlation-decoding SER for PPM or difference-set EPPM."""
    if c.scheme == con.PPM:
        return ser_exact_equicorrelated(c.size, 1, 0, slot_snr)
    if c.scheme == con.EPPM:
        lam = con.difference_set_lambda(c.q, c.seed_positions)
        if lam is None:
            raise ParameterError("EPPM seed is not a difference set")
        return ser_exact_equicorrelated(c.size, c.k, lam, slot_snr)
    raise ParameterError(f"no closed-form SER for scheme {c.scheme!r}")


def ser_union_bound(c, slot_snr):
    """Pairwise union bound on SER over AWGN slot statistics."""
    symbols = c.symbols.astype(np.float64)
    total = 0.0
    for i in range(c.size):
        d = np.abs(symbols - symbols[i]).sum(axis=1)
        d[i] = np.inf
        total += q_function(np.sqrt(d[np.isfinite(d)] * slot_snr) / 2.0).sum()
    return min(1.0, total / c.size)


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SchemeSpec:
    kind: str = field(metadata={"choices": (*con.SCHEMES, "dco_ofdm")})
    q: int = 7
    k: int = 3
    n: int = 1
    use_complements: bool = False
    # DCO-OFDM
    n_subcarriers: int = 64
    qam_order: int = 16
    dc_bias_sigma: float = 3.0
    cyclic_prefix: int = 0
    sample_rate: float = 1e8        # OFDM only; pulse schemes use geometry

    def __post_init__(self):
        if self.kind in con.SCHEMES:
            self.build_constellation()  # the ranges, then a code too large
        elif self.kind == "dco_ofdm":
            self.build_ofdm()  # OfdmConfig checks the carrier ranges
            if self.sample_rate <= 0:
                raise ParameterError("sample_rate must be > 0")

    @functools.lru_cache(maxsize=16)
    def build_constellation(self):
        """The scheme's constellation, built once per spec: constellations
        are immutable, so trials and calibration pilots share one."""
        if self.kind == con.PPM:
            return con.build_ppm(self.q)
        if self.kind == con.MPPM:
            return con.build_mppm(self.q, self.k)
        if self.kind == con.EPPM:
            return con.build_eppm(self.q, self.k)
        if self.kind == con.MEPPM:
            return con.build_meppm(self.q, self.k, self.n,
                                   self.use_complements)
        raise ParameterError(f"not a pulse scheme: {self.kind!r}")

    @functools.lru_cache(maxsize=64)
    def dimmed(self, target):
        """`wf.apply_dimming` of the scheme's constellation at `target`,
        built once per spec and target: rebuilding a dimmed EPPM code
        reruns its seed search, and every config of a sweep, calibration
        or trial chain asks for it again."""
        return wf.apply_dimming(self.build_constellation(), target)

    def build_ofdm(self):
        return ofdm_mod.OfdmConfig(
            n_subcarriers=self.n_subcarriers,
            qam_order=self.qam_order,
            dc_bias_sigma=self.dc_bias_sigma,
            cyclic_prefix=self.cyclic_prefix,
        )


@dataclass(frozen=True)
class ChannelSpec:
    mode: str = field(default="awgn",
                      metadata={"choices": ("identity", "awgn", "physical")})
    slot_snr_db: float = 10.0       # awgn: SNR of a unit slot statistic
                                    # (dco_ofdm: of a unit-peak sample)
    sample_noise_sigma: float = 0.0  # awgn: explicit sample-level sigma
    model: ac.ChannelModel = field(default_factory=lambda: ac.IDENTITY_CHANNEL)
    detector: ac.DetectorModel = field(default_factory=ac.DetectorModel)

    def __post_init__(self):
        modes = self.__dataclass_fields__["mode"].metadata["choices"]
        if self.mode not in modes:
            raise ParameterError(f"mode must be one of {modes}")
        if self.sample_noise_sigma < 0:
            raise ParameterError("sample_noise_sigma must be >= 0")
        if self.link.total_gain == 0:
            raise ParameterError("model.total_gain is 0: the channel "
                                 "passes no light")

    @property
    def link(self):
        """The channel model the light passes through: an identity channel
        passes it on unchanged, whatever `model` says."""
        return ac.IDENTITY_CHANNEL if self.mode == "identity" else self.model

    @property
    def responsivity(self):
        """Electrical units per optical unit: the detector's responsivity
        on a physical channel; the other modes see the light itself."""
        return self.detector.responsivity if self.mode == "physical" else 1.0


@dataclass(frozen=True)
class RunSpec:
    max_bits: int = 10_000_000
    min_errors: int = 100
    batch_symbols: int = 2048
    workers: int = 1

    def __post_init__(self):
        if self.max_bits < 1:
            raise ParameterError("max_bits must be >= 1")
        if self.min_errors < 0:
            raise ParameterError("min_errors must be >= 0")
        if self.batch_symbols < 0:
            raise ParameterError("batch_symbols must be >= 0")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")


@dataclass(frozen=True)
class TrialConfig:
    scheme: SchemeSpec
    geometry: wf.SlotGeometry
    device: ac.LedModel = field(default_factory=lambda: ac.LED_PRESETS["ideal"],
                                metadata={"load": ac.led_from_dict})
    channel: ChannelSpec = field(default_factory=ChannelSpec)
    run: RunSpec = field(default_factory=RunSpec)
    peak_power_per_unit: float = 1.0
    array_split_leds: int = 0       # >0: drive that many LEDs separately
    interleaver_depth: int = 1
    dimming_target: float = 0.0     # 0: off
    decoder: str = field(default="",  # "": per scheme
                         metadata={"choices": ("", *rx.DECODERS)})
    seed: int = 1

    def __post_init__(self):
        if self.seed < 0:
            raise ParameterError("seed must be >= 0")
        if self.peak_power_per_unit <= 0:
            raise ParameterError("peak_power_per_unit must be > 0")
        if self.array_split_leds < 0:
            raise ParameterError("array_split_leds must be >= 0")
        if self.interleaver_depth < 1:
            raise ParameterError("interleaver_depth must be >= 1")
        if self.interleaver_depth > 1 and (
                self.scheme.kind not in con.SCHEMES
                or self.geometry.overlap_factor != 1):
            raise ParameterError("interleaver_depth above 1 needs a pulse "
                                 "scheme at overlap_factor 1")
        if not 0 <= self.dimming_target <= 1:
            raise ParameterError("dimming_target must lie in [0, 1]")
        if self.dimming_target and self.scheme.kind == "dco_ofdm":
            raise ParameterError("dimming_target needs a pulse scheme, "
                                 "not dco_ofdm")
        if self.scheme.kind in con.SCHEMES:
            self._check_pulse_link()
        elif self.decoder == "components":
            raise ParameterError("decoder \"components\" needs a MEPPM "
                                 "code with a lattice")

    def _check_pulse_link(self):
        """What a pulse chain would hit only once built or sending, by field:
        the dimming range, the decoder's capacity, the LEDs a split needs,
        and a LOS delay under one slot in seconds (the receiver has no
        timing recovery, so it takes slot statistics on the transmit slots)."""
        c = self.scheme.build_constellation()
        if self.dimming_target:
            try:
                c = self.scheme.dimmed(self.dimming_target).constellation
            except ParameterError as exc:
                raise ParameterError(f"dimming_target: {exc}") from None
        rx.resolve_decoder(c, self.decoder)
        if self.array_split_leds and c.top_level > self.array_split_leds:
            raise ParameterError(f"array_split_leds: slot level {c.top_level}"
                                 f" exceeds {self.array_split_leds} LEDs")
        delay, slot = self.channel.link.los_delay, self.geometry.slot_duration
        if delay >= slot:
            raise ParameterError(f"channel.model.los_delay is {delay:g} s, not "
                                 f"under a slot ({slot:g} s): no timing recovery")

    def params_record(self):
        doc = asdict(self)
        doc["device"] = {
            k: (str(v) if v in (np.inf,) else v)
            for k, v in asdict(self.device).items()
        }
        # worker count is an execution detail, not an experiment parameter
        doc["run"].pop("workers", None)
        return doc


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrialReport:
    """The counts of one trial: deterministic in the config, so two runs
    of one config compare equal with `==`."""

    scheme: str
    bits_sent: int
    bit_errors: int
    ber: float
    ci95: float
    ci_valid: bool
    symbols_sent: int
    symbol_errors: int
    rng_seed: int

    @staticmethod
    def from_counts(config, bits_sent, bit_errors, symbols_sent,
                    symbol_errors):
        ber = bit_errors / bits_sent if bits_sent else 0.0
        ci95 = (
            1.96 * np.sqrt(ber * (1.0 - ber) / bits_sent) if bits_sent else 0.0
        )
        return TrialReport(
            scheme=config.scheme.kind,
            bits_sent=bits_sent,
            bit_errors=bit_errors,
            ber=ber,
            ci95=ci95,
            ci_valid=bit_errors >= 10,
            symbols_sent=symbols_sent,
            symbol_errors=symbol_errors,
            rng_seed=config.seed,
        )

    @property
    def ser(self):
        return self.symbol_errors / self.symbols_sent if self.symbols_sent else 0.0


# ---------------------------------------------------------------------------
# the end-to-end chain
# ---------------------------------------------------------------------------

def _read_only(a):
    a.flags.writeable = False
    return a


class _Workspace(threading.local):
    """The buffers of the stacks that one `_run_points` call runs, each
    thread its own (a thread's first use makes them): each LED's drive
    (F>1 pulse links, DCO-OFDM), which the LED and channel overwrite, or
    the light that an F=1 pulse link gathers from its table, and the
    normals, one per value the receiver reads.  Every stack a thread runs
    reuses them, so their pages fault in once per call, not once per stack
    (glibc would hand them back to the kernel in between).  Nothing a link
    returns aliases them, and they are dropped with the call."""

    def __init__(self):
        self._buffers = {}

    def take(self, key, shape):
        """Buffer `key` as an uninitialised float64 array of `shape`, in
        the memory of the last one under that key when that is big
        enough."""
        size = math.prod(shape)
        buffer = self._buffers.get(key)
        if buffer is None or buffer.size < size:
            buffer = self._buffers[key] = np.empty(size)
        return buffer[:size].reshape(shape)


class _Draws:
    """The point-independent part of a stack of batches, read-only, so
    that every point whose chain has the same `draw_key` runs its own link
    on it: what each row sends (a pulse chain's symbol indices, DCO-OFDM's
    bits), the unit-peak drive from `encode` (none at F=1, where a pulse
    chain gathers its light from a table) and the channel noise.
    Row i of the noise is drawn from generator i after what it sends, on
    the first read; every later read shares that array, since a redraw
    would continue the generators (the channel mode is part of the
    `draw_key`, so every reader reads one kind of noise).  The links write
    into `workspace`, the buffers of the thread that drew the stack and
    runs it (by default new ones)."""

    def __init__(self, rngs, sent, modulated, workspace=None):
        for a in (sent, *modulated):
            _read_only(a)
        self.sent, self.modulated = sent, modulated
        self.workspace = _Workspace() if workspace is None else workspace
        self._rngs = rngs
        self._noise = None

    def normals(self, n_cells):
        """(rows, n_cells) standard normals, the noise of a noisy link:
        one per value the receiver reads (a slot of a pulse link, a
        sample of DCO-OFDM), each row from its generator."""
        if self._noise is None:
            z = self.workspace.take("normals", (len(self._rngs), n_cells))
            for rng, row in zip(self._rngs, z):
                rng.standard_normal(out=row)
            self._noise = _read_only(z)
        return self._noise


class _Chain:
    """What both chains share: the draws of a stack of batches."""

    def draw(self, indices, workspace=None):
        """The draws of a stack of batches, one row per batch index, for
        the links that run it in this thread's `workspace`.

        Each batch draws from its own (seed, batch_index) stream, first
        what it sends (`send`) and then its channel noise, so a row does
        not depend on the other batches drawn with it."""
        rngs = [np.random.default_rng([self.config.seed, b]) for b in indices]
        sent = np.stack([self.send(rng) for rng in rngs])
        return _Draws(rngs, sent, self.encode(sent), workspace)


class _PulseChain(_Chain):
    """Precomputed objects shared by every batch of one trial."""

    def __init__(self, config):
        self.config = config
        c = config.scheme.build_constellation()
        if config.dimming_target:
            dim = config.scheme.dimmed(config.dimming_target)
            c = dim.constellation
            self.drive_scale = dim.power_scale
        else:
            self.drive_scale = 1.0
        self.peak = config.peak_power_per_unit * self.drive_scale
        self.constellation = c
        self.geometry = config.geometry
        self.batch_bits = self.batch_symbols() * c.bits_per_symbol

    @functools.cached_property
    def receiver(self):
        """The trial's receiver, built on first use: calibration pilots
        only transmit, so they never pay for its tables or kernel."""
        config = self.config
        kernel = (
            self._effective_kernel()
            if config.geometry.overlap_factor > 1
            else [self._linear_gain()]
        )
        return rx.StreamReceiver(self.constellation, config.geometry,
                                 decoder=config.decoder, kernel=kernel)

    # not the measured kernel's first tap, which counts only the part of a
    # pulse left in its own slot: MEPPM(7,3,4)+c, components, 16 dB, 4
    # samples a slot, seeds 1-2 x 100k bits, SER here -> with that tap:
    # quarter-slot LOS delay 0.624 -> 0.913, trichromatic LED at 30 ns
    # slots 4.7e-3 -> 0.179, NLOS 0.1 of 200 ns 5.2e-4 -> 1.3e-3; only an
    # unsplit saturating LED gains (saturation 5: 0.307 -> 0.232)
    def _linear_gain(self):
        """Statistic level of one unit pulse at F=1: the drive through the
        LED curve, then the channel's gain and responsivity."""
        cfg = self.config
        if cfg.array_split_leds:
            # per-LED binary drive: the on-level compression is exactly known
            gain = ac.memoryless_response(self.peak, cfg.device)
        else:
            gain = self.peak * cfg.device.linear_gain
        return gain * cfg.channel.link.total_gain * cfg.channel.responsivity

    def _effective_kernel(self):
        """Slot statistics of one unit pulse through the noiseless link; the
        receiver restores and cancels with this, honoring its perfect-
        channel-knowledge contract."""
        q = self.constellation.q
        poles = np.roots(self._slot_response[1]) if self._slot_response else []
        # the slots it takes the slowest pole to fall below the trim
        decay_slots = max((math.ceil(np.log(KERNEL_TRIM) / np.log(abs(p)))
                           for p in poles), default=0)
        guard_slots = 6 * self.geometry.overlap_factor + decay_slots
        n_sym = max(4, int(np.ceil(guard_slots / q)) + 2)
        words = np.zeros((n_sym, q), dtype=np.int16)
        words[0, 0] = 1
        stats = self._received(self.light(self.modulate(words), self.peak,
                                          _Workspace()))
        peak = np.abs(stats).max()
        if peak <= 0:
            raise ParameterError("unit pulse produced no received signal")
        keep = np.flatnonzero(np.abs(stats) > KERNEL_TRIM * peak)
        return stats[: keep[-1] + 1]

    def batch_symbols(self):
        n = self.config.run.batch_symbols
        return n + (-n) % self.config.interleaver_depth

    def _slots(self, n_symbols):
        """Drive slots of `n_symbols` symbols: their own and the F-1 pad
        slots."""
        return (n_symbols * self.constellation.q
                + self.geometry.overlap_factor - 1)

    def draw_key(self):
        """What a batch's draws depend on: chains with equal keys draw the
        same symbol indices, drive (at F>1; none at F=1, see `encode`) and
        noise from each (seed, batch_index)."""
        c = self.constellation
        cfg = self.config
        return (c.scheme, c.q, c.k, c.n, c.use_complements, cfg.geometry,
                cfg.run.batch_symbols, cfg.interleaver_depth,
                cfg.array_split_leds, cfg.seed, cfg.channel.mode)

    def modulate(self, words):
        """The unit-peak drive of a codeword stream, or of each frame of a
        stack, at slot rate: the codewords themselves, or one binary part
        per LED when split over `array_split_leds` LEDs."""
        n_leds = self.config.array_split_leds
        return wf.array_split(words, n_leds) if n_leds else [words]

    def pilot(self, rng):
        """Transmit input of a calibration pilot: 256 random symbols."""
        c = self.constellation
        return c.encode_indices(rng.integers(0, c.used_size, size=256))

    def words(self, idx):
        """The codeword stream that a trial sends for the symbol indices
        `idx` (one frame, or a stack of frames, each a whole number of
        interleaver blocks): encoded, then interleaved."""
        c = self.constellation
        words = wf.interleave(c.encode_indices(idx.ravel()),
                              self.config.interleaver_depth)
        return words.reshape(idx.shape + (c.q,))

    def send(self, rng):
        """A batch's symbol indices, uniform over the used symbols: the
        symbols of uniform bits, `bits_per_symbol` at a time."""
        return rng.integers(0, self.constellation.used_size,
                            size=self.batch_symbols())

    def encode(self, sent):
        """The unit-peak drive of a stack's symbol indices, a frame per
        row, at F>1; none at F=1, where a stack's light is gathered from
        `_light_table`."""
        return (self.modulate(self.words(sent))
                if self.geometry.overlap_factor > 1 else [])

    @functools.cached_property
    def _slot_response(self):
        """The link's `ac.slot_response`: None without memory."""
        return ac.slot_response(self.config.device, self.config.channel.link,
                                self.geometry.slot_duration)

    def light(self, modulated, peak, workspace):
        """The transmitter: `modulate`'s output at `peak` per unit of slot
        amplitude, one value a slot, its `_led_light` `_filtered`; on an
        identity channel, each slot's mean of the light the LEDs send."""
        return self._filtered(self._led_light(modulated, peak, workspace))

    def _led_light(self, modulated, peak, workspace):
        """The light the LEDs send: each part's slot levels, in its own
        buffer of the workspace, through its LED's curve, summed in the
        first."""
        drives = [wf.synthesize(p, self.geometry, peak, workspace.take(
            ("drive", i), p.shape[:-2] + (self._slots(p.shape[-2]),)), 1)
            for i, p in enumerate(modulated)]
        device = self.config.device
        light = ac.memoryless_response(drives[0], device, out=drives[0])
        for d in drives[1:]:
            light += ac.memoryless_response(d, device, out=d)
        return light

    def _filtered(self, light):
        """Slot-rate `light`, in send order, through the link's slot
        response when it has memory (a new array); otherwise `light`."""
        if self._slot_response is None:
            return light
        from scipy.signal import lfilter  # a link with memory needs scipy

        return lfilter(*self._slot_response, light, axis=-1)

    @functools.cached_property
    def _light_table(self):
        """The LED light of each used symbol of a materialized code,
        (used_size, Q), or of each slot level 0..N of a lattice code,
        (N + 1,): every level the used symbols reach, sent once through
        `_led_light` as a row of Q slots in a workspace of its own.  It
        depends only on the level, also over split LEDs: each lit LED adds
        the same light and each unlit one an exact 0."""
        c = self.constellation
        used = c.symbols[:c.used_size] if c.is_materialized else None
        levels = np.repeat(np.arange(c.top_level + 1), c.q).reshape(-1, c.q)
        light = self._led_light(self.modulate(levels), self.peak,
                                _Workspace())[::c.q]
        return _read_only(light.copy() if used is None else light[used])

    def _gathered_light(self, sent, workspace):
        """The light of a stack's sent symbols, in symbol order, from
        `_light_table`, in the workspace: (rows, slots)."""
        c = self.constellation
        light = workspace.take("light", sent.shape + (c.q,))
        # the indices are in range; "clip" writes into `out` unbuffered
        if c.is_materialized:
            np.take(self._light_table, sent, axis=0, out=light, mode="clip")
        else:
            words = c.encode_indices(sent.ravel())
            np.take(self._light_table, words, out=light.reshape(words.shape),
                    mode="clip")
        return light.reshape(len(sent), -1)

    def _received(self, light, draws=None, depth=1):
        """Slot statistics of slot-rate `light` through the channel (which
        the slot response of a link with memory holds) and the detector,
        with the draws' noise if any, read at `depth` (`_apply_channel`)."""
        cfg = self.config
        model = (cfg.channel.link if self._slot_response is None
                 else ac.IDENTITY_CHANNEL)
        means = _apply_channel(light, model, cfg,
                               1 / self.geometry.slot_duration, draws, depth)
        # an AWGN link's means are a new array, which the statistics take
        return rx.slot_statistics(
            means, self.geometry, 1,
            overwrite=not np.may_share_memory(means, light))

    def statistics(self, draws):
        """Slot statistics of each row of a stack's draws through this
        chain's link, in symbol order, in the draws' workspace (they are
        new).  F>1 renders the drive through `light`.  F=1 gathers the
        light in symbol order, filters a link's memory in send order and
        reads the normals through the inverse of the interleaver."""
        if self.geometry.overlap_factor > 1:
            return self._received(self.light(draws.modulated, self.peak,
                                             draws.workspace), draws)
        q, depth = self.constellation.q, self.config.interleaver_depth
        light = self._gathered_light(draws.sent, draws.workspace)
        if self._slot_response is not None:
            in_send_order = wf.interleave(light.reshape(-1, q), depth)
            light = wf.deinterleave_values(
                self._filtered(in_send_order.reshape(light.shape)), depth, q)
        return self._received(light, draws, depth)

    def counts(self, draws):
        """Counts of each row of a stack's draws, decoded in one call (at
        F>1 in lockstep).  A symbol's bit errors are the popcount of the
        sent index XOR the decided one over the low `bits_per_symbol` bits,
        the bits that `con.indices_to_bits` would read: exact even when the
        decoder returns a symbol that no bits reach."""
        decoded = self.receiver.decode_stats(self.statistics(draws))
        wrong = decoded ^ draws.sent
        symbol_wrong = wrong != 0
        wrong &= (1 << self.constellation.bits_per_symbol) - 1
        return _row_counts(self.batch_bits,
                           np.bitwise_count(wrong).sum(axis=1), symbol_wrong)

    def stacks(self, indices):
        """A wave's batch indices in stacks drawn and decoded as one:
        overlapped frames all in one (lockstep), F=1 batches (no feedback)
        split by their slot values."""
        if self.geometry.overlap_factor > 1:
            return [indices]
        return _stacks(indices, self._slots(self.batch_symbols()))


class _OfdmChain(_Chain):
    drive_scale = 1.0

    def __init__(self, config):
        self.config = config
        self.ofdm = config.scheme.build_ofdm()
        self.fs = config.scheme.sample_rate
        self.peak = config.peak_power_per_unit
        self.batch_bits = config.run.batch_symbols * self.ofdm.bits_per_frame

    @functools.cached_property
    def equalizer_ir(self):
        """The one-tap equalizer's response: a unit impulse through the
        LED's pole alone (unit gain, no curve) and the channel, over the
        channel's response and the samples the pole takes to fall below
        MEMORY_FLOOR, times the peak, LED gain and responsivity.  Built on
        first use: calibration pilots only transmit."""
        cfg, link = self.config, self.config.channel.link
        pole = ac.LedModel(bandwidth_3db=cfg.device.bandwidth_3db)
        a = ac.lowpass_coefficient(pole, self.fs)
        tail = math.ceil(np.log(ofdm_mod.MEMORY_FLOOR) / np.log(a)) if a else 0
        impulse = np.eye(1, link.response_length(self.fs) + tail)[0]
        ir = ac.propagate(ac.led_transfer(impulse, pole, self.fs), link,
                          self.fs)
        return ir * (cfg.peak_power_per_unit * cfg.device.linear_gain
                     * cfg.channel.responsivity)

    def draw_key(self):
        """What a batch's draws depend on, as `_PulseChain.draw_key`."""
        cfg = self.config
        return (cfg.scheme, cfg.run.batch_symbols, cfg.seed,
                cfg.channel.mode)

    def send(self, rng):
        """A batch's bits."""
        return rng.integers(0, 2, size=self.batch_bits)

    def modulate(self, bits):
        """The unit-peak drive samples of a whole number of frames."""
        return [ofdm_mod.dco_modulate(bits, self.ofdm)]

    encode = modulate  # a batch sends the bits that it modulates

    def light(self, modulated, peak, workspace):
        """The transmitter: `modulate`'s output at `peak`, in the
        workspace, through the LED at the chain's sample rate."""
        (x,) = modulated
        drive = np.multiply(x, peak, out=workspace.take(("drive", 0), x.shape))
        return ac.led_transfer(drive, self.config.device, self.fs, out=drive)

    def pilot(self, rng):
        """Transmit input of a calibration pilot: 64 random frames."""
        return rng.integers(0, 2, size=64 * self.ofdm.bits_per_frame)

    def counts(self, draws):
        cfg = self.config
        bits = draws.sent
        y = _apply_channel(self.light(draws.modulated, self.peak,
                                      draws.workspace), cfg.channel.link,
                           cfg, self.fs, draws)
        wrong = ofdm_mod.dco_demodulate(
            y, self.ofdm, self.equalizer_ir).reshape(bits.shape) != bits
        frames = wrong.reshape(len(bits), cfg.run.batch_symbols, -1)
        return _row_counts(bits.shape[1], wrong.sum(axis=1), frames.any(axis=2))

    def stacks(self, indices):
        return _stacks(indices,
                       self.config.run.batch_symbols * self.ofdm.frame_samples)


def _row_counts(n_bits, bit_errors, symbol_wrong):
    """(bits, bit errors, symbols, symbol errors) of each row of a stack,
    from the bits a row sends and each row's bit errors."""
    return [(n_bits, b, symbol_wrong.shape[1], s) for b, s in zip(
        bit_errors.tolist(), symbol_wrong.sum(axis=1).tolist())]


def _stacks(indices, batch_values):
    """Consecutive batch indices in stacks of at most STACK_SAMPLES values;
    a batch at or above the cap is its own stack, and empty batches share."""
    per = max(1, STACK_SAMPLES // max(1, batch_values))
    return [indices[i:i + per] for i in range(0, len(indices), per)]


def _apply_channel(x, model, cfg, fs, draws=None, depth=1):
    """The receiver's values of `x`, sampled at `fs`, after the channel
    `model`, which overwrites `x`, and the detector.  Unless `draws` is None,
    row i of a stack takes row i of the draws' normals, scaled to the std
    of the mean of the configured rate's noise over a value (a pulse
    link's is a slot); an AWGN link scales them into a new array, then
    adds the light.  At `depth` above 1, `x` holds the slots of a pulse
    stack in symbol order, and takes the normals, drawn in send order,
    through the inverse of the interleaver permutation: a strided view,
    so neither is copied."""
    spec = cfg.channel
    if spec.mode == "identity":
        return x
    shape = x.shape
    if depth > 1:
        x = x.reshape(len(x), -1, depth, cfg.scheme.q)

    def normals():
        z = draws.normals(shape[-1])
        return z if depth == 1 else wf.deinterleaved(z, depth, cfg.scheme.q)

    if spec.mode == "physical" and draws is not None:
        return ac.propagate_and_detect(x, model, spec.detector, fs,
                                       normals(), out=x).reshape(shape)
    y = ac.propagate(x, model, fs, out=x)
    if draws is None:
        return spec.responsivity * y
    if cfg.scheme.kind == "dco_ofdm":
        samples, rate = 1, cfg.scheme.sample_rate
    else:
        samples, rate = cfg.geometry.samples_per_slot, cfg.geometry.sample_rate
    sigma = spec.sample_noise_sigma
    if sigma == 0.0:
        # the SNR of a unit-amplitude slot statistic, which averages a
        # slot's samples; an OFDM link has no slots, so of one unit sample
        snr = 10 ** (spec.slot_snr_db / 10)
        sigma = cfg.peak_power_per_unit * np.sqrt(samples / snr)
    if sigma > 0:
        # sigma is per sample at the configured rate, so a mean of the
        # rate / fs samples of a value at fs has std sigma * sqrt(fs / rate).
        # The new array is C-contiguous in `x`'s layout: without `out`,
        # multiply would follow the strided normals' send order
        noisy = np.multiply(normals(), sigma * np.sqrt(fs / rate),
                            out=np.empty(y.shape))
        y = np.add(noisy, y, out=noisy)
    return y.reshape(shape)


def _build_chain(config):
    if config.scheme.kind == "dco_ofdm":
        return _OfdmChain(config)
    return _PulseChain(config)


def _draw_groups(chains):
    """Positions of `chains` grouped by `draw_key`, in first-seen order."""
    groups = {}
    for i, chain in enumerate(chains):
        groups.setdefault(chain.draw_key(), []).append(i)
    return list(groups.values())


def run_trials(config):
    """Run the chain until the stop rule (max_bits or min_errors) is met.

    Batches are scheduled in fixed waves of WAVE_BATCHES, one job per
    `chain.stacks` stack; each batch's RNG derives from (seed, batch_index),
    so the totals depend on neither the stacks nor the worker count.
    """
    return _run_points([config])[0]


def _run_points(configs):
    """The `run_trials` report of each config.  Points that draw alike
    run together: each stack of a wave is drawn once, and every point of
    the group that is still running takes its own link through the draws.
    A point leaves at the wave where its own stop rule fires, so its
    report is the one `run_trials` gives it alone."""
    chains = [_build_chain(c) for c in configs]
    totals = np.zeros((len(chains), 4), dtype=np.int64)
    workers = max(c.run.workers for c in configs)
    workspace = _Workspace()
    with contextlib.ExitStack() as scope:
        pool = (scope.enter_context(ThreadPoolExecutor(workers))
                if workers > 1 else None)
        for group in _draw_groups(chains):
            totals[group] = _run_group([chains[i] for i in group], pool,
                                       workspace)
    return [TrialReport.from_counts(c, *(int(t) for t in row))
            for c, row in zip(configs, totals)]


def _run_group(chains, pool, workspace):
    """Counts of chains with one `draw_key`, a row each, run wave by wave
    until every chain's stop rule has fired, each stack in the workspace
    of the thread that runs it."""
    totals = np.zeros((len(chains), 4), dtype=np.int64)
    running = list(range(len(chains)))
    for first in itertools.count(0, WAVE_BATCHES):
        stacks = chains[0].stacks(range(first, first + WAVE_BATCHES))
        job = functools.partial(_run_stack, [chains[i] for i in running],
                                workspace)
        # one worker, or a lone stack, runs in this thread: a pool
        # would only add hand-offs
        jobs = pool.map if pool is not None and len(stacks) > 1 else map
        for per_chain in jobs(job, stacks):
            for i, rows in zip(running, per_chain):
                totals[i] += np.sum(rows, axis=0)
        running = [i for i in running
                   if totals[i, 1] < chains[i].config.run.min_errors
                   and totals[i, 0] < chains[i].config.run.max_bits]
        if not running:
            return totals


def _run_stack(chains, workspace, indices):
    """Counts of each chain on one stack of batches, drawn once."""
    draws = chains[0].draw(indices, workspace)
    return [chain.counts(draws) for chain in chains]


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

SWEEP_AXES = ("snr", "dimming", "delay_spread", "saturation")


def _config_at(config, axis, value):
    if axis == "snr":
        return replace(config, channel=replace(config.channel, slot_snr_db=value))
    if axis == "dimming":
        return replace(config, dimming_target=value)
    if axis == "delay_spread":
        # value in slot durations
        model = replace(
            config.channel.model,
            nlos_decay=value * config.geometry.slot_duration,
        )
        return replace(config, channel=replace(config.channel, model=model))
    if axis == "saturation":
        device = replace(config.device, saturation_power=value)
        return replace(config, device=device)
    raise ParameterError(f"unknown sweep axis {axis!r}")


def check_sweep(config, axis, points):
    """Raise ParameterError unless every point gives a valid config and the
    link reads the axis: a sweep over an axis that the config ignores would
    write the same row at every point."""
    if axis not in SWEEP_AXES:
        raise ParameterError(f"axis must be one of {SWEEP_AXES}")
    if len(points) < 2:
        raise ParameterError("a sweep needs at least 2 points")
    spec = config.channel
    if axis == "snr" and (spec.mode != "awgn" or spec.sample_noise_sigma):
        raise ParameterError("the snr axis needs channel.mode \"awgn\" with "
                             "sample_noise_sigma 0")
    if axis == "delay_spread" and spec.link.nlos_gain == 0:
        raise ParameterError("the delay_spread axis needs a non-identity "
                             "channel with model.nlos_gain > 0")
    for p in points:
        # a dimming target of 0 is a valid config, but it turns dimming off
        if axis == "dimming" and not 0 < p <= 1:
            raise ParameterError("dimming targets must lie in (0, 1]")
        try:
            _config_at(config, axis, p)
        except ParameterError as exc:
            raise ParameterError(f"{p:g}: {exc}") from None


def sweep(config, axis, points, output_dir=None, label=None):
    """The `run_trials` report of each axis point under a shared master
    seed.

    The points run together: those that draw alike (every axis but an
    EPPM or MPPM dimming target that changes K') share what each batch
    sends, its drive and noise, and each point still stops by its own
    rule.  Returns the reports; when output_dir is given, writes
    `<label>_<axis>.csv` plus a JSON manifest, byte-identical on reruns.
    """
    points = list(points)
    check_sweep(config, axis, points)
    reports = _run_points([_config_at(config, axis, p) for p in points])
    if output_dir is not None:
        write_sweep_outputs(config, axis, points, reports, output_dir, label)
    return reports


def format_float(x):
    return f"{x:.12g}"


def sweep_rows(points, reports):
    rows = ["axis_value,bits,errors,ber,ci95,flag,seed"]
    for p, r in zip(points, reports):
        rows.append(",".join([
            format_float(p),
            str(r.bits_sent),
            str(r.bit_errors),
            format_float(r.ber),
            format_float(r.ci95),
            "ok" if r.ci_valid else "low_errors",
            str(r.rng_seed),
        ]))
    return "\n".join(rows) + "\n"


def write_sweep_outputs(config, axis, points, reports, output_dir, label=None):
    label = label or config.scheme.kind
    os.makedirs(output_dir, exist_ok=True)
    csv_path = os.path.join(output_dir, f"{label}_{axis}.csv")
    with open(csv_path, "w", encoding="utf-8") as fh:
        fh.write(sweep_rows(points, reports))
    manifest = {
        "axis": axis,
        "points": points,
        "config": config.params_record(),
        "results": [vars(r) for r in reports],
    }
    manifest_path = os.path.join(output_dir, f"{label}_{axis}_manifest.json")
    write_json(manifest_path, manifest)
    return csv_path, manifest_path


def write_json(path, doc):
    """Write a result document as strict JSON: a NaN or infinity raises
    ValueError instead of being spelled in a form JSON has no word for."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=str,
                  allow_nan=False)
        fh.write("\n")


# ---------------------------------------------------------------------------
# nonlinearity comparison (DCO-OFDM vs MEPPM with array split)
# ---------------------------------------------------------------------------

def calibrate_drive(config, target_mean_power):
    """Scale the drive so the post-LED mean optical power hits the target.

    CALIBRATION_ITERATIONS fixed-point steps on one noiseless pilot batch,
    drawn once from the config seed: the unit-peak drive does not depend
    on the peak, so each step only sends it again through the chain's
    `light` at the new peak.  `nonlin_compare` calibrates all its points
    at once, one pilot drive per scheme.
    """
    return _calibrated([config], target_mean_power)[0]


def _calibrated(configs, target_mean_power):
    """`calibrate_drive` of each config: configs that draw alike share one
    pilot and its unit-peak drive, and each runs only its own fixed
    point through its own chain's `light`, on an identity channel."""
    chains = [_build_chain(replace(c, channel=ChannelSpec(mode="identity")))
              for c in configs]
    calibrated = list(configs)
    workspace = _Workspace()
    for group in _draw_groups(chains):
        lead = chains[group[0]]
        modulated = lead.modulate(
            lead.pilot(np.random.default_rng([lead.config.seed, 0])))
        for i in group:
            chain = chains[i]
            peak = configs[i].peak_power_per_unit
            for _ in range(CALIBRATION_ITERATIONS):
                measured = float(chain.light(
                    modulated, peak * chain.drive_scale, workspace).mean())
                if measured <= 0:
                    raise ParameterError("pilot produced no optical power")
                peak = peak * (target_mean_power / measured)
            calibrated[i] = replace(configs[i], peak_power_per_unit=peak)
    return calibrated


def nonlin_compare(meppm_config, ofdm_config, saturation_points,
                   mean_power=1.0, output_dir=None):
    """Saturation sweep of DCO-OFDM against MEPPM driven as split LEDs.

    Both chains are recalibrated to the same post-LED mean optical power at
    every saturation point; saturation values are absolute (same units as
    the drive).  Each scheme's points share its calibration pilot and, as
    in `sweep`, each batch's draws; every report equals the `run_trials`
    of its calibrated point.  Returns {"meppm": [...], "dco_ofdm": [...]}
    reports.
    """
    points = list(saturation_points)
    bases = {"meppm": meppm_config, "dco_ofdm": ofdm_config}
    for base in bases.values():
        check_sweep(base, "saturation", points)
    reports = _run_points(_calibrated(
        [_config_at(base, "saturation", sat)
         for base in bases.values() for sat in points], mean_power))
    results = {name: reports[i * len(points):(i + 1) * len(points)]
               for i, name in enumerate(bases)}
    if output_dir is not None:
        for name, base in bases.items():
            write_sweep_outputs(base, "saturation", points, results[name],
                                output_dir, label=name)
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def random_light(config, n_symbols):
    """The light of `n_symbols` random symbols drawn from the config seed,
    one value a slot (each slot's mean), sent as a pulse trial sends them:
    the constellation that `dimming_target` leaves, interleaved, at the
    trial's drive level, through its LEDs (an identity channel's `light`).
    `n_symbols` must be a whole number of interleaver blocks."""
    chain = _PulseChain(replace(config, channel=ChannelSpec(mode="identity")))
    idx = np.random.default_rng(config.seed).integers(
        0, chain.constellation.used_size, size=n_symbols)
    return chain.light(chain.modulate(chain.words(idx)), chain.peak,
                       _Workspace())


# a window's length in samples is whole when it lies within this relative
# distance of an integer, which absorbs the rounding of seconds x rate
WHOLE_WINDOW_RTOL = 1e-9


def flicker_metric(samples, sample_rate, window_seconds):
    """Worst relative deviation of tiled window means from the global mean.

    Windows tile the samples back to back (a trailing partial window is
    dropped); a scheme with constant per-symbol energy scores exactly 0 at
    any whole multiple of the symbol duration.  A window must be a whole
    number of samples, within WHOLE_WINDOW_RTOL, and is never rounded to
    one.
    """
    samples = np.asarray(samples, dtype=np.float64)
    length = window_seconds * sample_rate
    n_win = round(length)
    if not math.isclose(length, n_win, rel_tol=WHOLE_WINDOW_RTOL):
        raise ParameterError(f"window of {length:.6g} samples is not a "
                             "whole number of samples")
    if n_win < 1 or n_win > samples.size:
        raise ParameterError("window must fit inside the waveform")
    n_tiles = samples.size // n_win
    tiles = samples[: n_tiles * n_win].reshape(n_tiles, n_win)
    global_mean = samples.mean()
    if global_mean == 0:
        return 0.0
    return float(np.abs(tiles.mean(axis=1) - global_mean).max() / global_mean)


@dataclass(frozen=True)
class RateAccounting:
    bits_per_slot: float
    slot_rate: float
    per_color_rate: float
    n_colors: int
    aggregate_rate: float


def rate_accounting(c, g, led, n_colors, bits_per_symbol=None):
    """Throughput bookkeeping: overlapped slots run F times faster than the
    device bandwidth, so rate = (bits/slot) * F * bandwidth per color.

    `bits_per_symbol` caps the constellation's native value when a system
    deliberately uses fewer bits (e.g. a round spectral-efficiency target).
    """
    native = c.bits_per_symbol
    bps = native if bits_per_symbol is None else bits_per_symbol
    if bps > native:
        raise ParameterError(
            f"bits_per_symbol {bps} exceeds the constellation's {native}"
        )
    bits_per_slot = bps / c.q
    slot_rate = g.overlap_factor * led.bandwidth_3db
    per_color = bits_per_slot * slot_rate
    return RateAccounting(
        bits_per_slot=bits_per_slot,
        slot_rate=slot_rate,
        per_color_rate=per_color,
        n_colors=n_colors,
        aggregate_rate=n_colors * per_color,
    )


# ---------------------------------------------------------------------------
# config documents (the JSON experiment format)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SweepBlock:
    points: list[float]
    depths: list[int] = field(default_factory=lambda: [1, 8])  # isi-sweep

    def __post_init__(self):
        if any(d < 1 for d in self.depths):
            raise ParameterError("depths must be >= 1")


@dataclass(frozen=True)
class CompareBlock:
    saturation_points: list[float]
    mean_power: float = 1.0
    ofdm_scheme: SchemeSpec = field(
        default_factory=lambda: SchemeSpec(kind="dco_ofdm"))

    def __post_init__(self):
        if self.mean_power <= 0:
            raise ParameterError("mean_power must be > 0")


@dataclass(frozen=True)
class RateBlock:
    n_colors: int = 1
    bits_per_symbol: int | None = None  # None: the constellation's own

    def __post_init__(self):
        if self.n_colors < 1:
            raise ParameterError("n_colors must be >= 1")
        if self.bits_per_symbol is not None and self.bits_per_symbol < 1:
            raise ParameterError("bits_per_symbol must be >= 1")


@dataclass(frozen=True)
class FlickerBlock:
    n_symbols: int = 10_000
    window_symbols: list[float] = field(default_factory=lambda: [1, 2, 4])

    def __post_init__(self):
        if self.n_symbols < 1:
            raise ParameterError("n_symbols must be >= 1")


# top-level blocks read only by the CLI verbs, not by TrialConfig
CLI_BLOCKS = {"sweep": SweepBlock, "compare": CompareBlock,
              "rate": RateBlock, "flicker": FlickerBlock}


def config_from_document(doc):
    """Validate a JSON experiment document into a TrialConfig."""
    if not isinstance(doc, dict):
        raise ConfigError("$", "document must be a JSON object")
    trial = {k: v for k, v in doc.items() if k not in CLI_BLOCKS}
    return section(TrialConfig, trial, "$")


def cli_block(doc, name):
    """The CLI verb block `name` of a document, e.g. "sweep"."""
    return section(CLI_BLOCKS[name], doc.get(name, {}), name)


def read_document(path):
    """The JSON document in the file at `path`; a missing file or one that
    is not JSON is a ConfigError at `$`."""
    if not os.path.isfile(path):
        raise ConfigError("$", f"config file not found: {path}")
    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError("$", f"invalid JSON: {exc}") from exc
