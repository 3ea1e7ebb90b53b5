"""Monte Carlo engine and metrics.

Runs the end-to-end chain (encode, interleave, synthesize, LED, channel,
detect, slot statistics, deinterleave, decode) in fixed-size batches whose
RNG streams derive from (master_seed, batch_index), scheduled in fixed
waves so results are bit-identical for any worker count.  Also houses the
link budget arithmetic, the analytic SER oracles used to validate the
simulator, the flicker metric, and rate accounting.
"""

import contextlib
import functools
import itertools
import json
import os
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
# samples per stack of F=1 or DCO-OFDM batches: on EPPM(7,3) at 4 samples
# per slot (2 vCPUs), 2^15 beat 2^14 at 256 and 512 symbols per batch, and
# 2^16 (two 1024-symbol batches a stack) slowed one worker by about 20%
STACK_SAMPLES = 1 << 15


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
            con.check_pulse_scheme(self.kind, self.q, self.k, self.n)
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
        if self.sample_noise_sigma < 0:
            raise ParameterError("sample_noise_sigma must be >= 0")
        if self.mode != "identity" and self.model.total_gain == 0:
            raise ParameterError("model.total_gain is 0: the channel "
                                 "passes no light")

    def dispersive(self):
        return self.model.nlos_gain > 0 or self.model.los_delay > 0


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
        if self.decoder == "components" and self.scheme.kind != con.MEPPM:
            raise ParameterError("decoder \"components\" is MEPPM-only")
        if not 0 <= self.dimming_target <= 1:
            raise ParameterError("dimming_target must lie in [0, 1]")
        if self.dimming_target and self.scheme.kind == "dco_ofdm":
            raise ParameterError("dimming_target needs a pulse scheme, "
                                 "not dco_ofdm")
        if self.scheme.kind in con.SCHEMES:
            self._check_pulse_link()

    def _check_pulse_link(self):
        """The limits a pulse scheme's chain would otherwise hit only when
        it is built: the dimming range of the code, and a LOS delay under
        one slot (the receiver has no timing recovery, so it takes slot
        statistics on the transmit grid)."""
        if self.dimming_target:
            c = self.scheme.build_constellation()
            try:
                wf.apply_dimming(c, self.dimming_target)
            except ParameterError as exc:
                raise ParameterError(f"dimming_target: {exc}") from None
        g = self.geometry
        delay = int(round(self.channel.model.los_delay * g.sample_rate))
        if self.channel.mode != "identity" and delay >= g.samples_per_slot:
            raise ParameterError(
                f"channel.model.los_delay is {delay} samples, a slot "
                f"({g.samples_per_slot} samples) or more; the receiver "
                "has no timing recovery")

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

class _PulseChain:
    """Precomputed objects shared by every batch of one trial."""

    def __init__(self, config):
        self.config = config
        c = config.scheme.build_constellation()
        if config.dimming_target:
            dim = wf.apply_dimming(c, config.dimming_target)
            c = dim.constellation
            self.drive_scale = dim.power_scale
        else:
            self.drive_scale = 1.0
        self.peak = config.peak_power_per_unit * self.drive_scale
        self.constellation = c
        self.geometry = config.geometry
        self.fs = config.geometry.sample_rate

    @functools.cached_property
    def receiver(self):
        """The trial's receiver, built on first use: calibration pilots
        only transmit, so they never pay for its tables or kernel."""
        config = self.config
        c = self.constellation
        decoder = config.decoder or (
            "components" if c.scheme == con.MEPPM else "correlation"
        )
        kernel = (
            self._effective_kernel()
            if config.geometry.overlap_factor > 1
            else [self._linear_gain()]
        )
        return rx.StreamReceiver(
            c, config.geometry, decoder=decoder,
            interleaver_depth=config.interleaver_depth, kernel=kernel,
        )

    def _linear_gain(self):
        """Statistic level of one unit pulse at F=1: the drive through the
        LED curve, then the channel's gain and responsivity (an identity
        channel passes the light on unchanged)."""
        cfg = self.config
        if cfg.array_split_leds and np.isfinite(cfg.device.saturation_power):
            # per-LED binary drive: the on-level compression is exactly known
            gain = ac.memoryless_response(self.peak, cfg.device)
        else:
            gain = self.peak * cfg.device.linear_gain
        if cfg.channel.mode != "identity":
            gain *= cfg.channel.model.total_gain
        if cfg.channel.mode == "physical":
            gain *= cfg.channel.detector.responsivity
        return gain

    def _effective_kernel(self):
        """Measured slot response of one unit pulse through the noiseless
        chain (LED curve and pole, channel, responsivity); the receiver
        restores and cancels with this, honoring its perfect-channel-
        knowledge contract."""
        cfg = self.config
        g = cfg.geometry
        q = self.constellation.q
        decay_slots = 0
        if cfg.channel.mode != "identity" and (
            cfg.channel.dispersive() or cfg.channel.model.shadowed
        ):
            decay_slots = int(np.ceil(
                5.0 * cfg.channel.model.nlos_decay / g.slot_duration
            ))
        guard_slots = 6 * g.overlap_factor + decay_slots
        n_sym = max(4, int(np.ceil(guard_slots / q)) + 2)
        words = np.zeros((n_sym, q), dtype=np.int16)
        words[0, 0] = 1
        y = _apply_channel_deterministic(self.transmit(words), cfg, self.fs)
        stats = rx.slot_statistics(y, g)
        peak = np.abs(stats).max()
        if peak <= 0:
            raise ParameterError("unit pulse produced no received signal")
        keep = np.flatnonzero(np.abs(stats) > 1e-9 * peak)
        return stats[: keep[-1] + 1]

    def batch_symbols(self):
        n = self.config.run.batch_symbols
        return n + (-n) % self.config.interleaver_depth

    def drive(self, words, peak=1.0):
        """Drive samples, at `peak` per unit of slot amplitude, of a
        codeword stream or of each frame of a stack: one for the whole
        stream, or one per LED when split over `array_split_leds` binary
        LEDs."""
        n_leds = self.config.array_split_leds
        parts = wf.array_split(words, n_leds) if n_leds else [words]
        return [wf.synthesize(p, self.geometry, peak) for p in parts]

    def transmit(self, words):
        """Optical samples of a codeword stream, or of each frame of a
        stack: the drive at the link's peak, through the LEDs."""
        return _led_output(self.drive(words, self.peak), self.config.device,
                           self.fs)

    def pilot(self, rng):
        """Transmit input of a calibration pilot: 256 random symbols."""
        c = self.constellation
        return c.encode_indices(rng.integers(0, c.used_size, size=256))

    def receive(self, indices):
        """Batches from their bit draws to their slot statistics, one row
        per batch index: (bits, sent symbol indices, statistics).

        Each batch draws from its own (seed, batch_index) stream, first its
        bits and then its channel noise, so a row does not depend on the
        other batches received with it."""
        cfg = self.config
        c = self.constellation
        n_sym = self.batch_symbols()
        rngs = [np.random.default_rng([cfg.seed, b]) for b in indices]
        bits = np.stack([rng.integers(0, 2, size=n_sym * c.bits_per_symbol)
                         for rng in rngs])
        idx = con.bits_to_indices(bits, c.bits_per_symbol)
        # interleaver blocks never straddle two frames
        words = wf.interleave(c.encode_indices(idx), cfg.interleaver_depth)
        words = words.reshape(len(rngs), n_sym, c.q)
        y = _apply_channel(self.transmit(words), cfg, self.fs, rngs)
        return bits, idx.reshape(len(rngs), n_sym), rx.slot_statistics(
            y, self.geometry)

    def run_stack(self, indices):
        """Counts of each batch of a stack, received as one stack and
        decoded in one call (at F>1 in lockstep)."""
        bits, idx, stats = self.receive(indices)
        decoded = self.receiver.decode_stats(stats)
        rx_bits = con.indices_to_bits(decoded.ravel(),
                                      self.constellation.bits_per_symbol)
        return _row_counts(rx_bits.reshape(bits.shape) != bits,
                           decoded != idx)

    def stacks(self, indices):
        """A wave's batch indices in `run_stack`'s stacks: overlapped frames
        all in one (lockstep), F=1 batches (no feedback) split by size."""
        if self.geometry.overlap_factor > 1:
            return [indices]
        return _stacks(indices, self.batch_symbols() * self.constellation.q
                       * self.geometry.samples_per_slot)


class _OfdmChain:
    drive_scale = 1.0

    def __init__(self, config):
        self.config = config
        self.ofdm = config.scheme.build_ofdm()
        fs = config.scheme.sample_rate
        self.fs = fs
        self.peak = config.peak_power_per_unit
        # composite linear response for the one-tap equalizer: drive scale,
        # LED small-signal gain, LED pole, channel taps (an identity channel
        # passes the light on unchanged), responsivity
        ir = ac.lowpass_impulse_response(config.device, fs, 256)
        model = (ac.IDENTITY_CHANNEL if config.channel.mode == "identity"
                 else config.channel.model)
        if model.nlos_gain > 0 or model.los_delay > 0 or model.shadowed:
            cir = ac.channel_impulse_response(
                model, fs, max(256, model.response_length(fs))
            )
            ir = np.convolve(ir, cir)
        else:
            ir = ir * model.total_gain
        gain = config.peak_power_per_unit * config.device.linear_gain
        if config.channel.mode == "physical":
            gain *= config.channel.detector.responsivity
        self.equalizer_ir = ir * gain

    def drive(self, bits, peak=1.0):
        """Drive samples of a whole number of frames, at `peak`."""
        x = ofdm_mod.dco_modulate(bits, self.ofdm)
        x *= peak
        return [x]

    def pilot(self, rng):
        """Transmit input of a calibration pilot: 64 random frames."""
        return rng.integers(0, 2, size=64 * self.ofdm.bits_per_frame)

    def run_stack(self, indices):
        """Counts of each batch of a stack, its frames being the symbols."""
        cfg = self.config
        rngs = [np.random.default_rng([cfg.seed, b]) for b in indices]
        n_frames = cfg.run.batch_symbols
        n_bits = n_frames * self.ofdm.bits_per_frame
        bits = np.stack([rng.integers(0, 2, size=n_bits) for rng in rngs])
        light = _led_output(self.drive(bits, self.peak), cfg.device, self.fs)
        y = _apply_channel(light, cfg, self.fs, rngs)
        wrong = ofdm_mod.dco_demodulate(
            y, self.ofdm, self.equalizer_ir).reshape(bits.shape) != bits
        return _row_counts(wrong, wrong.reshape(len(rngs), n_frames, -1)
                           .any(axis=2))

    def stacks(self, indices):
        return _stacks(indices,
                       self.config.run.batch_symbols * self.ofdm.frame_samples)


def _row_counts(bit_wrong, symbol_wrong):
    """(bits, bit errors, symbols, symbol errors) of each row of a stack."""
    return [(bit_wrong.shape[1], b, symbol_wrong.shape[1], s) for b, s in zip(
        bit_wrong.sum(axis=1).tolist(), symbol_wrong.sum(axis=1).tolist())]


def _stacks(indices, batch_samples):
    """Consecutive batch indices in stacks of at most STACK_SAMPLES samples;
    a batch at or above the cap is its own stack, and empty batches share."""
    per = max(1, STACK_SAMPLES // max(1, batch_samples))
    return [indices[i:i + per] for i in range(0, len(indices), per)]


def _led_output(drives, device, fs):
    """Optical samples after the LEDs: each drive passes through its own
    LED, and the outputs add up."""
    light = ac.led_transfer(drives[0], device, fs)
    for d in drives[1:]:
        light += ac.led_transfer(d, device, fs)
    return light


def _apply_channel_deterministic(x, cfg, fs):
    """Noise-free part of the channel (propagation, gains, responsivity)."""
    spec = cfg.channel
    if spec.mode == "identity":
        return x
    if spec.mode not in ("physical", "awgn"):
        raise ParameterError(f"unknown channel mode {spec.mode!r}")
    y = ac.propagate(x, spec.model, fs)
    if spec.mode == "physical":
        return spec.detector.responsivity * y
    return y


def _apply_channel(x, cfg, fs, rngs):
    """The channel and its noise: row i of a stack of signals draws its
    noise from rngs[i]."""
    spec = cfg.channel
    if spec.mode == "identity":
        return x
    if spec.mode == "physical":
        seeds = [rng.integers(0, 2 ** 63 - 1) for rng in rngs]
        return ac.propagate_and_detect(x, spec.model, spec.detector, fs,
                                       seeds)
    y = _apply_channel_deterministic(x, cfg, fs)
    sigma = spec.sample_noise_sigma
    if sigma == 0.0:
        # the SNR of a unit-amplitude slot statistic, which averages a
        # slot's samples; an OFDM link has no slots, so of one unit sample
        snr = 10 ** (spec.slot_snr_db / 10)
        samples = (1 if cfg.scheme.kind == "dco_ofdm"
                   else cfg.geometry.samples_per_slot)
        sigma = cfg.peak_power_per_unit * np.sqrt(samples / snr)
    if sigma > 0:
        for row, rng in zip(y, rngs):
            noise = rng.standard_normal(row.size)
            noise *= sigma
            row += noise
    return y


def _build_chain(config):
    if config.scheme.kind == "dco_ofdm":
        return _OfdmChain(config)
    return _PulseChain(config)


def run_trials(config):
    """Run the chain until the stop rule (max_bits or min_errors) is met.

    Batches are scheduled in fixed waves of WAVE_BATCHES, one job per
    `chain.stacks` stack; each batch's RNG derives from (seed, batch_index),
    so the totals depend on neither the stacks nor the worker count.
    """
    chain = _build_chain(config)
    totals = np.zeros(4, dtype=np.int64)
    run = config.run
    with contextlib.ExitStack() as scope:
        pool = (scope.enter_context(ThreadPoolExecutor(run.workers))
                if run.workers > 1 else None)
        for first in itertools.count(0, WAVE_BATCHES):
            stacks = chain.stacks(range(first, first + WAVE_BATCHES))
            # one worker, or a lone stack, runs in this thread: a pool
            # would only add hand-offs
            jobs = pool.map if pool is not None and len(stacks) > 1 else map
            for rows in jobs(chain.run_stack, stacks):
                totals += np.sum(rows, axis=0)
            if totals[1] >= run.min_errors or totals[0] >= run.max_bits:
                break
    return TrialReport.from_counts(config, *(int(t) for t in totals))


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
    if axis == "delay_spread" and (spec.mode == "identity"
                                   or spec.model.nlos_gain == 0):
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
    """One run_trials per axis point under a shared master seed.

    Returns the reports; when output_dir is given, writes
    `<label>_<axis>.csv` plus a JSON manifest, byte-identical on reruns.
    """
    points = list(points)
    check_sweep(config, axis, points)
    reports = [run_trials(_config_at(config, axis, p)) for p in points]
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

def calibrate_drive(config, target_mean_power, iterations=3):
    """Scale the drive so the post-LED mean optical power hits the target.

    Fixed-point iteration on one noiseless pilot batch, drawn once from
    the config seed: the unit-peak drive does not depend on the peak, so
    each iteration only rescales it through the LED.
    """
    chain = _build_chain(replace(config, channel=ChannelSpec(mode="identity")))
    drives = chain.drive(chain.pilot(np.random.default_rng([config.seed, 0])))
    peak = config.peak_power_per_unit
    for _ in range(iterations):
        scale = peak * chain.drive_scale
        light = _led_output([scale * d for d in drives], config.device,
                            chain.fs)
        measured = float(light.mean())
        if measured <= 0:
            raise ParameterError("pilot produced no optical power")
        peak = peak * (target_mean_power / measured)
    return replace(config, peak_power_per_unit=peak)


def nonlin_compare(meppm_config, ofdm_config, saturation_points,
                   mean_power=1.0, output_dir=None):
    """Saturation sweep of DCO-OFDM against MEPPM driven as split LEDs.

    Both chains are recalibrated to the same post-LED mean optical power at
    every saturation point; saturation values are absolute (same units as
    the drive).  Returns {"meppm": [...], "dco_ofdm": [...]} reports.
    """
    points = list(saturation_points)
    if len(points) < 2:
        raise ParameterError("saturation sweep needs at least 2 points")
    results = {"meppm": [], "dco_ofdm": []}
    for sat in points:
        for name, base in (("meppm", meppm_config), ("dco_ofdm", ofdm_config)):
            cfg = calibrate_drive(_config_at(base, "saturation", sat),
                                  mean_power)
            results[name].append(run_trials(cfg))
    if output_dir is not None:
        for name, base in (("meppm", meppm_config), ("dco_ofdm", ofdm_config)):
            write_sweep_outputs(base, "saturation", points, results[name],
                                output_dir, label=name)
    return results


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def random_light(config, n_symbols):
    """Optical samples of `n_symbols` random symbols drawn from the config
    seed, sent as a pulse trial sends them: the constellation that
    `dimming_target` leaves, at the trial's drive level, through its LEDs."""
    chain = _PulseChain(config)
    c = chain.constellation
    idx = np.random.default_rng(config.seed).integers(0, c.used_size,
                                                      size=n_symbols)
    return chain.transmit(c.encode_indices(idx))


def flicker_metric(samples, sample_rate, window_seconds):
    """Worst relative deviation of tiled window means from the global mean.

    Windows tile the samples back to back (a trailing partial window is
    dropped); a scheme with constant per-symbol energy scores exactly 0 at
    any whole multiple of the symbol duration.
    """
    samples = np.asarray(samples, dtype=np.float64)
    n_win = int(round(window_seconds * sample_rate))
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
