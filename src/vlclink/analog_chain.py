"""Transmit device and indoor channel models.

LED: memoryless soft saturation followed by a first-order low-pass (the
rise-time limit).  Channel: sharp LOS tap plus an exponential NLOS tail;
shadowing removes the LOS tap.  Detection: responsivity plus white Gaussian
noise whose variance tracks instantaneous shot noise from signal and
background light, plus a thermal floor.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, ParameterError
from .schema import section

Q_ELECTRON = 1.602176634e-19  # elementary charge in C, exact in SI since 2019


@dataclass(frozen=True)
class LedModel:
    """First-order low-pass pole plus a soft-saturation drive curve.

    Set bandwidth_3db or saturation_power to numpy.inf (the defaults) to
    bypass the corresponding stage.
    """

    bandwidth_3db: float = np.inf
    saturation_power: float = np.inf
    knee_sharpness: float = 1.0
    linear_gain: float = 1.0

    def __post_init__(self):
        if self.bandwidth_3db <= 0:
            raise ParameterError("bandwidth_3db must be positive")
        if self.saturation_power <= 0:
            raise ParameterError("saturation_power must be positive")
        if self.knee_sharpness < 1:
            raise ParameterError("knee_sharpness must be >= 1")
        if self.linear_gain <= 0:
            raise ParameterError("linear_gain must be positive")


# 3-dB bandwidths: phosphor-converted LEDs reach a few MHz, trichromatic
# devices a few tens of MHz
LED_PRESETS = {
    "phosphor": LedModel(bandwidth_3db=3e6),
    "trichromatic": LedModel(bandwidth_3db=30e6),
    "ideal": LedModel(),
}


@dataclass(frozen=True)
class ChannelModel:
    """LOS gain/delay plus an exponential-tail NLOS component."""

    los_gain: float = 1.0
    los_delay: float = 0.0
    nlos_gain: float = 0.0
    nlos_decay: float = 10e-9
    shadowed: bool = False

    def __post_init__(self):
        if self.los_gain < 0 or self.nlos_gain < 0:
            raise ParameterError("path gains must be nonnegative")
        if self.los_delay < 0:
            raise ParameterError("los_delay must be nonnegative")
        if self.nlos_decay <= 0:
            raise ParameterError("nlos_decay must be positive")

    @property
    def total_gain(self):
        return (0.0 if self.shadowed else self.los_gain) + self.nlos_gain

    @property
    def flat(self):
        """No NLOS tail, LOS delay or shadow: the channel only scales."""
        return self.nlos_gain == 0 and self.los_delay == 0 and not self.shadowed

    def delay_samples(self, sample_rate):
        """The LOS delay in whole samples, rounded half to even."""
        return int(round(self.los_delay * sample_rate))

    def response_length(self, sample_rate):
        """Samples of impulse response that cover los_delay + 5 x nlos_decay."""
        return self.delay_samples(sample_rate) + int(
            np.ceil(5.0 * self.nlos_decay * sample_rate)
        ) + 1


IDENTITY_CHANNEL = ChannelModel(los_gain=1.0, nlos_gain=0.0)


@dataclass(frozen=True)
class DetectorModel:
    """Photodiode responsivity and noise parameters."""

    responsivity: float = 0.5
    background_power: float = 5e-6
    thermal_noise_density: float = 1e-24  # A^2/Hz

    def __post_init__(self):
        if self.responsivity <= 0:
            raise ParameterError("responsivity must be positive")
        if self.background_power < 0 or self.thermal_noise_density < 0:
            raise ParameterError("noise parameters must be nonnegative")


NOISELESS_DETECTOR = DetectorModel(
    responsivity=1.0, background_power=0.0, thermal_noise_density=0.0
)


# ---------------------------------------------------------------------------
# LED
# ---------------------------------------------------------------------------

def memoryless_response(drive, m):
    """Soft-saturation drive-to-power curve; strictly increasing, bounded."""
    x = m.linear_gain * np.asarray(drive, dtype=np.float64)
    if not np.isfinite(m.saturation_power):
        return x
    s2 = 2.0 * m.knee_sharpness
    return x / (1.0 + (x / m.saturation_power) ** s2) ** (1.0 / s2)


def lowpass_coefficient(m, sample_rate):
    if not np.isfinite(m.bandwidth_3db):
        return 0.0
    return float(np.exp(-2.0 * np.pi * m.bandwidth_3db / sample_rate))


def lowpass_impulse_response(m, sample_rate, length):
    """Discrete impulse response of the LED's first-order pole."""
    a = lowpass_coefficient(m, sample_rate)
    if a == 0.0:
        h = np.zeros(length)
        h[0] = 1.0
        return h
    return (1.0 - a) * a ** np.arange(length)


def led_transfer(x, m, sample_rate):
    """Drive samples (or each row of a stack) through the LED: saturation
    curve, then the pole."""
    y = memoryless_response(x, m)
    a = lowpass_coefficient(m, sample_rate)
    if a > 0.0:
        from scipy.signal import lfilter  # only a pole needs scipy

        y = lfilter([1.0 - a], [1.0, -a], y, axis=-1)
    return y


# ---------------------------------------------------------------------------
# channel
# ---------------------------------------------------------------------------

def channel_impulse_response(cm, sample_rate, length=None):
    """Discretized LOS + NLOS response, normalized to sum to the total gain.

    `length` defaults to the shortest one allowed, `cm.response_length`.
    """
    delay_idx = cm.delay_samples(sample_rate)
    needed = cm.response_length(sample_rate)
    if length is None:
        length = needed
    elif length < needed:
        raise ParameterError(
            f"length {length} does not cover los_delay + 5 x nlos_decay "
            f"({needed} samples)"
        )
    h = np.zeros(length)
    if not cm.shadowed and cm.los_gain > 0:
        h[delay_idx] += cm.los_gain
    if cm.nlos_gain > 0:
        t = np.arange(length - delay_idx) / sample_rate
        tail = np.exp(-t / cm.nlos_decay)
        h[delay_idx:] += cm.nlos_gain * tail / tail.sum()
    return h


def propagate(x, cm, sample_rate):
    """Optical samples (or each row of a stack) through the channel: scaled
    by the LOS gain, or convolved with `channel_impulse_response` when the
    channel delays, disperses or shadows."""
    x = np.asarray(x, dtype=np.float64)
    if cm.flat:
        return cm.los_gain * x
    h = channel_impulse_response(cm, sample_rate)
    y = np.empty_like(x)
    for out, row in zip(np.atleast_2d(y), np.atleast_2d(x)):
        out[:] = np.convolve(row, h)[: row.size]
    return y


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def propagate_and_detect(x, cm, dm, sample_rate, rng_seed):
    """Optical samples -> electrical samples with signal-dependent noise.

    y = responsivity * (h conv x) + n, where n is white Gaussian with
    per-sample variance
        [2 q R (P_inst + P_background) + thermal_density] * (sample_rate / 2).
    A stack of signals takes one rng_seed per row, and each row's noise
    is what its seed gives the row alone.  Deterministic in the seeds.
    """
    received = propagate(x, cm, sample_rate)
    current = dm.responsivity * received
    # zero background and thermal densities select the noiseless mode; the
    # signal-shot term only matters in regimes where background is modeled
    if dm.background_power > 0 or dm.thermal_noise_density > 0:
        # the noise std, computed in place over the received power
        std = np.maximum(received, 0.0, out=received)
        std += dm.background_power
        std *= 2.0 * Q_ELECTRON * dm.responsivity
        std += dm.thermal_noise_density
        std *= sample_rate / 2.0
        np.sqrt(std, out=std)
        rows = np.atleast_2d(std)
        seeds = np.ravel(rng_seed)
        if seeds.size != len(rows):
            raise ParameterError("need one rng_seed per row")
        for row, seed, out in zip(rows, seeds, np.atleast_2d(current)):
            noise = np.random.default_rng(seed).standard_normal(row.size)
            noise *= row
            out += noise
    return current


def noise_variance_dark(dm, sample_rate):
    """Closed-form per-sample noise variance with no incident signal."""
    return (
        2.0 * Q_ELECTRON * dm.responsivity * dm.background_power
        + dm.thermal_noise_density
    ) * (sample_rate / 2.0)


# ---------------------------------------------------------------------------
# the LED block of a config
# ---------------------------------------------------------------------------

def led_from_dict(doc, path="led"):
    """The LED block: a preset name, or fields over an optional preset."""
    if isinstance(doc, str):
        doc = {"preset": doc}
    if not isinstance(doc, dict):
        raise ConfigError(path, "expected a preset name or a JSON object")
    doc = dict(doc)
    preset = doc.pop("preset", None)
    if preset not in (None, *LED_PRESETS):
        raise ConfigError(f"{path}.preset",
                          f"expected one of {', '.join(LED_PRESETS)}")
    return section(LedModel, doc, path, base=LED_PRESETS.get(preset),
                   unbounded=("bandwidth_3db", "saturation_power"))
