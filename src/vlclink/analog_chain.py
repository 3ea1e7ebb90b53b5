"""Transmit device and indoor channel models.

LED: memoryless soft saturation followed by a first-order low-pass (the
rise-time limit).  Channel: sharp LOS tap plus an exponential NLOS tail;
shadowing removes the LOS tap.  Detection: responsivity plus white
Gaussian noise whose variance tracks the shot noise from the signal and
background light, plus a thermal floor, one normal per sample; the
receiver's one integrator, `cell_means`, takes the mean of each cell.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, InputError, ParameterError
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

def memoryless_response(drive, m, out=None):
    """Soft-saturation drive-to-power curve; strictly increasing, bounded.
    `out` receives the power and may be `drive` itself, which a gain of
    exactly 1 then leaves as it is (x * 1.0 == x)."""
    x = np.asarray(drive, dtype=np.float64)
    if m.linear_gain != 1.0 or out is not x:
        x = np.multiply(m.linear_gain, x, out=out)
    if not np.isfinite(m.saturation_power):
        return x
    s2 = 2.0 * m.knee_sharpness
    knee = x / m.saturation_power
    knee **= s2
    knee += 1.0
    knee **= 1.0 / s2
    return np.divide(x, knee, out=out)


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


def led_transfer(x, m, sample_rate, out=None):
    """Drive samples (or each row of a stack) through the LED: saturation
    curve, then the pole.  `out` receives the curve's output, and may be
    `x` itself; it is the result unless the LED has a pole."""
    y = memoryless_response(x, m, out)
    a = lowpass_coefficient(m, sample_rate)
    if a > 0.0:
        from scipy.signal import lfilter  # only a link with memory needs scipy

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


def propagate(x, cm, sample_rate, out=None):
    """Optical samples (or each row of a stack) through the channel: scaled
    by the LOS gain, or convolved with `channel_impulse_response` when the
    channel delays, disperses or shadows.  `out` receives the result and
    may be `x` itself, which a flat gain of exactly 1 then leaves as it is."""
    x = np.asarray(x, dtype=np.float64)
    if cm.flat:
        if cm.los_gain == 1.0 and out is x:
            return x
        return np.multiply(cm.los_gain, x, out=out)
    h = channel_impulse_response(cm, sample_rate)
    y = np.empty_like(x) if out is None else out
    # each row is convolved whole before it is written back
    for y_row, row in zip(np.atleast_2d(y), np.atleast_2d(x)):
        y_row[:] = np.convolve(row, h)[: row.size]
    return y


# ---------------------------------------------------------------------------
# detection
# ---------------------------------------------------------------------------

def cell_means(y, grid):
    """The mean of each `grid`-sample cell along the last axis: `y` itself
    at grid 1, otherwise one matrix-vector product with a vector of ones
    (which BLAS runs far faster than a reduction over the short cell axis;
    a different BLAS kernel may move a sum by a few ULPs), then a division
    by `grid`.  The receiver's one integrator."""
    y = np.asarray(y, dtype=np.float64)
    if y.shape[-1] % grid:
        raise InputError("signal length is not a whole number of "
                         f"{grid}-sample cells")
    if grid == 1:
        return y
    means = y.reshape(y.shape[:-1] + (-1, grid)) @ np.ones(grid)
    means /= grid
    return means


def propagate_and_detect(x, cm, dm, sample_rate, normals, out=None):
    """Optical samples -> electrical samples with signal-dependent noise:
    each sample of `propagate`'s output takes the responsivity, plus one of
    `normals` (a standard normal per sample, in the output's shape) times
    the std of white noise at `sample_rate` (so also of a mean of such
    noise at a higher rate over one sample), of variance
        [2 q R (P_sample + P_background) + thermal_density] * sample_rate / 2.
    `out` receives the result and may be `x` itself."""
    current = propagate(x, cm, sample_rate, out=out)
    # zero background and thermal densities select the noiseless mode; the
    # signal-shot term only matters in regimes where background is modeled
    if dm.background_power == 0 and dm.thermal_noise_density == 0:
        current *= dm.responsivity
        return current
    noise = np.maximum(current, 0.0)
    noise += dm.background_power
    noise *= 2.0 * Q_ELECTRON * dm.responsivity
    noise += dm.thermal_noise_density
    noise *= sample_rate / 2.0
    np.sqrt(noise, out=noise)
    noise *= normals
    current *= dm.responsivity
    current += noise
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
