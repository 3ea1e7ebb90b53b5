"""A 50-digit reference for a pulse link's slot response, kept apart from
the package: each path's ramp response as the closed form states it, in
decimal arithmetic, and its second differences at the slot edges.  The
test modules import it from this directory."""

import functools
from decimal import Decimal, localcontext

import numpy as np


def ramp_response(t, taus):
    """The ramp response at `t` of a unit-area path through the time
    constants `taus` (Decimals, none, one or two) in cascade."""
    if t <= 0:
        return Decimal(0)
    if not taus:
        return t
    if len(taus) == 1:
        (s,) = taus
        return t + s * ((-t / s).exp() - 1)
    s, n = taus
    if s == n:
        return t - 2 * s + (t + 2 * s) * (-t / s).exp()
    return t + (s * s * ((-t / s).exp() - 1)
                - n * n * ((-t / n).exp() - 1)) / (s - n)


@functools.lru_cache(maxsize=64)
def slot_taps(device, link, slot_duration):
    """Slot means of one unit slot of light through the LED's pole and the
    channel `link`, from 50 digits, until the slowest time constant has
    fallen by e^-46 (below 1e-20)."""
    tau = 1.0 / (2.0 * np.pi * device.bandwidth_3db)
    decay = link.nlos_decay if link.nlos_gain > 0 else 0.0
    n = 3 + int(np.ceil(46 * max(tau, decay) / slot_duration))
    with localcontext() as ctx:
        ctx.prec = 50
        T, d = Decimal(slot_duration), Decimal(link.los_delay)
        paths = [(Decimal(gain), [Decimal(s) for s in taus if s > 0])
                 for gain, taus in (
                     (0.0 if link.shadowed else link.los_gain, [tau]),
                     (link.nlos_gain, [tau, decay])) if gain > 0]
        taps = [sum(gain * (ramp_response((k + 1) * T - d, taus)
                            - 2 * ramp_response(k * T - d, taus)
                            + ramp_response((k - 1) * T - d, taus))
                    for gain, taus in paths) / T for k in range(n)]
    taps = np.array([float(t) for t in taps])
    taps.flags.writeable = False
    return taps


def slot_light(levels, device, link, slot_duration):
    """Each row's slot means, for slot levels of light on the LED's curve,
    after the pole and `link`: the levels convolved with `slot_taps`."""
    taps = slot_taps(device, link, slot_duration)
    levels = np.asarray(levels, dtype=np.float64)
    return np.apply_along_axis(
        lambda row: np.convolve(row, taps)[:row.size], -1, levels)
