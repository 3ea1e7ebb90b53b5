"""LED, channel, and detection model tests."""

import numpy as np
import pytest

from vlclink import analog_chain as ac
from vlclink import constellations as con
from vlclink import waveform as wf
from vlclink.errors import ParameterError


def make_wave(samples, fs=1e9):
    return wf.Waveform(np.asarray(samples, dtype=float), fs)


class TestNonlinearity:
    def test_small_signal_linear(self):
        m = ac.LedModel(bandwidth_3db=np.inf, saturation_power=1.0,
                        linear_gain=2.0)
        x = np.array([1e-3, 2e-3])
        y = ac.memoryless_response(x, m)
        assert np.allclose(y, 2.0 * x, rtol=0.01)

    def test_asymptote(self):
        m = ac.LedModel(bandwidth_3db=np.inf, saturation_power=0.5)
        y = ac.memoryless_response(np.array([1e6]), m)
        assert y[0] == pytest.approx(0.5, rel=1e-6)

    def test_monotone_and_bounded(self):
        m = ac.LedModel(bandwidth_3db=np.inf, saturation_power=1.0,
                        knee_sharpness=2.0)
        x = np.linspace(0, 20, 2000)
        y = ac.memoryless_response(x, m)
        assert np.all(np.diff(y) > 0)
        assert y.max() <= 1.0

    def test_bypass_with_inf(self):
        m = ac.LedModel(bandwidth_3db=np.inf)
        w = make_wave(np.random.default_rng(0).random(100))
        out = ac.led_transfer(w, m)
        assert np.allclose(out.samples, w.samples)


class TestLowpass:
    def test_rise_time_10mhz(self):
        # first-order pole: 10-90% rise time = ln(9)/(2 pi fc) = 0.35/fc
        fs = 1e9
        m = ac.LedModel(bandwidth_3db=10e6)
        step = make_wave(np.concatenate([np.zeros(10), np.ones(4000)]), fs)
        y = ac.led_transfer(step, m).samples
        t10 = np.argmax(y >= 0.1) / fs
        t90 = np.argmax(y >= 0.9) / fs
        assert (t90 - t10) == pytest.approx(0.35 / 10e6, rel=0.03)

    def test_dc_gain_unity(self):
        m = ac.LedModel(bandwidth_3db=5e6)
        w = make_wave(np.ones(50000), 1e9)
        y = ac.led_transfer(w, m).samples
        assert y[-1] == pytest.approx(1.0, rel=1e-6)

    def test_output_nonnegative(self):
        m = ac.LedModel(bandwidth_3db=3e6)
        rng = np.random.default_rng(4)
        w = make_wave(rng.random(1000))
        assert ac.led_transfer(w, m).samples.min() >= 0


class TestChannelImpulse:
    def test_pure_los_single_tap(self):
        cm = ac.ChannelModel(los_gain=0.9, nlos_gain=0.0)
        h = ac.channel_impulse_response(cm, 1e9, 64)
        assert h[0] == pytest.approx(0.9)
        assert np.count_nonzero(h) == 1

    def test_shadowed_no_impulse(self):
        cm = ac.ChannelModel(los_gain=0.7, nlos_gain=0.3, nlos_decay=10e-9,
                             shadowed=True)
        h = ac.channel_impulse_response(cm, 1e9, 256)
        assert h.sum() == pytest.approx(0.3, abs=1e-9)
        assert h.max() < 0.3  # tail only, no sharp tap

    def test_normalization(self):
        cm = ac.ChannelModel(los_gain=0.7, nlos_gain=0.3, nlos_decay=10e-9)
        h = ac.channel_impulse_response(cm, 1e9, 256)
        assert h.sum() == pytest.approx(1.0, abs=1e-9)

    def test_insufficient_length(self):
        cm = ac.ChannelModel(los_gain=0.5, nlos_gain=0.5, nlos_decay=100e-9)
        with pytest.raises(ParameterError):
            ac.channel_impulse_response(cm, 1e9, 100)

    def test_delay_shifts_tap(self):
        cm = ac.ChannelModel(los_gain=1.0, los_delay=5e-9, nlos_gain=0.0)
        h = ac.channel_impulse_response(cm, 1e9, 64)
        assert h[5] == pytest.approx(1.0)


class TestDetection:
    def test_identity_noiseless(self):
        w = make_wave(np.linspace(0, 1e-6, 100))
        dm = ac.DetectorModel(responsivity=0.6, background_power=0.0,
                              thermal_noise_density=0.0)
        y = ac.propagate_and_detect(w, ac.IDENTITY_CHANNEL, dm, rng_seed=1)
        assert np.allclose(y.samples, 0.6 * w.samples)

    def test_dark_shot_variance_formula(self):
        fs = 1e9
        w = make_wave(np.zeros(1_000_000), fs)
        dm = ac.DetectorModel(responsivity=0.5, background_power=5e-6,
                              thermal_noise_density=0.0)
        y = ac.propagate_and_detect(w, ac.IDENTITY_CHANNEL, dm, rng_seed=7)
        measured = y.samples.var()
        expected = ac.noise_variance_dark(dm, fs)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_background_doubling_doubles_variance(self):
        fs = 1e9
        w = make_wave(np.zeros(400_000), fs)
        var = []
        for bg in (2e-6, 4e-6):
            dm = ac.DetectorModel(responsivity=0.5, background_power=bg,
                                  thermal_noise_density=0.0)
            y = ac.propagate_and_detect(w, ac.IDENTITY_CHANNEL, dm, rng_seed=3)
            var.append(y.samples.var())
        assert var[1] / var[0] == pytest.approx(2.0, rel=0.05)

    def test_seed_determinism(self):
        w = make_wave(np.ones(1000) * 1e-6)
        dm = ac.DetectorModel()
        a = ac.propagate_and_detect(w, ac.IDENTITY_CHANNEL, dm, rng_seed=42)
        b = ac.propagate_and_detect(w, ac.IDENTITY_CHANNEL, dm, rng_seed=42)
        assert np.array_equal(a.samples, b.samples)

    def test_linearity_without_noise(self):
        rng = np.random.default_rng(8)
        cm = ac.ChannelModel(los_gain=0.6, nlos_gain=0.4, nlos_decay=5e-9)
        dm = ac.NOISELESS_DETECTOR
        wa = make_wave(rng.random(500))
        wb = make_wave(rng.random(500))
        both = make_wave(2 * wa.samples + 3 * wb.samples)
        ya = ac.propagate_and_detect(wa, cm, dm, 0).samples
        yb = ac.propagate_and_detect(wb, cm, dm, 0).samples
        yab = ac.propagate_and_detect(both, cm, dm, 0).samples
        assert np.allclose(yab, 2 * ya + 3 * yb)

    def test_shadowing_loses_energy(self):
        rng = np.random.default_rng(2)
        w = make_wave(rng.random(2000))
        dm = ac.NOISELESS_DETECTOR
        open_cm = ac.ChannelModel(los_gain=0.7, nlos_gain=0.3, nlos_decay=5e-9)
        closed = ac.ChannelModel(los_gain=0.7, nlos_gain=0.3, nlos_decay=5e-9,
                                 shadowed=True)
        e_open = (ac.propagate_and_detect(w, open_cm, dm, 0).samples ** 2).sum()
        e_closed = (ac.propagate_and_detect(w, closed, dm, 0).samples ** 2).sum()
        assert e_closed < e_open


class TestArraySplitDistortion:
    def test_split_equals_unsplit_when_linear(self):
        c = con.build_meppm(7, 3, 3, use_complements=True)
        g = wf.SlotGeometry(1e-7, 4, 1)
        rng = np.random.default_rng(5)
        words = c.encode_indices(rng.integers(0, c.used_size, size=20))
        m = ac.LedModel(bandwidth_3db=20e6)  # low-pass only, no saturation
        whole = ac.led_transfer(wf.synthesize(words, g), m).samples
        parts = wf.array_split(words, 3)
        total = sum(
            ac.led_transfer(wf.synthesize(p, g), m).samples for p in parts
        )
        assert np.allclose(whole, total)

    def test_split_has_lower_distortion(self):
        # multilevel frames driven past half-saturation: per-LED binary
        # drives distort strictly less against the linear reference
        c = con.build_meppm(7, 3, 3, use_complements=True)
        g = wf.SlotGeometry(1e-7, 4, 1)
        m = ac.LedModel(bandwidth_3db=np.inf, saturation_power=2.0)
        rng = np.random.default_rng(17)
        checked = 0
        for _ in range(50):
            words = c.encode_indices(rng.integers(0, c.used_size, size=8))
            if words.max() < 2:
                continue
            ideal = wf.synthesize(words, g).samples
            unsplit = ac.led_transfer(wf.synthesize(words, g), m).samples
            parts = wf.array_split(words, 3)
            split = sum(
                ac.led_transfer(wf.synthesize(p, g), m).samples for p in parts
            )
            d_unsplit = ((unsplit - ideal) ** 2).sum()
            d_split = ((split - ideal) ** 2).sum()
            assert d_split < d_unsplit
            checked += 1
        assert checked > 10


class TestPresets:
    def test_bandwidths(self):
        assert ac.LED_PRESETS["phosphor"].bandwidth_3db == 3e6
        assert ac.LED_PRESETS["trichromatic"].bandwidth_3db == 30e6

    def test_from_dict(self):
        m = ac.led_from_dict({"preset": "trichromatic", "saturation_power": 2.0})
        assert m.bandwidth_3db == 30e6
        assert m.saturation_power == 2.0
