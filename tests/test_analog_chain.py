"""LED, channel, and detection model tests."""

import numpy as np
import pytest

from vlclink import analog_chain as ac
from vlclink import constellations as con
from vlclink import waveform as wf
from vlclink.errors import InputError, ParameterError


FS = 1e9  # sample rate of the test signals


def normals(seed, shape):
    """Standard normals for a detector's cells."""
    return np.random.default_rng(seed).standard_normal(shape)


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
        x = np.random.default_rng(0).random(100)
        out = ac.led_transfer(x, m, FS)
        assert np.allclose(out, x)


class TestLowpass:
    def test_rise_time_10mhz(self):
        # first-order pole: 10-90% rise time = ln(9)/(2 pi fc) = 0.35/fc
        fs = 1e9
        m = ac.LedModel(bandwidth_3db=10e6)
        step = np.concatenate([np.zeros(10), np.ones(4000)])
        y = ac.led_transfer(step, m, fs)
        t10 = np.argmax(y >= 0.1) / fs
        t90 = np.argmax(y >= 0.9) / fs
        assert (t90 - t10) == pytest.approx(0.35 / 10e6, rel=0.03)

    def test_dc_gain_unity(self):
        m = ac.LedModel(bandwidth_3db=5e6)
        y = ac.led_transfer(np.ones(50000), m, FS)
        assert y[-1] == pytest.approx(1.0, rel=1e-6)

    def test_output_nonnegative(self):
        m = ac.LedModel(bandwidth_3db=3e6)
        rng = np.random.default_rng(4)
        assert ac.led_transfer(rng.random(1000), m, FS).min() >= 0


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
        x = np.linspace(0, 1e-6, 100)
        dm = ac.DetectorModel(responsivity=0.6, background_power=0.0,
                              thermal_noise_density=0.0)
        y = ac.propagate_and_detect(x, ac.IDENTITY_CHANNEL, dm, FS, None)
        assert np.allclose(y, 0.6 * x)

    def test_dark_shot_variance_formula(self):
        fs = 1e9
        x = np.zeros(1_000_000)
        dm = ac.DetectorModel(responsivity=0.5, background_power=5e-6,
                              thermal_noise_density=0.0)
        y = ac.propagate_and_detect(x, ac.IDENTITY_CHANNEL, dm, fs,
                                    normals(7, x.shape))
        measured = y.var()
        expected = ac.noise_variance_dark(dm, fs)
        assert measured == pytest.approx(expected, rel=0.02)

    def test_background_doubling_doubles_variance(self):
        fs = 1e9
        x = np.zeros(400_000)
        var = []
        for bg in (2e-6, 4e-6):
            dm = ac.DetectorModel(responsivity=0.5, background_power=bg,
                                  thermal_noise_density=0.0)
            y = ac.propagate_and_detect(x, ac.IDENTITY_CHANNEL, dm, fs,
                                        normals(3, x.shape))
            var.append(y.var())
        assert var[1] / var[0] == pytest.approx(2.0, rel=0.05)

    @pytest.mark.parametrize("grid", [1, 4, 20])
    @pytest.mark.parametrize("level", ["constant", "ramp"])
    def test_cell_means_keep_the_per_sample_variance(self, grid, level):
        # a cell mean detected at the cell rate FS / grid has the variance
        # sum(sigma_i^2) / grid^2 that the mean of its grid samples has
        # under the per-sample model at FS, whatever the grid: noise too
        # small or large by sqrt(grid) would be off by a factor of grid
        from scipy.stats import chi2

        n_cells = 20_000
        cell = np.full(grid, 4e-6)
        if level == "ramp":
            cell *= np.arange(1, grid + 1)
        x = np.tile(cell, (2, n_cells))
        dm = ac.DetectorModel(responsivity=0.5, background_power=1e-6,
                              thermal_noise_density=1e-24)
        means = ac.propagate_and_detect(ac.cell_means(x, grid),
                                        ac.IDENTITY_CHANNEL, dm, FS / grid,
                                        normals(5, (2, n_cells)))
        per_sample = (2 * ac.Q_ELECTRON * dm.responsivity
                      * (cell + dm.background_power)
                      + dm.thermal_noise_density) * FS / 2
        variance = per_sample.sum() / grid ** 2
        stat = ((means - dm.responsivity * cell.mean()) ** 2).sum() / variance
        assert chi2.ppf(1e-6, means.size) < stat < chi2.isf(1e-6, means.size)

    def test_grid_must_tile_the_signal(self):
        with pytest.raises(InputError, match="4-sample cells"):
            ac.cell_means(np.zeros(10), 4)

    def test_seed_determinism(self):
        x = np.ones(1000) * 1e-6
        dm = ac.DetectorModel()
        a = ac.propagate_and_detect(x, ac.IDENTITY_CHANNEL, dm, FS,
                                    normals(42, x.shape))
        b = ac.propagate_and_detect(x, ac.IDENTITY_CHANNEL, dm, FS,
                                    normals(42, x.shape))
        assert np.array_equal(a, b)

    def test_one_sample_cells_take_the_closed_form(self):
        # each sample is R (h conv x) plus its normal times the per-sample
        # std of shot noise from signal and background light and the
        # thermal floor, to the bit
        rng = np.random.default_rng(11)
        x = rng.random((2, 400)) * 1e-6
        z = rng.standard_normal(x.shape)
        cm = ac.ChannelModel(los_gain=0.6, nlos_gain=0.4, nlos_decay=5e-9)
        dm = ac.DetectorModel(responsivity=0.4, background_power=2e-6,
                              thermal_noise_density=3e-24)
        received = ac.propagate(x, cm, FS)
        std = np.sqrt((2 * ac.Q_ELECTRON * dm.responsivity
                       * (received + dm.background_power)
                       + dm.thermal_noise_density) * (FS / 2))
        want = dm.responsivity * received + z * std
        got = ac.propagate_and_detect(x, cm, dm, FS, z)
        assert got.tobytes() == want.tobytes()

    def test_linearity_without_noise(self):
        rng = np.random.default_rng(8)
        cm = ac.ChannelModel(los_gain=0.6, nlos_gain=0.4, nlos_decay=5e-9)
        dm = ac.NOISELESS_DETECTOR
        xa = rng.random(500)
        xb = rng.random(500)
        both = 2 * xa + 3 * xb
        ya = ac.propagate_and_detect(xa, cm, dm, FS, None)
        yb = ac.propagate_and_detect(xb, cm, dm, FS, None)
        yab = ac.propagate_and_detect(both, cm, dm, FS, None)
        assert np.allclose(yab, 2 * ya + 3 * yb)

    def test_shadowing_loses_energy(self):
        rng = np.random.default_rng(2)
        x = rng.random(2000)
        dm = ac.NOISELESS_DETECTOR
        open_cm = ac.ChannelModel(los_gain=0.7, nlos_gain=0.3, nlos_decay=5e-9)
        closed = ac.ChannelModel(los_gain=0.7, nlos_gain=0.3, nlos_decay=5e-9,
                                 shadowed=True)
        e_open = (ac.propagate_and_detect(x, open_cm, dm, FS, None)
                  ** 2).sum()
        e_closed = (ac.propagate_and_detect(x, closed, dm, FS, None)
                    ** 2).sum()
        assert e_closed < e_open


class TestInPlace:
    """Each stage gives the same bytes in its input's buffer as in a new
    array, so the trial engine can run a stack's link in place."""

    @pytest.mark.parametrize("stage", [
        lambda x, out: ac.memoryless_response(x, ac.LedModel(
            saturation_power=1.5, knee_sharpness=1.5, linear_gain=0.8), out),
        lambda x, out: ac.led_transfer(x, ac.LedModel(
            saturation_power=2.0), FS, out=out),
        lambda x, out: ac.propagate(x, ac.ChannelModel(los_gain=0.7), FS,
                                    out=out),
        lambda x, out: ac.propagate(x, ac.ChannelModel(
            los_gain=0.6, los_delay=3e-9, nlos_gain=0.4, nlos_decay=5e-9),
            FS, out=out),
        lambda x, out: ac.propagate_and_detect(x, ac.ChannelModel(
            los_gain=0.6, nlos_gain=0.4, nlos_decay=5e-9), ac.DetectorModel(
                background_power=5e-7), FS, normals(3, (2, 300)), out=out),
    ], ids=["curve", "led", "flat", "dispersive", "detect"])
    def test_in_place_equals_new(self, stage):
        x = np.random.default_rng(9).random((2, 300)) * 3.0
        fresh = stage(x, None)
        assert not np.shares_memory(fresh, x)
        buffer = x.copy()
        assert stage(buffer, buffer) is buffer
        assert buffer.tobytes() == fresh.tobytes()


# stages whose only scale is exactly 1: each skips its multiply, since
# x * 1.0 == x, and keeps its `out` contract
UNIT_SCALES = {
    "ideal-curve": lambda x, out: ac.memoryless_response(
        x, ac.LED_PRESETS["ideal"], out),
    "saturating-curve": lambda x, out: ac.memoryless_response(
        x, ac.LedModel(saturation_power=1.5, knee_sharpness=1.5), out),
    "identity-channel": lambda x, out: ac.propagate(
        x, ac.IDENTITY_CHANNEL, FS, out=out),
}


def multiplied(name, x):
    """What the stage `name` gives when it multiplies by its unit scale."""
    y = np.multiply(1.0, x)
    if name == "saturating-curve":
        y = y / ((y / 1.5) ** 3.0 + 1.0) ** (1.0 / 3.0)
    return y


class TestUnitScales:
    @pytest.mark.parametrize("name", list(UNIT_SCALES))
    def test_values_equal_the_multiplying_path(self, name):
        x = np.random.default_rng(10).random((2, 300)) * 3.0
        before = x.copy()
        fresh = UNIT_SCALES[name](x, None)
        assert not np.shares_memory(fresh, x)
        assert x.tobytes() == before.tobytes()
        assert fresh.tobytes() == multiplied(name, x).tobytes()
        buffer = x.copy()
        assert UNIT_SCALES[name](buffer, buffer) is buffer
        assert buffer.tobytes() == fresh.tobytes()

    @pytest.mark.parametrize("name", list(UNIT_SCALES))
    def test_in_place_skips_the_multiply(self, name, monkeypatch):
        calls = []
        multiply = np.multiply

        def counted(*args, **kwargs):
            calls.append(args)
            return multiply(*args, **kwargs)

        monkeypatch.setattr(ac.np, "multiply", counted)
        buffer = np.random.default_rng(11).random(50)
        UNIT_SCALES[name](buffer, buffer)
        assert calls == []
        UNIT_SCALES[name](buffer, None)
        assert len(calls) == 1


class TestArraySplitDistortion:
    def test_split_equals_unsplit_when_linear(self):
        c = con.build_meppm(7, 3, 3, use_complements=True)
        g = wf.SlotGeometry(1e-7, 4, 1)
        rng = np.random.default_rng(5)
        words = c.encode_indices(rng.integers(0, c.used_size, size=20))
        m = ac.LedModel(bandwidth_3db=20e6)  # low-pass only, no saturation
        fs = g.sample_rate
        whole = ac.led_transfer(wf.synthesize(words, g), m, fs)
        parts = wf.array_split(words, 3)
        total = sum(ac.led_transfer(wf.synthesize(p, g), m, fs) for p in parts)
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
            ideal = wf.synthesize(words, g)
            unsplit = ac.led_transfer(ideal, m, g.sample_rate)
            parts = wf.array_split(words, 3)
            split = sum(ac.led_transfer(wf.synthesize(p, g), m, g.sample_rate)
                        for p in parts)
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
