"""Waveform synthesis, interleaving, dimming, and array-splitting tests."""

import numpy as np
import pytest

from vlclink import constellations as con
from vlclink import waveform as wf
from vlclink.errors import CapacityError, InputError, ParameterError


def geo(sps=4, f=1, slot=1e-6):
    return wf.SlotGeometry(slot_duration=slot, samples_per_slot=sps,
                           overlap_factor=f)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(ParameterError):
            wf.SlotGeometry(0.0, 4)
        with pytest.raises(ParameterError):
            wf.SlotGeometry(1e-6, 4, overlap_factor=3)
        with pytest.raises(ParameterError):
            wf.SlotGeometry(1e-6, 4, overlap_factor=0)

    def test_sample_rate(self):
        g = geo(sps=8, slot=2e-6)
        assert g.sample_rate == pytest.approx(4e6)


class TestSynthesize:
    def test_ppm_f1_single_slot(self):
        g = geo(sps=4, f=1)
        w = wf.synthesize(np.array([[1, 0, 0, 0]]), g, peak=2.0)
        expected = np.concatenate([np.full(4, 2.0), np.zeros(12)])
        assert np.array_equal(w, expected)

    def test_overlap_creates_two_level_region(self):
        # adjacent PPM pulses with F=2 overlap into a 2-level region
        g = geo(sps=4, f=2)
        w = wf.synthesize(np.array([[1, 0, 0, 0], [1, 0, 0, 0]]), g)
        per_slot = w.reshape(-1, 4)[:, 0]
        # pulse 1 covers slots 0-1, pulse 2 covers slots 4-5; no overlap here,
        # but within one symbol 1100 they do
        w2 = wf.synthesize(np.array([[1, 1, 0, 0]]), g)
        per_slot2 = w2.reshape(-1, 4)[:, 0]
        assert per_slot2.tolist() == [1, 2, 1, 0, 0]
        assert per_slot.max() == 1

    def test_mppm_1100_f2_peak(self):
        g = geo(sps=4, f=2)
        w = wf.synthesize(np.array([[1, 1, 0, 0]]), g, peak=1.0)
        assert w.max() == pytest.approx(2.0)

    def test_trailing_pad_is_f_minus_1_slots(self):
        g = geo(sps=6, f=3, slot=1e-6)
        w = wf.synthesize(np.array([[0, 1, 0, 0]]), g)
        assert w.size == (4 + 2) * 6

    def test_superposition_linearity(self):
        rng = np.random.default_rng(5)
        g = geo(sps=8, f=2)
        a = rng.integers(0, 3, size=(6, 5))
        b = rng.integers(0, 3, size=(6, 5))
        wa = wf.synthesize(a, g)
        wb = wf.synthesize(b, g)
        wab = wf.synthesize(a + b, g)
        assert np.allclose(wa + wb, wab)

    def test_nonnegative_across_schemes(self):
        rng = np.random.default_rng(6)
        for c in [con.build_ppm(4), con.build_eppm(7, 3),
                  con.build_meppm(7, 3, 3, use_complements=True)]:
            idx = rng.integers(0, c.used_size, size=11)
            words = c.encode_indices(idx)
            for f in (1, 2, 10):
                g = geo(sps=2 * f, f=f)
                assert wf.synthesize(words, g).min() >= 0

    def test_bad_codeword_shape(self):
        with pytest.raises(InputError):
            wf.synthesize(np.zeros(4), geo())

    @pytest.mark.parametrize("dtype", [np.int16, np.float64])
    @pytest.mark.parametrize("f", [1, 2])
    def test_samples_never_alias_read_only_codewords(self, dtype, f):
        # a sweep's points synthesize from one shared, read-only drive
        words = np.array([[[2, 0, 1], [0, 1, 1]]], dtype=dtype)
        words.flags.writeable = False
        w = wf.synthesize(words, geo(sps=2 * f, f=f), peak=3.0)
        assert w.flags.writeable and not np.shares_memory(w, words)
        w *= 2.0  # the caller owns the samples
        assert w.reshape(-1, 2 * f)[:, 0].tolist()[:6] == (
            [12, 0, 6, 0, 6, 6] if f == 1 else [12, 12, 6, 6, 6, 12])


    @pytest.mark.parametrize("f", [1, 3])
    def test_out_receives_the_samples(self, f):
        words = np.array([[[2, 0, 1], [0, 1, 1]], [[1, 1, 0], [0, 0, 2]]],
                         dtype=np.int16)
        g = geo(sps=2 * f, f=f)
        fresh = wf.synthesize(words, g, peak=0.3)
        out = np.full(fresh.shape, np.nan)
        assert wf.synthesize(words, g, peak=0.3, out=out) is out
        assert out.tobytes() == fresh.tobytes()
        with pytest.raises(ValueError):
            wf.synthesize(words, g, out=np.empty(fresh.size + 1))

    @pytest.mark.parametrize("f", [1, 3])
    def test_one_sample_a_slot_is_each_slots_level(self, f):
        words = np.array([[[2, 0, 1], [0, 1, 1]], [[1, 1, 0], [0, 0, 2]]],
                         dtype=np.int16)
        g = geo(sps=2 * f, f=f)
        levels = wf.synthesize(words, g, peak=0.3)[..., ::g.samples_per_slot]
        assert wf.synthesize(words, g, peak=0.3, sps=1).tobytes() == (
            levels.tobytes())
        out = np.full(levels.shape, np.nan)
        assert wf.synthesize(words, g, peak=0.3, out=out, sps=1) is out
        assert out.tobytes() == levels.tobytes()


class TestInterleaver:
    def test_depth_1_identity(self):
        c = con.build_eppm(7, 3)
        words = c.symbols[:4]
        assert np.array_equal(wf.interleave(words, 1), words)

    def test_row_column_example(self):
        words = np.array([[0, 1, 2, 3], [4, 5, 6, 7]])
        out = wf.interleave(words, 2)
        # column-wise read of a 2x4 block
        assert out.reshape(-1).tolist() == [0, 4, 1, 5, 2, 6, 3, 7]
        back = wf.deinterleave_values(out, 2, 4)
        assert np.array_equal(back, words)

    @pytest.mark.parametrize("depth", [2, 4, 8])
    def test_roundtrip(self, depth):
        rng = np.random.default_rng(depth)
        words = rng.integers(0, 4, size=(depth * 3, 7))
        back = wf.deinterleave_values(wf.interleave(words, depth), depth, 7)
        assert np.array_equal(back, words)

    def test_values_roundtrip(self):
        rng = np.random.default_rng(1)
        vals = rng.normal(size=8 * 7 * 2)
        inter = wf.interleave(vals.reshape(-1, 7), 8).reshape(-1)
        assert np.allclose(wf.deinterleave_values(inter, 8, 7), vals)

    def test_length_error(self):
        with pytest.raises(InputError):
            wf.interleave(np.zeros((3, 7)), 4)

    def test_interference_concentration_lower_with_depth(self):
        # a 3-tap dispersive slot channel smears each symbol forward; with
        # interleaving the leaked energy splits across several victims, so
        # the worst single-victim share of any symbol's leakage drops
        c = con.build_eppm(7, 3)
        rng = np.random.default_rng(9)
        words = c.symbols[rng.integers(0, 7, size=16)]
        taps = np.array([0.7, 0.2, 0.1])

        def worst_victim_fraction(depth):
            fractions = []
            for src in range(len(words)):
                only = np.zeros_like(words)
                only[src] = words[src]
                tx = wf.interleave(only, depth)
                smeared = np.convolve(tx.reshape(-1).astype(float), taps)
                rx = smeared[: tx.size].reshape(tx.shape)
                rx = wf.deinterleave_values(rx, depth, 7)
                energy = (rx ** 2).sum(axis=1)
                energy[src] = 0.0
                if energy.sum() > 0:
                    fractions.append(energy.max() / energy.sum())
            return max(fractions)

        assert worst_victim_fraction(1) == pytest.approx(1.0)
        assert worst_victim_fraction(4) < worst_victim_fraction(1)


class TestDimming:
    def test_eppm_exact_ratio(self):
        c = con.build_eppm(7, 3)
        res = wf.apply_dimming(c, 3 / 7)
        assert res.achieved_ratio == pytest.approx(3 / 7)
        assert res.constellation.k == 3

    def test_eppm_q15_quarter(self):
        c = con.build_eppm(15, 7)
        res = wf.apply_dimming(c, 0.25)
        assert res.constellation.k == 4
        assert res.achieved_ratio == pytest.approx(4 / 15)

    def test_target_one_rejected(self):
        c = con.build_eppm(2, 1)
        with pytest.raises(ParameterError):
            wf.apply_dimming(c, 1.0)

    def test_target_range(self):
        c = con.build_eppm(7, 3)
        with pytest.raises(ParameterError):
            wf.apply_dimming(c, 0.0)

    def test_ppm_scales(self):
        c = con.build_ppm(8)
        res = wf.apply_dimming(c, 1 / 16)
        assert res.constellation is c
        assert res.power_scale == pytest.approx(0.5)

    def test_meppm_scales(self):
        c = con.build_meppm(7, 3, 4, use_complements=True)
        res = wf.apply_dimming(c, 0.25)
        assert res.constellation is c
        assert 0 < res.power_scale <= 1

    def test_waveform_mean_ratio_matches(self):
        # constant-weight symbols: mean power / peak-unit = K/Q to 1e-9
        c = con.build_eppm(7, 3)
        rng = np.random.default_rng(2)
        words = c.symbols[rng.integers(0, 7, size=200)]
        w = wf.synthesize(words, geo(sps=4, f=1), peak=1.0)
        assert w.mean() == pytest.approx(3 / 7, abs=1e-9)


class TestArraySplit:
    def test_binary_identity(self):
        c = con.build_eppm(7, 3)
        drives = wf.array_split(c.symbols[:3], n_leds=1)
        assert len(drives) == 1
        assert np.array_equal(drives[0], c.symbols[:3])

    def test_round_robin_example(self):
        drives = wf.array_split(np.array([[2, 0, 1]]), n_leds=2)
        assert drives[0].tolist() == [[1, 0, 1]]
        assert drives[1].tolist() == [[1, 0, 0]]

    def test_reconstruction_property(self):
        c = con.build_meppm(7, 3, 3, use_complements=True)
        rng = np.random.default_rng(13)
        g = geo(sps=4, f=2)
        for _ in range(100):
            idx = rng.integers(0, c.used_size, size=8)
            words = c.encode_indices(idx)
            whole = wf.synthesize(words, g)
            parts = wf.array_split(words, n_leds=3)
            total = sum(wf.synthesize(p, g) for p in parts)
            assert np.array_equal(whole, total)

    def test_capacity_error(self):
        with pytest.raises(CapacityError):
            wf.array_split(np.array([[3, 0, 0]]), n_leds=2)

    @pytest.mark.parametrize("n_leds", [1, 2, 3, 7, 21])
    def test_matches_slot_loop(self, n_leds):
        rng = np.random.default_rng(n_leds)
        for shape in [(0, 7), (1, 7), (40, 7), (5, 6, 7)]:
            words = rng.integers(0, n_leds + 1, size=shape)
            drives = wf.array_split(words, n_leds)
            assert [d.dtype for d in drives] == [np.int16] * n_leds
            assert np.array_equal(np.stack(drives),
                                  slot_loop_split(words, n_leds))

    def test_negative_amplitude(self):
        with pytest.raises(ParameterError):
            wf.array_split(np.array([[1, -1, 0]]), n_leds=2)


def slot_loop_split(words, n_leds):
    """Round-robin split one slot and one pulse at a time; a stack of
    frames (3-D) restarts at the first LED in each frame."""
    if words.ndim == 3:
        return np.stack([slot_loop_split(w, n_leds) for w in words], axis=1)
    flat = words.reshape(-1)
    drives = np.zeros((n_leds, flat.size), dtype=np.int16)
    ptr = 0
    for j, a in enumerate(flat):
        for _ in range(int(a)):
            drives[ptr, j] = 1
            ptr = (ptr + 1) % n_leds
    return drives.reshape((n_leds,) + words.shape)
