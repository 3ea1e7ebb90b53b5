"""DCO-OFDM modulation, demodulation, and PAPR tests."""

import numpy as np
import pytest
from scipy.stats import norm

from vlclink import constellations as con
from vlclink import ofdm
from vlclink.errors import InputError, ParameterError
from vlclink.waveform import Waveform


def cfg(n=64, qam=16, sigma=3.0, cp=0):
    return ofdm.OfdmConfig(n_subcarriers=n, qam_order=qam,
                           dc_bias_sigma=sigma, cyclic_prefix=cp)


def random_bits(rng, count):
    return rng.integers(0, 2, size=count)


def reference_modulate(bits, c):
    """Per-frame DCO-OFDM modulator: one Hermitian frame, one IFFT and one
    cyclic prefix per frame, then the burst-wide bias and clip."""
    width = int(np.log2(c.qam_order))
    points = ofdm.qam_constellation(c.qam_order)
    frames = points[con.bits_to_indices(bits, width)].reshape(
        -1, c.data_carriers)
    n = c.n_subcarriers
    out = np.empty((frames.shape[0], c.frame_samples))
    for row, data in enumerate(frames):
        freq = np.zeros(n, dtype=np.complex128)
        freq[1: n // 2] = data
        freq[n // 2 + 1:] = np.conj(data[::-1])
        real = np.fft.ifft(freq, norm="ortho").real
        if c.cyclic_prefix:
            real = np.concatenate([real[-c.cyclic_prefix:], real])
        out[row] = real
    flat = out.reshape(-1)
    return np.maximum(flat + c.dc_bias_sigma * flat.std(), 0.0)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            ofdm.OfdmConfig(n_subcarriers=48)
        with pytest.raises(ParameterError):
            ofdm.OfdmConfig(n_subcarriers=4)
        with pytest.raises(ParameterError):
            ofdm.OfdmConfig(n_subcarriers=64, qam_order=8)

    def test_bits_per_frame(self):
        assert cfg(n=64, qam=16).bits_per_frame == 31 * 4


class TestModulate:
    def test_hermitian_frame_is_real(self):
        rng = np.random.default_rng(0)
        data = rng.normal(size=31) + 1j * rng.normal(size=31)
        frame = ofdm.hermitian_frame(data, 64)
        time = np.fft.ifft(frame, norm="ortho")
        assert np.abs(time.imag).max() < 1e-12

    def test_all_zero_bits_constant_after_clip(self):
        c = cfg()
        bits = np.zeros(c.bits_per_frame, dtype=int)
        w = ofdm.dco_modulate(bits, c)
        # all-zero bits load identical symbols on every carrier; after the
        # bias the waveform is nonnegative and periodic, nothing negative
        assert w.samples.min() >= 0

    def test_nonnegative(self):
        rng = np.random.default_rng(1)
        c = cfg(sigma=2.0)
        w = ofdm.dco_modulate(random_bits(rng, c.bits_per_frame * 20), c)
        assert w.samples.min() >= 0

    def test_clip_fraction_sigma3(self):
        rng = np.random.default_rng(2)
        c = ofdm.OfdmConfig(n_subcarriers=256, qam_order=16, dc_bias_sigma=3.0)
        n_frames = int(np.ceil(1_000_000 / c.frame_samples))
        bits = random_bits(rng, c.bits_per_frame * n_frames)
        flat_bias = 3.0
        w = ofdm.dco_modulate(bits, c)
        clipped = np.mean(w.samples == 0.0)
        expected = norm.cdf(-flat_bias)
        assert clipped == pytest.approx(expected, rel=0.25)

    @pytest.mark.parametrize("qam", [4, 16, 64])
    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("cp", [0, 8])
    @pytest.mark.parametrize("n_frames", [1, 64])
    def test_burst_matches_per_frame_reference(self, qam, n, cp, n_frames):
        c = cfg(n=n, qam=qam, cp=cp)
        rng = np.random.default_rng([qam, n, cp, n_frames])
        bits = random_bits(rng, c.bits_per_frame * n_frames)
        w = ofdm.dco_modulate(bits, c)
        assert w.samples.tobytes() == reference_modulate(bits, c).tobytes()

    def test_hermitian_frame_stack_is_row_by_row(self):
        rng = np.random.default_rng(8)
        data = rng.normal(size=(5, 31)) + 1j * rng.normal(size=(5, 31))
        stack = ofdm.hermitian_frame(data, 64)
        assert stack.shape == (5, 64)
        for row, frame in zip(data, stack):
            assert np.array_equal(ofdm.hermitian_frame(row, 64), frame)

    def test_bit_length_mismatch(self):
        with pytest.raises(InputError):
            ofdm.dco_modulate([0, 1, 1], cfg())


class TestDemodulate:
    def test_noiseless_loopback(self):
        rng = np.random.default_rng(3)
        for qam in (4, 16, 64):
            c = cfg(qam=qam)
            bits = random_bits(rng, c.bits_per_frame * 8)
            w = ofdm.dco_modulate(bits, c)
            back = ofdm.dco_demodulate(w, c)
            assert np.array_equal(back, bits)

    def test_dispersive_channel_with_prefix(self):
        rng = np.random.default_rng(4)
        c = cfg(n=64, qam=16, cp=8)
        bits = random_bits(rng, c.bits_per_frame * 10)
        w = ofdm.dco_modulate(bits, c)
        h = np.array([0.8, 0.15, 0.05])
        rx = np.convolve(w.samples, h)[: w.samples.size]
        back = ofdm.dco_demodulate(Waveform(rx, w.sample_rate), c,
                                   channel_response=h)
        assert np.array_equal(back, bits)

    def test_short_prefix_warns(self):
        rng = np.random.default_rng(5)
        c = cfg(n=64, qam=4, cp=1)
        bits = random_bits(rng, c.bits_per_frame * 2)
        w = ofdm.dco_modulate(bits, c)
        h = np.array([0.7, 0.2, 0.1])
        rx = np.convolve(w.samples, h)[: w.samples.size]
        with pytest.warns(RuntimeWarning):
            ofdm.dco_demodulate(Waveform(rx, w.sample_rate), c,
                                channel_response=h)

    def test_16qam_awgn_matches_closed_form(self):
        rng = np.random.default_rng(6)
        ebn0_db = 10.5
        c = ofdm.OfdmConfig(n_subcarriers=256, qam_order=16, dc_bias_sigma=4.0)
        n_frames = 420  # ~2e5 bits
        bits = random_bits(rng, c.bits_per_frame * n_frames)
        w = ofdm.dco_modulate(bits, c)
        # per-carrier symbol energy is 1 (ortho FFT); time-domain AWGN of
        # variance s2 gives per-carrier noise variance s2, so Eb/N0 = 1/(4 s2)
        ebn0 = 10 ** (ebn0_db / 10)
        sigma = np.sqrt(1.0 / (4 * ebn0))
        noisy = w.samples + rng.standard_normal(w.samples.size) * sigma
        back = ofdm.dco_demodulate(Waveform(noisy, w.sample_rate), c)
        ber = np.mean(back != bits)
        theory = ofdm.qam_ber_awgn(16, ebn0)
        assert theory / 2 <= ber <= theory * 2


class TestPapr:
    def test_constant_is_one(self):
        w = Waveform(np.full(100, 0.3), 1.0)
        assert ofdm.papr_waveform(w) == pytest.approx(1.0)

    def test_single_pulse_q8(self):
        samples = np.zeros(8)
        samples[2] = 1.0
        assert ofdm.papr_waveform(Waveform(samples, 1.0)) == pytest.approx(8.0)

    def test_ofdm_preclip_papr_naturally_high(self):
        # real Hermitian OFDM at N=256: extreme-value statistics put the
        # per-frame PAPR median above 9 dB; 99% of frames clear ~7.8 dB
        rng = np.random.default_rng(7)
        c = ofdm.OfdmConfig(n_subcarriers=256, qam_order=16, dc_bias_sigma=0.0)
        paprs = []
        n_frames = 1000
        for _ in range(n_frames):
            bits = random_bits(rng, c.bits_per_frame)
            data = ofdm.qam_constellation(16)[
                con.bits_to_indices(bits, 4)
            ]
            time = np.fft.ifft(ofdm.hermitian_frame(data, 256), norm="ortho").real
            paprs.append(ofdm.papr_waveform(Waveform(time, 1.0)))
        paprs = np.array(paprs)
        assert np.mean(paprs > 6.0) >= 0.97
        assert np.mean(paprs > 8.0) >= 0.60
        assert np.median(paprs) > 8.0

    def test_window_validation(self):
        w = Waveform(np.ones(10), 1.0)
        with pytest.raises(ParameterError):
            ofdm.papr_waveform(w, window_samples=20)


class TestQamMapping:
    def test_gray_neighbors_differ_by_one_bit(self):
        points = ofdm.qam_constellation(16)
        spacing = 2.0 / np.sqrt(10.0)  # unit-energy 16-QAM grid step
        for a in range(16):
            for b in range(a + 1, 16):
                if abs(abs(points[a] - points[b]) - spacing) < 1e-9:
                    assert bin(a ^ b).count("1") == 1
        decided = ofdm._qam_decide(points, 16)
        assert np.array_equal(decided, np.arange(16))

    def test_table_is_shared_and_read_only(self):
        points = ofdm.qam_constellation(16)
        assert ofdm.qam_constellation(16) is points
        with pytest.raises(ValueError):
            points[0] = 0.0

    def test_decide_roundtrip_all_orders(self):
        for order in (4, 16, 64):
            points = ofdm.qam_constellation(order)
            assert np.array_equal(
                ofdm._qam_decide(points, order), np.arange(order)
            )
            assert np.abs((np.abs(points) ** 2).mean() - 1.0) < 1e-12
