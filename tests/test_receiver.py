"""Receiver front end and decoder tests."""

import math

import numpy as np
import pytest

from vlclink import constellations as con
from vlclink import receiver as rx
from vlclink import waveform as wf
from vlclink.errors import CapacityError, InputError, ParameterError


def geo(sps=4, f=1):
    return wf.SlotGeometry(1e-6, sps, f)


# every (samples_per_slot, F) pair that SlotGeometry admits (sps >= 2F)
SPS_F = [(sps, f) for sps in (2, 4, 6, 20) for f in (1, 2) if sps >= 2 * f]


class TestSlotStatistics:
    def test_ppm_f1_proportional(self):
        g = geo()
        w = wf.synthesize(np.array([[1, 0, 0, 0]]), g, peak=2.0)
        s = rx.slot_statistics(w, g)
        assert np.allclose(s, [2.0, 0, 0, 0])

    def test_overlap_closed_form(self):
        g = geo(sps=4, f=2)
        w = wf.synthesize(np.array([[1, 1, 0, 0]]), g)
        s = rx.slot_statistics(w, g)
        expected = rx.expected_statistics(np.array([[1, 1, 0, 0]]), g)
        assert np.allclose(s, expected)

    def test_zero_waveform(self):
        g = geo()
        assert np.allclose(rx.slot_statistics(np.zeros(16), g), 0)

    def test_misaligned_length(self):
        g = geo()
        with pytest.raises(InputError):
            rx.slot_statistics(np.zeros(15), g)

    def test_non_finite_waveform(self):
        g = geo()
        for bad in (np.nan, np.inf):
            samples = np.zeros(16)
            samples[5] = bad
            with pytest.raises(InputError):
                rx.slot_statistics(samples, g)

    def test_per_symbol_view_drops_pad(self):
        # F-1 = 1 trailing pad slot, which the receiver leaves out of the
        # symbol blocks it decodes
        g = geo(sps=4, f=2)
        w = wf.synthesize(np.array([[1, 0, 0, 0], [0, 1, 0, 0]]), g)
        s = rx.slot_statistics(w, g)
        assert s.shape == (2 * 4 + 1,)
        out = rx.StreamReceiver(con.build_ppm(4), g).decode_stats(s)
        assert out.tolist() == [0, 1]

    def test_random_streams_match_expected(self):
        rng = np.random.default_rng(3)
        for f in (1, 2, 4):
            g = geo(sps=2 * f, f=f)
            words = rng.integers(0, 3, size=(9, 5))
            w = wf.synthesize(words, g, peak=0.7)
            s = rx.slot_statistics(w, g)
            assert np.allclose(s, rx.expected_statistics(words, g, 0.7))

    @staticmethod
    def varying_samples(kind, shape, seed):
        rng = np.random.default_rng(seed)
        if kind == "normal":
            return rng.normal(0.3, 2.0, size=shape)
        return rng.integers(-1000, 1000, size=shape)

    @staticmethod
    def fsum_reference(row, sps, f):
        """Slot means by `math.fsum` (each correctly rounded), their F-slot
        moving sums, and a bound on the error a running-sum pass may add:
        an n-term float sum errs by at most n·eps times its sum of
        magnitudes, and the statistic at slot k is a difference of two
        running sums over at most k+1 slot means, each itself a sum of
        `sps` samples."""
        slots = np.asarray(row, dtype=np.float64).reshape(-1, sps)
        means = np.array([math.fsum(s) / sps for s in slots])
        mags = np.array([math.fsum(np.abs(s)) / sps for s in slots])
        eps = np.finfo(np.float64).eps
        if f == 1:
            return means, (sps + 1) * eps * mags
        k = np.arange(means.size)
        moving = np.array([math.fsum(means[max(0, i - f + 1):i + 1]) for i in k])
        tol = 2 * (k + sps + 3) * eps * np.cumsum(mags)
        return moving, tol

    @pytest.mark.parametrize("kind", ["normal", "integer"])
    @pytest.mark.parametrize("sps, f", SPS_F)
    def test_varying_slots_match_fsum(self, sps, f, kind):
        # samples that vary within a slot, as noise does, as one row and
        # as a stack, each value within the running-sum error bound of an
        # exactly rounded reference
        g = geo(sps=sps, f=f)
        stack = self.varying_samples(kind, (3, 37 * sps), seed=sps * 10 + f)
        for y, rows in ((stack[1], [stack[1]]), (stack, stack)):
            s = np.atleast_2d(rx.slot_statistics(y, g))
            assert s.shape == (len(rows), 37)
            for got, row in zip(s, rows):
                want, tol = self.fsum_reference(row, sps, f)
                assert np.all(np.abs(got - want) <= tol)
                if kind == "integer" and f == 1:
                    # an integer slot sums exactly, so only the division rounds
                    assert np.array_equal(got, want)

    @pytest.mark.parametrize("sps, f", SPS_F)
    def test_row_sums_do_not_depend_on_layout(self, sps, f):
        # a row's statistics are bit-identical received alone, as the middle
        # row of a stack, and from a buffer that starts one element late
        g = geo(sps=sps, f=f)
        stack = self.varying_samples("normal", (3, 513 * sps), seed=sps + f)
        alone = rx.slot_statistics(stack[1].copy(), g)
        shifted = np.empty(stack.shape[1] + 1)[1:]
        shifted[:] = stack[1]
        assert np.array_equal(rx.slot_statistics(stack, g)[1], alone)
        assert np.array_equal(rx.slot_statistics(shifted, g), alone)

    @pytest.mark.parametrize("f", [1, 2])
    def test_one_sample_a_slot_is_the_slot_mean(self, f):
        # integer means add exactly, so the F-slot sums are exact too
        y = np.random.default_rng(f).integers(-9, 10, size=(3, 37)).astype(
            np.float64)
        s = rx.slot_statistics(y, geo(sps=4, f=f), sps=1)
        want = y.copy()
        if f == 2:
            want[:, 1:] += y[:, :-1]
        assert np.array_equal(s, want)
        assert not np.shares_memory(s, y)


class TestCorrelationDecoder:
    def test_noiseless_loopback_eppm7(self):
        c = con.build_eppm(7, 3)
        out = rx.CorrelationDecoder(c).decode_block(c.symbols)
        assert out.tolist() == list(range(c.size))

    def test_dc_offset_invariance(self):
        c = con.build_eppm(7, 3)
        rng = np.random.default_rng(0)
        dec = rx.CorrelationDecoder(c)
        s = rng.normal(size=(200, 7))
        offsets = rng.uniform(-5, 5, size=(200, 1))
        assert np.array_equal(dec.decode_block(s + offsets), dec.decode_block(s))

    def test_scale_invariance(self):
        c = con.build_mppm(6, 3)
        rng = np.random.default_rng(1)
        dec = rx.CorrelationDecoder(c)
        s = rng.normal(size=(200, 6))
        scales = rng.uniform(0.01, 100, size=(200, 1))
        assert np.array_equal(dec.decode_block(s * scales), dec.decode_block(s))

    def test_tie_breaks_to_lowest_index(self):
        c = con.build_ppm(4)
        assert rx.CorrelationDecoder(c).decode_block(np.zeros((1, 4))) == [0]


class TestMlDecoder:
    def test_loopback_all_schemes(self):
        for c in [con.build_ppm(8), con.build_mppm(6, 2), con.build_eppm(7, 3),
                  con.build_meppm(7, 3, 2, use_complements=True)]:
            words = np.stack([c.codeword_at(i) for i in range(c.used_size)])
            out = rx.MlDecoder(c).decode_block(words)
            assert out.tolist() == list(range(c.used_size))

    def test_equals_correlation_on_equal_energy(self):
        rng = np.random.default_rng(7)
        for c in [con.build_ppm(8), con.build_mppm(7, 3), con.build_eppm(7, 3)]:
            corr = rx.CorrelationDecoder(c)
            ml = rx.MlDecoder(c)
            stats = rng.normal(size=(500, c.q))
            assert np.array_equal(
                corr.decode_block(stats), ml.decode_block(stats)
            )

    def test_capacity_limit(self):
        big = con.build_meppm(7, 3, 21, use_complements=True)
        with pytest.raises(CapacityError):
            rx.MlDecoder(big)

    def test_scale_invariance_equal_energy(self):
        c = con.build_eppm(7, 3)
        rng = np.random.default_rng(8)
        ml = rx.MlDecoder(c)
        s = rng.normal(size=(100, 7))
        scales = rng.uniform(0.1, 10, size=(100, 1))
        assert np.array_equal(ml.decode_block(s * scales), ml.decode_block(s))


class TestMeppmComponents:
    @pytest.mark.parametrize("use_complements", [False, True])
    def test_exhaustive_noiseless_n2(self, use_complements):
        c = con.build_meppm(7, 3, 2, use_complements=use_complements)
        dec = rx.MeppmComponentDecoder(c)
        words = np.stack([c.codeword_at(i) for i in range(c.size)])
        assert dec.decode_block(words).tolist() == list(range(c.size))

    def test_counts_reconstruct_sum(self):
        c = con.build_meppm(7, 3, 2, use_complements=True)
        dec = rx.MeppmComponentDecoder(c)
        words = np.stack([c.codeword_at(i) for i in range(c.size)])
        counts = dec._greedy(words.astype(float))
        assert np.array_equal(counts @ c.components, words)

    def test_n1_equals_correlation_on_eppm(self):
        meppm = con.build_meppm(7, 3, 1)
        eppm = con.build_eppm(7, 3)
        dec_c = rx.MeppmComponentDecoder(meppm)
        dec_e = rx.CorrelationDecoder(eppm)
        rng = np.random.default_rng(4)
        stats = rng.normal(loc=0.4, scale=0.6, size=(400, 7))
        assert np.array_equal(dec_c.decode_block(stats), dec_e.decode_block(stats))

    def test_high_snr_within_3x_of_ml(self):
        c = con.build_meppm(7, 3, 3, use_complements=False)
        dec = rx.MeppmComponentDecoder(c)
        ml = rx.MlDecoder(c)
        rng = np.random.default_rng(11)
        n_tr = 30_000
        idx = rng.integers(0, c.used_size, size=n_tr)
        clean = c.symbols[idx].astype(float)
        # 30 dB on a unit pulse: sigma = 10**(-30/20)
        noisy = clean + rng.standard_normal(clean.shape) * 10 ** (-30 / 20) * 3
        err_c = np.mean(dec.decode_block(noisy) != idx)
        err_m = np.mean(ml.decode_block(noisy) != idx)
        assert err_c <= max(3 * err_m, 3 / n_tr)

    def test_noiseless_n21_random(self):
        c = con.build_meppm(7, 3, 21, use_complements=True)
        dec = rx.MeppmComponentDecoder(c)
        rng = np.random.default_rng(2)
        idx = rng.integers(0, c.used_size, size=100)
        words = np.stack([c.codeword_at(int(i)) for i in idx])
        assert np.array_equal(dec.decode_block(words), idx)

    def test_rejects_non_meppm(self):
        with pytest.raises(ParameterError):
            rx.MeppmComponentDecoder(con.build_ppm(4))

    def test_rejects_meppm_without_lattice(self):
        with pytest.raises(ParameterError):
            rx.MeppmComponentDecoder(con.build_meppm(8, 4, 2, True))

    def test_table_and_lattice_decide_alike(self):
        table = con.build_meppm(7, 3, 4, use_complements=True)
        implicit = con.build_meppm(7, 3, 4, use_complements=True,
                                   max_table_size=1)
        assert table.is_materialized and not implicit.is_materialized
        rng = np.random.default_rng(5)
        idx = rng.integers(0, table.used_size, size=2000)
        noisy = table.encode_indices(idx) + rng.normal(scale=0.4,
                                                       size=(2000, 7))
        decided = rx.MeppmComponentDecoder(table).decode_block(noisy)
        assert np.array_equal(
            decided, rx.MeppmComponentDecoder(implicit).decode_block(noisy))
        assert 0 < np.count_nonzero(decided != idx) < 2000

    def test_greedy_matches_residual_reference(self):
        c = con.build_meppm(7, 3, 21, use_complements=True)
        dec = rx.MeppmComponentDecoder(c)
        rng = np.random.default_rng(8)
        idx = rng.integers(0, c.used_size, size=3000)
        noisy = c.encode_indices(idx) + rng.normal(scale=0.6, size=(3000, 7))
        counts = dec._greedy(noisy)
        assert np.array_equal(counts, residual_greedy(dec, noisy))
        # the noise is strong enough to make the peeling miss on some rows
        assert not np.array_equal(counts @ c.components, c.encode_indices(idx))


    @pytest.mark.parametrize("n, use_complements", [(21, True), (5, False)])
    def test_greedy_counts_match_stacked_picks(self, n, use_complements):
        c = con.build_meppm(7, 3, n, use_complements=use_complements)
        dec = rx.MeppmComponentDecoder(c)
        rng = np.random.default_rng(n)
        idx = rng.integers(0, c.used_size, size=500)
        noisy = c.encode_indices(idx) + rng.normal(scale=0.6, size=(500, 7))
        assert np.array_equal(dec._greedy(noisy), stacked_greedy(dec, noisy))


def stacked_greedy(dec, calibrated):
    """Greedy peeling that counts its picks by stacking them and comparing
    the stack with every component."""
    scores = calibrated @ dec.templates.T - dec._half_energy
    picks = []
    for _ in range(dec.constellation.n):
        pick = scores.argmax(axis=1)
        picks.append(pick)
        scores -= dec._gram[pick]
    components = np.arange(dec.templates.shape[0])
    return (np.stack(picks)[:, :, None] == components).sum(axis=0)


def residual_greedy(dec, calibrated):
    """Greedy peeling that recomputes every score from the residual."""
    r = calibrated.copy()
    counts = np.zeros((len(r), len(dec.templates)), dtype=np.int64)
    for _ in range(dec.constellation.n):
        pick = np.argmax(r @ dec.templates.T - dec._half_energy, axis=1)
        counts[np.arange(len(r)), pick] += 1
        r -= dec.templates[pick]
    return counts


DECISION_CASES = [
    (con.build_eppm(7, 3), "correlation", 3),
    (con.build_meppm(7, 3, 2, use_complements=True), "ml", 3),
    (con.build_meppm(7, 3, 21, use_complements=True), "components", 10),
]


class TestDecideBlock:
    @pytest.mark.parametrize("c, decoder, f", DECISION_CASES,
                             ids=["correlation", "ml", "components"])
    def test_decode_block_ranks_decided_codewords(self, c, decoder, f):
        dec = rx.StreamReceiver(c, geo(2 * f, f), decoder=decoder)._decoder
        rng = np.random.default_rng(5)
        idx = rng.integers(0, c.used_size, size=500)
        noisy = c.encode_indices(idx) + rng.normal(scale=0.7, size=(500, 7))
        words = dec.decide_block(noisy)
        assert words.dtype == np.int64 and words.shape == (500, 7)
        assert np.array_equal(dec.decode_block(noisy), c.index_of(words))
        assert np.any(dec.decode_block(noisy) != idx)

    @pytest.mark.parametrize("c, decoder, f", DECISION_CASES,
                             ids=["correlation", "ml", "components"])
    def test_overlapped_loop_matches_index_feedback(self, c, decoder, f):
        g = wf.SlotGeometry(1e-6, 2 * f, f)
        receiver = rx.StreamReceiver(c, g, decoder=decoder)
        rng = np.random.default_rng(f)
        idx = rng.integers(0, c.used_size, size=(5, 16))
        clean = np.stack([rx.slot_statistics(
            wf.synthesize(c.encode_indices(row), g), g) for row in idx])
        frames = clean + rng.normal(scale=0.3, size=clean.shape)
        out = receiver.decode_stats(frames)
        assert np.array_equal(out, index_feedback_decode(receiver, frames))
        assert np.any(out != idx)


    @pytest.mark.parametrize("decoder", [rx.CorrelationDecoder,
                                         rx.MlDecoder])
    def test_chunked_scoring_matches_one_call(self, monkeypatch, decoder):
        c = con.build_mppm(7, 3)
        dec = decoder(c)
        rng = np.random.default_rng(11)
        idx = rng.integers(0, c.used_size, size=500)
        noisy = c.encode_indices(idx) + rng.normal(scale=0.6, size=(500, 7))
        one_call = dec.decode_block(noisy)
        # three rows of 35 scores a chunk: 167 chunks, the last of two rows
        monkeypatch.setattr(rx, "ML_SIZE_LIMIT", 3 * c.size)
        assert np.array_equal(dec.decode_block(noisy), one_call)
        assert np.array_equal(dec.decode_block(noisy[:0]), one_call[:0])
        assert np.any(one_call != idx)


def index_feedback_decode(receiver, frames):
    """The decision-feedback loop that ranks every decision to an index
    and unranks it back to the codeword it cancels."""
    c = receiver.constellation
    q = c.q
    res = frames.copy()
    n_sym = (frames.shape[1] - receiver.geometry.overlap_factor + 1) // q
    out = np.empty((len(frames), n_sym), dtype=np.int64)
    for m in range(n_sym):
        lo, hi = m * q, (m + 1) * q
        amps = res[:, lo:hi] @ receiver._restore.T
        out[:, m] = receiver._decoder.decode_block(amps)
        decided = c.encode_indices(out[:, m]).astype(np.float64)
        end = min(hi + receiver._tails.shape[1], res.shape[1])
        res[:, hi:end] -= (decided @ receiver._tails)[:, : end - hi]
    return out


class TestDeinterleaveOp:
    def test_roundtrip_statistics(self):
        g = geo()
        rng = np.random.default_rng(5)
        vals = rng.normal(size=7 * 8)
        inter = wf.interleave(vals.reshape(-1, 7), 8).reshape(-1)
        assert np.allclose(wf.deinterleave_values(inter, 8, 7), vals)
        # statistics taken from an interleaved waveform come back in
        # symbol order, and the receiver decodes them as the plain stream
        c = con.build_eppm(7, 3)
        words = c.encode_indices(rng.integers(0, c.used_size, size=8))
        plain = rx.slot_statistics(wf.synthesize(words, g), g)
        mixed = rx.slot_statistics(
            wf.synthesize(wf.interleave(words, 8), g), g
        )
        assert np.allclose(wf.deinterleave_values(mixed, 8, 7), plain)
        noise = rng.normal(scale=0.3, size=plain.size)
        noisy_mixed = mixed + wf.interleave(noise.reshape(-1, 7), 8).reshape(-1)
        receiver = rx.StreamReceiver(c, g)
        out = receiver.decode_stats(wf.deinterleave_values(noisy_mixed, 8, 7))
        assert np.array_equal(out, receiver.decode_stats(plain + noise))


class TestStreamReceiver:
    @pytest.mark.parametrize("f", [1, 2, 10])
    def test_noiseless_loopback_every_scheme(self, f):
        rng = np.random.default_rng(f)
        cases = [
            (con.build_ppm(8), "correlation"),
            (con.build_mppm(6, 3), "correlation"),
            (con.build_eppm(7, 3), "correlation"),
            (con.build_meppm(7, 3, 2, use_complements=True), "components"),
        ]
        for c, dec in cases:
            g = wf.SlotGeometry(1e-6, 2 * f, f)
            idx = rng.integers(0, c.used_size, size=60)
            w = wf.synthesize(c.encode_indices(idx), g, peak=2.5)
            out = rx.StreamReceiver(
                c, g, decoder=dec, kernel=2.5 * rx.pulse_kernel(f)
            ).decode_waveform(w)
            assert np.array_equal(out, idx)

    def test_loopback_through_interleaver(self):
        c = con.build_eppm(7, 3)
        g = geo()
        rng = np.random.default_rng(9)
        idx = rng.integers(0, c.used_size, size=64)
        words = wf.interleave(c.encode_indices(idx), 8)
        stats = rx.slot_statistics(wf.synthesize(words, g), g)
        out = rx.StreamReceiver(c, g).decode_stats(
            wf.deinterleave_values(stats, 8, 7))
        assert np.array_equal(out, idx)

    def test_lockstep_frames_match_single_frames(self):
        c = con.build_meppm(7, 3, 21, use_complements=True)
        g = wf.SlotGeometry(1e-6, 20, 10)
        receiver = rx.StreamReceiver(c, g, decoder="components")
        rng = np.random.default_rng(4)
        sent, frames = [], []
        for _ in range(6):
            idx = rng.integers(0, c.used_size, size=12)
            clean = rx.slot_statistics(wf.synthesize(c.encode_indices(idx), g), g)
            sent.append(idx)
            frames.append(clean + rng.normal(scale=0.1, size=clean.size))
        frames = np.stack(frames)
        # frame 2 opens with a block far below every codeword: its restored
        # amplitudes miss the decision by far, and the receiver still
        # cancels the decided codeword's tail from the later blocks
        frames[2, :7] = -40.0
        first = np.linalg.solve(rx.restoration_matrix(rx.pulse_kernel(10), 7),
                                frames[2, :7])
        lockstep = receiver.decode_stats(frames)
        assert lockstep.shape == (6, 12)
        assert np.abs(first - c.codeword_at(int(lockstep[2, 0]))).sum() > 3.5
        for frame, out in zip(frames, lockstep):
            assert np.array_equal(receiver.decode_stats(frame), out)
        # some frames decode cleanly and some do not
        errors = (lockstep != np.stack(sent)).sum(axis=1)
        assert errors.min() == 0 and errors.max() > 0

    @pytest.mark.parametrize("f", [1, 3])
    def test_empty_stream_decodes_to_no_symbols(self, f):
        g = wf.SlotGeometry(1e-6, 2 * f, f)
        receiver = rx.StreamReceiver(con.build_eppm(7, 3), g)
        assert receiver.decode_stats(np.zeros(f - 1)).shape == (0,)
        assert receiver.decode_stats(np.zeros((2, f - 1))).shape == (2, 0)

    @pytest.mark.parametrize("first", [0.0, -1.0])
    def test_kernel_must_respond_in_first_slot(self, first):
        with pytest.raises(ParameterError):
            rx.StreamReceiver(con.build_eppm(7, 3), geo(), kernel=[first])

    def test_correlation_close_to_ml_awgn(self):
        # identical decisions on equal-energy codes, so rates agree exactly
        c = con.build_eppm(7, 3)
        rng = np.random.default_rng(12)
        n_tr = 100_000
        idx = rng.integers(0, c.used_size, size=n_tr)
        clean = c.symbols[idx].astype(float)
        sigma = 10 ** (-10 / 20)  # slot SNR 10 dB
        noisy = clean + rng.standard_normal(clean.shape) * sigma
        ser_corr = np.mean(rx.CorrelationDecoder(c).decode_block(noisy) != idx)
        ser_ml = np.mean(rx.MlDecoder(c).decode_block(noisy) != idx)
        assert ser_corr <= 1.2 * ser_ml
        assert ser_ml <= 1.2 * ser_corr


def scipy_toeplitz_matrices(kernel, q):
    """The restoration matrix and the tails, built with scipy's toeplitz."""
    from scipy.linalg import toeplitz

    col = np.zeros(q)
    col[: min(q, kernel.size)] = kernel[:q]
    tails = toeplitz(np.r_[kernel[0], np.zeros(q - 1)],
                     np.r_[kernel, np.zeros(q - 1)])[:, q:]
    return toeplitz(col, np.zeros(q)), tails


def measured_overlap_kernel():
    """The measured slot response of the meppm21-overlap benchmark link."""
    import vlclink
    from vlclink import simkit as sk

    from test_bench_pins import WORKLOADS

    doc = WORKLOADS.Meppm21Overlap(vlclink, workdir=None).document(1)
    return sk._PulseChain(sk.config_from_document(doc))._effective_kernel()


class TestToeplitz:
    @pytest.mark.parametrize("f, kernel", [
        (2, lambda: rx.pulse_kernel(2)),
        (3, lambda: rx.pulse_kernel(3)),
        (10, lambda: rx.pulse_kernel(10)),
        (2, lambda: np.array([0.9, 0.5, 0.25])),  # shorter than Q
        (10, measured_overlap_kernel),
    ], ids=["f2", "f3", "f10", "shorter-than-q", "meppm21-overlap-measured"])
    def test_matrices_equal_scipy_toeplitz(self, f, kernel):
        kernel = np.asarray(kernel(), dtype=np.float64)
        matrix, tails = scipy_toeplitz_matrices(kernel, 7)
        assert np.array_equal(rx.restoration_matrix(kernel, 7), matrix)
        receiver = rx.StreamReceiver(con.build_eppm(7, 3),
                                     wf.SlotGeometry(1e-6, 2 * f, f),
                                     kernel=kernel)
        assert receiver._tails.shape == tails.shape
        assert np.array_equal(receiver._tails, tails)


class TestRestoration:
    @pytest.mark.parametrize("f", [2, 4, 10])
    def test_restores_exact_amplitudes(self, f):
        rng = np.random.default_rng(f)
        amps = rng.integers(0, 5, size=7).astype(float)
        kernel = rx.pulse_kernel(f)
        block_stats = np.convolve(amps, kernel)[:7]
        back = np.linalg.solve(rx.restoration_matrix(kernel, 7), block_stats)
        assert np.allclose(back, amps)

    def test_repair_complement_vector_valid(self):
        rng = np.random.default_rng(0)
        for _ in range(300):
            n = int(rng.integers(1, 22))
            c_float = rng.normal(scale=n / 2, size=7)
            c_int = np.rint(c_float).astype(np.int64)
            con._repair_lattice_vector(c_int, c_float, n, True)
            norm = int(np.abs(c_int).sum())
            assert norm <= n and (n - norm) % 2 == 0

    @pytest.mark.parametrize("use_complements", [True, False])
    def test_repair_rows_match_stepwise_reference(self, use_complements):
        rng = np.random.default_rng(3)
        n = 9
        # half-integer solves make many repair steps cost the same, so the
        # tie-break order (first entry, -1 before +1) decides them
        c_float = np.concatenate([
            rng.normal(scale=4.0, size=(300, 7)),
            rng.normal(scale=30.0, size=(50, 7)),  # far outside the ball
            rng.integers(-8, 9, size=(300, 7)) + 0.5,
        ])
        c_int = np.rint(c_float).astype(np.int64)
        expected = c_int.copy()
        for row, f in zip(expected, c_float):
            stepwise_repair(row, f, n, use_complements)
        con._repair_lattice_vector(c_int, c_float, n, use_complements)
        assert np.array_equal(c_int, expected)

    def test_repair_float_ties_keep_entry_order(self):
        # each step of both entries costs -1 exactly, but for entry 1 at
        # 8 -> 7 the float sum lands an ulp below: the first entry must
        # still take the one step the row needs, as the stepwise loop does
        c_float = np.array([-0.5, -9.6, 0.0, 0.0, 0.0, 0.0, 0.0])
        c_int = np.array([3, 8, 0, 0, 0, 0, 0])
        steps = np.abs(np.arange(7, 0, -1) + 9.6) - np.abs(np.arange(8, 1, -1) + 9.6)
        assert steps.min() < -1.0
        con._repair_lattice_vector(c_int, c_float, 10, True)
        assert c_int.tolist() == [2, 8, 0, 0, 0, 0, 0]

    def test_repair_simplex_vector_valid(self):
        rng = np.random.default_rng(1)
        for _ in range(300):
            n = int(rng.integers(1, 22))
            a_float = rng.normal(loc=n / 7, scale=1.0, size=7)
            a_int = np.rint(a_float).astype(np.int64)
            con._repair_lattice_vector(a_int, a_float, n, False)
            assert a_int.min() >= 0 and int(a_int.sum()) == n



def stepwise_repair(c_int, c_float, n, use_complements):
    """One vector at a time, one step at a time: each step takes the first
    cheapest admissible move over entries j and directions (-1, +1)."""
    if not use_complements:
        np.maximum(c_int, 0, out=c_int)
        while c_int.sum() != n:
            err = c_float - c_int
            if c_int.sum() < n:
                c_int[int(np.argmax(err))] += 1
            else:
                c_int[int(np.argmin(np.where(c_int > 0, err, np.inf)))] -= 1
        return
    while True:
        norm = int(np.abs(c_int).sum())
        if norm <= n and (n - norm) % 2 == 0:
            return
        best = None
        for j in range(c_int.size):
            for direction in (-1, 1):
                new_val = c_int[j] + direction
                new_norm = norm - abs(int(c_int[j])) + abs(new_val)
                if new_norm < norm if norm > n else new_norm <= n:
                    cost = (abs(new_val - c_float[j])
                            - abs(c_int[j] - c_float[j]))
                    if best is None or cost < best[0]:
                        best = (cost, j, direction)
        c_int[best[1]] += best[2]
