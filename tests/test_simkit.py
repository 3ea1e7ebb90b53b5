"""Monte Carlo engine, link budget, metrics, and sweep tests."""

import json
from dataclasses import replace

import numpy as np
import pytest

from vlclink import analog_chain as ac
from vlclink import constellations as con
from vlclink import ofdm
from vlclink import simkit as sk
from vlclink import waveform as wf
from vlclink.errors import ConfigError, ParameterError


def geo(sps=2, f=1, slot=1e-6):
    return wf.SlotGeometry(slot, sps, f)


def awgn_config(kind="eppm", snr_db=10.0, seed=1, **kw):
    scheme = sk.SchemeSpec(kind=kind, q=kw.pop("q", 7), k=kw.pop("k", 3),
                           n=kw.pop("n", 1),
                           use_complements=kw.pop("use_complements", False))
    return sk.TrialConfig(
        scheme=scheme,
        geometry=kw.pop("geometry", geo()),
        channel=sk.ChannelSpec(mode="awgn", slot_snr_db=snr_db),
        run=kw.pop("run", sk.RunSpec(max_bits=200_000, min_errors=150,
                                     batch_symbols=2048)),
        seed=seed,
        **kw,
    )


class TestLinkBudget:
    def test_default_formula(self):
        power = sk.illuminance_to_power(400.0, 1e-5, 300.0)
        assert power == pytest.approx(13.3e-6, rel=0.01)

    def test_aperture_linearity(self):
        a = sk.illuminance_to_power(400.0, 1e-5, 300.0)
        b = sk.illuminance_to_power(400.0, 2e-5, 300.0)
        assert b == pytest.approx(2 * a)

    def test_zero_lux_rejected(self):
        with pytest.raises(ParameterError):
            sk.illuminance_to_power(0.0, 1e-5, 300.0)

    def test_practical_preset_is_microwatts(self):
        assert 1e-6 < sk.PRACTICAL_RECEIVED_POWER < 1e-5


# identity-channel links whose LED alone causes errors: a pole at 30 ns
# slots, or a saturating curve
IMPAIRED_IDENTITY = {
    "f1-eppm": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="eppm"), geometry=geo(sps=4, slot=3e-8),
        device=ac.LED_PRESETS["phosphor"],
        channel=sk.ChannelSpec(mode="identity"),
        run=sk.RunSpec(max_bits=6_000, min_errors=10 ** 9,
                       batch_symbols=256)),
    "f2-meppm": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", n=3, use_complements=True),
        geometry=geo(sps=4, f=2), device=ac.LedModel(saturation_power=3.0),
        channel=sk.ChannelSpec(mode="identity"),
        run=sk.RunSpec(max_bits=6_000, min_errors=10 ** 9,
                       batch_symbols=24)),
    "dco-ofdm": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="dco_ofdm"), geometry=geo(),
        device=ac.LedModel(saturation_power=1.2),
        channel=sk.ChannelSpec(mode="identity"),
        run=sk.RunSpec(max_bits=6_000, min_errors=10 ** 9,
                       batch_symbols=8)),
}


class TestRunTrials:
    def test_noiseless_zero_ber(self):
        cfg = sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="eppm"),
            geometry=geo(),
            channel=sk.ChannelSpec(mode="identity"),
            run=sk.RunSpec(max_bits=20_000, min_errors=10, batch_symbols=512),
        )
        r = sk.run_trials(cfg)
        assert r.bit_errors == 0
        assert r.ber == 0.0
        assert not r.ci_valid

    def test_ppm2_matches_exact_oracle(self):
        snr_db = 9.0
        cfg = awgn_config(kind="ppm", q=2, snr_db=snr_db, seed=7,
                          run=sk.RunSpec(max_bits=400_000, min_errors=400,
                                         batch_symbols=4096))
        r = sk.run_trials(cfg)
        exact = sk.ser_exact_for(con.build_ppm(2), 10 ** (snr_db / 10))
        ser_ci = 1.96 * np.sqrt(r.ser * (1 - r.ser) / r.symbols_sent)
        assert abs(r.ser - exact) <= ser_ci * 1.5

    def test_worker_count_invariance(self):
        reports = []
        for workers in (1, 4):
            cfg = awgn_config(
                snr_db=8.0, seed=3,
                run=sk.RunSpec(max_bits=80_000, min_errors=80,
                               batch_symbols=1024, workers=workers),
            )
            reports.append(sk.run_trials(cfg))
        assert reports[0] == reports[1]

    def test_overlapped_worker_count_invariance(self, monkeypatch):
        def config(workers):
            return awgn_config(
                kind="meppm", n=3, use_complements=True, snr_db=14.0, seed=4,
                geometry=geo(sps=6, f=3),
                run=sk.RunSpec(max_bits=3 * 8 * 16 * 8, min_errors=10 ** 9,
                               batch_symbols=16, workers=workers),
            )

        pooled = sk.run_trials(config(3))

        def no_pool(*args, **kwargs):
            raise AssertionError("one worker built a thread pool")

        monkeypatch.setattr(sk, "ThreadPoolExecutor", no_pool)
        serial = sk.run_trials(config(1))
        assert serial.bits_sent == 3 * 8 * 16 * 8
        assert serial.bit_errors > 0
        assert serial == pooled

    def test_interleaved_run_noiseless(self):
        cfg = sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="eppm"),
            geometry=geo(),
            channel=sk.ChannelSpec(mode="identity"),
            run=sk.RunSpec(max_bits=10_000, min_errors=5, batch_symbols=256),
            interleaver_depth=8,
        )
        assert sk.run_trials(cfg).bit_errors == 0

    @pytest.mark.parametrize("f", [1, 2])
    def test_identity_channel_ignores_its_model(self, f):
        # an identity channel passes the light on unchanged, so the
        # receiver's scale must not include the model's gain either
        cfg = sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=4),
            geometry=geo(sps=4, f=f),
            channel=sk.ChannelSpec(mode="identity",
                                   model=ac.ChannelModel(los_gain=0.5)),
            run=sk.RunSpec(max_bits=20_000, min_errors=10, batch_symbols=512),
        )
        assert sk.run_trials(cfg).bit_errors == 0

    def test_identity_channel_ofdm_equalizer_ignores_its_model(self):
        # the one-tap equalizer must not divide out a gain the identity
        # channel never applied
        cfg = sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="dco_ofdm"),
            geometry=geo(),
            channel=sk.ChannelSpec(mode="identity",
                                   model=ac.ChannelModel(los_gain=0.5)),
            run=sk.RunSpec(max_bits=20_000, min_errors=10, batch_symbols=16),
        )
        report = sk.run_trials(cfg)
        assert report.bits_sent >= 20_000
        assert report.bit_errors == 0

    @pytest.mark.parametrize("model", [
        ac.ChannelModel(los_gain=0.6, nlos_gain=0.4, nlos_decay=2e-7),
        ac.ChannelModel(los_delay=0.4e-6),
        ac.ChannelModel(shadowed=True, nlos_gain=0.3),
    ], ids=["dispersive", "delayed", "shadowed"])
    @pytest.mark.parametrize("name", list(IMPAIRED_IDENTITY))
    def test_identity_channel_ignores_an_impaired_model(self, name, model):
        # the LED impairs each link, so the counts compared are not zero
        cfg = IMPAIRED_IDENTITY[name]
        report = sk.run_trials(cfg)
        assert report.symbol_errors > 0
        assert sk.run_trials(replace(cfg, channel=sk.ChannelSpec(
            mode="identity", model=model))) == report

    def test_ofdm_awgn_noise_ignores_slot_geometry(self):
        # an OFDM link has no slots: its slot_snr_db is the SNR of one
        # unit-peak sample, whatever samples_per_slot the config carries
        counts = []
        for sps in (2, 8):
            cfg = sk.TrialConfig(
                scheme=sk.SchemeSpec(kind="dco_ofdm"),
                geometry=geo(sps=sps),
                channel=sk.ChannelSpec(mode="awgn", slot_snr_db=10.0),
                run=sk.RunSpec(max_bits=30_000, min_errors=10 ** 9,
                               batch_symbols=32),
                seed=3,
            )
            r = sk.run_trials(cfg)
            counts.append((r.bits_sent, r.bit_errors, r.symbol_errors))
        assert counts[0] == counts[1]
        assert counts[0][1] > 0

    def test_meppm_components_run(self):
        cfg = sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=2,
                                 use_complements=True),
            geometry=geo(sps=4),
            channel=sk.ChannelSpec(mode="awgn", slot_snr_db=16.0),
            run=sk.RunSpec(max_bits=30_000, min_errors=50, batch_symbols=512),
        )
        r = sk.run_trials(cfg)
        assert 0 <= r.ber < 0.5
        assert r.symbols_sent > 0

    def test_ml_decoder_matches_correlation(self):
        # EPPM is equal-energy, so minimum distance and correlation decide
        # alike on every symbol
        corr = sk.run_trials(awgn_config(kind="eppm", snr_db=8.0, seed=4))
        ml = sk.run_trials(
            awgn_config(kind="eppm", snr_db=8.0, seed=4, decoder="ml"))
        assert corr.symbol_errors > 0
        assert (ml.bits_sent, ml.bit_errors, ml.symbols_sent,
                ml.symbol_errors) == (corr.bits_sent, corr.bit_errors,
                                      corr.symbols_sent, corr.symbol_errors)

    def test_report_fields(self):
        cfg = awgn_config(snr_db=6.0, run=sk.RunSpec(
            max_bits=30_000, min_errors=30, batch_symbols=512))
        r = sk.run_trials(cfg)
        assert r.ber == pytest.approx(r.bit_errors / r.bits_sent)
        assert r.ci95 > 0
        assert r.ci_valid == (r.bit_errors >= 10)
        assert r.rng_seed == cfg.seed
        assert r.scheme == "eppm"


class TestSweep:
    def test_snr_monotone_and_outputs(self, tmp_path):
        cfg = awgn_config(
            snr_db=0.0, seed=11,
            run=sk.RunSpec(max_bits=60_000, min_errors=120, batch_symbols=1024),
        )
        points = [4.0, 7.0, 10.0]
        reports = sk.sweep(cfg, "snr", points, output_dir=tmp_path)
        bers = [r.ber for r in reports]
        valid = [r.ci_valid for r in reports]
        for lo, hi in zip(bers, bers[1:]):
            if valid:
                assert hi <= lo * 1.3
        csv_path = tmp_path / "eppm_snr.csv"
        assert csv_path.exists()
        header = csv_path.read_text().splitlines()[0]
        assert header == "axis_value,bits,errors,ber,ci95,flag,seed"
        assert (tmp_path / "eppm_snr_manifest.json").exists()

    def test_manifest_format(self, tmp_path):
        cfg = awgn_config(
            snr_db=6.0, seed=8,
            run=sk.RunSpec(max_bits=20_000, min_errors=40, batch_symbols=512,
                           workers=2),
        )
        reports = sk.sweep(cfg, "snr", [6.0, 9.0], output_dir=tmp_path)
        manifest = json.loads(
            (tmp_path / "eppm_snr_manifest.json").read_text())
        assert set(manifest) == {"axis", "points", "config", "results"}
        assert manifest["axis"] == "snr"
        assert manifest["points"] == [6.0, 9.0]
        assert manifest["config"] == json.loads(
            json.dumps(cfg.params_record(), default=str))
        assert "workers" not in manifest["config"]["run"]
        assert [sorted(entry) for entry in manifest["results"]] == [sorted([
            "scheme", "bits_sent", "bit_errors", "ber", "ci95", "ci_valid",
            "symbols_sent", "symbol_errors", "rng_seed"])] * 2
        assert manifest["results"] == [vars(r) for r in reports]

    def test_dimming_axis_achieved_ratios(self):
        cfg = sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="eppm", q=15, k=7),
            geometry=geo(),
            channel=sk.ChannelSpec(mode="identity"),
            run=sk.RunSpec(max_bits=4_000, min_errors=5, batch_symbols=128),
        )
        points = [0.25, 0.4]
        reports = sk.sweep(cfg, "dimming", points)
        assert [r.bit_errors for r in reports] == [0, 0]
        c = cfg.scheme.build_constellation()
        achieved = [wf.apply_dimming(c, p).achieved_ratio for p in points]
        assert achieved[0] == pytest.approx(4 / 15)
        assert achieved[1] == pytest.approx(6 / 15)

    def test_sweep_determinism_across_workers(self, tmp_path):
        rows = []
        for workers in (1, 4):
            cfg = awgn_config(
                snr_db=0.0, seed=21,
                run=sk.RunSpec(max_bits=40_000, min_errors=60,
                               batch_symbols=1024, workers=workers),
            )
            reports = sk.sweep(cfg, "snr", [5.0, 8.0])
            rows.append(sk.sweep_rows([5.0, 8.0], reports))
        assert rows[0] == rows[1]

    def test_bad_axis(self):
        with pytest.raises(ParameterError):
            sk.sweep(awgn_config(), "voltage", [1, 2])

    def test_too_few_points(self):
        with pytest.raises(ParameterError):
            sk.sweep(awgn_config(), "snr", [1.0])

    @pytest.mark.parametrize("axis, channel", [
        ("snr", sk.ChannelSpec(mode="awgn", sample_noise_sigma=1.5)),
        ("snr", sk.ChannelSpec(mode="identity")),
        ("snr", sk.ChannelSpec(mode="physical")),
        ("delay_spread", sk.ChannelSpec(mode="awgn")),
        ("delay_spread", sk.ChannelSpec(
            mode="identity", model=ac.ChannelModel(nlos_gain=0.5))),
    ], ids=["snr-fixed-sigma", "snr-identity", "snr-physical",
            "delay-spread-no-nlos", "delay-spread-identity"])
    def test_axis_the_config_ignores(self, axis, channel, monkeypatch):
        # every point would run the same link and write the same row
        def no_trials(config):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sk, "run_trials", no_trials)
        with pytest.raises(ParameterError, match=axis):
            sk.sweep(replace(awgn_config(), channel=channel), axis,
                     [0.5, 1.0])


def reference_light(chain, pilot):
    """Post-LED pilot samples as one transmit: drive at the chain's peak,
    each LED's drive through the LED, outputs summed."""
    cfg = chain.config
    if cfg.scheme.kind == "dco_ofdm":
        drive = ofdm.dco_modulate(pilot, chain.ofdm) * cfg.peak_power_per_unit
        return ac.led_transfer(drive, cfg.device, chain.fs)
    n_leds = cfg.array_split_leds
    parts = wf.array_split(pilot, n_leds) if n_leds else [pilot]
    return sum(ac.led_transfer(wf.synthesize(p, chain.geometry, chain.peak),
                               cfg.device, chain.fs)
               for p in parts)


def reference_calibration(config, target, iterations=3):
    """Calibration that rebuilds the chain and re-draws the pilot on every
    iteration."""
    cfg = config
    for _ in range(iterations):
        chain = sk._build_chain(
            replace(cfg, channel=sk.ChannelSpec(mode="identity")))
        pilot = chain.pilot(np.random.default_rng([cfg.seed, 0]))
        measured = float(reference_light(chain, pilot).mean())
        cfg = replace(cfg, peak_power_per_unit=cfg.peak_power_per_unit
                      * (target / measured))
    return cfg


CALIBRATED = {
    "meppm-split-4-saturating": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=4),
        geometry=geo(slot=1e-7),
        device=ac.LedModel(saturation_power=2.0),
        array_split_leds=4, seed=11),
    "dimmed-eppm-led-pole": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="eppm", q=15, k=7),
        geometry=geo(sps=4),
        device=ac.LedModel(bandwidth_3db=3e5, saturation_power=0.8),
        dimming_target=0.25, seed=12),
    "dimmed-meppm-drive-scale": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=2),
        geometry=geo(sps=4),
        device=ac.LedModel(bandwidth_3db=3e5, saturation_power=1.5),
        dimming_target=0.3, seed=13),
    "f10-meppm-trichromatic": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=21,
                             use_complements=True),
        geometry=geo(sps=20, f=10, slot=30e-9),
        device=replace(ac.LED_PRESETS["trichromatic"], saturation_power=20.0),
        peak_power_per_unit=0.5, seed=14),
    "dco-ofdm-saturating": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="dco_ofdm", dc_bias_sigma=3.5,
                             cyclic_prefix=8, sample_rate=5.8e6),
        geometry=geo(slot=1e-7),
        device=ac.LedModel(saturation_power=1.5), seed=15),
}


class TestCalibrateDrive:
    @pytest.mark.parametrize("name", list(CALIBRATED))
    def test_matches_rebuilding_reference(self, name):
        config = CALIBRATED[name]
        calibrated = sk.calibrate_drive(config, 1.0)
        expected = reference_calibration(config, 1.0)
        assert calibrated.peak_power_per_unit == expected.peak_power_per_unit
        assert calibrated == expected
        assert calibrated.peak_power_per_unit != config.peak_power_per_unit


    def test_pilot_builds_no_receiver(self, monkeypatch):
        def no_receiver(*args, **kwargs):
            raise AssertionError("calibration built a receiver")

        monkeypatch.setattr(sk.rx, "StreamReceiver", no_receiver)
        config = CALIBRATED["f10-meppm-trichromatic"]
        assert sk.calibrate_drive(config, 1.0) == reference_calibration(
            config, 1.0)


RECEIVED = {
    "f1-awgn-eppm-interleaved": awgn_config(
        snr_db=8.0, interleaver_depth=8,
        run=sk.RunSpec(batch_symbols=60)),
    "f10-physical-meppm21-trichromatic": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=21,
                             use_complements=True),
        geometry=geo(sps=20, f=10, slot=30e-9),
        device=ac.LED_PRESETS["trichromatic"],
        channel=sk.ChannelSpec(
            mode="physical",
            detector=ac.DetectorModel(background_power=5e-7)),
        run=sk.RunSpec(batch_symbols=32),
        peak_power_per_unit=5e-6 / 10.5, seed=6),
    "f2-awgn-dispersive-delayed": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=3,
                             use_complements=True),
        geometry=geo(sps=4, f=2),
        channel=sk.ChannelSpec(
            mode="awgn", slot_snr_db=14.0,
            model=ac.ChannelModel(los_gain=0.9, los_delay=0.3e-6,
                                  nlos_gain=0.2, nlos_decay=0.5e-6)),
        run=sk.RunSpec(batch_symbols=24)),
    # complements vary a symbol's pulse count, so frames end mid-round
    "f2-meppm-split-4-saturating": awgn_config(
        kind="meppm", n=4, use_complements=True, geometry=geo(sps=4, f=2),
        device=ac.LedModel(bandwidth_3db=2e5, saturation_power=1.5),
        array_split_leds=4, run=sk.RunSpec(batch_symbols=24)),
    "identity": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="eppm"), geometry=geo(sps=4, f=2),
        channel=sk.ChannelSpec(mode="identity"),
        run=sk.RunSpec(batch_symbols=24)),
    "dimmed-eppm15": awgn_config(
        q=15, k=7, snr_db=8.0, dimming_target=0.3,
        device=ac.LedModel(bandwidth_3db=3e5),
        run=sk.RunSpec(batch_symbols=24)),
}


class TestStackedReceive:
    @pytest.mark.parametrize("name", list(RECEIVED))
    def test_rows_equal_single_batches(self, name):
        chain = sk._build_chain(RECEIVED[name])
        indices = [5, 0, 3, 6]
        stacked = chain.receive(indices)
        assert [a.shape[0] for a in stacked] == [len(indices)] * 3
        for row, i in enumerate(indices):
            for whole, single in zip(stacked, chain.receive([i])):
                assert single.shape[0] == 1
                assert whole[row].dtype == single.dtype
                assert whole[row].tobytes() == single[0].tobytes()

    @pytest.mark.parametrize("name", ["f1-awgn-eppm-interleaved",
                                      "f2-awgn-dispersive-delayed",
                                      "f10-physical-meppm21-trichromatic"])
    def test_empty_frames(self, name):
        config = RECEIVED[name]
        config = replace(config, run=replace(config.run, batch_symbols=0))
        bits, idx, stats = sk._build_chain(config).receive([0, 1])
        f = config.geometry.overlap_factor
        assert (bits.shape, idx.shape, stats.shape) == ((2, 0), (2, 0),
                                                        (2, f - 1))


STACKED_RUNS = {
    "f1-awgn-eppm-interleaved": RECEIVED["f1-awgn-eppm-interleaved"],
    "f1-meppm-split-4-saturating": replace(
        CALIBRATED["meppm-split-4-saturating"],
        run=sk.RunSpec(batch_symbols=40)),
    "dco-ofdm-saturating": replace(
        CALIBRATED["dco-ofdm-saturating"],
        channel=sk.ChannelSpec(mode="awgn", slot_snr_db=14.0),
        run=sk.RunSpec(batch_symbols=3)),
}


class TestRunStack:
    @pytest.mark.parametrize("name", list(STACKED_RUNS))
    def test_rows_equal_single_batches(self, name):
        chain = sk._build_chain(STACKED_RUNS[name])
        indices = [5, 0, 3, 6]
        stacked = chain.run_stack(indices)
        assert stacked == [chain.run_stack([i])[0] for i in indices]
        assert sum(counts[1] for counts in stacked) > 0

    @pytest.mark.parametrize("batch_samples", [
        0, 1, 224, 1152, sk.STACK_SAMPLES // 3, sk.STACK_SAMPLES // 2,
        sk.STACK_SAMPLES - 1, sk.STACK_SAMPLES, sk.STACK_SAMPLES + 1,
        114_688])
    def test_split_rule(self, batch_samples):
        stacks = sk._stacks(range(sk.WAVE_BATCHES), batch_samples)
        assert [i for stack in stacks for i in stack] == list(
            range(sk.WAVE_BATCHES))
        for stack in stacks:
            if len(stack) > 1:
                assert len(stack) * batch_samples <= sk.STACK_SAMPLES
            if batch_samples >= sk.STACK_SAMPLES:
                assert len(stack) == 1
        # every stack but the last is full: one more batch would not fit
        for stack in stacks[:-1]:
            assert (len(stack) + 1) * batch_samples > sk.STACK_SAMPLES

    @pytest.mark.parametrize("kind", ["eppm", "dco_ofdm"])
    def test_uneven_stacks_worker_count_invariance(self, kind):
        # three batches per stack, so each wave of 8 splits 3 + 3 + 2
        if kind == "eppm":
            base = awgn_config(snr_db=8.0, seed=9)
            frame = base.scheme.q * base.geometry.samples_per_slot
        else:
            base = STACKED_RUNS["dco-ofdm-saturating"]
            frame = base.scheme.build_ofdm().frame_samples
        n = sk.STACK_SAMPLES // (3 * frame)
        chain = sk._build_chain(replace(
            base, run=sk.RunSpec(batch_symbols=n)))
        assert [len(s) for s in sk._stacks(range(8), n * frame)] == [3, 3, 2]
        bits_per_batch = chain.run_stack([0])[0][0]
        reports = [sk.run_trials(replace(base, run=sk.RunSpec(
            max_bits=9 * bits_per_batch, min_errors=10 ** 9,
            batch_symbols=n, workers=workers))) for workers in (1, 2, 4)]
        assert reports[0].bits_sent == 16 * bits_per_batch
        assert reports[0].bit_errors > 0
        assert reports[0] == reports[1] == reports[2]


class TestFlicker:
    def test_constant_waveform(self):
        assert sk.flicker_metric(np.full(1000, 2.0), 1e6, 1e-5) == 0.0

    def test_eppm_symbol_window_exact_zero(self):
        c = con.build_eppm(7, 3)
        rng = np.random.default_rng(5)
        g = geo(sps=4)
        words = c.symbols[rng.integers(0, 7, size=1000)]
        # integer sample values make the window sums exact in binary64
        w = wf.synthesize(words, g, peak=1.0)
        symbol_t = 7 * g.slot_duration
        for k in (1, 2, 5):
            assert sk.flicker_metric(w, g.sample_rate, k * symbol_t) == 0.0
        # non-dyadic drive levels only round at the last ulp
        w2 = wf.synthesize(words, g, peak=0.7)
        assert sk.flicker_metric(w2, g.sample_rate, symbol_t) < 1e-12

    def test_ppm_half_symbol_window_positive(self):
        c = con.build_ppm(8)
        rng = np.random.default_rng(6)
        g = geo(sps=4)
        words = c.symbols[rng.integers(0, 8, size=500)]
        w = wf.synthesize(words, g)
        assert sk.flicker_metric(w, g.sample_rate, 8 * g.slot_duration) == 0.0
        assert sk.flicker_metric(w, g.sample_rate, 4 * g.slot_duration) > 0.0

    def test_window_validation(self):
        with pytest.raises(ParameterError):
            sk.flicker_metric(np.ones(100), 1e6, 1.0)


class TestRateAccounting:
    def test_gigabit_preset(self):
        c = con.build_meppm(7, 3, 21, use_complements=True)
        assert c.bits_per_symbol >= 21
        g = wf.SlotGeometry(1e-9, 20, 10)
        led = ac.LedModel(bandwidth_3db=1e9 / 90.0)
        acc = sk.rate_accounting(c, g, led, n_colors=3, bits_per_symbol=21)
        assert round(acc.per_color_rate / 1e6) == 333
        assert round(acc.aggregate_rate / 1e6) == 1000

    def test_f1_slot_rate_equals_bandwidth(self):
        c = con.build_eppm(7, 3)
        led = ac.LedModel(bandwidth_3db=5e6)
        acc = sk.rate_accounting(c, geo(), led, n_colors=1)
        assert acc.slot_rate == 5e6
        assert acc.aggregate_rate == acc.per_color_rate

    def test_bits_cap_validated(self):
        c = con.build_eppm(7, 3)
        led = ac.LedModel(bandwidth_3db=5e6)
        with pytest.raises(ParameterError):
            sk.rate_accounting(c, geo(), led, 1, bits_per_symbol=99)


class TestOracles:
    def test_exact_matches_qfunc_for_binary_ppm(self):
        # orthogonal binary signaling: SER = Q(sqrt(snr/2))
        for snr in (4.0, 8.0, 12.0):
            exact = sk.ser_exact_for(con.build_ppm(2), snr)
            assert exact == pytest.approx(
                float(sk.q_function(np.sqrt(snr / 2))), rel=1e-6
            )

    def test_union_bound_dominates_exact(self):
        c = con.build_eppm(7, 3)
        for snr in (6.0, 10.0, 16.0):
            assert sk.ser_exact_for(c, snr) <= sk.ser_union_bound(c, snr)

    @pytest.mark.parametrize("m, k, lam", [(2, 1, 0), (7, 3, 1), (64, 1, 0)])
    def test_exact_oracle_equals_scipy_stats_form(self, m, k, lam):
        # the oracle writes the normal pdf and cdf out on scipy.special;
        # its values must stay bit-identical to the scipy.stats.norm form
        from scipy.integrate import quad
        from scipy.stats import norm

        for snr_db in (0.0, 9.3, 11.1, 16.0):
            snr = 10 ** (snr_db / 10)
            shift = np.sqrt(snr * (k - lam))
            p, _ = quad(lambda t: norm.pdf(t) * norm.cdf(t + shift) ** (m - 1),
                        -12, 12, limit=200)
            assert sk.ser_exact_equicorrelated(m, k, lam, snr) == 1.0 - p

    def test_union_bound_sanity_against_simulation(self):
        # measured SER <= union bound, and within 2x at low error rates
        snr_db = 11.1  # EPPM(7,3): SER ~ 1e-3
        cfg = awgn_config(
            kind="eppm", snr_db=snr_db, seed=13,
            run=sk.RunSpec(max_bits=700_000, min_errors=250,
                           batch_symbols=8192),
        )
        r = sk.run_trials(cfg)
        bound = sk.ser_union_bound(con.build_eppm(7, 3), 10 ** (snr_db / 10))
        assert r.ser <= bound * 1.05
        if r.ser <= 1e-3:
            assert r.ser >= bound / 2


MINIMAL_DOC = {
    "scheme": {"kind": "eppm", "q": 7, "k": 3},
    "geometry": {"slot_duration": 1e-6, "samples_per_slot": 2},
}


class TestConfigDocuments:
    def test_minimal_document(self):
        cfg = sk.config_from_document(MINIMAL_DOC)
        assert cfg.scheme.kind == "eppm"
        assert cfg.geometry.samples_per_slot == 2
        assert cfg == sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="eppm"), geometry=geo())

    def test_cli_blocks_parse(self):
        doc = dict(MINIMAL_DOC, sweep={"points": [6.0, 9]},
                   compare={"saturation_points": [1.5, 4.0]},
                   rate={"n_colors": 3}, flicker={"window_symbols": [1, 2]})
        assert sk.config_from_document(doc) == sk.config_from_document(
            MINIMAL_DOC)
        assert sk.cli_block(doc, "sweep").depths == [1, 8]
        assert sk.cli_block(doc, "compare").ofdm_scheme.kind == "dco_ofdm"
        assert sk.cli_block(doc, "rate").bits_per_symbol is None
        assert sk.cli_block(doc, "flicker").n_symbols == 10_000

    @pytest.mark.parametrize("device, expected", [
        ("trichromatic", ac.LED_PRESETS["trichromatic"]),
        ({"preset": "phosphor", "saturation_power": 2.0},
         ac.LedModel(bandwidth_3db=3e6, saturation_power=2.0)),
        ({"bandwidth_3db": "inf", "saturation_power": 2.0},
         ac.LedModel(saturation_power=2.0)),
    ])
    def test_device_block(self, device, expected):
        doc = dict(MINIMAL_DOC, device=device)
        assert sk.config_from_document(doc).device == expected

    @pytest.mark.parametrize("patch, path, named", [
        ({"channel": {"slot_snr": 10.0}}, "channel.slot_snr", "slot_snr"),
        ({"sede": 3}, "$.sede", "sede"),
        ({"scheme": {"kind": "eppm", "q": True}}, "scheme.q", "q"),
        ({"run": {"workers": True}}, "run.workers", "workers"),
        ({"channel": {"slot_snr_db": float("nan")}}, "channel.slot_snr_db",
         "slot_snr_db"),
        ({"channel": {"model": {"los_gian": 1.0}}}, "channel.model.los_gian",
         "los_gian"),
        ({"seed": -1}, "$", "seed"),
        ({"run": {"max_bits": 0}}, "run", "max_bits"),
        ({"device": "warm"}, "device.preset", "preset"),
        ({"device": {"knee_sharpness": "inf"}}, "device.knee_sharpness",
         "knee_sharpness"),
        ({"decoder": "bogus"}, "$.decoder", "decoder"),
        ({"decoder": "components"}, "$", "decoder"),
        ({"interleaver_depth": 0}, "$", "interleaver_depth"),
        ({"run": {"workers": 0}}, "run", "workers"),
        ({"peak_power_per_unit": 0.0}, "$", "peak_power_per_unit"),
        ({"array_split_leds": -1}, "$", "array_split_leds"),
        ({"scheme": {"kind": "eppm", "q": 1}}, "scheme", "Q >= 2"),
        ({"scheme": {"kind": "mppm", "q": 7, "k": 7}}, "scheme", "K < Q"),
        ({"scheme": {"kind": "meppm", "n": 0}}, "scheme", "N >= 1"),
        ({"scheme": {"kind": "dco_ofdm", "n_subcarriers": 63}}, "scheme",
         "n_subcarriers"),
        ({"scheme": {"kind": "dco_ofdm", "qam_order": 8}}, "scheme",
         "qam_order"),
        ({"scheme": {"kind": "dco_ofdm", "cyclic_prefix": 100}}, "scheme",
         "cyclic_prefix"),
        ({"scheme": {"kind": "dco_ofdm", "cyclic_prefix": -1}}, "scheme",
         "cyclic_prefix"),
        ({"scheme": {"kind": "dco_ofdm", "sample_rate": 0}}, "scheme",
         "sample_rate"),
        ({"scheme": {"kind": "dco_ofdm", "sample_rate": -5}}, "scheme",
         "sample_rate"),
        ({"scheme": {"kind": "dco_ofdm", "dc_bias_sigma": -1}}, "scheme",
         "dc_bias_sigma"),
        ({"channel": {"model": {"los_delay": -1e-9}}}, "channel.model",
         "los_delay"),
        ({"dimming_target": 2.0}, "$", "dimming_target"),
        ({"dimming_target": -0.5}, "$", "dimming_target"),
        ({"scheme": {"kind": "dco_ofdm"}, "dimming_target": 0.3}, "$",
         "dimming_target"),
        ({"dimming_target": 0.05}, "$", "dimming_target"),
        ({"scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 2,
                     "use_complements": True}, "dimming_target": 0.9}, "$",
         "dimming_target"),
        ({"channel": {"model": {"los_delay": 1e-6}}}, "$", "los_delay"),
        ({"channel": {"mode": "physical", "model": {"los_delay": 0.8e-6}}},
         "$", "los_delay"),
        ({"device": {"linear_gain": 0}}, "device", "linear_gain"),
        ({"device": {"linear_gain": -1}}, "device", "linear_gain"),
        ({"channel": {"model": {"los_gain": 0}}}, "channel", "total_gain"),
        ({"channel": {"model": {"shadowed": True}}}, "channel", "total_gain"),
        ({"channel": {"sample_noise_sigma": -0.3}}, "channel",
         "sample_noise_sigma"),
        ({"geometry": {"slot_duration": 1e-6, "samples_per_slot": 4,
                       "overlap_factor": 2}, "interleaver_depth": 8}, "$",
         "interleaver_depth"),
        ({"scheme": {"kind": "dco_ofdm"}, "interleaver_depth": 8}, "$",
         "interleaver_depth"),
    ], ids=["misspelled-key", "unknown-top-level", "bool-as-int",
            "bool-workers", "nan-float", "nested-misspelling",
            "negative-seed", "zero-max-bits", "unknown-preset",
            "inf-outside-unbounded-fields", "unknown-decoder",
            "components-decoder-on-eppm", "zero-interleaver-depth",
            "zero-workers", "zero-peak-power", "negative-split-leds",
            "single-slot-scheme", "k-equals-q", "zero-meppm-components",
            "ofdm-carriers-not-power-of-two", "ofdm-qam-order-8",
            "ofdm-prefix-longer-than-frame", "ofdm-negative-prefix",
            "ofdm-zero-sample-rate", "ofdm-negative-sample-rate",
            "ofdm-negative-bias", "negative-los-delay",
            "dimming-target-above-one", "negative-dimming-target",
            "dimming-target-on-ofdm", "dimming-needs-no-pulses",
            "dimming-above-meppm-ratio", "los-delay-one-slot",
            "los-delay-rounds-to-one-slot", "zero-linear-gain",
            "negative-linear-gain", "zero-los-gain", "shadowed-without-nlos",
            "negative-sample-noise", "interleaving-overlapped-pulses",
            "interleaving-ofdm"])
    def test_rejected_documents(self, patch, path, named):
        with pytest.raises(ConfigError) as err:
            sk.config_from_document(dict(MINIMAL_DOC, **patch))
        assert err.value.json_path == path
        assert named in str(err.value)

    @pytest.mark.parametrize("block, value, named", [
        ("sweep", {"points": [1.0, 2.0], "depths": [1, 0]}, "depths"),
        ("compare", {"saturation_points": [1.0], "mean_power": 0.0},
         "mean_power"),
    ], ids=["zero-isi-depth", "zero-mean-power"])
    def test_rejected_cli_blocks(self, block, value, named):
        with pytest.raises(ConfigError) as err:
            sk.cli_block(dict(MINIMAL_DOC, **{block: value}), block)
        assert err.value.json_path == block
        assert named in str(err.value)

    @pytest.mark.parametrize("patch", [
        {"channel": {"model": {"los_delay": 0.7e-6}}},
        {"channel": {"mode": "identity", "model": {"los_delay": 5e-6}}},
        {"scheme": {"kind": "dco_ofdm"},
         "channel": {"model": {"los_delay": 5e-6}}},
    ], ids=["los-delay-under-a-slot", "identity-channel-ignores-delay",
            "ofdm-equalizes-delay"])
    def test_accepted_los_delays(self, patch):
        sk.config_from_document(dict(MINIMAL_DOC, **patch))

    @pytest.mark.parametrize("samples, tap", [(2.5, 2), (3.5, 4)])
    def test_los_delay_rounds_half_to_even_once(self, samples, tap):
        # at 4 samples per second the delays are exact binary fractions
        model = ac.ChannelModel(los_delay=samples / 4)
        assert np.flatnonzero(ac.channel_impulse_response(model, 4.0)) == [tap]
        assert model.response_length(4.0) == tap + int(
            np.ceil(5.0 * model.nlos_decay * 4.0)) + 1

        def config(sps):
            return sk.TrialConfig(scheme=sk.SchemeSpec(kind="ppm", q=2),
                                  geometry=wf.SlotGeometry(sps / 4, sps),
                                  channel=sk.ChannelSpec(model=model))

        # the delay must end before the first slot does
        config(tap + 1)
        with pytest.raises(ParameterError, match=f"{tap} samples"):
            config(tap)

    def test_unknown_channel_mode_rejected_in_python(self):
        # documents meet the mode's choices in the schema; a spec built in
        # Python must not run a misspelled mode as some other channel
        with pytest.raises(ParameterError, match="mode"):
            sk.ChannelSpec(mode="awgnn")

    def test_ofdm_scheme_skips_pulse_ranges(self):
        spec = sk.SchemeSpec(kind="dco_ofdm", q=1, k=0, n=0)
        assert spec.build_ofdm().n_subcarriers == 64

    def test_error_paths(self):
        with pytest.raises(ConfigError) as err:
            sk.config_from_document({"geometry": {}})
        assert err.value.json_path == "$.scheme"
        with pytest.raises(ConfigError) as err:
            sk.config_from_document(
                {"scheme": {"kind": "warp"}, "geometry": {}}
            )
        assert err.value.json_path == "scheme.kind"
        with pytest.raises(ConfigError) as err:
            sk.config_from_document(
                {"scheme": {"kind": "ppm"},
                 "geometry": {"slot_duration": 1e-6}}
            )
        assert err.value.json_path == "geometry.samples_per_slot"
