"""Monte Carlo engine, link budget, metrics, and sweep tests."""

import json
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest

from vlclink import analog_chain as ac
from vlclink import constellations as con
from vlclink import ofdm
from vlclink import receiver as rx
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

    @pytest.mark.parametrize("q, k, n, comp", [
        (8, 4, 2, True), (6, 3, 3, True), (8, 2, 3, False)])
    def test_code_without_lattice_decides_noiseless_link(self, q, k, n, comp):
        # no lattice, so no component decoder: the default decides by ML
        cfg = sk.TrialConfig(
            scheme=sk.SchemeSpec(kind="meppm", q=q, k=k, n=n,
                                 use_complements=comp),
            geometry=geo(sps=2),
            channel=sk.ChannelSpec(mode="identity"),
            run=sk.RunSpec(max_bits=20_000, min_errors=1, batch_symbols=256),
        )
        r = sk.run_trials(cfg)
        assert r.bits_sent >= 20_000 and r.bit_errors == 0

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
        def no_trials(configs):
            raise AssertionError("a point ran")

        monkeypatch.setattr(sk, "_run_points", no_trials)
        with pytest.raises(ParameterError, match=axis):
            sk.sweep(replace(awgn_config(), channel=channel), axis,
                     [0.5, 1.0])


# the slot-rate light lies within this many ULPs of the configured-rate
# one: a statistic, of the largest slot mean of a row at F=1 and of the
# largest running sum of its slot means at F>1, and a calibrated peak, of
# itself.  The two grids sum and scale the same terms in different orders,
# and an F>1 statistic is the difference of two running sums
ULPS = 4
EPS = np.finfo(np.float64).eps


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


def assert_calibrated_as(calibrated, expected):
    """`calibrated` is the sample-grid `expected` but for its peak, which
    lies within ULPS eps of it (relative): a pulse pilot's mean light is
    taken over slot means, which sums its terms in another order."""
    peak = expected.peak_power_per_unit
    assert abs(calibrated.peak_power_per_unit - peak) <= ULPS * EPS * peak
    assert replace(calibrated, peak_power_per_unit=peak) == expected


class TestCalibrateDrive:
    @pytest.mark.parametrize("name", list(CALIBRATED))
    def test_matches_rebuilding_reference(self, name):
        config = CALIBRATED[name]
        calibrated = sk.calibrate_drive(config, 1.0)
        assert_calibrated_as(calibrated, reference_calibration(config, 1.0))
        assert calibrated.peak_power_per_unit != config.peak_power_per_unit


    def test_pilot_builds_no_receiver(self, monkeypatch):
        def no_receiver(*args, **kwargs):
            raise AssertionError("calibration built a receiver")

        monkeypatch.setattr(sk.rx, "StreamReceiver", no_receiver)
        config = CALIBRATED["f10-meppm-trichromatic"]
        assert_calibrated_as(sk.calibrate_drive(config, 1.0),
                             reference_calibration(config, 1.0))


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


def receive(chain, indices):
    """(sent symbol indices, slot statistics) of a stack of batches drawn
    and received by one pulse chain."""
    draws = chain.draw(indices)
    return draws.sent, chain.statistics(draws)


def run_stack(chain, indices):
    """Counts of each batch of a stack drawn and decoded by one chain."""
    return chain.counts(chain.draw(indices))


class TestStackedReceive:
    @pytest.mark.parametrize("name", list(RECEIVED))
    def test_rows_equal_single_batches(self, name):
        chain = sk._build_chain(RECEIVED[name])
        indices = [5, 0, 3, 6]
        stacked = receive(chain, indices)
        assert [a.shape[0] for a in stacked] == [len(indices)] * 2
        for row, i in enumerate(indices):
            for whole, single in zip(stacked, receive(chain, [i])):
                assert single.shape[0] == 1
                assert whole[row].dtype == single.dtype
                assert whole[row].tobytes() == single[0].tobytes()

    @pytest.mark.parametrize("name", ["f1-awgn-eppm-interleaved",
                                      "f2-awgn-dispersive-delayed",
                                      "f10-physical-meppm21-trichromatic"])
    def test_empty_frames(self, name):
        config = RECEIVED[name]
        config = replace(config, run=replace(config.run, batch_symbols=0))
        idx, stats = receive(sk._build_chain(config), [0, 1])
        f = config.geometry.overlap_factor
        assert (idx.shape, stats.shape) == ((2, 0), (2, f - 1))


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


# stacks whose bit errors `counts` takes as popcounts: EPPM(7,3) at 0 dB,
# which decodes to indices 4-6 that no two bits reach; an interleaved
# stack; and 24-bit MEPPM(7,3,21)+c symbols at a power that makes errors
POPCOUNTED = {
    "f1-awgn-eppm-unused-indices": awgn_config(
        snr_db=0.0, run=sk.RunSpec(batch_symbols=500)),
    "f1-awgn-eppm-interleaved": RECEIVED["f1-awgn-eppm-interleaved"],
    "f10-physical-meppm21-trichromatic": replace(
        RECEIVED["f10-physical-meppm21-trichromatic"],
        peak_power_per_unit=2e-6 / 10.5),
}


def round_trip_counts(chain, draws):
    """Counts of each row of a stack by the bit round trip: the decided
    indices and the sent ones unpacked to bits and compared."""
    decoded = chain.receiver.decode_stats(chain.statistics(draws))
    width = chain.constellation.bits_per_symbol
    sent = con.indices_to_bits(draws.sent.ravel(), width)
    bits = con.indices_to_bits(decoded.ravel(), width)
    wrong = (bits != sent).reshape(len(draws.sent), -1)
    return [(len(b), int(b.sum()), len(s), int(s.sum()))
            for b, s in zip(wrong, decoded != draws.sent)]


class TestBitCounts:
    @pytest.mark.parametrize("name", list(POPCOUNTED))
    def test_popcount_equals_the_bit_round_trip(self, name):
        chain = sk._build_chain(POPCOUNTED[name])
        draws = chain.draw([0, 3, 5])
        counts = chain.counts(draws)
        assert counts == round_trip_counts(chain, draws)
        assert sum(row[1] for row in counts) > 0
        # every case decodes some symbol that no bits reach
        decoded = chain.receiver.decode_stats(chain.statistics(draws))
        assert decoded.max() >= 1 << chain.constellation.bits_per_symbol


class TestRunStack:
    @pytest.mark.parametrize("name", list(STACKED_RUNS))
    def test_rows_equal_single_batches(self, name):
        chain = sk._build_chain(STACKED_RUNS[name])
        indices = [5, 0, 3, 6]
        stacked = run_stack(chain, indices)
        assert stacked == [run_stack(chain, [i])[0] for i in indices]
        assert sum(counts[1] for counts in stacked) > 0

    # the literal sizes around 1 << 15 straddle the former cap; they stay
    # as cases that divide the present cap unevenly or split it in four
    @pytest.mark.parametrize("batch_samples", [
        0, 1, 224, 1152, 10_922, 16_384, 32_767, 32_769,
        sk.STACK_SAMPLES // 3, sk.STACK_SAMPLES // 2,
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
            # a pulse stack counts slot values
            base = awgn_config(snr_db=8.0, seed=9)
            frame = base.scheme.q
        else:
            base = STACKED_RUNS["dco-ofdm-saturating"]
            frame = base.scheme.build_ofdm().frame_samples
        n = sk.STACK_SAMPLES // (3 * frame)
        chain = sk._build_chain(replace(
            base, run=sk.RunSpec(batch_symbols=n)))
        assert [len(s) for s in sk._stacks(range(8), n * frame)] == [3, 3, 2]
        assert [len(s) for s in chain.stacks(range(8))] == [3, 3, 2]
        bits_per_batch = run_stack(chain, [0])[0][0]
        reports = [sk.run_trials(replace(base, run=sk.RunSpec(
            max_bits=9 * bits_per_batch, min_errors=10 ** 9,
            batch_symbols=n, workers=workers))) for workers in (1, 2, 4)]
        assert reports[0].bits_sent == 16 * bits_per_batch
        assert reports[0].bit_errors > 0
        assert reports[0] == reports[1] == reports[2]


# sweeps whose points stop at different waves; each runs its points
# together, sharing each batch's draws within a group of equal draw keys
SHARED_SWEEPS = {
    "snr-f1-eppm-interleaved": (awgn_config(
        seed=3, interleaver_depth=4, run=sk.RunSpec(
            max_bits=40_000, min_errors=150, batch_symbols=256)),
        "snr", [3.0, 6.0, 9.0]),
    "snr-f2-eppm": (awgn_config(
        seed=4, geometry=geo(sps=4, f=2), run=sk.RunSpec(
            max_bits=12_000, min_errors=60, batch_symbols=64)),
        "snr", [12.0, 18.0, 24.0]),
    "saturation-f1-meppm-split-4": (replace(
        CALIBRATED["meppm-split-4-saturating"],
        channel=sk.ChannelSpec(mode="awgn", sample_noise_sigma=0.5),
        run=sk.RunSpec(max_bits=6_000, min_errors=40, batch_symbols=16)),
        "saturation", [1.5, 2.5, 4.0]),
    "saturation-dco-ofdm": (replace(
        STACKED_RUNS["dco-ofdm-saturating"],
        run=sk.RunSpec(max_bits=40_000, min_errors=4_000, batch_symbols=3)),
        "saturation", [1.2, 2.0, 4.0]),
    "delay-spread-f1-physical": (sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="eppm"), geometry=geo(sps=4),
        channel=sk.ChannelSpec(
            mode="physical",
            model=ac.ChannelModel(los_gain=0.6, nlos_gain=0.4),
            detector=ac.DetectorModel(background_power=5e-7)),
        peak_power_per_unit=3e-9, interleaver_depth=8,
        run=sk.RunSpec(max_bits=12_000, min_errors=400, batch_symbols=128),
        seed=6), "delay_spread", [0.5, 2.0]),
    "delay-spread-f2-physical": (replace(
        RECEIVED["f2-awgn-dispersive-delayed"], scheme=sk.SchemeSpec("eppm"),
        channel=sk.ChannelSpec(
            mode="physical",
            model=ac.ChannelModel(los_gain=0.8, nlos_gain=0.2),
            detector=ac.DetectorModel(background_power=5e-7)),
        peak_power_per_unit=2e-8,
        run=sk.RunSpec(max_bits=6_000, min_errors=40, batch_symbols=24)),
        "delay_spread", [0.2, 1.0]),
    "dimming-f2-meppm": (awgn_config(
        kind="meppm", n=2, use_complements=True, snr_db=20.0, seed=5,
        geometry=geo(sps=4, f=2), run=sk.RunSpec(
            max_bits=6_000, min_errors=400, batch_symbols=24)),
        "dimming", [0.3, 0.45]),
    # K' = 3, 4, 4: the first point draws apart from the other two
    "dimming-f1-eppm-split-group": (awgn_config(
        q=13, k=4, snr_db=7.0, seed=4, run=sk.RunSpec(
            max_bits=12_000, min_errors=60, batch_symbols=128)),
        "dimming", [0.23, 0.3, 0.31]),
}

PHYSICAL_DCO_OFDM = replace(
    STACKED_RUNS["dco-ofdm-saturating"], channel=sk.ChannelSpec(
        mode="physical", detector=ac.DetectorModel(background_power=1.0)))


class TestSharedDraws:
    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("name", list(SHARED_SWEEPS))
    def test_points_equal_one_point_runs(self, name, workers):
        config, axis, points = SHARED_SWEEPS[name]
        config = replace(config, run=replace(config.run, workers=workers))
        alone = [sk.run_trials(sk._config_at(config, axis, p))
                 for p in points]
        assert sk.sweep(config, axis, points) == alone
        # the stop rules fire at different waves
        assert len({r.bits_sent for r in alone}) > 1

    def test_groups_split_by_draw_inputs(self):
        config, axis, points = SHARED_SWEEPS["dimming-f1-eppm-split-group"]
        chains = [sk._build_chain(sk._config_at(config, axis, p))
                  for p in points]
        assert sk._draw_groups(chains) == [[0], [1, 2]]
        config, axis, points = SHARED_SWEEPS["dimming-f2-meppm"]
        chains = [sk._build_chain(sk._config_at(config, axis, p))
                  for p in points]
        assert sk._draw_groups(chains) == [[0, 1]]

    def test_a_group_draws_each_stack_once(self, monkeypatch):
        config, axis, points = SHARED_SWEEPS["snr-f2-eppm"]
        drawn = []
        draw = sk._PulseChain.draw

        def counted(chain, indices, *args):
            drawn.append(list(indices))
            return draw(chain, indices, *args)

        monkeypatch.setattr(sk._PulseChain, "draw", counted)
        reports = sk.sweep(config, axis, points)
        waves = max(r.bits_sent for r in reports) // (
            sk.WAVE_BATCHES * config.run.batch_symbols * 2)
        # F>1 runs a wave as one stack, once for all the points
        assert drawn == [list(range(w * sk.WAVE_BATCHES,
                                    (w + 1) * sk.WAVE_BATCHES))
                         for w in range(waves)]

    def test_nonlin_compare_equals_one_point_runs(self):
        meppm = SHARED_SWEEPS["saturation-f1-meppm-split-4"][0]
        ofdm_config = replace(meppm, scheme=SHARED_SWEEPS[
            "saturation-dco-ofdm"][0].scheme, run=sk.RunSpec(
                max_bits=6_000, min_errors=10 ** 9, batch_symbols=3))
        points = [1.5, 2.5, 4.0]
        results = sk.nonlin_compare(meppm, ofdm_config, points)
        for name, base in (("meppm", meppm), ("dco_ofdm", ofdm_config)):
            assert results[name] == [sk.run_trials(sk.calibrate_drive(
                sk._config_at(base, "saturation", p), 1.0)) for p in points]

    @pytest.mark.parametrize("name", ["snr-f1-eppm-interleaved",
                                      "saturation-f1-meppm-split-4",
                                      "saturation-dco-ofdm",
                                      "delay-spread-f2-physical"])
    def test_draws_are_read_only(self, name):
        config = SHARED_SWEEPS[name][0]
        chain = sk._build_chain(config)
        draws = chain.draw([0, 1])
        noise = draws.normals(5)
        for a in [draws.sent, *draws.modulated, noise]:
            assert not a.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                a[...] = 0

    @pytest.mark.parametrize("config", [
        SHARED_SWEEPS["snr-f1-eppm-interleaved"][0],
        SHARED_SWEEPS["delay-spread-f1-physical"][0],
        SHARED_SWEEPS["delay-spread-f2-physical"][0],
        PHYSICAL_DCO_OFDM,
    ], ids=["snr-f1-eppm-interleaved", "delay-spread-f1-physical",
            "delay-spread-f2-physical", "dco-ofdm-physical"])
    def test_noise_is_drawn_once_after_what_it_sends(self, config):
        """Each row sends uniform symbol indices (DCO-OFDM: bits) and then
        reads its normals, all from its own (seed, batch_index) generator."""
        chain = sk._build_chain(config)
        indices = [4, 1]
        draws = chain.draw(indices)

        def read():
            return draws.normals(8)

        first = read()
        assert read() is first
        assert not first.flags.writeable
        for sent, row, b in zip(draws.sent, first, indices):
            rng = np.random.default_rng([config.seed, b])
            if config.scheme.kind == "dco_ofdm":
                expected = rng.integers(0, 2, size=chain.batch_bits)
            else:
                expected = rng.integers(0, chain.constellation.used_size,
                                        size=chain.batch_symbols())
            assert sent.tobytes() == expected.tobytes()
            assert row.tobytes() == rng.standard_normal(8).tobytes()


def count_normals(monkeypatch):
    """The sizes of the standard normal draws of every generator made from
    here on, in a list that fills as they are drawn."""
    drawn = []
    default_rng = np.random.default_rng

    class Spy:
        def __init__(self, seed):
            self.rng = default_rng(seed)

        def __getattr__(self, name):
            return getattr(self.rng, name)

        def standard_normal(self, *args, **kwargs):
            z = self.rng.standard_normal(*args, **kwargs)
            drawn.append(z.size)
            return z

    monkeypatch.setattr(np.random, "default_rng", Spy)
    return drawn


class TestNoiseGrid:
    @pytest.mark.parametrize("grid", [1, 4, 20])
    def test_awgn_cell_means_keep_the_per_sample_variance(self, grid):
        # a value at 1/grid of the configured rate stands for the mean of
        # grid samples, so noise of std sigma a sample has variance
        # sigma^2 / grid there, whatever the grid
        from scipy.stats import chi2

        sigma = 0.7
        config = replace(awgn_config(geometry=geo(sps=4)),
                         channel=sk.ChannelSpec(mode="awgn",
                                                sample_noise_sigma=sigma))
        n_cells = 20_000
        draws = sk._build_chain(config).draw([0, 1])
        means = sk._apply_channel(np.ones((2, n_cells)), config.channel.model,
                                  config, config.geometry.sample_rate / grid,
                                  draws)
        stat = ((means - 1.0) ** 2).sum() / (sigma ** 2 / grid)
        assert chi2.ppf(1e-6, means.size) < stat < chi2.isf(1e-6, means.size)

    @pytest.mark.parametrize("sps", [1, 2, 4])
    @pytest.mark.parametrize("channel", [
        sk.ChannelSpec(mode="awgn", slot_snr_db=3.0),
        sk.ChannelSpec(mode="awgn", sample_noise_sigma=0.7),
        sk.ChannelSpec(mode="physical", detector=ac.DetectorModel(
            background_power=5e-7, thermal_noise_density=1e-24)),
    ], ids=["awgn-snr", "awgn-sigma", "physical"])
    def test_slot_means_keep_their_variance_below_the_configured_rate(
            self, channel, sps):
        # values at sps a slot (the configured grid has 4), averaged over
        # each slot, have the variance a slot's mean has at the configured
        # rate
        from scipy.stats import chi2

        level = 1e-6
        config = replace(awgn_config(geometry=geo(sps=4)), channel=channel,
                         peak_power_per_unit=level)
        g = config.geometry
        if channel.mode == "awgn" and not channel.sample_noise_sigma:
            variance = level ** 2 / 10 ** (channel.slot_snr_db / 10)
        elif channel.mode == "awgn":
            variance = channel.sample_noise_sigma ** 2 / g.samples_per_slot
        else:
            dm = channel.detector
            variance = ((2 * ac.Q_ELECTRON * dm.responsivity
                         * (level + dm.background_power)
                         + dm.thermal_noise_density)
                        * g.sample_rate / 2 / g.samples_per_slot)
        n_slots = 20_000
        draws = sk._build_chain(config).draw([0, 1])
        means = ac.cell_means(sk._apply_channel(
            np.full((2, n_slots * sps), level), channel.model, config,
            sps / g.slot_duration, draws), sps)
        stat = ((means - level * channel.responsivity) ** 2).sum() / variance
        assert chi2.ppf(1e-6, means.size) < stat < chi2.isf(1e-6, means.size)

    @pytest.mark.parametrize("config", [
        RECEIVED["f1-awgn-eppm-interleaved"],
        RECEIVED["f2-awgn-dispersive-delayed"],
        SHARED_SWEEPS["delay-spread-f1-physical"][0],
        RECEIVED["f10-physical-meppm21-trichromatic"],
        STACKED_RUNS["dco-ofdm-saturating"],
        replace(STACKED_RUNS["dco-ofdm-saturating"], channel=sk.ChannelSpec(
            mode="physical", detector=ac.DetectorModel(background_power=1.0))),
    ], ids=["f1-awgn", "f2-awgn", "f1-physical", "f10-physical",
            "dco-ofdm-awgn", "dco-ofdm-physical"])
    def test_a_stack_draws_one_normal_per_cell(self, config, monkeypatch):
        """A pulse stack draws a normal per slot of each row, a DCO-OFDM
        stack one per sample."""
        chain = sk._build_chain(config)
        if config.scheme.kind != "dco_ofdm":
            chain.receiver  # a kernel measured at F>1 draws no noise
        drawn = count_normals(monkeypatch)
        indices = [2, 0, 5]
        chain.counts(chain.draw(indices))
        if config.scheme.kind == "dco_ofdm":
            cells = config.run.batch_symbols * chain.ofdm.frame_samples
        else:
            cells = (chain.batch_symbols() * chain.constellation.q
                     + config.geometry.overlap_factor - 1)
        assert sum(drawn) == len(indices) * cells

    def test_a_physical_sweep_draws_each_stack_once(self, monkeypatch):
        """The points of a physical sweep share each stack's normals, one
        per slot of each row, and each point still equals its own run."""
        config, axis, _ = SHARED_SWEEPS["delay-spread-f1-physical"]
        points = [0.5, 1.0, 2.0]
        alone = [sk.run_trials(sk._config_at(config, axis, p))
                 for p in points]
        rows = []
        draw = sk._PulseChain.draw

        def counted(chain, indices, *args):
            rows.append(len(indices))
            return draw(chain, indices, *args)

        monkeypatch.setattr(sk._PulseChain, "draw", counted)
        drawn = count_normals(monkeypatch)
        assert sk.sweep(config, axis, points) == alone
        chain = sk._build_chain(config)
        assert sum(drawn) == sum(rows) * chain._slots(chain.batch_symbols())


def configured_means(chain, modulated, draws=None):
    """The received slot means of `modulate`'s output, each stage run
    explicitly on the configured grid: synthesize, LEDs, channel and
    integrator, then the detector at the slot rate, with the draws' noise
    unless `draws` is None."""
    cfg = chain.config
    g = chain.geometry
    light = sum(ac.led_transfer(wf.synthesize(p, g, chain.peak), cfg.device,
                                chain.fs) for p in modulated)
    means = ac.cell_means(ac.propagate(light, cfg.channel.link, chain.fs),
                          g.samples_per_slot)
    return sk._apply_channel(means, ac.IDENTITY_CHANNEL, cfg,
                             1 / g.slot_duration, draws)


def in_symbol_order(chain, stats):
    depth = chain.config.interleaver_depth
    if depth == 1:
        return stats
    return wf.deinterleave_values(stats, depth, chain.constellation.q)


PHYSICAL = sk.ChannelSpec(mode="physical",
                          detector=ac.DetectorModel(background_power=5e-7))

# links without memory: no LED pole, a channel that only scales
MEMORYLESS = {
    "f1-awgn-snr-interleaved": RECEIVED["f1-awgn-eppm-interleaved"],
    "f1-split-4-awgn-sigma": SHARED_SWEEPS["saturation-f1-meppm-split-4"][0],
    "f1-physical-los-0.7": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="eppm"), geometry=geo(sps=4),
        channel=replace(PHYSICAL, model=ac.ChannelModel(los_gain=0.7)),
        peak_power_per_unit=3e-9, run=sk.RunSpec(batch_symbols=128), seed=6),
    "f2-physical-meppm3c-saturating": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=3,
                             use_complements=True),
        geometry=geo(sps=4, f=2), device=ac.LedModel(saturation_power=3e-8),
        channel=PHYSICAL, peak_power_per_unit=2e-8,
        run=sk.RunSpec(batch_symbols=24), seed=7),
    "f2-awgn": SHARED_SWEEPS["snr-f2-eppm"][0],
}

# links with memory: an LED pole, or a channel that does more than scale
WITH_MEMORY = {
    "f10-trichromatic-pole": RECEIVED["f10-physical-meppm21-trichromatic"],
    "f1-physical-nlos": SHARED_SWEEPS["delay-spread-f1-physical"][0],
    "f1-awgn-los-delay": replace(
        awgn_config(geometry=geo(sps=4), run=sk.RunSpec(batch_symbols=128)),
        channel=sk.ChannelSpec(mode="awgn", slot_snr_db=12.0,
                               model=ac.ChannelModel(los_delay=0.25e-6))),
    "f2-awgn-shadowed": replace(
        SHARED_SWEEPS["snr-f2-eppm"][0],
        channel=sk.ChannelSpec(mode="awgn", model=ac.ChannelModel(
            nlos_gain=0.5, shadowed=True))),
    # the pole's output falls to 0.57 of itself a slot
    "f1-phosphor-30ns": awgn_config(
        geometry=geo(sps=20, slot=30e-9), device=ac.LED_PRESETS["phosphor"],
        run=sk.RunSpec(batch_symbols=128)),
    "f3-physical-trichromatic-nlos-delayed-shadowed": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="meppm", q=7, k=3, n=3,
                             use_complements=True),
        geometry=geo(sps=12, f=3, slot=10e-9),
        device=ac.LED_PRESETS["trichromatic"],
        channel=replace(PHYSICAL, model=ac.ChannelModel(
            los_delay=2.5e-9, nlos_gain=0.4, nlos_decay=15e-9,
            shadowed=True)),
        peak_power_per_unit=2e-8, run=sk.RunSpec(batch_symbols=24), seed=8),
}

SLOT_RATE = {**MEMORYLESS, **WITH_MEMORY}


class TestSlotRateRender:
    @pytest.mark.parametrize("name", list(SLOT_RATE))
    def test_slot_means_match_the_configured_rate(self, name):
        chain = sk._build_chain(SLOT_RATE[name])
        draws = chain.draw([3, 0, 5])
        stats = chain.statistics(draws)
        g = chain.geometry
        means = configured_means(chain, chain.modulate(chain.words(
            draws.sent)), draws)
        expected = in_symbol_order(chain, rx.slot_statistics(means, g, 1))
        if g.overlap_factor > 1:
            means = np.cumsum(means, axis=1)
        scale = np.abs(means).max(axis=1, keepdims=True)
        assert stats.shape == expected.shape
        assert (scale > 0).all()
        assert (np.abs(stats - expected) <= ULPS * EPS * scale).all()

    @pytest.mark.parametrize("name", [
        name for name, config in SLOT_RATE.items()
        if config.geometry.overlap_factor > 1])
    def test_kernels_match_the_configured_rate(self, name, monkeypatch):
        chain = sk._build_chain(SLOT_RATE[name])
        pulses = []
        slot_statistics = chain._slot_statistics

        def spy(modulated, *args):
            pulses.append(modulated)
            return slot_statistics(modulated, *args)

        monkeypatch.setattr(chain, "_slot_statistics", spy)
        kernel = chain._effective_kernel()
        (pulse,) = pulses
        stats = rx.slot_statistics(configured_means(chain, pulse),
                                   chain.geometry, 1)
        peak = np.abs(stats).max()
        expected = stats[:np.flatnonzero(np.abs(stats) > 1e-9 * peak)[-1] + 1]
        assert kernel.shape == expected.shape
        assert (np.abs(kernel - expected) <= ULPS * EPS * peak).all()

    @pytest.mark.parametrize("name", list(SLOT_RATE))
    def test_a_link_with_memory_is_measured_once(self, name, monkeypatch):
        # a run of two waves measures the slot response of a link with
        # memory once, and that of a link without memory never
        config = SLOT_RATE[name]
        measured = []
        led_transfer = ac.led_transfer

        def counted(*args, **kwargs):
            measured.append(args[1])
            return led_transfer(*args, **kwargs)

        monkeypatch.setattr(ac, "led_transfer", counted)
        batch_bits = sk._build_chain(config).batch_bits
        sk.run_trials(replace(config, run=replace(
            config.run, max_bits=sk.WAVE_BATCHES * batch_bits + 1,
            min_errors=10 ** 9)))
        assert len(measured) == (1 if name in WITH_MEMORY else 0)


# F=1 links without memory, whose stacks gather their light from a table
# of their symbols' light (of their slot levels for a lattice code) and
# receive it in symbol order
TABLE_LIGHT = {
    "eppm-awgn-depth-1": awgn_config(snr_db=6.0, geometry=geo(sps=4),
                                     run=sk.RunSpec(batch_symbols=64)),
    "eppm-awgn-depth-8": awgn_config(snr_db=6.0, geometry=geo(sps=4),
                                     interleaver_depth=8,
                                     run=sk.RunSpec(batch_symbols=64)),
    "mppm-dimmed-saturating": awgn_config(
        kind="mppm", device=ac.LedModel(saturation_power=0.8),
        dimming_target=0.6, run=sk.RunSpec(batch_symbols=48), seed=2),
    "meppm3c-split-3-saturating-sigma": replace(
        awgn_config(kind="meppm", n=3, use_complements=True,
                    device=ac.LedModel(saturation_power=1.5),
                    array_split_leds=3, run=sk.RunSpec(batch_symbols=40),
                    seed=3),
        channel=sk.ChannelSpec(mode="awgn", sample_noise_sigma=0.4)),
    "meppm21c-lattice": awgn_config(
        kind="meppm", n=21, use_complements=True, snr_db=20.0,
        run=sk.RunSpec(batch_symbols=16), seed=4),
    "ppm-identity": sk.TrialConfig(
        scheme=sk.SchemeSpec(kind="ppm", q=8), geometry=geo(),
        channel=sk.ChannelSpec(mode="identity"),
        run=sk.RunSpec(batch_symbols=32), seed=5),
    "eppm-physical-los-0.7-depth-4": replace(
        MEMORYLESS["f1-physical-los-0.7"], interleaver_depth=4),
    "batch-symbols-0": awgn_config(run=sk.RunSpec(batch_symbols=0)),
}


def rendered_statistics(chain, draws):
    """The slot statistics of a stack as a rendering chain takes them: the
    sent symbols' codewords, interleaved, through `light`, then the channel
    with the draws' normals in send order, the slot statistics, and back
    in symbol order."""
    cfg = chain.config
    light = chain.light(chain.modulate(chain.words(draws.sent)), chain.peak,
                        sk._Workspace())
    means = sk._apply_channel(light, cfg.channel.link, cfg,
                              1 / chain.geometry.slot_duration, draws)
    return in_symbol_order(chain, rx.slot_statistics(means, chain.geometry,
                                                     1))


class TestTableLight:
    @pytest.mark.parametrize("name", list(TABLE_LIGHT))
    def test_statistics_equal_the_rendered_ones(self, name):
        chain = sk._build_chain(TABLE_LIGHT[name])
        draws = chain.draw([2, 0, 7])
        assert not chain._renders
        assert draws.modulated == []
        stats = chain.statistics(draws)
        expected = rendered_statistics(chain, draws)
        assert stats.shape == expected.shape == (
            3, chain._slots(chain.batch_symbols()))
        assert stats.tobytes() == expected.tobytes()

    def test_a_lattice_code_tabulates_its_levels(self):
        chain = sk._build_chain(TABLE_LIGHT["meppm21c-lattice"])
        assert not chain.constellation.is_materialized
        assert chain._light_table.shape == (22,)
        assert not chain._light_table.flags.writeable


def unbounded(config, max_bits):
    """The config run to `max_bits`, whatever its errors."""
    return replace(config, run=replace(config.run, max_bits=max_bits,
                                       min_errors=10 ** 9))


def sweep_points(name, workers):
    config, axis, points = SHARED_SWEEPS[name]
    config = replace(config, run=replace(config.run, workers=workers))
    return [sk._config_at(config, axis, p) for p in points]


def ofdm_stacks_of_three(waves):
    """The DCO-OFDM config of STACKED_RUNS in batches that fill a stack
    three at a time, run for `waves` waves."""
    base = STACKED_RUNS["dco-ofdm-saturating"]
    frame = base.scheme.build_ofdm()
    n = sk.STACK_SAMPLES // (3 * frame.frame_samples)
    return unbounded(replace(base, run=sk.RunSpec(batch_symbols=n)),
                     (waves - 1) * sk.WAVE_BATCHES * n * frame.bits_per_frame
                     + 1)


# `_run_points` inputs whose threads each run several stacks
WORKSPACE_RUNS = {
    "f1-awgn-interleaved": [unbounded(
        RECEIVED["f1-awgn-eppm-interleaved"], 24 * 60 * 2)],
    "f1-physical": sweep_points("delay-spread-f1-physical", 1)[:1],
    "f1-split-4": [unbounded(
        STACKED_RUNS["f1-meppm-split-4-saturating"], 24 * 40 * 7)],
    "snr-sweep-w1": sweep_points("snr-f1-eppm-interleaved", 1),
    "snr-sweep-w2": sweep_points("snr-f1-eppm-interleaved", 2),
    "dco-ofdm": [ofdm_stacks_of_three(waves=3)],
}


class TestWorkspace:
    @pytest.mark.parametrize("name", list(WORKSPACE_RUNS))
    def test_calls_in_one_thread_repeat(self, name, monkeypatch):
        configs = WORKSPACE_RUNS[name]
        first = sk._run_points(configs)
        assert sk._run_points(configs) == first
        take = sk._Workspace.take

        def poisoned(workspace, key, shape):
            buffer = take(workspace, key, shape)
            buffer[...] = np.nan
            return buffer

        # a stage that read a buffer before writing all of it would see
        # NaN here, and the last stack's samples in a reused buffer
        monkeypatch.setattr(sk._Workspace, "take", poisoned)
        assert sk._run_points(configs) == first

    @pytest.mark.parametrize("device", [
        ac.LED_PRESETS["ideal"], ac.LedModel(saturation_power=0.8),
        ac.LED_PRESETS["phosphor"],
    ], ids=["ideal", "saturating", "pole"])
    def test_the_drive_holds_the_render_grid(self, device):
        # a pulse link runs one value a slot, whatever its LED: the drive
        # it renders over a link with memory, otherwise the light it
        # gathers from its symbols' table
        config = awgn_config(geometry=geo(sps=4), device=device,
                             run=sk.RunSpec(batch_symbols=256))
        chain = sk._build_chain(config)
        draws = chain.draw([0, 1, 2])
        chain.statistics(draws)
        slots = chain._slots(chain.batch_symbols())
        key = ("drive", 0) if chain._renders else "light"
        assert chain._renders == (device.bandwidth_3db < np.inf)
        drive = draws.workspace._buffers[key]
        assert drive.size == 3 * slots

    def test_threads_keep_their_own_buffers(self):
        # more workers than cores, switching threads often: buffers that
        # two threads shared would mix their stacks' samples
        config = awgn_config(snr_db=6.0, geometry=geo(sps=4), run=sk.RunSpec(
            max_bits=16 * 2048 * 2, min_errors=10 ** 9, batch_symbols=2048))
        serial = sk.run_trials(config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = sk.run_trials(replace(config, run=replace(
                config.run, workers=4)))
        finally:
            sys.setswitchinterval(interval)
        assert pooled == serial

    def test_threads_share_one_slot_response(self):
        # every thread of the first wave asks a new chain for its link's
        # slot response, which the chain measures on first use
        config = awgn_config(
            snr_db=12.0, geometry=geo(sps=4, slot=3e-8),
            device=ac.LED_PRESETS["phosphor"], run=sk.RunSpec(
                max_bits=16 * 2048 * 2, min_errors=10 ** 9,
                batch_symbols=2048))
        serial = sk.run_trials(config)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pooled = sk.run_trials(replace(config, run=replace(
                config.run, workers=4)))
        finally:
            sys.setswitchinterval(interval)
        assert serial.bit_errors > 0
        assert pooled == serial

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("config, keys", [
        # 14,336 slots a batch: 4 a stack, 2 stacks a wave; the stacks
        # gather their light, and the table's levels are sent once
        (awgn_config(geometry=geo(sps=4), run=sk.RunSpec(
            max_bits=16 * 2048 * 2, min_errors=10 ** 9, batch_symbols=2048)),
         {("drive", 0), "light", "noise", "normals"}),
        # F>1: a stack a wave, each rendered
        (unbounded(SHARED_SWEEPS["snr-f2-eppm"][0], 3 * 8 * 64 * 2),
         {("drive", 0), "noise", "normals"}),
    ], ids=["f1", "f2"])
    def test_a_thread_reuses_its_buffers(self, config, keys, workers,
                                         monkeypatch):
        config = replace(config, run=replace(config.run, workers=workers))
        taken, returned = [], []
        take = sk._Workspace.take
        statistics = sk._PulseChain.statistics
        counts = sk._PulseChain.counts

        def spy_take(workspace, key, shape):
            buffer = take(workspace, key, shape)
            taken.append((workspace, threading.get_ident(), key, buffer))
            return buffer

        def spy_statistics(chain, draws):
            returned.append(statistics(chain, draws))
            return returned[-1]

        def spy_counts(chain, draws):
            rows = counts(chain, draws)
            returned.extend(v for row in rows for v in row)
            return rows

        monkeypatch.setattr(sk._Workspace, "take", spy_take)
        monkeypatch.setattr(sk._PulseChain, "statistics", spy_statistics)
        monkeypatch.setattr(sk._PulseChain, "counts", spy_counts)
        sk._run_points([config])
        # at F>1 the receiver's kernel is measured in a workspace of its
        # own, and at F=1 the table's light
        buffers = {}
        for *owner, buffer in taken:
            buffers.setdefault(tuple(owner), []).append(buffer)
        assert {key for *_, key in buffers} == keys
        # some thread ran two stacks or more, in the same memory
        assert max(len(same) for same in buffers.values()) > 1
        for same in buffers.values():
            assert all(np.shares_memory(b, same[0]) for b in same)
        # no two threads, and no two keys, share memory
        firsts = [same[0] for same in buffers.values()]
        for i, a in enumerate(firsts):
            assert not any(np.shares_memory(a, b) for b in firsts[i + 1:])
        # what a link returns is its own
        for a in returned:
            if isinstance(a, np.ndarray):
                assert not any(np.shares_memory(a, b) for b in firsts)
            else:
                assert isinstance(a, int)


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
            run=sk.RunSpec(max_bits=8_000_000, min_errors=2000,
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
        ({"scheme": {"kind": "meppm", "q": 8, "k": 4, "n": 2,
                     "use_complements": True}, "decoder": "components"},
         "$", "decoder"),
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
            "components-decoder-on-eppm",
            "components-decoder-without-lattice", "zero-interleaver-depth",
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
