"""Command-line interface tests (run via subprocess for real exit codes)."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest
import slot_reference

import vlclink
from vlclink import analog_chain as ac
from vlclink import cli
from vlclink import simkit as sk
from vlclink import waveform as wf
from vlclink.schema import section

BASE_EPPM = {
    "scheme": {"kind": "eppm", "q": 7, "k": 3},
    "geometry": {"slot_duration": 1e-6, "samples_per_slot": 2},
    "channel": {"mode": "awgn", "slot_snr_db": 8.0},
    "run": {"max_bits": 20000, "min_errors": 40, "batch_symbols": 512},
    "seed": 5,
}


# The directory that holds the imported vlclink package, made absolute so the
# child imports the same package whatever its working directory.
PACKAGE_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(vlclink.__file__)))


def run_cli(*argv, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (PACKAGE_ROOT, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "vlclink.cli", *argv],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


def write_config(tmp_path, doc, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestConstruct:
    def test_eppm_stats_output(self, tmp_path):
        cfg = write_config(tmp_path, BASE_EPPM)
        out_dir = tmp_path / "out"
        res = run_cli("construct", "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 0
        assert "size=7" in res.stdout
        assert "papr=2.33333" in res.stdout
        assert "min_distance=4" in res.stdout
        assert (out_dir / "constellation.json").exists()

    def test_stats_roundtrip(self, tmp_path):
        cfg = write_config(tmp_path, BASE_EPPM)
        out_dir = tmp_path / "out"
        run_cli("construct", "--config", cfg, "--output-dir", str(out_dir))
        res = run_cli("stats", "--config", str(out_dir / "constellation.json"),
                      "--output-dir", str(out_dir))
        assert res.returncode == 0
        assert "size=7" in res.stdout

    @pytest.mark.parametrize("scheme, line", [
        ({"kind": "ppm", "q": 8},
         "scheme=ppm Q=8 K=1 N=1 complements=false size=8 bits_per_symbol=3 "
         "papr=8 min_distance=2"),
        ({"kind": "mppm", "q": 7, "k": 3},
         "scheme=mppm Q=7 K=3 N=1 complements=false size=35 "
         "bits_per_symbol=5 papr=2.33333 min_distance=2"),
        ({"kind": "eppm", "q": 7, "k": 3},
         "scheme=eppm Q=7 K=3 N=1 complements=false size=7 "
         "bits_per_symbol=2 papr=2.33333 min_distance=4"),
        ({"kind": "meppm", "q": 7, "k": 3, "n": 2, "use_complements": True},
         "scheme=meppm Q=7 K=3 N=2 complements=true size=99 "
         "bits_per_symbol=6 papr=2 min_distance=2"),
        ({"kind": "meppm", "q": 7, "k": 3, "n": 21, "use_complements": True},
         "scheme=meppm Q=7 K=3 N=21 complements=true size=32826266 "
         "bits_per_symbol=24 papr=2 min_distance=2"),
    ], ids=["ppm8", "mppm73", "eppm73", "meppm732c", "meppm7321c-implicit"])
    def test_construct_stats_round_trip(self, tmp_path, capsys, scheme,
                                        line):
        cfg = write_config(tmp_path, dict(BASE_EPPM, scheme=scheme))
        out_dir = tmp_path / "out"
        assert cli.main(["construct", "--config", cfg,
                         "--output-dir", str(out_dir)]) == 0
        assert capsys.readouterr().out == line + "\n"
        path = out_dir / "constellation.json"
        assert cli.main(["stats", "--config", str(path)]) == 0
        assert capsys.readouterr().out == line + "\n"
        block = json.loads(path.read_text())["scheme"]
        assert (section(sk.SchemeSpec, block, "scheme")
                == section(sk.SchemeSpec, scheme, "scheme"))

    @pytest.mark.parametrize("edit, path", [
        (lambda doc: {k: v for k, v in doc.items() if k != "symbol_count"},
         "$.symbol_count"),
        (lambda doc: '{"scheme": ', "$"),
        (lambda doc: [doc], "$"),
        (lambda doc: dict(doc, comment="x"), "$.comment"),
        (lambda doc: dict(doc, scheme=dict(doc["scheme"],
                                           use_complements="yes")),
         "scheme.use_complements"),
        (lambda doc: dict(doc, seed_word=[0, 1, 9]), "$.seed_word"),
        (lambda doc: dict(doc, symbol_count=8), "$.symbol_count"),
        (lambda doc: dict(doc, scheme=dict(doc["scheme"], kind="dco_ofdm")),
         "scheme.kind"),
        (lambda doc: {"K": 3, "N": 1, "Q": 7, "bits_per_symbol": 2,
                      "scheme": "eppm", "seed_word": [1, 2, 4],
                      "symbol_count": 7, "use_complements": False}, "$.K"),
    ], ids=["missing-key", "invalid-json", "non-object", "unknown-key",
            "wrong-type", "seed-word-mismatch", "symbol-count-mismatch",
            "not-a-pulse-scheme", "old-format"])
    def test_stats_rejects_with_json_path(self, tmp_path, capsys, edit,
                                          path):
        out_dir = tmp_path / "out"
        assert cli.main(["construct", "--config",
                         write_config(tmp_path, BASE_EPPM),
                         "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        target = out_dir / "constellation.json"
        edited = edit(json.loads(target.read_text()))
        target.write_text(edited if isinstance(edited, str)
                          else json.dumps(edited))
        code = cli.main(["stats", "--config", str(target)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"error: config: {path}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""

    @pytest.mark.parametrize("flag", ["--seed", "--workers"])
    def test_stats_rejects_run_flags(self, tmp_path, capsys, flag):
        # stats reads a recorded code: there is no trial to seed or spread
        out_dir = tmp_path / "out"
        assert cli.main(["construct", "--config",
                         write_config(tmp_path, BASE_EPPM),
                         "--output-dir", str(out_dir)]) == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as exc:
            cli.main(["stats", "--config", str(out_dir / "constellation.json"),
                      flag, "2"])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.err.startswith("usage: vlclink")
        assert captured.err.endswith(
            f"error: unrecognized arguments: {flag} 2\n")
        assert captured.out == ""

    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_result_files_are_strict_json(self, tmp_path, capsys):
        # NaN and Infinity are not JSON; Python writes and reads them
        # unless told otherwise.  The default saturation_power is infinite,
        # so the manifest holds an infinity
        def refuse(name):
            raise ValueError(f"non-JSON constant {name}")

        doc = dict(BASE_EPPM, device={"bandwidth_3db": 1e6},
                   sweep={"points": [6.0, 9.0]})
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        for verb in ("construct", "rate", "ber-sweep"):
            assert cli.main([verb, "--config", cfg,
                             "--output-dir", str(out_dir)]) == 0
        written = sorted(out_dir.glob("*.json"))
        assert [p.name for p in written] == [
            "constellation.json", "eppm_snr_manifest.json", "rate.json"]
        for path in written:
            json.loads(path.read_text(), parse_constant=refuse)
        with pytest.raises(ValueError):
            sk.write_json(str(tmp_path / "nan.json"), {"ber": float("nan")})


class TestRate:
    def test_gigabit_preset(self, tmp_path):
        doc = {
            "scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 21,
                       "use_complements": True},
            "geometry": {"slot_duration": 9e-9, "samples_per_slot": 20,
                         "overlap_factor": 10},
            "device": {"bandwidth_3db": 11111111.111111112},
            "rate": {"n_colors": 3, "bits_per_symbol": 21},
        }
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("rate", "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 0
        assert "per_color_mbps=333" in res.stdout
        assert "aggregate_gbps=1.0" in res.stdout
        assert (out_dir / "rate.json").exists()

    @pytest.mark.parametrize("patch, path", [
        ({"rate": {"n_colors": 0}}, "rate"),
        ({"rate": {"n_colors": -3}}, "rate"),
        ({"rate": {"bits_per_symbol": -2}}, "rate"),
        ({"device": {"preset": "ideal"}}, "device.bandwidth_3db"),
        ({"rate": {"bits_per_symbol": 5}}, "rate.bits_per_symbol"),
    ], ids=["zero-colors", "negative-colors", "negative-bits-per-symbol",
            "ideal-led", "bits-per-symbol-above-the-code"])
    def test_rejected_rate_exit_3(self, tmp_path, capsys, patch, path):
        doc = {**BASE_EPPM, "device": {"bandwidth_3db": 1e6}, **patch}
        out_dir = tmp_path / "out"
        code = cli.main(["rate", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(f"error: config: {path}: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out_dir.exists()


class TestErrors:
    def test_missing_config_exit_3_no_outputs(self, tmp_path):
        out_dir = tmp_path / "out"
        res = run_cli("construct", "--config", str(tmp_path / "nope.json"),
                      "--output-dir", str(out_dir))
        assert res.returncode == 3
        assert res.stderr.startswith("error: config:")
        assert not out_dir.exists()

    def test_invalid_config_reports_json_path(self, tmp_path):
        cfg = write_config(tmp_path, {"scheme": {"kind": "warp"},
                                      "geometry": {}})
        res = run_cli("construct", "--config", cfg)
        assert res.returncode == 3
        assert "scheme.kind" in res.stderr

    @pytest.mark.parametrize("verb, points", [
        ("ber-sweep", [6.0, "high"]),
        ("dimming-sweep", [0, 0.5]),
        ("dimming-sweep", [0.5, 0.05]),
    ], ids=["non-numeric-point", "dimming-point-zero",
            "dimming-point-below-one-pulse"])
    def test_bad_sweep_point_reports_json_path(self, tmp_path, verb, points):
        cfg = write_config(tmp_path, dict(BASE_EPPM, sweep={"points": points}))
        out_dir = tmp_path / "out"
        res = run_cli(verb, "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 3
        assert res.stderr.startswith("error: config: sweep.points")
        assert "Traceback" not in res.stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb, patch, path", [
        ("ber-sweep", {"channel": {"mode": "awgn", "sample_noise_sigma": 1.5}},
         "sweep.points"),
        ("ber-sweep", {"scheme": {"kind": "dco_ofdm"},
                       "channel": {"mode": "identity",
                                   "model": {"los_gain": 0.5}}},
         "sweep.points"),
        ("isi-sweep", {}, "sweep.points"),
        ("isi-sweep", {"geometry": {"slot_duration": 1e-6,
                                    "samples_per_slot": 4,
                                    "overlap_factor": 2},
                       "channel": {"mode": "awgn",
                                   "model": {"los_gain": 0.7,
                                             "nlos_gain": 0.3}}},
         "sweep.depths"),
    ], ids=["snr-with-fixed-sigma", "snr-on-identity-channel",
            "delay-spread-without-nlos", "depth-above-1-at-f2"])
    def test_sweep_checked_before_any_point_runs(self, tmp_path, capsys,
                                                 verb, patch, path):
        # an ignored axis would write the same row at every point, and a
        # bad depth would fail only after the earlier depths' sweeps.  Run
        # in process: only the exit code, stderr and the outputs are tested
        doc = dict(BASE_EPPM, sweep={"points": [0.5, 1.0]}, **patch)
        out_dir = tmp_path / "out"
        code = cli.main([verb, "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: config: {path}: ")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("compare, patch, path, message", [
        ({"saturation_points": [1.5, -1]}, {}, "compare.saturation_points",
         "-1: saturation_power must be positive"),
        ({"saturation_points": [1.5, 0]}, {}, "compare.saturation_points",
         "0: saturation_power must be positive"),
        ({"saturation_points": [2.0]}, {}, "compare.saturation_points",
         "a sweep needs at least 2 points"),
        ({"saturation_points": [1.5, 4.0]}, {"dimming_target": 0.3},
         "compare.ofdm_scheme", "dimming_target needs a pulse scheme"),
        ({"saturation_points": [1.5, 4.0],
          "ofdm_scheme": {"kind": "ppm", "q": 4}},
         {}, "compare.ofdm_scheme.kind", 'expected "dco_ofdm"'),
    ], ids=["negative-saturation", "zero-saturation", "one-point",
            "dimming-on-ofdm", "pulse-scheme-as-ofdm"])
    def test_nonlin_compare_checked_before_any_point_runs(
            self, tmp_path, capsys, monkeypatch, compare, patch, path,
            message):
        def no_calibration(*args, **kwargs):
            raise AssertionError("a point was calibrated")

        monkeypatch.setattr(sk, "_calibrated", no_calibration)
        doc = dict(BASE_EPPM, scheme={"kind": "meppm", "q": 7, "k": 3,
                                      "n": 4},
                   array_split_leds=4, compare=compare, **patch)
        out_dir = tmp_path / "out"
        code = cli.main(["nonlin-compare", "--config",
                         write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)])
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith(f"error: config: {path}: {message}")
        assert len(err.splitlines()) == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("patch, message", [
        ({"scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 21,
                     "use_complements": True}, "decoder": "ml"},
         '$: decoder "ml": 32826266 symbols exceed the codeword table'),
        ({"scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 4},
          "array_split_leds": 2},
         "$: array_split_leds: slot level 4 exceeds 2 LEDs"),
        ({"scheme": {"kind": "meppm", "q": 8, "k": 4, "n": 12,
                     "use_complements": True}},
         "scheme: 17383860 component multisets exceed the enumeration"),
    ], ids=["ml-decoder-too-large", "too-few-split-leds",
            "enumeration-guard"])
    def test_capacity_error_exit_3(self, tmp_path, patch, message):
        # caught where the config is parsed, before any point runs
        doc = dict(BASE_EPPM, sweep={"points": [6.0, 9.0]}, **patch)
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("ber-sweep", "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 3
        assert res.stderr.startswith(f"error: config: {message}")
        assert len(res.stderr.splitlines()) == 1
        assert not out_dir.exists()

    def test_components_decoder_without_lattice_exit_3(self, tmp_path,
                                                       capsys):
        doc = dict(BASE_EPPM, sweep={"points": [6.0, 9.0]},
                   scheme={"kind": "meppm", "q": 8, "k": 4, "n": 2,
                           "use_complements": True},
                   decoder="components")
        out_dir = tmp_path / "out"
        code = cli.main(["ber-sweep", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("error: config: $: decoder \"components\" "
                                "needs a MEPPM code with a lattice\n")
        assert captured.out == ""
        assert not out_dir.exists()

    @pytest.mark.parametrize("verb", ["construct", "rate", "flicker",
                                      "nonlin-compare"])
    def test_pulse_verb_on_ofdm_names_scheme_kind(self, tmp_path, capsys,
                                                  verb):
        doc = dict(BASE_EPPM, scheme={"kind": "dco_ofdm"})
        out_dir = tmp_path / "out"
        code = cli.main([verb, "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("error: config: scheme.kind: not a pulse "
                                "scheme: 'dco_ofdm'\n")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_zero_workers_flag_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE_EPPM, sweep={"points": [6.0, 9.0]}))
        out_dir = tmp_path / "out"
        res = run_cli("ber-sweep", "--config", cfg, "--output-dir", str(out_dir),
                      "--workers", "0")
        assert res.returncode == 3
        assert res.stderr == "error: parameter: workers must be >= 1\n"
        assert not out_dir.exists()

    def test_negative_batch_symbols_exit_3(self, tmp_path):
        doc = dict(BASE_EPPM, sweep={"points": [6.0, 9.0]},
                   run=dict(BASE_EPPM["run"], batch_symbols=-1))
        out_dir = tmp_path / "out"
        res = run_cli("ber-sweep", "--config", write_config(tmp_path, doc),
                      "--output-dir", str(out_dir))
        assert res.returncode == 3
        assert res.stderr == ("error: config: run: batch_symbols must be "
                              ">= 0\n")
        assert not out_dir.exists()

    def test_unknown_verb_exit_2(self):
        res = run_cli("frobnicate", "--config", "x.json")
        assert res.returncode == 2

    def test_version(self):
        res = run_cli("--version")
        assert res.returncode == 0
        assert "vlclink" in res.stdout


class TestSweepCommands:
    def test_ber_sweep_writes_csv(self, tmp_path):
        doc = dict(BASE_EPPM)
        doc["sweep"] = {"points": [6.0, 9.0]}
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("ber-sweep", "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 0
        csv_path = out_dir / "eppm_snr.csv"
        assert csv_path.exists()
        assert csv_path.read_text().startswith("axis_value,bits,errors")

    def test_idempotent_reruns(self, tmp_path):
        doc = dict(BASE_EPPM)
        doc["sweep"] = {"points": [6.0, 9.0]}
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        run_cli("ber-sweep", "--config", cfg, "--output-dir", str(out_dir))
        first = (out_dir / "eppm_snr.csv").read_bytes()
        manifest_first = (out_dir / "eppm_snr_manifest.json").read_bytes()
        run_cli("ber-sweep", "--config", cfg, "--output-dir", str(out_dir))
        assert (out_dir / "eppm_snr.csv").read_bytes() == first
        assert (out_dir / "eppm_snr_manifest.json").read_bytes() == manifest_first

    def test_writes_confined_to_output_dir(self, tmp_path):
        doc = dict(BASE_EPPM)
        doc["sweep"] = {"points": [6.0, 9.0]}
        cfg_dir = tmp_path / "work"
        cfg_dir.mkdir()
        cfg = write_config(cfg_dir, doc)
        out_dir = tmp_path / "results"
        before = set(os.listdir(cfg_dir))
        res = run_cli("ber-sweep", "--config", cfg,
                      "--output-dir", str(out_dir), cwd=str(cfg_dir))
        assert res.returncode == 0
        assert set(os.listdir(cfg_dir)) == before

    def test_isi_sweep_writes_per_depth_csv(self, tmp_path):
        doc = {
            "scheme": {"kind": "eppm", "q": 7, "k": 3},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
            "channel": {
                "mode": "awgn", "slot_snr_db": 14.0,
                "model": {"los_gain": 0.0, "nlos_gain": 1.0,
                          "nlos_decay": 2e-6, "shadowed": True},
            },
            "run": {"max_bits": 30000, "min_errors": 60, "batch_symbols": 512},
            "sweep": {"points": [1.0, 2.0], "depths": [1, 4]},
            "seed": 3,
        }
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("isi-sweep", "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 0
        assert (out_dir / "eppm_d1_delay_spread.csv").exists()
        assert (out_dir / "eppm_d4_delay_spread.csv").exists()

    def test_nonlin_compare_prints_ordering(self, tmp_path):
        doc = {
            "scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 4},
            "geometry": {"slot_duration": 1e-7, "samples_per_slot": 2},
            "device": {"bandwidth_3db": "inf", "saturation_power": 2.0},
            "channel": {"mode": "awgn", "sample_noise_sigma": 0.3},
            "run": {"max_bits": 40000, "min_errors": 60, "batch_symbols": 512},
            "array_split_leds": 4,
            "compare": {
                "saturation_points": [1.5, 4.0],
                "mean_power": 1.0,
                "ofdm_scheme": {"kind": "dco_ofdm", "n_subcarriers": 64,
                                "qam_order": 16, "dc_bias_sigma": 3.5,
                                "cyclic_prefix": 8, "sample_rate": 5.8e6},
            },
            "seed": 23,
        }
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("nonlin-compare", "--config", cfg,
                      "--output-dir", str(out_dir))
        assert res.returncode == 0
        assert "ordering_holds=" in res.stdout
        assert (out_dir / "meppm_saturation.csv").exists()
        assert (out_dir / "dco_ofdm_saturation.csv").exists()

    def test_dimming_sweep(self, tmp_path):
        doc = {
            "scheme": {"kind": "eppm", "q": 15, "k": 7},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 2},
            "channel": {"mode": "identity"},
            "run": {"max_bits": 4000, "min_errors": 5, "batch_symbols": 128},
            "sweep": {"points": [0.25, 0.4]},
        }
        cfg = write_config(tmp_path, doc)
        res = run_cli("dimming-sweep", "--config", cfg,
                      "--output-dir", str(tmp_path / "out"))
        assert res.returncode == 0
        assert "achieved=0.266667" in res.stdout
        assert "achieved=0.4 " in res.stdout

    def test_dimming_sweep_on_ofdm_exit_3(self, tmp_path):
        doc = {
            "scheme": {"kind": "dco_ofdm"},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 2},
            "run": {"max_bits": 4000, "min_errors": 5, "batch_symbols": 4},
            "sweep": {"points": [0.25, 0.4]},
        }
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("dimming-sweep", "--config", cfg,
                      "--output-dir", str(out_dir))
        assert res.returncode == 3
        assert res.stderr.startswith("error: ")
        assert "dimming_target" in res.stderr
        assert len(res.stderr.splitlines()) == 1
        assert not out_dir.exists()


class TestFlickerCommand:
    def test_eppm_flicker_zero(self, tmp_path):
        doc = {
            "scheme": {"kind": "eppm", "q": 7, "k": 3},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
            "flicker": {"n_symbols": 2000, "window_symbols": [1, 3]},
            "seed": 2,
        }
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("flicker", "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 0
        assert "window_symbols=1 flicker=0" in res.stdout
        assert (out_dir / "flicker.csv").exists()

    @pytest.mark.parametrize("windows, n_symbols", [
        ([1, -1], 200),
        ([0.01], 200),      # 0.07 of a slot at Q=7
        ([1, 300], 200),    # longer than the stream
        ([], 200),
        ([0.5], 200),       # 3.5 slots at Q=7, not a whole number
    ], ids=["negative", "below-one-sample", "longer-than-stream", "empty",
            "half-symbol-at-q7"])
    def test_bad_window_exit_3_before_any_output(self, tmp_path, capsys,
                                                 windows, n_symbols):
        doc = {
            "scheme": {"kind": "eppm", "q": 7, "k": 3},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
            "flicker": {"n_symbols": n_symbols, "window_symbols": windows},
        }
        out_dir = tmp_path / "out"
        code = cli.main(["flicker", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err.startswith(
            "error: config: flicker.window_symbols: ")
        assert len(captured.err.splitlines()) == 1
        assert captured.out == ""
        assert not out_dir.exists()

    def test_interleaved_light_is_measured(self, tmp_path):
        # depth 8 spreads each EPPM(7,3) codeword over a block of 8
        # symbols, so windows of 1 and 2 symbols hold uneven light
        doc = {
            "scheme": {"kind": "eppm", "q": 7, "k": 3},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
            "interleaver_depth": 8,
            "flicker": {"n_symbols": 2000, "window_symbols": [1, 2, 8]},
            "seed": 2,
        }
        out_dir = tmp_path / "out"
        assert cli.main(["flicker", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)]) == 0
        config = sk.config_from_document(doc)
        g = config.geometry
        c = config.scheme.build_constellation()
        idx = np.random.default_rng(2).integers(0, c.used_size, size=2000)
        light = wf.synthesize(wf.interleave(c.symbols[idx], 8), g)
        metrics = [sk.flicker_metric(light, g.sample_rate,
                                     k * 7 * g.slot_duration)
                   for k in (1, 2, 8)]
        assert metrics[0] > 0 and metrics[2] == 0
        assert (out_dir / "flicker.csv").read_text() == "".join(
            ["window_symbols,metric\n"] + [
                f"{k},{sk.format_float(m)}\n"
                for k, m in zip((1, 2, 8), metrics)])

    def test_pole_light_matches_the_sample_grid(self, tmp_path):
        # read at the slot rate, the light of an LED with a pole gives the
        # window means of the 50-digit closed form, the limit of its
        # samples on a finer and finer grid, within 4 ULPs of a window's
        # mean (the metric's unit is the global mean)
        doc = {
            "scheme": {"kind": "eppm", "q": 7, "k": 3},
            "geometry": {"slot_duration": 30e-9, "samples_per_slot": 20},
            "device": "trichromatic",
            "interleaver_depth": 8,
            "flicker": {"n_symbols": 2000, "window_symbols": [1, 2, 8]},
            "seed": 2,
        }
        out_dir = tmp_path / "out"
        assert cli.main(["flicker", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)]) == 0
        config = sk.config_from_document(doc)
        g = config.geometry
        c = config.scheme.build_constellation()
        idx = np.random.default_rng(2).integers(0, c.used_size, size=2000)
        light = slot_reference.slot_light(
            wf.synthesize(wf.interleave(c.symbols[idx], 8), g, sps=1),
            config.device, ac.IDENTITY_CHANNEL, g.slot_duration)
        slot_light = sk.random_light(config, 2000)
        assert slot_light.shape == (2000 * 7,)
        metrics = []
        for k in (1, 2, 8):
            window = k * 7 * g.slot_duration
            expected = sk.flicker_metric(light, 1 / g.slot_duration, window)
            metrics.append(sk.flicker_metric(slot_light, 1 / g.slot_duration,
                                             window))
            assert expected > 0 and abs(metrics[-1] - expected) <= (
                4 * np.finfo(np.float64).eps * (1 + expected))
        assert (out_dir / "flicker.csv").read_text() == "".join(
            ["window_symbols,metric\n"] + [
                f"{k},{sk.format_float(m)}\n"
                for k, m in zip((1, 2, 8), metrics)])

    def test_symbols_not_whole_interleaver_blocks_exit_3(self, tmp_path,
                                                         capsys):
        doc = {
            "scheme": {"kind": "eppm", "q": 7, "k": 3},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
            "interleaver_depth": 8,
            "flicker": {"n_symbols": 2001},
        }
        out_dir = tmp_path / "out"
        code = cli.main(["flicker", "--config", write_config(tmp_path, doc),
                         "--output-dir", str(out_dir)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.err == ("error: config: flicker.n_symbols: 2001 is "
                                "not a multiple of interleaver_depth 8\n")
        assert captured.out == ""
        assert not out_dir.exists()

    def test_dimming_target_measures_the_rebuilt_code(self, tmp_path, capsys):
        # MPPM(8,4) dimmed to 0.25 is sent as MPPM(8,2): two pulses can
        # fill a quarter-symbol window at 4x the mean light of K=2
        def flicker_csv(name, scheme, **extra):
            doc = {
                "scheme": scheme,
                "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
                "flicker": {"n_symbols": 500,
                            "window_symbols": [0.25, 0.5, 1]},
                "seed": 2, **extra,
            }
            out_dir = tmp_path / name
            assert cli.main(["flicker", "--config",
                             write_config(tmp_path, doc, f"{name}.json"),
                             "--output-dir", str(out_dir)]) == 0
            return (out_dir / "flicker.csv").read_text()

        dimmed = flicker_csv("dimmed", {"kind": "mppm", "q": 8, "k": 4},
                             dimming_target=0.25)
        assert "window_symbols=0.25 flicker=3\n" in capsys.readouterr().out
        assert dimmed == flicker_csv("k2", {"kind": "mppm", "q": 8, "k": 2})
