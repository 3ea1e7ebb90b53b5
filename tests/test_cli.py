"""Command-line interface tests (run via subprocess for real exit codes)."""

import json
import os
import subprocess
import sys

import pytest

import vlclink

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
    ], ids=["non-numeric-point", "dimming-point-zero"])
    def test_bad_sweep_point_reports_json_path(self, tmp_path, verb, points):
        cfg = write_config(tmp_path, dict(BASE_EPPM, sweep={"points": points}))
        out_dir = tmp_path / "out"
        res = run_cli(verb, "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 3
        assert res.stderr.startswith("error: config: sweep.points")
        assert "Traceback" not in res.stderr
        assert not out_dir.exists()

    @pytest.mark.parametrize("patch", [
        {"scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 21,
                    "use_complements": True}, "decoder": "ml"},
        {"scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 4},
         "array_split_leds": 2},
        {"scheme": {"kind": "meppm", "q": 8, "k": 4, "n": 12,
                    "use_complements": True}},
    ], ids=["ml-decoder-too-large", "too-few-split-leds",
            "enumeration-guard"])
    def test_capacity_error_exit_3(self, tmp_path, patch):
        doc = dict(BASE_EPPM, sweep={"points": [6.0, 9.0]}, **patch)
        cfg = write_config(tmp_path, doc)
        out_dir = tmp_path / "out"
        res = run_cli("ber-sweep", "--config", cfg, "--output-dir", str(out_dir))
        assert res.returncode == 3
        assert res.stderr.startswith("error: parameter:")
        assert len(res.stderr.splitlines()) == 1
        assert not out_dir.exists()

    def test_zero_workers_flag_exit_3(self, tmp_path):
        cfg = write_config(tmp_path, dict(BASE_EPPM, sweep={"points": [6.0, 9.0]}))
        out_dir = tmp_path / "out"
        res = run_cli("ber-sweep", "--config", cfg, "--output-dir", str(out_dir),
                      "--workers", "0")
        assert res.returncode == 3
        assert res.stderr == "error: parameter: workers must be >= 1\n"
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
