"""Bit-identity pins for the benchmark's trial workloads.

The benchmark holds `meppm21-overlap` only to a wide pooled BER window and
`nonlin-compare-cli` only to C8's pooled ordering, so a change to the
receiver's decisions, the transmitted waveform or the drive calibration
would pass it unseen.  The `meppm21-overlap` counts (bits, bit errors,
symbols, symbol errors) and the F=2 correlation pin were measured on the
receiver that cancels every decided codeword, with no soft fallback; the
`nonlin-compare` counts on the per-frame DCO-OFDM modulator and the
per-iteration calibration pilot; the `eppm-awgn-2w` counts on the receiver
that took a `gain` beside its kernel; the `nonlin-compare` result-file
digests on the receiver that ran and decoded each F=1 and DCO-OFDM batch on
its own; the sweep verbs' result-file digests on the engine that ran each
sweep point as its own `run_trials`, drawing its own bits and noise.  The
pins on materialized complement codes (the F=1 ML trial, the F=1
component-decoder pin and the MEPPM dimming-sweep digests) were measured
with every lattice code's table in the lattice's rank order, not in
first-seen enumeration order.  Any change to these fails here.
"""

import hashlib
import importlib.util
import json
import os
from dataclasses import replace

import pytest

import vlclink
from vlclink import cli
from vlclink import simkit as sk

WORKLOADS_PY = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench",
                            "workloads.py")


def load_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  WORKLOADS_PY)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


WORKLOADS = load_workloads()


@pytest.mark.parametrize("seed, counts", [
    (1, (6144, 0, 256, 0)),
    (2, (6144, 212, 256, 18)),
    (12, (6144, 317, 256, 27)),
    (30, (6144, 42, 256, 5)),
])
def test_meppm21_overlap_counts(seed, counts):
    workload = WORKLOADS.Meppm21Overlap(vlclink, workdir=None)
    report = sk.run_trials(sk.config_from_document(workload.document(seed)))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == counts


@pytest.mark.parametrize("seed, counts", [
    (1, {"meppm": [(896, 15), (896, 15), (896, 15)],
         "dco_ofdm": [(15872, 6198), (15872, 5132), (15872, 4891)]}),
    (2, {"meppm": [(896, 15), (896, 15), (896, 15)],
         "dco_ofdm": [(15872, 6173), (15872, 5056), (15872, 4830)]}),
])
def test_nonlin_compare_counts(tmp_path, seed, counts):
    """(bits, bit errors) per scheme at each of the saturation points."""
    doc = WORKLOADS.NonlinCompareCli(vlclink, str(tmp_path)).document(seed)
    config = sk.config_from_document(doc)
    compare = sk.cli_block(doc, "compare")
    results = sk.nonlin_compare(
        config, replace(config, scheme=compare.ofdm_scheme),
        compare.saturation_points, mean_power=compare.mean_power)
    assert {name: [(r.bits_sent, r.bit_errors) for r in reports]
            for name, reports in results.items()} == counts


NONLIN_FILES = ("dco_ofdm_saturation.csv", "dco_ofdm_saturation_manifest.json",
                "meppm_saturation.csv", "meppm_saturation_manifest.json")


@pytest.mark.parametrize("seed, digests", [
    (1, ("917ed4cd417cede1bac76f704a17b0cb9feb7d8e621e6ac3e0b7a4dfbdc5bcf6",
         "11e3b1f36c4cf9cce418d7dd48023fb28bde7882fa5de87cd6ec3853d3105a9d",
         "e03319a7c7cc34317cd71f0e8464ae8539ea03f7e6ec1b537a89ef6d7774ff2c",
         "666865117e339d1fa3429352bb9cea1c3c4f8f54b6a1cee838047af17950917b")),
    (2, ("71299c254e21ef987766af44aa3481f2e7514d1880c3982420d97a050410ab28",
         "99a44a55c23f90e9dec21b0a2ed4c481c088bf767c8b70d00ec02d992feaf662",
         "235e381f723ba5b00c0732f3d5a71e7cb4031f96df74f5c9c2ac8c0d7e6d004c",
         "6908567a4f7c4a79b45b19d679ba6674c9117521c56808484620763fb873b028")),
])
def test_nonlin_compare_result_files(tmp_path, capsys, seed, digests):
    """sha256 of each result file of the `nonlin-compare` verb, run in
    process as the benchmark's operation runs it."""
    workload = WORKLOADS.NonlinCompareCli(vlclink, str(tmp_path))
    out_dir = tmp_path / "out"
    assert cli.main(["nonlin-compare", "--config", workload.config_path,
                     "--seed", str(seed), "--output-dir", str(out_dir)]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == list(NONLIN_FILES)
    assert tuple(hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
                 for name in NONLIN_FILES) == digests


@pytest.mark.parametrize("seed, counts", [
    (1, (262144, 1496, 131072, 1276)),
    (2, (262144, 1377, 131072, 1204)),
    (3, (262144, 1423, 131072, 1221)),
])
def test_eppm_awgn_counts(seed, counts):
    """The interleaved F=1 correlation path of `eppm-awgn-2w`."""
    workload = WORKLOADS.EppmAwgn(vlclink, workdir=None)
    report = sk.run_trials(sk.config_from_document(workload.document(seed)))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == counts


def test_f1_ml_physical_counts():
    """F=1 ML decisions on a physical channel at a pulse gain near 1e-9,
    where the receiver divides the link's scale out before deciding."""
    doc = {
        "scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 2,
                   "use_complements": True},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
        "device": "trichromatic",
        "channel": {
            "mode": "physical",
            "model": {"los_gain": 0.8, "nlos_gain": 0.1, "nlos_decay": 2e-7},
            "detector": {"responsivity": 0.5, "background_power": 5e-7,
                         "thermal_noise_density": 1e-24},
        },
        "peak_power_per_unit": 4e-9,
        "run": {"batch_symbols": 512, "max_bits": 60000,
                "min_errors": WORKLOADS.UNREACHABLE_ERRORS},
        "decoder": "ml",
        "seed": 1,
    }
    report = sk.run_trials(sk.config_from_document(doc))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == (73728, 6116, 12288, 2045)


@pytest.mark.parametrize("seed, counts", [
    (1, (40960, 295, 4096, 62)),
    (2, (40960, 334, 4096, 75)),
])
def test_f1_meppm_complements_components_counts(seed, counts):
    """The component decoder on a materialized complement code, where both
    of its candidates win rows: greedy peeling alone gives SER 0.10 on
    seed 1, the lattice rounding alone 0.070, the better of the two 0.015."""
    doc = {
        "scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 4,
                   "use_complements": True},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
        "channel": {"mode": "awgn", "slot_snr_db": 12.0},
        "run": {"batch_symbols": 512, "max_bits": 40000,
                "min_errors": WORKLOADS.UNREACHABLE_ERRORS},
        "decoder": "components",
        "seed": seed,
    }
    report = sk.run_trials(sk.config_from_document(doc))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == counts


@pytest.mark.parametrize("seed, counts", [
    (1, (40960, 804, 20480, 907)),
    (2, (40960, 930, 20480, 957)),
])
def test_f2_eppm_correlation_counts(seed, counts):
    """The overlapped correlation path: EPPM(7,3) at F=2 over AWGN, where
    decision feedback cancels every decided codeword (the soft fallback it
    replaced gave 1575 and 1695 symbol errors)."""
    doc = {
        "scheme": {"kind": "eppm", "q": 7, "k": 3},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 10,
                     "overlap_factor": 2},
        "channel": {"mode": "awgn", "slot_snr_db": 24.0},
        "run": {"batch_symbols": 512, "max_bits": 40000,
                "min_errors": WORKLOADS.UNREACHABLE_ERRORS},
        "decoder": "correlation",
        "seed": seed,
    }
    report = sk.run_trials(sk.config_from_document(doc))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == counts


# sweep verbs, each of whose points stops at its own wave: where points
# share each batch's draws (same code, geometry and seed) and where they
# cannot (EPPM dimming changes K')
SWEEP_DOCS = {
    "ber-sweep": {
        "scheme": {"kind": "eppm", "q": 7, "k": 3},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 2},
        "channel": {"mode": "awgn"},
        "run": {"max_bits": 40000, "min_errors": 150, "batch_symbols": 256,
                "workers": 2},
        "sweep": {"points": [3.0, 6.0, 9.0]},
        "seed": 3,
    },
    "dimming-sweep-eppm": {
        "scheme": {"kind": "eppm", "q": 13, "k": 4},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 2},
        "channel": {"mode": "awgn", "slot_snr_db": 7.0},
        "run": {"max_bits": 12000, "min_errors": 60, "batch_symbols": 128},
        "sweep": {"points": [0.23, 0.31]},
        "seed": 4,
    },
    "dimming-sweep-meppm": {
        "scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 2,
                   "use_complements": True},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 2},
        "channel": {"mode": "awgn", "slot_snr_db": 12.0},
        "run": {"max_bits": 12000, "min_errors": 60, "batch_symbols": 128},
        "sweep": {"points": [0.3, 0.45]},
        "seed": 5,
    },
    "isi-sweep": {
        "scheme": {"kind": "eppm", "q": 7, "k": 3},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
        "channel": {"mode": "physical",
                    "model": {"los_gain": 0.6, "nlos_gain": 0.4},
                    "detector": {"responsivity": 0.5,
                                 "background_power": 5e-7}},
        "peak_power_per_unit": 3e-9,
        "run": {"max_bits": 12000, "min_errors": 300, "batch_symbols": 128},
        "sweep": {"points": [0.5, 2.0], "depths": [1, 8]},
        "seed": 6,
    },
}


@pytest.mark.parametrize("name, digests", [
    ("ber-sweep", {
        "eppm_snr.csv": "c4dfb58b8610dd2edcd0d8e368f365e4"
                        "ab72dd2fb162cc82a4679ca03f9672ba",
        "eppm_snr_manifest.json": "269240452e2011e2655432a3794ce375"
                                  "0353970f74c43b7b3799eb86f40979c6"}),
    ("dimming-sweep-eppm", {
        "eppm_dimming.csv": "770d22ae4c94c588ace18dd6c9822145"
                            "ca61010879de1d33978560f3f4eeba5a",
        "eppm_dimming_manifest.json": "61cc984a5e7bbcab60ee9577f48617ee"
                                      "320670357b613c05ac8f9593c58816ec"}),
    ("dimming-sweep-meppm", {
        "meppm_dimming.csv": "c6ccbfa474c0b86d9f87f2215f49b2e6"
                             "810d06290587e1a835e3ed612416b42b",
        "meppm_dimming_manifest.json": "32e115cf86d30e2d51aff103d7f9150c"
                                       "ccd8202fe3380b879e0dd2154a6b4762"}),
    ("isi-sweep", {
        "eppm_d1_delay_spread.csv": "66349237749d5b5d8ea5fe24e6efe768"
                                    "790237b879f9b5e0a487556edf975477",
        "eppm_d1_delay_spread_manifest.json":
            "6ea43e5f6424ec623f7b4e4fa642aa9fb775b6d05cbe095df63f585920ed6eff",
        "eppm_d8_delay_spread.csv": "3c8eae3be24d1b864e1a0b0575f5327a"
                                    "20c28b9024b880a393f358469f05f1cc",
        "eppm_d8_delay_spread_manifest.json":
            "8f9f875a7bf67394a43bca4b92955b2fb9408b04779b4f23b2a96c1b5a1b04f6"}),
])
def test_sweep_result_files(tmp_path, capsys, name, digests):
    """sha256 of each result file of a sweep verb, run in process."""
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(SWEEP_DOCS[name]))
    out_dir = tmp_path / "out"
    verb = name.removesuffix("-eppm").removesuffix("-meppm")
    assert cli.main([verb, "--config", str(config_path),
                     "--output-dir", str(out_dir)]) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in out_dir.iterdir()} == digests
