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
first-seen enumeration order.  Every pulse count and pulse result-file
digest was measured with the noise drawn once per slot, on the receiver's
integration grid, not once per sample; the DCO-OFDM ones did not change
with it.  The interleaved physical F=1 pin was measured on the engine that
rendered each stack's drive in send order and deinterleaved its
statistics.  Any change to these fails here.
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
    (1, (6144, 7, 256, 1)),
    (2, (6144, 0, 256, 0)),
    (12, (6144, 0, 256, 0)),
    (30, (6144, 0, 256, 0)),
])
def test_meppm21_overlap_counts(seed, counts):
    workload = WORKLOADS.Meppm21Overlap(vlclink, workdir=None)
    report = sk.run_trials(sk.config_from_document(workload.document(seed)))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == counts


@pytest.mark.parametrize("seed, counts", [
    (1, {"meppm": [(896, 21), (896, 21), (896, 21)],
         "dco_ofdm": [(15872, 6198), (15872, 5132), (15872, 4891)]}),
    (2, {"meppm": [(896, 16), (896, 16), (896, 16)],
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
         "6f71c59852e8e2906f9c915c9780b6e582c24eed8d0829aa08e0af1ce933664b",
         "3640c9708253d4bd8a1ea4b7e6e426f4b8acda6e00dbeb52d414c44b7f39a8a4")),
    (2, ("71299c254e21ef987766af44aa3481f2e7514d1880c3982420d97a050410ab28",
         "99a44a55c23f90e9dec21b0a2ed4c481c088bf767c8b70d00ec02d992feaf662",
         "877c1f81f8482fec7a0e0c096bc685a9cff39d354caf52c38baf128ad34f0543",
         "d78656d7dbd5f8ecdaf08d48a79bab51ba6385ba436f0013e283785e523b9112")),
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
    (1, (262144, 1385, 131072, 1144)),
    (2, (262144, 1349, 131072, 1167)),
    (3, (262144, 1374, 131072, 1178)),
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
            report.symbol_errors) == (73728, 6083, 12288, 2063)


@pytest.mark.parametrize("seed, counts", [
    (1, (40960, 291, 4096, 66)),
    (2, (40960, 328, 4096, 74)),
])
def test_f1_meppm_complements_components_counts(seed, counts):
    """The component decoder on a materialized complement code, where both
    of its candidates win rows: with the noise drawn per sample, greedy
    peeling alone gave SER 0.10 on seed 1, the lattice rounding alone
    0.070, the better of the two 0.015."""
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


def test_f1_physical_interleaved_counts():
    """A memoryless physical F=1 link with interleaving: each slot's
    shot-noise normal comes from a generator that the batch's generator
    seeds, and pairs with its slot in send order."""
    doc = {
        "scheme": {"kind": "eppm", "q": 7, "k": 3},
        "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4},
        "channel": {
            "mode": "physical",
            "model": {"los_gain": 0.7, "nlos_gain": 0.0},
            "detector": {"responsivity": 0.5, "background_power": 1e-9,
                         "thermal_noise_density": 1e-26},
        },
        "peak_power_per_unit": 4e-10,
        "run": {"batch_symbols": 512, "max_bits": 60000,
                "min_errors": WORKLOADS.UNREACHABLE_ERRORS, "workers": 2},
        "interleaver_depth": 4,
        "seed": 5,
    }
    report = sk.run_trials(sk.config_from_document(doc))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == (65536, 3915, 32768, 3369)


@pytest.mark.parametrize("seed, counts", [
    (1, (40960, 800, 20480, 880)),
    (2, (40960, 738, 20480, 804)),
])
def test_f2_eppm_correlation_counts(seed, counts):
    """The overlapped correlation path: EPPM(7,3) at F=2 over AWGN, where
    decision feedback cancels every decided codeword (with the noise drawn
    per sample, the soft fallback it replaced gave 1575 and 1695 symbol
    errors)."""
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
        "eppm_snr.csv": "5b34b01700791cf884bfe8a43c82664a"
                        "265dbcf49b039bc6c2515849f26436e1",
        "eppm_snr_manifest.json": "d9e552e940df41e4dd98b98296df4c6a"
                                  "000c12257f756f8c53859b8b116611ee"}),
    ("dimming-sweep-eppm", {
        "eppm_dimming.csv": "aa15b391d422c862ee41318269837ec1"
                            "1ddcd866dcb0e9c953d3ff541b5d89d8",
        "eppm_dimming_manifest.json": "13d3fce1b7251fb0c9b54ee9ccbab4e8"
                                      "07b840270700f52bfeb0a2c57c9cfc83"}),
    ("dimming-sweep-meppm", {
        "meppm_dimming.csv": "cba7ee285491f3649dec4dd23f29bf47"
                             "89156a4ed4fd7e393d4a037cea901360",
        "meppm_dimming_manifest.json": "455941d0f01ec91854fb60572c08f71f"
                                       "ec7dbd09a0d532edb75b9b768122a226"}),
    ("isi-sweep", {
        "eppm_d1_delay_spread.csv": "63f9c78a8f0f529685140560e146bcab"
                                    "3487c1154a3572f673ca3a2eb7b2563e",
        "eppm_d1_delay_spread_manifest.json":
            "cfe9a10fd5eb220f37ce089c8aee5d3d0a2b124b519ecd497fbe8ed93140dfa1",
        "eppm_d8_delay_spread.csv": "561118131671555510e4a3f78386e80b"
                                    "5f0fcfce8d27104e5b7b9fe18a5272df",
        "eppm_d8_delay_spread_manifest.json":
            "936578d816a214591cb98f80d0f9c0f1276b8d978fde4bdc4e58c110f3b1127f"}),
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
