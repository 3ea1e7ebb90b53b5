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
statistics.  Every pulse count and pulse result-file digest was measured
with each batch drawing uniform symbol indices (not bits packed into
indices) and every noisy link, physical ones too, reading its normals from
the batch's own generator (not from a generator that it seeds); the
DCO-OFDM-over-AWGN ones did not change with it.  The pins on links with
memory (the `meppm21-overlap` counts, the F=1 ML trial and the `isi-sweep`
digests) were measured with each pulse link's slot response in closed form
(the LED's pole and the untruncated NLOS tail, the LOS delay exact), not
measured on the configured sample grid.  Any change to these fails here.
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
    (1, (6144, 66, 256, 6)),
    (2, (6144, 0, 256, 0)),
    (12, (6144, 0, 256, 0)),
    (30, (6144, 0, 256, 0)),
])
def test_meppm21_overlap_counts(seed, counts):
    workload = WORKLOADS.Meppm21Overlap(vlclink, workdir=None)
    report = sk.run_trials(sk.config_from_document(workload.document(seed)))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == counts


@pytest.mark.parametrize("seed", [1, 5])
def test_meppm21_overlap_ignores_the_sample_grid(seed):
    """A physical pulse link's counts do not depend on `samples_per_slot`,
    a numerical setting: its slot response is in closed form."""
    doc = WORKLOADS.Meppm21Overlap(vlclink, workdir=None).document(seed)
    reports = [sk.run_trials(sk.config_from_document(dict(doc, geometry=dict(
        doc["geometry"], samples_per_slot=sps)))) for sps in (20, 40, 100)]
    assert reports[0].bit_errors > 0
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("seed, counts", [
    (1, {"meppm": [(896, 5), (896, 5), (896, 5)],
         "dco_ofdm": [(15872, 6198), (15872, 5132), (15872, 4891)]}),
    (2, {"meppm": [(896, 28), (896, 28), (896, 28)],
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
         "f702cae7dac4fb7832fb1e74e736b922172a8c7003d14ea991baaab2d9564195",
         "00d224b4566a906e65fcb5c7734b0201446f2c271186aa95b204a7964f5685ce")),
    (2, ("71299c254e21ef987766af44aa3481f2e7514d1880c3982420d97a050410ab28",
         "99a44a55c23f90e9dec21b0a2ed4c481c088bf767c8b70d00ec02d992feaf662",
         "dd92a9bcd702e7b9a424e9aa1ff10f6cb787522215e2bbf4e21b0842b05bd1bc",
         "17242a33a3f5cda7f8e9daed2e5dbac9f7e78dc66db21dcb60e9c04b771f641e")),
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
    (1, (262144, 1486, 131072, 1256)),
    (2, (262144, 1336, 131072, 1157)),
    (3, (262144, 1452, 131072, 1263)),
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
            report.symbol_errors) == (73728, 6650, 12288, 2271)


@pytest.mark.parametrize("seed, counts", [
    (1, (40960, 260, 4096, 57)),
    (2, (40960, 325, 4096, 70)),
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
    shot-noise normal comes from the batch's generator, after its symbol
    indices, and pairs with its slot in send order."""
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
            report.symbol_errors) == (65536, 3869, 32768, 3329)


def test_dco_ofdm_physical_counts():
    """DCO-OFDM over a physical link: each batch draws its bits and then a
    normal per sample from its own generator."""
    doc = {
        "scheme": {"kind": "dco_ofdm", "dc_bias_sigma": 3.5,
                   "cyclic_prefix": 8, "sample_rate": 5.8e6},
        "geometry": {"slot_duration": 1e-7, "samples_per_slot": 2},
        "device": "ideal",
        "channel": {
            "mode": "physical",
            "model": {"los_gain": 0.7},
            "detector": {"responsivity": 0.5, "background_power": 1e-6,
                         "thermal_noise_density": 1e-24},
        },
        "peak_power_per_unit": 3e-8,
        "run": {"batch_symbols": 16, "max_bits": 60000,
                "min_errors": WORKLOADS.UNREACHABLE_ERRORS, "workers": 2},
        "seed": 7,
    }
    report = sk.run_trials(sk.config_from_document(doc))
    assert (report.bits_sent, report.bit_errors, report.symbols_sent,
            report.symbol_errors) == (63488, 271, 512, 219)


@pytest.mark.parametrize("seed, counts", [
    (1, (40960, 854, 20480, 934)),
    (2, (40960, 863, 20480, 943)),
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
        "eppm_snr.csv": "288203516f5bc8ddd83840819a6a2002"
                        "c42ee5803f89fcc7c1fd6ddcb85e5d85",
        "eppm_snr_manifest.json": "27d4e276471134b771d084f43da51b09"
                                  "8d7466b01d6e3b6bd954d67e2ba0dbef"}),
    ("dimming-sweep-eppm", {
        "eppm_dimming.csv": "918a0f0627b10d32116ffc4795493b8c"
                            "b6d22ad261d315a45a012f8144f9e9c2",
        "eppm_dimming_manifest.json": "ab84ba87913d42a73a2c311447c53c4b"
                                      "4d96d4fe5423e8c4131660fc326934e1"}),
    ("dimming-sweep-meppm", {
        "meppm_dimming.csv": "7c8b9ec28e5d3db451be07cda143e6cd"
                             "b7c7dfdcbd288e571871e5db2ea45cb1",
        "meppm_dimming_manifest.json": "26e4b00a95bd6ef6004323fd72a85d34"
                                       "4c28a4d1a86c77ae094c02b3042eee0b"}),
    ("isi-sweep", {
        "eppm_d1_delay_spread.csv": "066593855bcf389947e046e43204d33e"
                                    "cc6df5325028ce69ff416cd9dd13b26c",
        "eppm_d1_delay_spread_manifest.json":
            "41f25dae24a01c9518e2b513b007a6d554aba5d0bbca546ead62fa7d17819dd0",
        "eppm_d8_delay_spread.csv": "65fa67990df209a97018d354bf303e99"
                                    "b4444151f607d1e21f32d8faafed48ce",
        "eppm_d8_delay_spread_manifest.json":
            "f0753e43379cabd4c53136b88d65a9495fd72c1919f5b0306afed9eb2641cb30"}),
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
