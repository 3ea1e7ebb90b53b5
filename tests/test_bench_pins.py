"""Bit-identity pins for the benchmark's trial workloads.

The benchmark holds `meppm21-overlap` only to a wide pooled BER window and
`nonlin-compare-cli` only to C8's pooled ordering, so a change to the
receiver's decisions, the transmitted waveform or the drive calibration
would pass it unseen.  The `meppm21-overlap` counts (bits, bit errors,
symbols, symbol errors) were measured on the per-frame receiver that the
lockstep one replaced; the `nonlin-compare` counts on the per-frame
DCO-OFDM modulator and the per-iteration calibration pilot; the
`eppm-awgn-2w` counts and the F=1 ML trial on the receiver that took a
`gain` beside its kernel.  Any change to these fails here.
"""

import importlib.util
import os
from dataclasses import replace

import pytest

import vlclink
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
    (2, (6144, 226, 256, 18)),
    (12, (6144, 321, 256, 27)),
    (30, (6144, 46, 256, 5)),
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
            report.symbol_errors) == (73728, 6345, 12288, 2131)
