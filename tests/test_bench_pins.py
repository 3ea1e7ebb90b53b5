"""Bit-identity pins for the benchmark's overlapped MEPPM workload.

The benchmark holds `meppm21-overlap` only to a wide pooled BER window, so
a change to the receiver's decisions would pass it unseen.  These counts
(bits, bit errors, symbols, symbol errors) were measured on the per-frame
receiver that the lockstep one replaced; any decision change fails here.
"""

import importlib.util
import os

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
