"""The benchmark's workloads.

Each workload turns an operation seed into a config document, runs one
operation on it (one `simkit.run_trials` call or one in-process
`cli.main` verb) and checks what the operation produced.  The program only
ever sees the generated documents.  Every operation has a fixed amount of
work: `run.min_errors` is out of reach, so `run.max_bits` always ends the
trial, and a receiver that makes fewer errors simulates as many bits.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
from dataclasses import dataclass, field

from scipy.stats import binom

# no trial can make this many bit errors, so max_bits always stops it
UNREACHABLE_ERRORS = 10 ** 12

# a correct program fails a pooled statistical check less than once in
# 1e4 runs: each binomial tail is held to half of this
CHECK_ALPHA = 1e-4

CSV_HEADER = "axis_value,bits,errors,ber,ci95,flag,seed"


@dataclass
class OpResult:
    """What one operation produced, as the benchmark sees it."""

    bits: int = 0
    bit_errors: int = 0
    symbols: int = 0
    symbol_errors: int = 0
    fingerprint: tuple = ()     # compared exactly by the determinism probes
    pool: dict = field(default_factory=dict)   # inputs to pooled checks
    failures: list = field(default_factory=list)


def _trial_result(report, max_bits):
    result = OpResult(
        bits=report.bits_sent,
        bit_errors=report.bit_errors,
        symbols=report.symbols_sent,
        symbol_errors=report.symbol_errors,
    )
    result.fingerprint = (report.bits_sent, report.bit_errors,
                          report.symbols_sent, report.symbol_errors)
    if report.bits_sent != max_bits:
        result.failures.append(
            f"sent {report.bits_sent} bits, budget is {max_bits}")
    return result


class Workload:
    """One workload: config documents from a seed, operations, checks."""

    name = ""
    why = ""

    def __init__(self, vl, workdir):
        self.vl = vl
        self.workdir = workdir

    def document(self, seed):
        raise NotImplementedError

    def setup_documents(self, seed):
        """The config documents that set-up validates and builds."""
        return [self.document(seed)]

    def prepare(self, op_seed):
        """Return (op, finish): `op()` is the timed call and
        `finish(returned)` turns its return value into an OpResult."""
        raise NotImplementedError

    def pooled(self, results):
        """Checks that need the whole run: (failures, summary)."""
        return [], {}


class TrialWorkload(Workload):
    """Operations that are one `simkit.run_trials` call each."""

    max_bits = 0

    def prepare(self, op_seed):
        sk = self.vl.simkit
        config = sk.config_from_document(self.document(op_seed))

        def op():
            return sk.run_trials(config)

        return op, lambda report: _trial_result(report, self.max_bits)


class EppmAwgn(TrialWorkload):
    name = "eppm-awgn-2w"
    why = ("EPPM(7,3) over AWGN, F=1, interleaved, 2 threads: the fully "
           "vectorised numpy path where the thread pool pays; exact SER "
           "oracle")
    # 4 waves of 8 batches x 4096 symbols x 2 bits
    max_bits = 4 * 8 * 4096 * 2
    slot_snr_db = 9.3

    def document(self, seed):
        return {
            "scheme": {"kind": "eppm", "q": 7, "k": 3},
            "geometry": {"slot_duration": 1e-6, "samples_per_slot": 4,
                         "overlap_factor": 1},
            "channel": {"mode": "awgn", "slot_snr_db": self.slot_snr_db},
            "run": {"max_bits": self.max_bits,
                    "min_errors": UNREACHABLE_ERRORS,
                    "batch_symbols": 4096, "workers": 2},
            "interleaver_depth": 8,
            "seed": seed,
        }

    def pooled(self, results):
        """Pooled SER against `ser_exact_for`: symbol errors on an AWGN
        slot-statistic channel are independent, so their count is
        binomial and a two-sided exact tail test applies."""
        vl = self.vl
        n = sum(r.symbols for r in results)
        k = sum(r.symbol_errors for r in results)
        p = vl.simkit.ser_exact_for(vl.constellations.build_eppm(7, 3),
                                    10 ** (self.slot_snr_db / 10))
        summary = {"ser": k / n if n else None, "ser_exact": p,
                   "symbols": n, "symbol_errors": k}
        if n == 0:
            return ["no symbols decoded"], summary
        tail = min(binom.cdf(k, n, p), binom.sf(k - 1, n, p))
        summary["tail_probability"] = float(tail)
        if tail < CHECK_ALPHA / 2:
            return [f"SER {k / n:.4e} over {n} symbols disagrees with the "
                    f"exact {p:.4e} (tail probability {tail:.2e})"], summary
        return [], summary


class Meppm21Overlap(TrialWorkload):
    name = "meppm21-overlap"
    why = ("MEPPM(7,3,21)+complements, F=10, shot noise at C6's 30 ns point: "
           "the headline scheme, bound by the per-symbol decision-feedback "
           "loop and lattice rank/unrank")
    # one wave of 8 frames x 32 symbols x 24 bits
    max_bits = 8 * 32 * 24
    ber_window = (3e-4, 3e-2)

    def document(self, seed):
        return {
            "scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 21,
                       "use_complements": True},
            "geometry": {"slot_duration": 30e-9, "samples_per_slot": 20,
                         "overlap_factor": 10},
            "device": {"preset": "trichromatic"},
            "channel": {
                "mode": "physical",
                "model": {"los_gain": 1.0, "nlos_gain": 0.0},
                "detector": {"responsivity": 0.5, "background_power": 5e-7,
                             "thermal_noise_density": 1e-24},
            },
            "run": {"max_bits": self.max_bits,
                    "min_errors": UNREACHABLE_ERRORS,
                    "batch_symbols": 32, "workers": 1},
            # 5 uW mean received power over the mean slot amplitude N/2
            "peak_power_per_unit": 5e-6 / 10.5,
            "seed": seed,
        }

    def pooled(self, results):
        """Pooled BER inside C6's window; single operations are too few
        bits for it, since errors come in decision-feedback bursts."""
        bits = sum(r.bits for r in results)
        errors = sum(r.bit_errors for r in results)
        ber = errors / bits if bits else None
        summary = {"ber": ber, "bits": bits, "bit_errors": errors,
                   "window": list(self.ber_window)}
        lo, hi = self.ber_window
        if ber is None or not lo <= ber <= hi:
            return [f"pooled BER {ber} outside C6's window "
                    f"[{lo:g}, {hi:g}]"], summary
        return [], summary


class NonlinCompareCli(Workload):
    name = "nonlin-compare-cli"
    why = ("in-process nonlin-compare CLI verb: row-batched MEPPM decoding, "
           "array split, DCO-OFDM, config parsing and result files")
    saturation_points = [1.5, 2.5, 4.0]
    batch_symbols = 16
    # one MEPPM wave of 8 batches x 16 symbols x 7 bits; DCO-OFDM sends
    # its first whole wave of 8 x 16 frames x 124 bits
    budgets = {"meppm": 8 * 16 * 7, "dco_ofdm": 8 * 16 * 124}

    def __init__(self, vl, workdir):
        super().__init__(vl, workdir)
        self.config_path = os.path.join(workdir, "nonlin-compare.json")
        os.makedirs(workdir, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.document(1), fh, indent=2)
        self._serial = 0

    def document(self, seed):
        slot_rate = 1e7
        return {
            "scheme": {"kind": "meppm", "q": 7, "k": 3, "n": 4},
            "geometry": {"slot_duration": 1.0 / slot_rate,
                         "samples_per_slot": 2},
            "device": {"bandwidth_3db": "inf", "saturation_power": 2.0},
            # both schemes make errors at every saturation point
            "channel": {"mode": "awgn", "sample_noise_sigma": 0.3},
            "run": {"max_bits": self.budgets["meppm"],
                    "min_errors": UNREACHABLE_ERRORS,
                    "batch_symbols": self.batch_symbols},
            "array_split_leds": 4,
            "compare": {
                "saturation_points": self.saturation_points,
                "mean_power": 1.0,
                # equal gross bit rate: 124 bits per 72-sample frame
                "ofdm_scheme": {"kind": "dco_ofdm", "n_subcarriers": 64,
                                "qam_order": 16, "dc_bias_sigma": 3.5,
                                "cyclic_prefix": 8,
                                "sample_rate": slot_rate * 72 / 124},
            },
            "seed": seed,
        }

    def setup_documents(self, seed):
        meppm = self.document(seed)
        ofdm = dict(meppm)
        ofdm["scheme"] = meppm["compare"]["ofdm_scheme"]
        del ofdm["compare"]
        return [meppm, ofdm]

    def prepare(self, op_seed):
        self._serial += 1
        out_dir = os.path.join(self.workdir, f"op-{self._serial}")
        argv = ["nonlin-compare", "--config", self.config_path,
                "--seed", str(op_seed), "--output-dir", out_dir]
        cli = self.vl.cli

        def op():
            with contextlib.redirect_stdout(io.StringIO()):
                return cli.main(argv)

        def finish(exit_code):
            try:
                return self._read_outputs(exit_code, out_dir, op_seed)
            finally:
                shutil.rmtree(out_dir, ignore_errors=True)

        return op, finish

    def _read_outputs(self, exit_code, out_dir, op_seed):
        result = OpResult()
        if exit_code != 0:
            result.failures.append(f"exit code {exit_code}")
            return result
        digest = hashlib.sha256()
        for scheme, budget in self.budgets.items():
            stem = os.path.join(out_dir, f"{scheme}_saturation")
            with open(stem + ".csv", "rb") as fh:
                csv_bytes = fh.read()
            with open(stem + "_manifest.json", "rb") as fh:
                digest.update(csv_bytes + fh.read())
            lines = csv_bytes.decode("utf-8").splitlines()
            if lines[0] != CSV_HEADER:
                result.failures.append(f"{scheme}: CSV header {lines[0]!r}")
                continue
            rows = [line.split(",") for line in lines[1:]]
            if len(rows) != len(self.saturation_points):
                result.failures.append(f"{scheme}: {len(rows)} CSV rows")
                continue
            for point, row in zip(self.saturation_points, rows):
                bits, errors = int(row[1]), int(row[2])
                if bits != budget:
                    result.failures.append(
                        f"{scheme}@{point}: sent {bits} bits, budget {budget}")
                if int(row[6]) != op_seed:
                    result.failures.append(f"{scheme}@{point}: seed {row[6]}")
                result.bits += bits
                result.bit_errors += errors
                result.pool[(scheme, point)] = (bits, errors)
        result.fingerprint = (result.bits, result.bit_errors,
                              digest.hexdigest())
        return result

    def pooled(self, results):
        """C8's ordering on pooled counts: DCO-OFDM's BER at least
        MEPPM's at every saturation point."""
        failures = []
        summary = {}
        for point in self.saturation_points:
            ber = {}
            for scheme in self.budgets:
                counts = [r.pool[(scheme, point)] for r in results
                          if (scheme, point) in r.pool]
                bits = sum(b for b, _ in counts)
                errors = sum(e for _, e in counts)
                ber[scheme] = errors / bits if bits else 0.0
                summary[f"{scheme}@{point:g}"] = {"bits": bits,
                                                  "errors": errors,
                                                  "ber": ber[scheme]}
            if ber["dco_ofdm"] < ber["meppm"]:
                failures.append(
                    f"sat={point:g}: DCO-OFDM BER {ber['dco_ofdm']:.3e} "
                    f"below MEPPM {ber['meppm']:.3e}")
        return failures, summary


WORKLOADS = {w.name: w for w in (EppmAwgn, Meppm21Overlap, NonlinCompareCli)}
