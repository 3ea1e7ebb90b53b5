"""Self-test of the benchmark, at a tiny length.

    python3 perfbench/selftest.py

Checks that
  * every workload, untraced and traced, emits every metric that
    BENCHMARK.json declares, with the declared unit, and that the report
    line carries all seven end-to-end metrics with their units;
  * a corrupted decode (every bit of each decoded symbol flipped, injected
    around StreamReceiver.decode_stats) drives fail_ratio above 0 on every
    workload;
  * an operation that hangs (run.batch_symbols 0 never reaches max_bits)
    misses its deadline and counts as a failed operation.
Prints one line per check and exits 0 when all of them pass.
"""

import argparse
import contextlib
import json
import os
import signal
import sys

import run
import workloads

TINY_OPS = 2
REPORTED = {"bits_per_s": "bit/s", "op_s.p50": "s", "op_s.p90": "s",
            "setup_s": "s", "peak_rss_mb": "MB", "ber": "ratio",
            "fail_ratio": "ratio"}


@contextlib.contextmanager
def corrupted_decode(vl):
    cls = vl.receiver.StreamReceiver
    original = cls.__dict__["decode_stats"]

    def flipped(self, stats):
        mask = (1 << self.constellation.bits_per_symbol) - 1
        return original(self, stats) ^ mask

    cls.decode_stats = flipped
    try:
        yield
    finally:
        cls.decode_stats = original


class Hang(workloads.EppmAwgn):
    def document(self, seed):
        doc = super().document(seed)
        doc["run"]["batch_symbols"] = 0
        return doc


def tiny_run(vl, name, trace):
    args = argparse.Namespace(workload=name, seed=7, seconds=0, trace=trace)
    return run.run(args, vl, run.OUT, min_ops=TINY_OPS, setup_samples=1)


def missing(declared, metrics):
    return [f"{m['name']} [{m['unit']}]" for m in declared
            if metrics.get(m["name"], {}).get("unit") != m["unit"]]


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"),
              encoding="utf-8") as fh:
        bench = json.load(fh)
    vl = run.load_program()
    signal.signal(signal.SIGALRM, run._on_alarm)
    os.makedirs(run.OUT, exist_ok=True)
    checks = []

    for name in workloads.WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]),
                                (1, bench["per_layer"])):
            report, result, _ = tiny_run(vl, name, trace)
            gaps = missing(declared, result["metrics"])
            gaps += [f"report {k} [{u}]" for k, u in REPORTED.items()
                     if report["end_to_end"].get(k, {}).get("unit") != u]
            checks.append((f"{name} trace={trace}: metrics and units",
                           not gaps, ", ".join(gaps)))
        with corrupted_decode(vl):
            report, result, _ = tiny_run(vl, name, 0)
        ratio = report["end_to_end"]["fail_ratio"]["value"]
        checks.append((f"{name}: corrupted decode fails",
                       ratio > 0 and not result["correct"],
                       f"fail_ratio={ratio:.3g}"))

    hang = Hang(vl, os.path.join(run.OUT, "selftest-hang"))
    seconds, result = run.run_op(hang, 1, deadline=2.0)
    checks.append(("hanging operation misses its deadline",
                   any("deadline" in f for f in result.failures),
                   f"{seconds:.2f} s, {result.failures}"))

    for label, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {label}" +
              (f" ({detail})" if detail else ""))
    return 0 if all(ok for _, ok, _ in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
