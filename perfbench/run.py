"""vlclink benchmark: simulated bits per second on three link workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Load model: a closed loop with one client in one process.  Operations run
back to back for S seconds and at least MIN_OPS operations; operation i
gets a seed derived from (N, i).  Every operation's outputs are checked,
and the first operation is re-run at the end as a determinism probe.

With --trace 0 the last stdout line carries the end-to-end metrics.  With
--trace 1 the first MIN_OPS operations then run again, each once untraced
and once with spans around the calls into each layer (see tracing.py);
the last line carries per-layer self times and the tracing overhead, and
every rerun's counts must equal the first run's.  The line
before the last ("report {...}") carries every metric with its unit, the
output checks and the provenance of the run; it is also written to
perfbench/out/.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

MIN_OPS = 100        # so that op_s.p90 has at least ten samples beyond it
MAX_LOOP_S = 60.0    # stop adding operations here even below MIN_OPS
DEADLINE_S = 30.0    # per operation; a hang counts as a failed operation
SETUP_SAMPLES = 5    # fresh interpreters per run; setup_s is their median

# end-to-end metrics on the result line, as declared in BENCHMARK.json; the
# report line adds op_s.p90, ber and fail_ratio, which spread too widely
# across runs (or are 0) to gate on
GATED = ("bits_per_s", "op_s.p50", "setup_s", "peak_rss_mb")


class OperationTimeout(BaseException):
    """Raised in the main thread when an operation misses its deadline.

    A BaseException, so that no `except Exception` inside the program can
    swallow it."""


def _on_alarm(signum, frame):
    raise OperationTimeout


def load_program():
    """Import vlclink from this checkout's src/, never from elsewhere."""
    sys.path.insert(0, SRC)
    try:
        import vlclink
        import vlclink.cli  # noqa: F401  (imports every other module)
    except ImportError as exc:
        raise SystemExit(f"error: cannot import vlclink from {SRC}: {exc}")
    if not os.path.abspath(vlclink.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: vlclink imported from {vlclink.__file__}")
    return vlclink


def op_seed(workload_seed, index):
    digest = hashlib.sha256(f"{workload_seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def run_op(workload, seed, tracer=None, op_id=0, deadline=DEADLINE_S):
    """One operation under its deadline: (seconds, OpResult)."""
    try:
        op, finish = workload.prepare(seed)
    except Exception as exc:
        traceback.print_exc()
        return 0.0, workloads.OpResult(failures=[f"prepare: {exc!r}"])
    if tracer is not None:
        tracer.op_id = op_id
    signal.setitimer(signal.ITIMER_REAL, deadline)
    start = time.perf_counter()
    try:
        try:
            returned = op()
        finally:
            end = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 0)
    except OperationTimeout:
        return end - start, workloads.OpResult(
            failures=[f"missed its {deadline:g} s deadline"])
    except Exception as exc:
        traceback.print_exc()
        return end - start, workloads.OpResult(failures=[f"raised {exc!r}"])
    try:
        return end - start, finish(returned)
    except Exception as exc:
        traceback.print_exc()
        return end - start, workloads.OpResult(
            failures=[f"reading outputs: {exc!r}"])


def closed_loop(workload, seed, seconds, min_ops):
    runs = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if elapsed >= seconds and len(runs) >= min_ops:
            break
        if elapsed >= max(seconds, MAX_LOOP_S):
            break
        runs.append(run_op(workload, op_seed(seed, len(runs))))
    return runs, time.perf_counter() - start


def setup_seconds(workload, seed, count):
    """Median set-up time over `count` fresh interpreters."""
    docs = json.dumps(workload.setup_documents(op_seed(seed, 0)))
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for _ in range(count):
        proc = subprocess.run([sys.executable, probe, SRC, docs],
                              capture_output=True, text=True, timeout=120,
                              check=False)
        if proc.returncode != 0:
            raise SystemExit(f"error: set-up probe failed: {proc.stderr}")
        samples.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(samples), samples


def percentile_90(values):
    """p90 (inclusive method) and the number of samples beyond it."""
    if len(values) < 2:
        return values[0], 0
    p90 = statistics.quantiles(values, n=10, method="inclusive")[8]
    return p90, sum(v > p90 for v in values)


def count_failures(runs, pooled_failures):
    """Operations that failed; a failed pooled check fails every
    operation it pooled, since it cannot tell which one was wrong."""
    if pooled_failures:
        return len(runs)
    return sum(bool(r.failures) for _, r in runs)


def git_sha():
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2:
        return None
    if os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def source_sha256():
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "vlclink")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    return digest.hexdigest()


def provenance(args):
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
        "workload": args.workload,
        "workload_seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def _rate(runs):
    """Simulated bits over the summed wall time of the operations."""
    seconds = sum(s for s, _ in runs)
    return sum(r.bits for _, r in runs) / seconds if seconds else 0.0


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(runs, setup_s, min_ops):
    seconds = [s for s, _ in runs]
    p90, beyond = percentile_90(seconds)
    # BER over a fixed number of operations, so that it depends on the
    # seed alone and not on how many operations the host finished
    ber_runs = [r for _, r in runs[:min_ops]]
    ber_bits = sum(r.bits for r in ber_runs)
    ber_errors = sum(r.bit_errors for r in ber_runs)
    metrics = {
        "bits_per_s": metric(_rate(runs), "bit/s"),
        "op_s.p50": metric(statistics.median(seconds), "s"),
        "op_s.p90": metric(p90, "s"),
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "ber": metric(ber_errors / ber_bits if ber_bits else None, "ratio"),
    }
    samples = {"op_s": len(seconds), "op_s.p90_beyond": beyond,
               "ber_ops": len(ber_runs), "ber_bits": ber_bits,
               "ber_errors": ber_errors}
    return metrics, samples


def per_layer(spans, traced, untraced):
    n_ops, op_wall, totals = tracing.layer_summary(spans)
    n_ops, op_wall = max(n_ops, 1), op_wall or 1.0  # no span: all zeros
    metrics = {}
    for name, t in totals.items():
        metrics[f"{name}.self_s"] = metric(t["self_s"] / n_ops, "s")
        metrics[f"{name}.share"] = metric(100 * t["self_s"] / op_wall, "%")
    for name in tracing.COUNTED:
        metrics[f"{name}.calls"] = metric(totals[name]["calls"] / n_ops,
                                          "count")
    dec = totals["receiver.decoder"]
    metrics["receiver.decoder.rows"] = metric(dec["rows"] / n_ops, "count")
    metrics["receiver.decoder.rows_per_call"] = metric(
        dec["rows"] / dec["calls"] if dec["calls"] else 0.0, "count")
    traced_bps = _rate(traced)
    untraced_bps = _rate(untraced)
    metrics["trace.op_s"] = metric(op_wall / n_ops, "s")
    metrics["trace.bits_per_s"] = metric(traced_bps, "bit/s")
    metrics["trace.untraced_bits_per_s"] = metric(untraced_bps, "bit/s")
    metrics["trace.overhead_pct"] = metric(
        100 * (1 - traced_bps / untraced_bps) if untraced_bps else 0.0, "%")
    return metrics


def run(args, vl, out_dir, min_ops=MIN_OPS, setup_samples=SETUP_SAMPLES):
    """Run one workload: (report, result, seconds of each operation)."""
    workdir = os.path.join(out_dir, f"work-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](vl, workdir)
        return _run(args, vl, workload, out_dir, min_ops, setup_samples)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, vl, workload, out_dir, min_ops, setup_samples):
    setup = (None, [])
    if not args.trace:
        setup = setup_seconds(workload, args.seed, setup_samples)

    runs, loop_s = closed_loop(workload, args.seed, args.seconds, min_ops)
    pooled_failures, pooled_summary = workload.pooled([r for _, r in runs])
    failed = count_failures(runs, pooled_failures)
    attempted = len(runs)
    metrics, samples = end_to_end(runs, setup[0], min_ops)
    samples["setup_s"] = len(setup[1])
    failures = [f"op {i}: {msg}" for i, (_, r) in enumerate(runs)
                for msg in r.failures] + pooled_failures

    # determinism probe: the first operation's seed again
    _, again = run_op(workload, op_seed(args.seed, 0))
    attempted += 1
    if again.failures or again.fingerprint != runs[0][1].fingerprint:
        failed += 1
        failures.append("determinism probe: first operation did not repeat")

    layer_metrics = None
    if args.trace:
        # each traced operation follows an untraced rerun of itself, so
        # that host speed drifts alike for both sides of the overhead
        tracer = tracing.Tracer(vl)
        untraced, traced = [], []
        for i in range(min(len(runs), min_ops)):
            seed = op_seed(args.seed, i)
            untraced.append(run_op(workload, seed))
            with tracer:
                traced.append(run_op(workload, seed, tracer, i))
        attempted += 2 * len(traced)
        for i, pair in enumerate(zip(untraced, traced)):
            for label, (_, r) in zip(("untraced", "traced"), pair):
                if r.failures or r.fingerprint != runs[i][1].fingerprint:
                    failed += 1
                    failures.append(f"{label} rerun of op {i}: counts differ")
        layer_metrics = per_layer(tracer.spans, traced, untraced)
        tracer.write(os.path.join(
            out_dir, f"{args.workload}-seed{args.seed}.spans.jsonl.gz"))

    metrics["fail_ratio"] = metric(failed / attempted, "ratio")
    report = {
        "workload": args.workload,
        "why": workload.why,
        "load_model": "closed loop, 1 client, 1 process",
        "loop_s": loop_s,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": metrics,
        "samples": samples,
        "setup_samples_s": setup[1],
        "pooled_checks": pooled_summary,
        "failures": failures[:20],
        "provenance": provenance(args),
    }
    if layer_metrics is not None:
        report["per_layer"] = layer_metrics
        report["per_layer_base"] = (
            "self_s: seconds per operation; share: % of the summed wall "
            "time of the traced operations' root spans (trace.op_s per "
            "operation); calls, rows: per operation")
        reported = layer_metrics
    else:
        reported = {k: metrics[k] for k in GATED}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": reported}
    return report, result, [s for s, _ in runs]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    vl = load_program()
    signal.signal(signal.SIGALRM, _on_alarm)
    os.makedirs(OUT, exist_ok=True)
    report, result, op_seconds = run(args, vl, OUT)
    path = os.path.join(
        OUT, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"report": report, "result": result,
                   "op_seconds": op_seconds}, fh, indent=2)
        fh.write("\n")
    print("report " + json.dumps(report))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
