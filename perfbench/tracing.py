"""Spans recorded from outside the program, around calls into its layers.

The tracer replaces public functions and methods of the vlclink modules
with wrappers that time each call.  A span holds its id, name, start, end,
parent span, operation id and thread id; spans stay in memory until the
run writes them out.  Calls on worker threads (the trial engine's thread
pool) start with an empty stack and attach to the innermost open span of
the client thread, which waits in the `run_trials` that dispatched them;
the benchmark runs one operation at a time.
"""

import gzip
import itertools
import json
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np

# span name -> [(module attribute path, method or function name)]
LAYERS = {
    "cli.main": [("cli", "main")],
    "simkit.run_trials": [("simkit", "run_trials")],
    "simkit.calibrate_drive": [("simkit", "calibrate_drive")],
    "simkit.write_sweep_outputs": [("simkit", "write_sweep_outputs")],
    "constellations.encode_indices": [
        ("constellations.Constellation", "encode_indices")],
    "constellations.codeword_at": [
        ("constellations.Constellation", "codeword_at")],
    "constellations.index_of": [("constellations.Constellation", "index_of")],
    "waveform.synthesize": [("waveform", "synthesize")],
    "waveform.interleave": [("waveform", "interleave"),
                            ("waveform", "deinterleave_values")],
    "waveform.array_split": [("waveform", "array_split")],
    "analog_chain.led_transfer": [("analog_chain", "led_transfer")],
    "analog_chain.propagate_and_detect": [
        ("analog_chain", "propagate_and_detect")],
    "receiver.slot_statistics": [("receiver", "slot_statistics")],
    "receiver.decode_stats": [("receiver.StreamReceiver", "decode_stats")],
    "receiver.decoder": [("receiver.CorrelationDecoder", "decode_block"),
                         ("receiver.MlDecoder", "decode_block"),
                         ("receiver.MeppmComponentDecoder", "decode_block")],
    "ofdm.dco_modulate": [("ofdm", "dco_modulate")],
    "ofdm.dco_demodulate": [("ofdm", "dco_demodulate")],
}

# layers whose call counts are reported next to their self time
COUNTED = ("constellations.codeword_at", "constellations.index_of",
           "receiver.decoder")


def _decoder_rows(args):
    """Rows of the statistics passed to a decoder's `decode_block`."""
    stats = np.asarray(args[1])
    return 1 if stats.ndim == 1 else stats.shape[0]


def _resolve(package, path):
    obj = package
    for part in path.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Installs the span wrappers; `uninstall` puts the originals back.

    Wrappers call through unchanged, so a traced run must produce the same
    counts as an untraced one.
    """

    def __init__(self, package):
        self.package = package
        self.spans = []     # (id, name, start, end, parent, op, thread, rows)
        self.op_id = -1
        self._ids = itertools.count()
        self._local = threading.local()
        self._client_stack = None   # span stack of the thread running the op
        self._patches = []

    def install(self):
        for name, targets in LAYERS.items():
            for owner_path, attr in targets:
                owner = _resolve(self.package, owner_path)
                original = owner.__dict__[attr]
                self._patches.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, original):
        tracer = self
        rows_of = _decoder_rows if name == "receiver.decoder" else None

        def traced(*args, **kwargs):
            stack = tracer._stack()
            client = tracer._client_stack
            is_root = not stack and client is None
            if stack:
                parent = stack[-1]
            elif client:
                # a worker thread: the client thread waits in its
                # innermost open span, which dispatched this work
                parent = client[-1]
            else:
                parent = None
                tracer._client_stack = stack
            sid = next(tracer._ids)
            rows = rows_of(args) if rows_of is not None else 0
            stack.append(sid)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if is_root:
                    tracer._client_stack = None
                tracer.spans.append((sid, name, start, end, parent,
                                     tracer.op_id, threading.get_ident(),
                                     rows))

        traced.__wrapped__ = original
        return traced

    def write(self, path):
        """Write every span as one JSON object per line (gzip)."""
        keys = ("id", "name", "start", "end", "parent", "op", "thread",
                "rows")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def _union_length(intervals):
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans):
    """Per-span self time: duration minus the union of its children's
    intervals, children on any thread, clipped to the parent's interval."""
    by_id = {s[0]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s[4] is not None:
            children[s[4]].append(s)
    out = {}
    for sid, s in by_id.items():
        start, end = s[2], s[3]
        clipped = [
            (max(c[2], start), min(c[3], end))
            for c in children.get(sid, ())
            if c[3] > start and c[2] < end
        ]
        out[sid] = (end - start) - _union_length(clipped)
    return out


def layer_summary(spans):
    """Totals per layer over the traced operations.

    Returns (n_ops, op_wall_s, {layer: {"self_s", "calls", "rows"}}) where
    op_wall_s sums the durations of the operations' root spans.
    """
    own = self_times(spans)
    roots = [s for s in spans if s[4] is None]
    totals = {name: {"self_s": 0.0, "calls": 0, "rows": 0} for name in LAYERS}
    for s in spans:
        t = totals[s[1]]
        t["self_s"] += own[s[0]]
        t["calls"] += 1
        t["rows"] += s[7]
    op_wall = sum(s[3] - s[2] for s in roots)
    return len(roots), op_wall, totals
