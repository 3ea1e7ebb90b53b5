"""Command-line front end.

Config-file-first: every verb reads one JSON experiment document; flags
only override the seed, worker count, and output directory, so result
files are reproducible from the config alone.  All outputs land inside
--output-dir.  Exit codes: 0 success, 2 usage, 3 invalid config.
"""

import argparse
import json
import os
import sys
from dataclasses import replace

import numpy as np

from . import __version__
from . import constellations as con
from . import simkit as sk
from . import waveform as wf
from .errors import ConfigError, ParameterError

CONFIG_SCHEMA_VERSION = 1


def _load(args):
    if not os.path.isfile(args.config):
        raise ConfigError("$", f"config file not found: {args.config}")
    config, doc = sk.load_config(args.config)
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    if args.workers is not None:
        config = replace(config, run=replace(config.run, workers=args.workers))
    return config, doc


def _stats_line(c):
    stats = con.code_stats(c)
    return (
        f"scheme={c.scheme} Q={c.q} K={c.k} N={c.n} "
        f"complements={str(c.use_complements).lower()} size={c.size} "
        f"bits_per_symbol={c.bits_per_symbol} papr={stats.papr:.6g} "
        f"min_distance={stats.min_distance}"
    )


def cmd_construct(args):
    config, _ = _load(args)
    c = config.scheme.build_constellation()
    print(_stats_line(c))
    os.makedirs(args.output_dir, exist_ok=True)
    con.save_constellation(c, os.path.join(args.output_dir, "constellation.json"))
    return 0


def cmd_stats(args):
    if not os.path.isfile(args.config):
        raise ConfigError("$", f"config file not found: {args.config}")
    c = con.load_constellation(args.config)
    print(_stats_line(c))
    return 0


def _sweep_points(doc):
    return [float(p) for p in sk.cli_block(doc, "sweep").points]


def cmd_ber_sweep(args):
    config, doc = _load(args)
    points = _sweep_points(doc)
    reports = sk.sweep(config, "snr", points, output_dir=args.output_dir)
    for p, r in zip(points, reports):
        print(f"snr={p:g} ber={r.ber:.6g} errors={r.bit_errors} "
              f"bits={r.bits_sent}")
    return 0


def cmd_dimming_sweep(args):
    config, doc = _load(args)
    points = _sweep_points(doc)
    if not all(0 < p <= 1 for p in points):
        raise ConfigError("sweep.points", "dimming targets must lie in (0, 1]")
    reports = sk.sweep(config, "dimming", points, output_dir=args.output_dir)
    c = config.scheme.build_constellation()
    for p, r in zip(points, reports):
        achieved = wf.apply_dimming(c, p).achieved_ratio
        print(f"target={p:g} achieved={achieved:.6g} ber={r.ber:.6g}")
    return 0


def cmd_isi_sweep(args):
    config, doc = _load(args)
    points = _sweep_points(doc)
    depths = sk.cli_block(doc, "sweep").depths
    if not depths:
        raise ConfigError("sweep.depths", "need a nonempty list of depths")
    for depth in depths:
        derived = replace(config, interleaver_depth=depth)
        label = f"{config.scheme.kind}_d{depth}"
        reports = sk.sweep(derived, "delay_spread", points,
                           output_dir=args.output_dir, label=label)
        for p, r in zip(points, reports):
            print(f"depth={depth} delay_spread={p:g} ber={r.ber:.6g} "
                  f"errors={r.bit_errors}")
    return 0


def cmd_nonlin_compare(args):
    config, doc = _load(args)
    compare = sk.cli_block(doc, "compare")
    points = [float(p) for p in compare.saturation_points]
    results = sk.nonlin_compare(
        config, replace(config, scheme=compare.ofdm_scheme), points,
        mean_power=float(compare.mean_power), output_dir=args.output_dir,
    )
    ordering_holds = True
    for p, rm, ro in zip(points, results["meppm"], results["dco_ofdm"]):
        flag = "ok" if ro.ber >= rm.ber else "violated"
        ordering_holds &= ro.ber >= rm.ber
        print(f"saturation={p:g} meppm_ber={rm.ber:.6g} "
              f"dco_ofdm_ber={ro.ber:.6g} ordering={flag}")
    print(f"ordering_holds={str(ordering_holds).lower()}")
    return 0


def cmd_rate(args):
    config, doc = _load(args)
    rate = sk.cli_block(doc, "rate")
    acc = sk.rate_accounting(
        config.scheme.build_constellation(), config.geometry, config.device,
        rate.n_colors, bits_per_symbol=rate.bits_per_symbol,
    )
    print(f"bits_per_slot={acc.bits_per_slot:.6g}")
    print(f"slot_rate_hz={acc.slot_rate:.6g}")
    print(f"per_color_mbps={acc.per_color_rate / 1e6:.0f}")
    print(f"aggregate_gbps={acc.aggregate_rate / 1e9:.1f}")
    os.makedirs(args.output_dir, exist_ok=True)
    with open(os.path.join(args.output_dir, "rate.json"), "w",
              encoding="utf-8") as fh:
        json.dump({
            "bits_per_slot": acc.bits_per_slot,
            "slot_rate_hz": acc.slot_rate,
            "per_color_bps": acc.per_color_rate,
            "n_colors": acc.n_colors,
            "aggregate_bps": acc.aggregate_rate,
        }, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return 0


def cmd_flicker(args):
    config, doc = _load(args)
    flicker = sk.cli_block(doc, "flicker")
    c = config.scheme.build_constellation()
    rng = np.random.default_rng(config.seed)
    idx = rng.integers(0, c.used_size, size=flicker.n_symbols)
    w = wf.synthesize(c.encode_indices(idx), config.geometry,
                      config.peak_power_per_unit)
    symbol_t = c.q * config.geometry.slot_duration
    os.makedirs(args.output_dir, exist_ok=True)
    rows = ["window_symbols,metric"]
    for k in flicker.window_symbols:
        metric = sk.flicker_metric(w, float(k) * symbol_t)
        rows.append(f"{k},{sk.format_float(metric)}")
        print(f"window_symbols={k} flicker={metric:.6g}")
    with open(os.path.join(args.output_dir, "flicker.csv"), "w",
              encoding="utf-8") as fh:
        fh.write("\n".join(rows) + "\n")
    return 0


_COMMANDS = {
    "construct": cmd_construct,
    "stats": cmd_stats,
    "ber-sweep": cmd_ber_sweep,
    "dimming-sweep": cmd_dimming_sweep,
    "isi-sweep": cmd_isi_sweep,
    "nonlin-compare": cmd_nonlin_compare,
    "rate": cmd_rate,
    "flicker": cmd_flicker,
}


def build_parser():
    parser = argparse.ArgumentParser(
        prog="vlclink",
        description="Link-level simulation toolkit for LED visible-light "
                    "communication",
    )
    parser.add_argument(
        "--version", action="version",
        version=f"vlclink {__version__} (config schema v{CONFIG_SCHEMA_VERSION})",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb in _COMMANDS:
        p = sub.add_parser(verb)
        p.add_argument("--config", required=True, help="JSON experiment config")
        p.add_argument("--output-dir", default="out")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.verb](args)
    except ConfigError as exc:
        print(f"error: config: {exc}", file=sys.stderr)
        return 3
    except ParameterError as exc:
        print(f"error: parameter: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: io: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
