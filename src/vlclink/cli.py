"""Command-line front end.

Config-file-first: every verb reads one JSON experiment document; flags
only override the seed and worker count (not for `stats`) and the output
directory, so results are reproducible from the config alone.  All outputs
land inside --output-dir.  Exit codes: 0 success, 2 usage, 3 invalid config.
"""

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, replace

from . import __version__
from . import constellations as con
from . import simkit as sk
from . import waveform as wf
from .errors import ConfigError, ParameterError
from .schema import section

CONFIG_SCHEMA_VERSION = 1


def _load(args):
    doc = sk.read_document(args.config)
    config = sk.config_from_document(doc)
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


def _pulse_constellation(config):
    """The config's constellation; a DCO-OFDM scheme has none."""
    if config.scheme.kind not in con.SCHEMES:
        raise ConfigError("scheme.kind",
                          f"not a pulse scheme: {config.scheme.kind!r}")
    return config.scheme.build_constellation()


@dataclass(frozen=True)
class CodeRecord:
    """The document `construct` writes to constellation.json: a config's
    scheme block, and what the code built from it must regenerate."""
    scheme: sk.SchemeSpec
    seed_word: list[int] | None
    symbol_count: int
    bits_per_symbol: int


def _regenerated(c):
    """The recorded fields of `CodeRecord` that the code `c` gives."""
    return {
        "seed_word": (None if c.seed_positions is None
                      else [int(p) for p in c.seed_positions]),
        "symbol_count": c.size,
        "bits_per_symbol": c.bits_per_symbol,
    }


def cmd_construct(args):
    config, _ = _load(args)
    c = _pulse_constellation(config)
    print(_stats_line(c))
    s = config.scheme
    scheme = {"kind": s.kind, "q": s.q, "k": s.k, "n": s.n,
              "use_complements": s.use_complements}
    os.makedirs(args.output_dir, exist_ok=True)
    sk.write_json(os.path.join(args.output_dir, "constellation.json"),
                  {"scheme": scheme, **_regenerated(c)})
    return 0


def cmd_stats(args):
    record = section(CodeRecord, sk.read_document(args.config), "$")
    c = _pulse_constellation(record)
    for name, value in _regenerated(c).items():
        if getattr(record, name) != value:
            raise ConfigError(f"$.{name}", "does not regenerate: the "
                              f"scheme block gives {value}")
    print(_stats_line(c))
    return 0


def _checked_points(points, config, axis, path):
    """The points of a sweep over `axis`, each checked against the config
    and the axis before any point runs; a bad one is a ConfigError at the
    JSON path `path`."""
    points = [float(p) for p in points]
    try:
        sk.check_sweep(config, axis, points)
    except ParameterError as exc:
        raise ConfigError(path, str(exc)) from None
    return points


def _sweep_points(doc, config, axis):
    return _checked_points(sk.cli_block(doc, "sweep").points, config, axis,
                           "sweep.points")


def cmd_ber_sweep(args):
    config, doc = _load(args)
    points = _sweep_points(doc, config, "snr")
    reports = sk.sweep(config, "snr", points, output_dir=args.output_dir)
    for p, r in zip(points, reports):
        print(f"snr={p:g} ber={r.ber:.6g} errors={r.bit_errors} "
              f"bits={r.bits_sent}")
    return 0


def cmd_dimming_sweep(args):
    config, doc = _load(args)
    points = _sweep_points(doc, config, "dimming")
    reports = sk.sweep(config, "dimming", points, output_dir=args.output_dir)
    c = config.scheme.build_constellation()
    for p, r in zip(points, reports):
        achieved = wf.apply_dimming(c, p).achieved_ratio
        print(f"target={p:g} achieved={achieved:.6g} ber={r.ber:.6g}")
    return 0


def cmd_isi_sweep(args):
    config, doc = _load(args)
    points = _sweep_points(doc, config, "delay_spread")
    depths = sk.cli_block(doc, "sweep").depths
    if not depths:
        raise ConfigError("sweep.depths", "need a nonempty list of depths")
    derived_configs = []
    for depth in depths:
        try:
            derived_configs.append(replace(config, interleaver_depth=depth))
        except ParameterError as exc:
            raise ConfigError("sweep.depths", f"{depth}: {exc}") from None
    for depth, derived in zip(depths, derived_configs):
        label = f"{config.scheme.kind}_d{depth}"
        reports = sk.sweep(derived, "delay_spread", points,
                           output_dir=args.output_dir, label=label)
        for p, r in zip(points, reports):
            print(f"depth={depth} delay_spread={p:g} ber={r.ber:.6g} "
                  f"errors={r.bit_errors}")
    return 0


def cmd_nonlin_compare(args):
    config, doc = _load(args)
    _pulse_constellation(config)  # the pulse side of the comparison
    compare = sk.cli_block(doc, "compare")
    if compare.ofdm_scheme.kind != "dco_ofdm":
        raise ConfigError("compare.ofdm_scheme.kind", 'expected "dco_ofdm"')
    points = _checked_points(compare.saturation_points, config, "saturation",
                             "compare.saturation_points")
    try:
        ofdm_config = replace(config, scheme=compare.ofdm_scheme)
    except ParameterError as exc:
        raise ConfigError("compare.ofdm_scheme", str(exc)) from None
    results = sk.nonlin_compare(
        config, ofdm_config, points, mean_power=float(compare.mean_power),
        output_dir=args.output_dir,
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
    c = _pulse_constellation(config)
    if math.isinf(config.device.bandwidth_3db):
        raise ConfigError("device.bandwidth_3db",
                          "rate needs a finite LED bandwidth")
    try:
        acc = sk.rate_accounting(c, config.geometry, config.device,
                                 rate.n_colors, rate.bits_per_symbol)
    except ParameterError as exc:
        raise ConfigError("rate.bits_per_symbol", str(exc)) from None
    print(f"bits_per_slot={acc.bits_per_slot:.6g}")
    print(f"slot_rate_hz={acc.slot_rate:.6g}")
    print(f"per_color_mbps={acc.per_color_rate / 1e6:.0f}")
    print(f"aggregate_gbps={acc.aggregate_rate / 1e9:.1f}")
    os.makedirs(args.output_dir, exist_ok=True)
    sk.write_json(os.path.join(args.output_dir, "rate.json"), {
        "bits_per_slot": acc.bits_per_slot,
        "slot_rate_hz": acc.slot_rate,
        "per_color_bps": acc.per_color_rate,
        "n_colors": acc.n_colors,
        "aggregate_bps": acc.aggregate_rate,
    })
    return 0


def cmd_flicker(args):
    config, doc = _load(args)
    flicker = sk.cli_block(doc, "flicker")
    if not flicker.window_symbols:
        raise ConfigError("flicker.window_symbols",
                          "need a nonempty list of windows")
    _pulse_constellation(config)  # DCO-OFDM sends no pulses to measure
    depth = config.interleaver_depth
    if flicker.n_symbols % depth:
        raise ConfigError("flicker.n_symbols", f"{flicker.n_symbols} is not "
                          f"a multiple of interleaver_depth {depth}")
    light = sk.random_light(config, flicker.n_symbols)
    g = config.geometry
    symbol_t = config.scheme.q * g.slot_duration
    # every window is measured before anything is printed or written
    metrics = []
    for k in flicker.window_symbols:
        try:
            metrics.append(sk.flicker_metric(light, 1 / g.slot_duration,
                                             float(k) * symbol_t))
        except ParameterError as exc:
            raise ConfigError("flicker.window_symbols",
                              f"{k:g}: {exc}") from None
    rows = ["window_symbols,metric"]
    for k, metric in zip(flicker.window_symbols, metrics):
        rows.append(f"{k},{sk.format_float(metric)}")
        print(f"window_symbols={k} flicker={metric:.6g}")
    os.makedirs(args.output_dir, exist_ok=True)
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


@functools.cache  # built once: building costs 25x a parse
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
        if verb != "stats":
            p.add_argument("--seed", type=int, default=None)
            p.add_argument("--workers", type=int, default=None)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
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
