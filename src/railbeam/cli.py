"""Command-line front end for the experiment runner."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import __version__
from .config import ConfigError, load_config
from .experiments import run_experiment

_DEFAULTS_NOTE = (
    "Default scenario unless overridden by --config: d0 = 50 m, h0 = 20 m, "
    "v0 = 100 m/s (360 km/h), L = 800 m, path-loss exponent 3, carrier "
    "2.4 GHz, spacing = wavelength/2, 128 elements and beams, sigma = 1 m, "
    "P_th = 0.9, p0 = 43 dBm, noise = -104 dBm, eta = 0."
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railbeam",
        description="Location-driven beam planning experiments (CSV output).",
        epilog=_DEFAULTS_NOTE,
    )
    parser.add_argument("--version", action="version", version=f"railbeam {__version__}")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--out", metavar="DIR", help="output directory (default from config)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("tradeoff", help="gain versus beamwidth sweep (one CSV)")
    search = sub.add_parser(
        "search-n", help="optimal beam count sweeps under positioning error"
    )
    search.add_argument(
        "--sweep",
        choices=("theta", "sigma", "both"),
        default="both",
        help="sweep the station angle, the error deviation, or both",
    )
    sub.add_parser("traverse", help="beam switching log for one coverage pass")
    sub.add_parser("rate-region", help="two-train rate region boundaries per eta")
    sub.add_parser("symmetric", help="common rate versus entry offset and power")
    sub.add_parser("export-codebook", help="write the phase-excitation table")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    out_dir = args.out if args.out is not None else cfg.out_dir
    if not out_dir:
        parser.error("--out must name a directory")

    if args.command == "search-n":
        experiments = {
            "theta": ["d-vs-theta"],
            "sigma": ["directivity-vs-sigma"],
            "both": ["d-vs-theta", "directivity-vs-sigma"],
        }[args.sweep]
    else:
        experiments = [args.command]

    for experiment in experiments:
        try:
            manifest = run_experiment(cfg, experiment, out_dir)
        except OSError as exc:
            print(f"cannot write output: {exc}", file=sys.stderr)
            return 2
        for name, rows in manifest.files.items():
            print(f"wrote {Path(out_dir) / name} ({rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
