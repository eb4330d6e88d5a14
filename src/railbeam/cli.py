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
    "P_th in 0.7, 0.8, 0.9, p0 = 43 dBm, noise = -104 dBm, eta in 0, 0.8, 1.6, 2."
)
# subcommand -> help; each subcommand runs the experiment of its name
_COMMANDS = {
    "tradeoff": "gain versus beamwidth sweep (one CSV)",
    "search-n": "optimal beam count versus station angle and error deviation (two CSVs)",
    "traverse": "beam switching log for one coverage pass",
    "rate-region": "two-train rate region boundaries per eta",
    "symmetric": "common rate versus entry offset and power",
    "export-codebook": "write the phase-excitation table",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="railbeam",
        description="Location-driven beam planning experiments (CSV output).",
        epilog=_DEFAULTS_NOTE,
    )
    parser.add_argument("--version", action="version", version=f"railbeam {__version__}")
    parser.add_argument("--config", metavar="PATH", help="key = value config file")
    parser.add_argument("--out", metavar="DIR", default="out", help="output directory (default: out)")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        sub.add_parser(name, help=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if not args.out:
        parser.error("--out must name a directory")
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        manifest = run_experiment(cfg, args.command, args.out)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    for name, rows in manifest.files.items():
        print(f"wrote {Path(args.out) / name} ({rows} rows)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
