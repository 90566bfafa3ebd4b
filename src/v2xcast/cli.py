"""Command line front end.

simulate: one scenario run, metrics as a single CSV row on stdout.
sweep:    the experiment matrix, CSV written to a file.

Exit codes: 0 success, 1 configuration error, 2 audit failure under --audit.
"""

from __future__ import annotations

import argparse
import io
import sys

from .baselines import SCHEMES
from .harness import (SIMULATE_COLUMNS, report_row, run_scenario,
                      sweep_to_csv, write_csv)
from .params import ConfigError, config_from_raw, parse_config_text, parse_value


def _load_raw(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="v2xcast",
        description="Slot-accurate content-distribution scheduling simulator "
                    "for a highway served by one roadside unit.")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run one scenario and print metrics")
    sim.add_argument("--config", required=True, help="key=value config file")
    sim.add_argument("--scheme", required=True, choices=SCHEMES)
    sim.add_argument("--seed", required=True, type=int)
    sim.add_argument("--audit", action="store_true",
                     help="run the constraint auditor; exit 2 on violations")
    sim.add_argument("--strict-causality", action="store_true",
                     help="cap relay forwarding at bits actually received")
    sim.add_argument("--rate-mode", choices=("midpoint", "quadrature"),
                     default="midpoint")
    sim.add_argument("--v2i-termination", choices=("coverage", "literal"),
                     default="coverage")

    sw = sub.add_parser("sweep", help="run an experiment sweep to CSV")
    sw.add_argument("--config", required=True)
    sw.add_argument("--axis", required=True, help="config key to vary")
    sw.add_argument("--values", required=True, help="comma-separated values")
    sw.add_argument("--schemes", required=True, help="comma-separated schemes")
    sw.add_argument("--replicas", required=True, type=int)
    sw.add_argument("--base-seed", required=True, type=int)
    sw.add_argument("--out", required=True, help="output CSV path")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_raw(args.config)
        if args.command == "simulate":
            config = config_from_raw(raw)
            result, report, audit_report = run_scenario(
                config, args.seed, args.scheme,
                rate_mode=args.rate_mode,
                strict_causality=args.strict_causality,
                v2i_termination=args.v2i_termination,
                with_audit=args.audit)
            out = io.StringIO()
            write_csv(SIMULATE_COLUMNS, [report_row(report)], out)
            sys.stdout.write(out.getvalue())
            if args.audit and audit_report is not None and not audit_report.ok:
                sys.stderr.write(str(audit_report) + "\n")
                return 2
            return 0
        # sweep
        values = [parse_value(args.axis, v) for v in args.values.split(",")
                  if v.strip() != ""]
        schemes = [s.strip() for s in args.schemes.split(",") if s.strip()]
        csv_text = sweep_to_csv(raw, args.axis, values, schemes,
                                args.replicas, args.base_seed)
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
        return 0
    except (ConfigError, OSError, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
