"""Identity hash over a large matrix of audited stock runs.

A refactor meant to leave behaviour unchanged must print the same hash before
and after. The hash covers, for every run, the canonical run text of
test_golden.canonical and the audit report's text, over stock seeds 1-100
x every scheme x both rate modes, plus proposed, fcfs and random under
strict causality in both rate modes: 1,600 runs.

    PYTHONPATH=src python tests/identity.py [--jobs J]

Point PYTHONPATH at another checkout's src/ to hash that code instead.
Not collected by pytest.
"""

from __future__ import annotations

import argparse
import hashlib
from multiprocessing import Pool

from v2xcast.baselines import SCHEMES
from v2xcast.harness import run_scenario
from test_golden import canonical, stock_config

MODES = ("midpoint", "quadrature")
STRICT_SCHEMES = ("proposed", "fcfs", "random")
SEEDS = range(1, 101)


def runs():
    for mode in MODES:
        for seed in SEEDS:
            for scheme in SCHEMES:
                yield seed, scheme, mode, False
        for seed in SEEDS:
            for scheme in STRICT_SCHEMES:
                yield seed, scheme, mode, True


def run_text(run) -> bytes:
    seed, scheme, mode, strict = run
    result, report, audit_report = run_scenario(
        stock_config(), seed, scheme, rate_mode=mode,
        strict_causality=strict, with_audit=True)
    return (canonical(result, report) + str(audit_report) + "\n").encode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes; the hash does not depend on it")
    args = parser.parse_args()
    todo = list(runs())
    h = hashlib.sha256()
    with Pool(args.jobs) as pool:
        for text in pool.imap(run_text, todo, chunksize=8):
            h.update(text)
    print(f"{h.hexdigest()}  {len(todo)} runs")


if __name__ == "__main__":
    main()
