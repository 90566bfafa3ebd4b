"""Identity hash over a large matrix of audited stock runs.

A refactor meant to leave behaviour unchanged must print the same hash before
and after. The hash covers, for every run, the canonical run text of
test_golden.canonical and the audit report's text, over stock seeds 1-100
x every scheme x both rate modes, plus proposed, fcfs and random under
strict causality in both rate modes (1,600 stock runs), plus proposed, fcfs
and random at 400 vehicles (horizon_slots=4,000,000) on seeds 1-2 with strict
causality off and on, whose pairings of ~180 links leave most interferers out
of V2V range (12 runs), plus fcfs, serial-tdma and noncoop at
test_golden.FCFS_SHARES on seeds 1-20 in both rate modes, where fcfs forms
pairings and serial-tdma keeps partial grants (120 runs), plus random and
proposed at test_golden.RANDOM_RETRIES on seeds 1-30 with strict causality
off and on, where random's pairing builder draws again after an empty
pairing (120 runs), plus fcfs, serial-tdma and noncoop at 1,600 vehicles
(horizon_slots=16,000,000) on seeds 1-2 in both rate modes, where the RSU's
in-order loop serves every vehicle and noncoop's nearest-vehicle envelope
spans 1,600 vehicles (12 runs), plus proposed and random at
1,600 vehicles on seed 1 with strict causality off and on, the only runs
here whose pairings exceed about 190 links, up to 727 (4 runs), plus
proposed under the literal termination rule on stock seeds 1-40 in both
rate modes with strict causality off and on, and at 400 vehicles on seeds
1-2, where the grant loop runs until the last vehicle is granted (162 runs):
2,030 runs.

The first line is the hash over every run. One line per run group follows
(stock, strict, ladder, shares, retries, rsu, pairing, literal: the eight
parts above, in that order), so a mismatch points at the group that moved.
REFERENCE holds the nine lines the current code prints; --check compares
against them and exits 1, naming every group whose line moved. A change
meant to move the output updates REFERENCE with it.

    PYTHONPATH=src python tests/identity.py [--jobs J] [--check]

Point PYTHONPATH at another checkout's src/ to hash that code instead.
Not collected by pytest.
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from collections import Counter
from multiprocessing import Pool

from v2xcast.baselines import SCHEMES
from v2xcast.harness import run_scenario
from test_golden import FCFS_SHARES, RANDOM_RETRIES, canonical, stock_config

MODES = ("midpoint", "quadrature")
STRICT_SCHEMES = ("proposed", "fcfs", "random")
SEEDS = range(1, 101)
LADDER = {"vehicle_count": 400, "horizon_slots": 4_000_000}
LADDER_SEEDS = (1, 2)
RSU_SCHEMES = ("fcfs", "serial-tdma", "noncoop")
SHARES_SEEDS = range(1, 21)
RETRY_SCHEMES = ("random", "proposed")
RETRY_SEEDS = range(1, 31)
RSU = {"vehicle_count": 1600, "horizon_slots": 16_000_000}
RSU_SEEDS = (1, 2)
PAIRING_SCHEMES = ("proposed", "random")
PAIRING_SEEDS = (1,)
LITERAL_SEEDS = range(1, 41)

REFERENCE = """\
cd7104c221f5471bb59d99144961081ec7df3c0c23dad5d6ec6e6a4ed321e8d1  2030 runs
6577c860724ef8b667b7b4b8043424100211d317dfc05232a93010444c1f16ee  1000 runs  stock
2e616083762a2d75ebcdde1563909bd330ea6cadf1e48ab568bc53058b77ea70  600 runs  strict
ae5c1f0cda521d441332e0c7ed62f0c616d01705b1c818c2e8a2302140a9b283  12 runs  ladder
cb3a74e4de7f604b233880a0ab9a2911fbc587529dcac380b34bba8e410ba27e  120 runs  shares
700cc1ca0ab8c5b9ae58c304b71002e43ffcce77d5bd8844a0cd92d7143a6f2c  120 runs  retries
fb1ccd1b37edcb93af45981ca0fb212b2123e1c02d1a0ca30f1adf2288723cd4  12 runs  rsu
912b71dd6a255f8c7f4cf0a252c8fe744f9635e90c579956743ca723af431b74  4 runs  pairing
24c3af00ac1ce2753a177d1080b864eeaf60f2833771f680ca08452e90392ea9  162 runs  literal
"""


def runs():
    """(group, (seed, scheme, mode, strict, overrides, termination)) in
    hashing order."""
    for mode in MODES:
        for seed in SEEDS:
            for scheme in SCHEMES:
                yield "stock", (seed, scheme, mode, False, {}, "coverage")
        for seed in SEEDS:
            for scheme in STRICT_SCHEMES:
                yield "strict", (seed, scheme, mode, True, {}, "coverage")
    for seed in LADDER_SEEDS:
        for scheme in STRICT_SCHEMES:
            for strict in (False, True):
                yield "ladder", (seed, scheme, "midpoint", strict, LADDER, "coverage")
    for mode in MODES:
        for seed in SHARES_SEEDS:
            for scheme in RSU_SCHEMES:
                yield "shares", (seed, scheme, mode, False, FCFS_SHARES, "coverage")
    for seed in RETRY_SEEDS:
        for scheme in RETRY_SCHEMES:
            for strict in (False, True):
                yield "retries", (seed, scheme, "midpoint", strict, RANDOM_RETRIES, "coverage")
    for mode in MODES:
        for seed in RSU_SEEDS:
            for scheme in RSU_SCHEMES:
                yield "rsu", (seed, scheme, mode, False, RSU, "coverage")
    for seed in PAIRING_SEEDS:
        for scheme in PAIRING_SCHEMES:
            for strict in (False, True):
                yield "pairing", (seed, scheme, "midpoint", strict, RSU, "coverage")
    for mode in MODES:
        for seed in LITERAL_SEEDS:
            for strict in (False, True):
                yield "literal", (seed, "proposed", mode, strict, {}, "literal")
    for seed in LADDER_SEEDS:
        yield "literal", (seed, "proposed", "midpoint", False, LADDER, "literal")


def run_text(run) -> bytes:
    seed, scheme, mode, strict, overrides, termination = run
    result, report, audit_report = run_scenario(
        stock_config(**overrides), seed, scheme, rate_mode=mode,
        strict_causality=strict, v2i_termination=termination, with_audit=True)
    return (canonical(result, report) + str(audit_report) + "\n").encode()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes; the hash does not depend on it")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 unless the lines match REFERENCE")
    args = parser.parse_args()
    groups, todo = zip(*runs())
    h = hashlib.sha256()
    group_hash = {group: hashlib.sha256() for group in groups}
    with Pool(args.jobs) as pool:
        for group, text in zip(groups, pool.imap(run_text, todo, chunksize=8)):
            h.update(text)
            group_hash[group].update(text)
    counts = Counter(groups)
    lines = [f"{h.hexdigest()}  {len(todo)} runs"] + [
        f"{gh.hexdigest()}  {counts[group]} runs  {group}"
        for group, gh in group_hash.items()]
    print("\n".join(lines))
    if args.check:
        moved = [line.split()[-1] for line in lines[1:]
                 if line not in REFERENCE.splitlines()]
        if moved or lines[0] not in REFERENCE.splitlines():
            sys.exit(f"identity moved: {', '.join(moved) or 'the run list'}")
        print("identity: all nine lines match REFERENCE")


if __name__ == "__main__":
    main()
