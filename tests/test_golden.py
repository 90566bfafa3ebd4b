"""Golden digests: the full result of every scheme on the stock config.

Each run is reduced to a canonical text (the CSV row, the grants, chains,
granted and remaining vehicles, the incomplete flag, every pairing, and the
sorted served/unserved sets) and each group of runs to one SHA-256. Most
groups run the stock config; the `paths` group overrides config keys per run
to reach code the stock config never does: fcfs runs that leave vehicles to
the sharing phase (1-3 pairings each, strict and relaxed), and random runs
whose pairing builder has to retry after an unlucky draw. The `ladder` group
runs 400 vehicles, whose pairings of ~180 links leave most interferers out
of V2V range. The `rsu-only` group runs serial-tdma and noncoop on the
crowded, large-file config of `paths`, where serial-tdma's window closes
mid-download 6-14 times per run and the vehicle keeps its partial grant.
The `pairing-1600` group runs proposed and random at 1,600 vehicles with
strict causality off and on, whose pairings of up to 727 links are the
largest any run here simulates and replays. A
refactor that is meant to leave behaviour unchanged must leave every digest
unchanged; a change that alters a schedule on purpose records the new
digests here and says why.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import numbers
from pathlib import Path

import pytest

from v2xcast.baselines import SCHEMES
from v2xcast.harness import fmt, report_row, run_scenario
from v2xcast.params import config_from_raw, parse_config_text

CONFIG_PATH = Path(__file__).parent.parent / "configs" / "default.cfg"

FCFS_SHARES = {"arrival_rate_per_s": 6, "content_gbit": 6,
               "horizon_slots": 5_000_000}
RANDOM_RETRIES = {"sinr_threshold_db": 64}
LADDER = {"vehicle_count": 400, "horizon_slots": 4_000_000}
CROWD = {"vehicle_count": 1600, "horizon_slots": 16_000_000}

RUNS = {  # group -> (seed, scheme, run_scenario keywords, config overrides)
    "midpoint": [(seed, scheme, {}, {}) for seed in range(1, 7)
                 for scheme in SCHEMES],
    "strict": [(seed, scheme, {"strict_causality": True}, {})
               for seed in range(1, 7)
               for scheme in ("proposed", "fcfs", "random")],
    "literal": [(seed, "proposed", {"v2i_termination": "literal"}, {})
                for seed in range(1, 7)],
    "quadrature": [(seed, scheme, {"rate_mode": "quadrature"}, {})
                   for seed in (1, 2) for scheme in SCHEMES],
    "paths": [(seed, "fcfs", {"strict_causality": strict}, FCFS_SHARES)
              for seed in (1, 2, 3) for strict in (False, True)]
    + [(seed, "random", {}, RANDOM_RETRIES) for seed in (4, 5, 16, 21)],
    "ladder": [(1, "proposed", {"strict_causality": strict}, LADDER)
               for strict in (False, True)] + [(1, "random", {}, LADDER)],
    "rsu-only": [(seed, scheme, {}, FCFS_SHARES) for seed in (1, 2, 3)
                 for scheme in ("serial-tdma", "noncoop")],
    "pairing-1600": [(1, scheme, {"strict_causality": strict}, CROWD)
                     for scheme in ("proposed", "random")
                     for strict in (False, True)],
}

DIGESTS = {
    "midpoint": "0e4d65fc1e8fa48dea18d173d0e84584c7fec5baf3d076aea272f3c5143bef19",
    "strict": "16b6ac61ed59b1cd756d2a5e4fdfa1e46bb4aab6e34d3201f38cdbce8b8d0ddd",
    "literal": "820bba8989ab9a7dfe3e09d24066553d8266b19be9d6c93ee2e901663a3ec727",
    "quadrature": "9d969ec1b8ea64e573815bcb0bbb450d6d62cabd8d10c3f74449a73273ad543c",
    "paths": "a4938a7f075c1db5768e4608023aa278cd62cb3bf36d0e1d4371e9248d21dffa",
    "ladder": "fc753300e39e099745fc11928ec709a7ab59c85bb5e6a7f65ed12a0fc49577a1",
    "rsu-only": "f54ceef3361a4b6feec526258b56edffdaddda4e5d8db6a22a34d56a1a021511",
    "pairing-1600": "ad6a1e084618458f2c0cebb32f2af9cba00c9042040037b6f6a5a0cd23fff4da",
}

# Stock seed 113 spawns two vehicles on one spot: proposed and random then
# ask for the beam angle toward a co-located peer, which must come out as 0
# without a floating-point warning.
COLOCATED_SEED = 113
COLOCATED_DIGEST = (
    "4bec7c2085ae6f4a42c075dca2a2c24ef86b5bf0e1e88614a51c0667573d3508")


def _plain(x):
    """Numpy scalars and tuples folded to JSON-stable Python values."""
    if dataclasses.is_dataclass(x):
        return _plain(dataclasses.astuple(x))
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, bool):
        return x
    if isinstance(x, numbers.Integral):
        return int(x)
    if isinstance(x, numbers.Real):
        return float(x)
    return x


def canonical(result, report) -> str:
    sel = result.selection
    return json.dumps([
        [fmt(cell) for cell in report_row(report)],
        _plain(sel.grants), _plain(sel.chains), _plain(sel.v_a),
        _plain(sel.v_b), bool(sel.incomplete), _plain(result.v2v.pairings),
        sorted(int(i) for i in result.served),
        sorted(int(i) for i in result.unserved),
    ])


def stock_config(**overrides):
    raw = parse_config_text(CONFIG_PATH.read_text(encoding="utf-8"))
    raw.update(overrides)
    return config_from_raw(raw)


def group_digest(runs) -> str:
    h = hashlib.sha256()
    for seed, scheme, kwargs, overrides in runs:
        result, report, _ = run_scenario(stock_config(**overrides), seed,
                                         scheme, **kwargs)
        h.update(canonical(result, report).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(RUNS))
def test_golden_digest(group):
    assert group_digest(RUNS[group]) == DIGESTS[group]


# With no self-interference cancellation a full-duplex relay slows its own
# feeder to 3e9-1e11 slots. Under strict causality the first pairing then
# runs to the horizon and is dropped, which leaves 53 vehicles unserved.
STRICT_OVERRUN = {"si_cancel_exp": 0, "sinr_threshold_db": -70}


def test_strict_pairing_past_the_horizon_is_dropped():
    _, report, audit_report = run_scenario(
        stock_config(**STRICT_OVERRUN), 1, "proposed", strict_causality=True,
        with_audit=True)
    assert ",".join(fmt(cell) for cell in report_row(report)) == (
        "proposed,1,109601,109601,0,1.28648461e+10,10.9601,53")
    assert audit_report.ok, str(audit_report)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_colocated_vehicles_run_without_warnings():
    runs = [(COLOCATED_SEED, scheme, {}, {}) for scheme in ("proposed", "random")]
    assert group_digest(runs) == COLOCATED_DIGEST
