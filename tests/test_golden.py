"""Golden digests: the full result of every scheme on the stock config.

Each run is reduced to a canonical text (the CSV row, the grants, chains,
granted and remaining vehicles, the incomplete flag, every pairing, and the
sorted served/unserved sets) and each group of runs to one SHA-256. A
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
from v2xcast.params import load_config

CONFIG_PATH = Path(__file__).parent.parent / "configs" / "default.cfg"

RUNS = {  # group -> (seed, scheme, run_scenario keywords) per run
    "midpoint": [(seed, scheme, {}) for seed in range(1, 7)
                 for scheme in SCHEMES],
    "strict": [(seed, scheme, {"strict_causality": True})
               for seed in range(1, 7)
               for scheme in ("proposed", "fcfs", "random")],
    "literal": [(seed, "proposed", {"v2i_termination": "literal"})
                for seed in range(1, 7)],
    "quadrature": [(seed, scheme, {"rate_mode": "quadrature"})
                   for seed in (1, 2) for scheme in SCHEMES],
}

DIGESTS = {
    "midpoint": "d834b1dadc28fbe400caa3ba1a5d67d86c4563a7f7a8e135ec5b0f15492fe45f",
    "strict": "16b6ac61ed59b1cd756d2a5e4fdfa1e46bb4aab6e34d3201f38cdbce8b8d0ddd",
    "literal": "820bba8989ab9a7dfe3e09d24066553d8266b19be9d6c93ee2e901663a3ec727",
    "quadrature": "6cae18346b511f32501abee301b844e5aebf73a3afdd7f5321eec414eef8efde",
}


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


def group_digest(runs) -> str:
    config = load_config(CONFIG_PATH)
    h = hashlib.sha256()
    for seed, scheme, kwargs in runs:
        result, report, _ = run_scenario(config, seed, scheme, **kwargs)
        h.update(canonical(result, report).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("group", sorted(RUNS))
def test_golden_digest(group):
    assert group_digest(RUNS[group]) == DIGESTS[group]
