"""The benchmark's workloads: a frozen config and the runs made per scenario.

One sample is every run of one scenario seed, e.g. the five schemes of
stock-matrix on one seed. The benchmark's --seed draws the scenario seeds;
the simulator receives only a config and a scenario seed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

CONFIG_DIR = Path(__file__).resolve().parent / "configs"

ALL_SCHEMES = ("proposed", "fcfs", "random", "noncoop", "serial-tdma")


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    schemes: tuple[str, ...]
    # Passed to harness.run_scenario besides with_audit=True.
    flags: dict = field(default_factory=dict)
    # Samples every run executes whatever the host speed: they fix the rows
    # behind csv_sha256 and the work of a traced run, so both repeat
    # exactly for a given --seed.
    fixed_samples: int = 1

    @property
    def config_path(self) -> Path:
        return CONFIG_DIR / self.config_file

    def scenario_seeds(self, seed: int):
        """Endless stream of distinct scenario seeds drawn from --seed."""
        rng = random.Random(f"{self.name}:{seed}")
        seen: set[int] = set()
        while True:
            s = rng.randrange(1, 2**31)
            if s not in seen:
                seen.add(s)
                yield s


WORKLOADS = {w.name: w for w in (
    # Acceptance criterion 4's traffic: every scheme, stock config, default
    # flags. noncoop's event loop takes about half the time; link_sinrs on
    # the small (~24-link) pairings and V2I rates take most of the rest.
    Workload("stock-matrix", "stock.cfg", ALL_SCHEMES, fixed_samples=6),
    # The 400-vehicle ladder rung: pairings of about 180 links make the
    # O(L^3) V2V interference dominate; noncoop never runs.
    Workload("ladder-400", "ladder-400.cfg", ("proposed",), fixed_samples=2),
    # The rate model's V2I side under Simpson quadrature (9 points per slot)
    # and the per-slot relay backlog loops of strict causality.
    Workload("quad-strict", "stock.cfg", ("proposed", "fcfs", "random"),
             flags={"rate_mode": "quadrature", "strict_causality": True},
             fixed_samples=6),
    # RSU-only service of 1600 vehicles: no link_sinrs calls at all (the
    # no-change workload for a link_sinrs speed-up), while the dense
    # (N+1)^2 rate-model geometry is built twice per run (schedule and
    # audit), so it is the workload where peak_rss_mb sees the model's
    # memory layout.
    Workload("rsu-1600", "rsu-1600.cfg", ("serial-tdma",), fixed_samples=6),
)}
