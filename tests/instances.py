"""Shared test instances.

six_vehicle_instance builds the desk-scale reference scenario: six vehicles
in two lane clusters around the RSU, with table-driven slot counts chosen so
the schedule structure is decided by the topology. The expected outcome is
two RSU grants (vehicles 1 and 3, five slots total), one four-link sharing
pairing (1->2, 2->4, 3->5, 5->6) of four slots, and a sixteen-slot serial
reference schedule.

TableRateModel is the table-driven rate model those instances run on.
vehicles_at places hand-built vehicles, and reference_window is the
per-vehicle service window that the rate models' window arrays must equal.
child_env lets a test's child interpreter import the same package.
"""

from __future__ import annotations

import math
import os
from pathlib import Path

import numpy as np

import v2xcast
from v2xcast.params import RadioParams, RoadConfig, ScenarioConfig, validate
from v2xcast.ratemodel import Link, RateModel
from v2xcast.vehicles import VehicleState
from reference import coverage_window


def child_env() -> dict[str, str]:
    """The environment of a child Python process that must import the
    v2xcast this process imported: its src directory first on PYTHONPATH."""
    src = str(Path(v2xcast.__file__).resolve().parent.parent)
    rest = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + rest if rest else "")}


def default_radio(**overrides) -> RadioParams:
    base = dict(
        carrier_frequency=28e9,
        tx_power_rsu=1.0,          # 30 dBm
        tx_power_vehicle=0.1,      # 20 dBm
        bandwidth=800e6,
        noise_density=10 ** ((-134 - 30) / 10) / 1e6,  # -134 dBm/MHz
        pathloss_exponent=2.0,
        mui_factor=1.0,
        si_cancel=1e-8,
        sinr_threshold=100.0,      # 20 dB
        beamwidth=math.radians(30.0),
        sidelobe_gain=0.1,
        rsu_range=200.0,
        v2v_range=20.0,
    )
    base.update(overrides)
    return RadioParams(**base)


def default_config(seed: int = 1, **road_overrides) -> ScenarioConfig:
    road = RoadConfig(**road_overrides)
    return validate(ScenarioConfig(radio=default_radio(), road=road, seed=seed))


def vehicles_at(config, placements):
    """placements: list of (x at slot 0, lane); ids 1.. in list order, which
    is entry order when x descends."""
    step = config.road.slot_duration * config.road.speed
    return [VehicleState(id=vid, lane=lane, entry_slot=round(-x / step))
            for vid, (x, lane) in enumerate(placements, start=1)]


def reference_window(model, vid):
    """Vehicle vid's service window under `model`, clipped to the horizon;
    None if it can never be served. Inside the serving radius it is
    reference.coverage_window's; an infinite radius, as TableRateModel's
    without geometric coverage, serves from entry on. The vehicle's lane
    and entry slot are read from the model's arrays indexed by id."""
    v = VehicleState(vid, int(model._lane[vid]), int(model._entry[vid]))
    if math.isinf(model._serve_radius):
        win = (v.entry_slot, model.horizon - 1)
    else:
        win = coverage_window(v, model.config, radius=model._serve_radius)
    if win is None:
        return None
    t_in, t_out = win[0], min(win[1], model.horizon - 1)
    return (t_in, t_out) if t_in <= t_out else None


class TableRateModel(RateModel):
    """Fixed slot-count tables in place of the physics, for desk-scale
    reference instances and brute-force comparisons where the schedule
    structure, not the radio, is under test.

    v2i_slots maps vehicle id -> slots to download from the RSU (any start
    inside the serving window). pair_slots maps frozenset({i, j}) -> slots for
    a vehicle-to-vehicle transfer; absent pairs are out of range. Rates are
    backed out of the slot counts with a half-slot margin so that integer
    accumulation lands exactly on the intended count. With
    geometric_coverage=False the RSU reaches everywhere: a vehicle is served
    from its entry slot to the horizon, at RSU distance 0.
    """

    def __init__(self, config: ScenarioConfig, vehicles: list[VehicleState],
                 v2i_slots: dict[int, int], pair_slots: dict[frozenset, int],
                 geometric_coverage: bool = True):
        super().__init__(config, vehicles)
        self._v2i_slots = dict(v2i_slots)
        self._pair_slots = {frozenset(k): v for k, v in pair_slots.items()}
        self._geometric = geometric_coverage
        if not geometric_coverage:
            self._serve_radius = math.inf

    def _rate_for(self, slots: int) -> float:
        return self.content_size / ((slots - 0.5) * self.slot_duration)

    def rsu_distance(self, vid: int, t: int) -> float:
        return super().rsu_distance(vid, t) if self._geometric else 0.0

    def v2i_rates(self, vid: int, start: int, count: int) -> np.ndarray:
        return np.full(count, self._rate_for(self._v2i_slots[vid]))

    def rate_free(self, i: int, j: int) -> float:
        slots = self._pair_slots.get(frozenset((i, j)))
        return 0.0 if slots is None else self._rate_for(slots)

    def link_sinrs(self, links: list[Link]) -> list[float]:
        return [self.sinr_threshold if self.in_range(tx, rx) else 0.0
                for tx, rx in links]

    def link_rates(self, links: list[Link], sinrs=None) -> list[float]:
        return [self.rate_free(tx, rx) for tx, rx in links]


# Longitudinal positions at slot 0 and lanes; entry order matches ids.
SIX_POSITIONS = {1: (660.0, 5), 2: (650.0, 5), 3: (646.0, 1),
                 4: (642.0, 5), 5: (641.0, 1), 6: (632.0, 1)}

SIX_V2I_SLOTS = {1: 3, 2: 2, 3: 2, 4: 4, 5: 3, 6: 2}

# Pairs within the 20 m sharing range; the four schedule links need 4 slots,
# every other reachable pair 6.
SIX_PAIR_SLOTS = {
    frozenset((1, 2)): 4, frozenset((2, 4)): 4,
    frozenset((3, 5)): 4, frozenset((5, 6)): 4,
    frozenset((1, 4)): 6, frozenset((2, 3)): 6, frozenset((2, 5)): 6,
    frozenset((3, 4)): 6, frozenset((3, 6)): 6, frozenset((4, 5)): 6,
    frozenset((4, 6)): 6,
}


def six_vehicle_instance():
    config = default_config(vehicle_count=6)
    step = config.road.slot_duration * config.road.speed  # 0.002 m per slot
    vehicles = []
    for vid, (x, lane) in sorted(SIX_POSITIONS.items()):
        entry = round(-x / step)
        vehicles.append(VehicleState(id=vid, lane=lane, entry_slot=entry))
    model = TableRateModel(config, vehicles, SIX_V2I_SLOTS, SIX_PAIR_SLOTS)
    return config, vehicles, model


class CrowdedTableRateModel(TableRateModel):
    """Table rates that fall with the number of links on the air, so every
    finish speeds up the survivors, as dropping interference does. Links
    from transmitters 3k+1 lose twice as much per extra link as the others,
    so the rate order within a chain 3k+1 -> 3k+2 -> 3k+3 can flip as links
    finish."""

    def link_rates(self, links, sinrs=None):
        return [r / (1.0 + 0.25 * (len(links) - 1) * (2 if tx % 3 == 1 else 1))
                for (tx, _), r in zip(links, super().link_rates(links, sinrs))]
