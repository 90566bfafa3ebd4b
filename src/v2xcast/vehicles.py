"""Vehicle population: Poisson arrivals quantized onto the slot grid."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .params import ConfigError, ScenarioConfig


@dataclass(frozen=True)
class VehicleState:
    """A vehicle on the road. Position is derived, never stored.

    Longitudinal position at slot t is (t - entry_slot) * slot_duration * speed,
    measured from the left end of the road. spawn_vehicles numbers ids 1..N
    in entry order; schedulers take entry order as (entry_slot, id), so a
    hand-built population need not.
    """

    id: int
    lane: int
    entry_slot: int


def spawn_vehicles(config: ScenarioConfig, seed: int) -> list[VehicleState]:
    """Draw the vehicle population deterministically from (config, seed).

    Inter-arrival gaps are i.i.d. exponential with the configured aggregate
    rate, quantized to slots by rounding half-up. Lanes are uniform. Ids are
    assigned by (entry_slot, lane) ascending, so they follow entry order.
    Entry slots past the int64 range are a ConfigError.
    """
    road = config.road
    rng = np.random.default_rng(seed)
    gaps = rng.exponential(scale=1.0 / road.arrival_rate, size=road.vehicle_count)
    lanes = rng.integers(1, road.lane_count + 1, size=road.vehicle_count)
    arrival_s = np.cumsum(gaps)
    entry_slots = np.floor(arrival_s / road.slot_duration + 0.5)
    if not np.all(entry_slots < 2.0 ** 63):
        raise ConfigError(
            f"arrival slots past the int64 range: slot_ms {road.slot_duration * 1e3:g} "
            f"too short for arrival_rate_per_s {road.arrival_rate:g}")
    entry_slots = entry_slots.astype(np.int64)
    order = np.lexsort((lanes, entry_slots))  # stable: ties keep draw order
    return list(map(VehicleState, range(1, road.vehicle_count + 1),
                    lanes[order].tolist(), entry_slots[order].tolist()))
