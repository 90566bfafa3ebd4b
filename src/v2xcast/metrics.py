"""Run-level metrics: slot totals, system throughput, energy."""

from __future__ import annotations

from dataclasses import dataclass

from .baselines import SchemeResult
from .params import ScenarioConfig


@dataclass(frozen=True)
class MetricsReport:
    scheme: str
    seed: int
    total_slots: int
    t_v2i: int
    t_v2v: int
    throughput_bps: float
    energy_j: float
    served_count: int
    unserved_count: int
    partial_service: bool
    config_hash: str


def system_throughput(result: SchemeResult, config: ScenarioConfig) -> float:
    """Delivered bits per second of transmit time. With unserved vehicles the
    numerator counts served vehicles only and the report flags partial
    service; with nobody served it is 0, also over zero transmit slots."""
    served = len(result.served)
    if served == 0:
        return 0.0
    total = result.selection.t_v2i + result.v2v.t_v2v
    return served * config.road.content_size / (total * config.road.slot_duration)


def energy(result: SchemeResult, config: ScenarioConfig) -> float:
    """Transmit energy in joules: RSU power over the grant slots plus vehicle
    power over every sharing flow's actual airtime."""
    dt = config.road.slot_duration
    ec = result.selection.t_v2i * dt * config.radio.tx_power_rsu
    for pairing in result.v2v.pairings:
        for link in pairing.links:
            ec += link.slots * dt * config.radio.tx_power_vehicle
    return ec


def build_report(result: SchemeResult, config: ScenarioConfig) -> MetricsReport:
    total = result.selection.t_v2i + result.v2v.t_v2v
    return MetricsReport(
        scheme=result.scheme,
        seed=result.seed,
        total_slots=total,
        t_v2i=result.selection.t_v2i,
        t_v2v=result.v2v.t_v2v,
        throughput_bps=system_throughput(result, config),
        energy_j=energy(result, config),
        served_count=len(result.served),
        unserved_count=len(result.unserved),
        partial_service=bool(result.unserved),
        config_hash=config.config_hash(),
    )
