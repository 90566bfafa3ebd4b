"""Scenario runner and sweep harness with deterministic CSV output."""

from __future__ import annotations

import io

from .audit import AuditReport, audit
from .baselines import SCHEMES, SchemeResult, run_scheme
from .metrics import MetricsReport, build_report
from .params import CONFIG_KEYS, ConfigError, ScenarioConfig, config_from_raw
from .ratemodel import PhysicalRateModel
from .vehicles import spawn_vehicles

SIMULATE_COLUMNS = ("scheme", "seed", "total_slots", "t_v2i", "t_v2v",
                    "throughput_bps", "energy_j", "unserved")
SWEEP_COLUMNS = ("axis", "value", "scheme", "replica", "seed", "total_slots",
                 "t_v2i", "t_v2v", "throughput_bps", "energy_j", "unserved")


def fmt(value) -> str:
    """CSV cell formatting: integers verbatim, floats at 9 significant digits."""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, int):
        return str(value)
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def run_scenario(config: ScenarioConfig, seed: int, scheme: str,
                 rate_mode: str = "midpoint", strict_causality: bool = False,
                 v2i_termination: str = "coverage", with_audit: bool = False,
                 ) -> tuple[SchemeResult, MetricsReport, AuditReport | None]:
    """spawn -> schedule -> metrics (-> audit); pure in (config, seed, scheme)."""
    vehicles = spawn_vehicles(config, seed)
    model = PhysicalRateModel(config, vehicles, rate_mode=rate_mode)
    result = run_scheme(scheme, model, seed, strict_causality, v2i_termination)
    report = build_report(result, config)
    audit_report = audit(result, config, vehicles) if with_audit else None
    return result, report, audit_report


def report_row(report: MetricsReport) -> tuple:
    return (report.scheme, report.seed, report.total_slots, report.t_v2i,
            report.t_v2v, report.throughput_bps, report.energy_j,
            report.unserved_count)


def write_csv(columns, rows, stream) -> None:
    stream.write(",".join(columns) + "\n")
    for row in rows:
        stream.write(",".join(fmt(cell) for cell in row) + "\n")


def sweep(raw_config: dict, axis: str, values: list, schemes: list[str],
          replicas: int, base_seed: int) -> list[tuple]:
    """One row per (value, scheme, replica), in that nested order; replica r
    runs with seed base_seed + r."""
    if axis not in CONFIG_KEYS:
        raise ConfigError(
            f"unknown sweep axis {axis!r}; valid keys: {', '.join(CONFIG_KEYS)}")
    if axis == "seed":
        raise ConfigError("cannot sweep over seed: replica r runs with seed "
                          "base_seed + r; vary --base-seed and --replicas instead")
    if not values:
        raise ConfigError("values is empty: give at least one value to sweep")
    if not schemes:
        raise ConfigError("schemes is empty: give at least one scheme to run")
    for scheme in schemes:
        if scheme not in SCHEMES:
            raise ConfigError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
    if replicas < 1:
        raise ConfigError(f"replicas must be >= 1, got {replicas}")
    rows = []
    for value in values:
        raw = dict(raw_config)
        raw[axis] = value
        config = config_from_raw(raw)
        for scheme in schemes:
            for replica in range(replicas):
                seed = base_seed + replica
                _, report, _ = run_scenario(config, seed, scheme)
                rows.append((axis, value, scheme, replica) + report_row(report)[1:])
    return rows


def sweep_to_csv(raw_config: dict, axis: str, values: list, schemes: list[str],
                 replicas: int, base_seed: int) -> str:
    out = io.StringIO()
    write_csv(SWEEP_COLUMNS,
              sweep(raw_config, axis, values, schemes, replicas, base_seed), out)
    return out.getvalue()
