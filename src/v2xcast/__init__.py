"""Slot-accurate content-distribution scheduling for a highway mmWave network.

One roadside unit hands the full content to a chosen subset of vehicles
(infrastructure phase); the rest obtain it over short-range full-duplex
vehicle-to-vehicle links scheduled in concurrent, interference-checked
pairings (sharing phase). The package provides the antenna pattern, the
rate model the schedulers read their link budgets from, the two-phase
scheduler, reference baselines, metrics, an independent constraint auditor,
and a deterministic experiment harness.
"""

from .audit import AuditReport, CheckResult, audit
from .baselines import (SCHEMES, SchemeResult, run_scheme, schedule_fcfs,
                        schedule_noncoop, schedule_proposed, schedule_random,
                        schedule_serial_tdma)
from .harness import run_scenario, sweep, sweep_to_csv
from .metrics import MetricsReport, build_report, energy, system_throughput
from .params import (ConfigError, RadioParams, RoadConfig, ScenarioConfig,
                     config_from_raw, load_config, parse_config_text, validate)
from .radio import antenna_gain, mainlobe_gain
from .ratemodel import PhysicalRateModel, RateModel
from .v2i import (ChainEstimate, Grant, UtilityEval, V2ISelection,
                  select_v2i_paths, two_hop_estimate)
from .v2v import (LinkSchedule, Pairing, V2VSchedule, best_first_hop,
                  build_pairing, conflict, run_pairing, schedule_v2v)
from .vehicles import VehicleState, spawn_vehicles

__version__ = "0.1.0"
