"""Slot-accurate content-distribution scheduling for a highway mmWave network.

One roadside unit hands the full content to a chosen subset of vehicles
(infrastructure phase); the rest obtain it over short-range full-duplex
vehicle-to-vehicle links scheduled in concurrent, interference-checked
pairings (sharing phase). The package provides the physical-layer math, the
two-phase scheduler, reference baselines, metrics, an independent constraint
auditor, and a deterministic experiment harness.
"""

from .audit import AuditReport, CheckResult, audit
from .baselines import (SCHEMES, SchemeResult, run_scheme, schedule_fcfs,
                        schedule_noncoop, schedule_proposed, schedule_random,
                        schedule_serial_tdma)
from .geometry import (Point2D, alignment_angle, coverage_window, distance,
                       distance_to_rsu, position, rsu_point)
from .harness import run_scenario, sweep, sweep_to_csv
from .metrics import MetricsReport, build_report, energy, system_throughput
from .params import (ConfigError, RadioParams, RoadConfig, ScenarioConfig,
                     config_from_raw, load_config, parse_config_text, validate)
from .radio import (ConcurrentSet, DirectionalLink, antenna_gain,
                    mainlobe_gain, v2i_slot_rate, v2i_snr, v2v_interference,
                    v2v_rate, v2v_received_power, v2v_sinr)
from .ratemodel import PhysicalRateModel, RateModel, TableRateModel
from .v2i import (ChainEstimate, Grant, UtilityEval, V2ISelection,
                  select_v2i_paths, two_hop_estimate)
from .v2v import (LinkSchedule, Pairing, V2VSchedule, best_first_hop,
                  build_pairing, conflict, run_pairing, schedule_v2v)
from .vehicles import VehicleState, spawn_vehicles

__version__ = "0.1.0"
