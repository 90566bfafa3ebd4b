"""Scenario configuration: radio parameters, road geometry, and validation.

All quantities are stored in SI units (watts, hertz, meters, seconds).
Unit conversions from the on-disk config format (dBm, dB, degrees, Gbit)
happen exactly once, at load time.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field, fields

SPEED_OF_LIGHT = 3.0e8  # m/s


class ConfigError(ValueError):
    """Raised when a configuration violates an invariant."""


def to_db(linear: float) -> float:
    return 10.0 * math.log10(linear)


def from_db(db: float) -> float:
    return 10.0 ** (db / 10.0)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RadioParams:
    """Physical-layer parameters shared by the infrastructure and vehicle radios."""

    carrier_frequency: float  # Hz
    tx_power_rsu: float       # W
    tx_power_vehicle: float   # W
    bandwidth: float          # Hz
    noise_density: float      # W/Hz, one-sided
    pathloss_exponent: float
    mui_factor: float         # cross-link interference scaling, in [0, 1]
    si_cancel: float          # residual self-interference fraction, >= 0
    sinr_threshold: float     # linear ratio, > 0
    beamwidth: float          # rad, in (0, 2*pi)
    sidelobe_gain: float      # in (0, 1)
    rsu_range: float          # m
    v2v_range: float          # m
    path_constant: float = field(init=False)  # (lambda / 4pi)^2

    def __post_init__(self):
        lam = SPEED_OF_LIGHT / self.carrier_frequency
        object.__setattr__(self, "path_constant", (lam / (4.0 * math.pi)) ** 2)

    @property
    def noise_floor_w(self) -> float:
        """Thermal noise power over the full channel bandwidth, watts."""
        return self.noise_density * self.bandwidth


@dataclass(frozen=True)
class RoadConfig:
    """One-way multi-lane road with a single roadside unit."""

    lane_count: int = 5
    lane_width: float = 4.0          # m
    road_length: float = 2000.0      # m
    rsu_longitudinal: float = 500.0  # m from the left (entry) end
    rsu_lateral_offset: float = 0.0  # m from the road edge, away from the road
    speed: float = 20.0              # m/s, common to all vehicles
    arrival_rate: float = 2.0        # vehicles/s, aggregate over all lanes
    vehicle_count: int = 100
    content_size: float = 3e9        # bits
    slot_duration: float = 1e-4      # s
    horizon: int = 1_000_000         # slots


@dataclass(frozen=True)
class ScenarioConfig:
    radio: RadioParams
    road: RoadConfig
    seed: int = 1

    def lane_offset(self, lane: int) -> float:
        """Perpendicular RSU distance for a lane center, meters."""
        return self.road.rsu_lateral_offset + (lane - 0.5) * self.road.lane_width

    def config_hash(self) -> str:
        text = "|".join(
            f"{f.name}={getattr(self.radio, f.name)!r}" for f in fields(self.radio)
        ) + "|" + "|".join(
            f"{f.name}={getattr(self.road, f.name)!r}" for f in fields(self.road)
        )
        return hashlib.sha256(text.encode()).hexdigest()[:12]


def validate(config: ScenarioConfig) -> ScenarioConfig:
    """Check every invariant; return the config unchanged if all hold.

    Raises ConfigError naming the first violated invariant and the offending
    value. The check order is fixed so error reporting is deterministic.
    """
    rp, rd = config.radio, config.road

    def fail(msg):
        raise ConfigError(msg)

    for part in (rp, rd):
        for f in fields(part):
            value = getattr(part, f.name)
            if not math.isfinite(value):
                fail(f"{f.name} must be finite, got {value}")
    if not rp.carrier_frequency > 0:
        fail(f"carrier_frequency must be > 0, got {rp.carrier_frequency}")
    if not rp.tx_power_rsu > 0:
        fail(f"tx_power_rsu must be > 0, got {rp.tx_power_rsu}")
    if not rp.tx_power_vehicle > 0:
        fail(f"tx_power_vehicle must be > 0, got {rp.tx_power_vehicle}")
    if not rp.bandwidth > 0:
        fail(f"bandwidth must be > 0, got {rp.bandwidth}")
    if not rp.noise_density > 0:
        fail(f"noise_density must be > 0, got {rp.noise_density}")
    if not rp.pathloss_exponent > 0:
        fail(f"pathloss_exponent must be > 0, got {rp.pathloss_exponent}")
    if not 0.0 <= rp.mui_factor <= 1.0:
        fail(f"mui_factor must be in [0, 1], got {rp.mui_factor}")
    if rp.si_cancel < 0:
        fail(f"si_cancel must be >= 0, got {rp.si_cancel}")
    if not rp.sinr_threshold > 0:
        fail(f"sinr_threshold must be > 0, got {rp.sinr_threshold}")
    if rp.bandwidth * math.log2(1.0 + rp.sinr_threshold) == 0:
        fail(f"sinr_threshold {rp.sinr_threshold} gives a zero link rate: "
             f"bandwidth * log2(1 + sinr_threshold) rounds to 0")
    if not 0.0 < rp.beamwidth < 2.0 * math.pi:
        fail(f"beamwidth must be in (0, 2*pi) rad, got {rp.beamwidth}")
    if not 0.0 < rp.sidelobe_gain < 1.0:
        fail(f"sidelobe_gain must be in (0, 1), got {rp.sidelobe_gain}")
    if not rp.rsu_range > 0:
        fail(f"rsu_range must be > 0, got {rp.rsu_range}")
    if not rp.v2v_range > 0:
        fail(f"v2v_range must be > 0, got {rp.v2v_range}")
    if not rp.v2v_range < rp.rsu_range:
        fail(f"R < R_r violated: v2v_range={rp.v2v_range}, rsu_range={rp.rsu_range}")

    if rd.lane_count < 1:
        fail(f"lane_count must be >= 1, got {rd.lane_count}")
    if not rd.lane_width > 0:
        fail(f"lane_width must be > 0, got {rd.lane_width}")
    if not rd.road_length > 0:
        fail(f"road_length must be > 0, got {rd.road_length}")
    if not 0.0 <= rd.rsu_longitudinal <= rd.road_length:
        fail(f"rsu_longitudinal must be in [0, road_length], got {rd.rsu_longitudinal}")
    if rd.rsu_lateral_offset < 0:
        fail(f"rsu_lateral_offset must be >= 0, got {rd.rsu_lateral_offset}")
    if not rd.speed > 0:
        fail(f"speed must be > 0, got {rd.speed}")
    if not rd.arrival_rate > 0:
        fail(f"arrival_rate must be > 0, got {rd.arrival_rate}")
    if rd.vehicle_count < 1:
        fail(f"vehicle_count must be >= 1, got {rd.vehicle_count}")
    if not rd.content_size > 0:
        fail(f"content_size must be > 0, got {rd.content_size}")
    if not rd.slot_duration > 0:
        fail(f"slot_duration must be > 0, got {rd.slot_duration}")
    if rd.slot_duration * rd.speed == 0:
        fail(f"speed_mps {rd.speed:g} and slot_ms {rd.slot_duration * 1e3:g} give a "
             f"step of 0 m per slot: slot_duration * speed rounds to 0")
    if rd.horizon < 1:
        fail(f"horizon must be >= 1, got {rd.horizon}")
    # Every lane must be servable: perpendicular distance below the RSU range.
    for lane in range(1, rd.lane_count + 1):
        d_lr = config.lane_offset(lane)
        if not d_lr < rp.rsu_range:
            fail(f"lane {lane} out of RSU range: perpendicular distance "
                 f"{d_lr} >= rsu_range {rp.rsu_range}")
    return config


# On-disk config format: flat key=value text, one key per line.
CONFIG_KEYS = (
    "carrier_frequency_hz", "pt_dbm", "pv_dbm", "bandwidth_hz",
    "n0_dbm_per_mhz", "pathloss_exp", "mui_factor", "si_cancel_exp",
    "sinr_threshold_db", "beamwidth_deg", "sidelobe_gain", "rsu_range_m",
    "v2v_range_m", "lane_count", "lane_width_m", "road_length_m",
    "rsu_longitudinal_m", "rsu_lateral_m", "speed_mps", "arrival_rate_per_s",
    "vehicle_count", "content_gbit", "slot_ms", "horizon_slots", "seed",
)

_INT_KEYS = {"lane_count", "vehicle_count", "horizon_slots", "seed"}


def parse_value(key: str, text: str):
    """The value of `key` from its text: int for the integer keys, float
    otherwise; anything else is a ConfigError naming the key."""
    try:
        return int(text) if key in _INT_KEYS else float(text)
    except ValueError:
        raise ConfigError(f"bad value for {key}: {text!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse key=value lines into a raw dict. Blank lines and # comments allowed."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            raw[key] = parse_value(key, value)
        except ConfigError as exc:
            raise ConfigError(f"line {lineno}: {exc}") from None
    missing = [k for k in CONFIG_KEYS if k not in raw]
    if missing:
        raise ConfigError(f"missing keys: {', '.join(missing)}")
    return raw


def config_from_raw(raw: dict) -> ScenarioConfig:
    """Build and validate a ScenarioConfig from raw file values.

    dBm -> watts and dB -> linear conversions happen here and nowhere else.
    A value that overflows its conversion is a ConfigError naming its key.
    """
    def conv(key, convert):
        try:
            return convert(raw[key])
        except (OverflowError, ZeroDivisionError):
            raise ConfigError(
                f"{key} out of range for its unit conversion, got {raw[key]}") from None

    radio = conv("carrier_frequency_hz", lambda hz: RadioParams(
        carrier_frequency=hz,  # the derived path constant divides by it
        tx_power_rsu=conv("pt_dbm", dbm_to_watts),
        tx_power_vehicle=conv("pv_dbm", dbm_to_watts),
        bandwidth=raw["bandwidth_hz"],
        # N0 arrives as dBm per MHz; store W/Hz so noise_floor = N0 * W.
        noise_density=conv("n0_dbm_per_mhz", dbm_to_watts) / 1e6,
        pathloss_exponent=raw["pathloss_exp"],
        mui_factor=raw["mui_factor"],
        si_cancel=conv("si_cancel_exp", lambda e: 10.0 ** (-e)),
        sinr_threshold=conv("sinr_threshold_db", from_db),
        beamwidth=math.radians(raw["beamwidth_deg"]),
        sidelobe_gain=raw["sidelobe_gain"],
        rsu_range=raw["rsu_range_m"],
        v2v_range=raw["v2v_range_m"],
    ))
    road = RoadConfig(
        lane_count=raw["lane_count"],
        lane_width=raw["lane_width_m"],
        road_length=raw["road_length_m"],
        rsu_longitudinal=raw["rsu_longitudinal_m"],
        rsu_lateral_offset=raw["rsu_lateral_m"],
        speed=raw["speed_mps"],
        arrival_rate=raw["arrival_rate_per_s"],
        vehicle_count=raw["vehicle_count"],
        content_size=raw["content_gbit"] * 1e9,  # Gbit -> bits
        slot_duration=raw["slot_ms"] * 1e-3,     # ms -> s
        horizon=raw["horizon_slots"],
    )
    return validate(ScenarioConfig(radio=radio, road=road, seed=raw["seed"]))


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return config_from_raw(parse_config_text(fh.read()))
