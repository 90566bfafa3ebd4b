"""Physical-layer math: sectored antenna, link budgets, interference, SINR.

Desired links are assumed perfectly beam-aligned (zero alignment error), so
they see mainlobe gain at both ends. Interference gains follow from geometry:
the interfering transmitter keeps its boresight on its own receiver and the
victim receiver keeps its boresight on its own transmitter.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .geometry import Point2D, alignment_angle, distance, distance_to_rsu
from .params import RadioParams, ScenarioConfig
from .vehicles import VehicleState


def antenna_gain(theta: float, beamwidth: float, sidelobe: float) -> float:
    """Sectored pattern: flat mainlobe inside the half-power beamwidth, flat
    sidelobe outside. theta is the alignment error angle in [0, pi]; the
    boundary theta == beamwidth/2 takes the mainlobe value."""
    if theta <= beamwidth / 2.0:
        return (2.0 * math.pi - (2.0 * math.pi - beamwidth) * sidelobe) / beamwidth
    return sidelobe


def mainlobe_gain(radio: RadioParams) -> float:
    return antenna_gain(0.0, radio.beamwidth, radio.sidelobe_gain)


def v2i_snr(d: float, radio: RadioParams) -> float:
    """Infrastructure downlink SNR at distance d (m); zero beyond RSU range."""
    if d > radio.rsu_range:
        return 0.0
    g = mainlobe_gain(radio)
    if d == 0.0:
        return math.inf
    return (radio.path_constant * radio.tx_power_rsu * g * g
            * d ** (-radio.pathloss_exponent)) / radio.noise_floor_w


def shannon_rate(sinr: float, radio: RadioParams) -> float:
    """bits/s over the full channel bandwidth."""
    if sinr == 0.0:
        return 0.0
    return radio.bandwidth * math.log2(1.0 + sinr)


def v2i_slot_rate(vehicle: VehicleState, t: int, config: ScenarioConfig,
                  mode: str = "midpoint") -> float:
    """Average downlink rate over slot t, bits/s.

    midpoint: instantaneous rate at the mid-slot position. quadrature:
    composite Simpson over the slot with 8 subintervals, parameterized by the
    angle between the vehicle-RSU direction and the lane perpendicular. Out of
    coverage contributes rate zero through the SNR zero branch.
    """
    radio = config.radio
    if mode == "midpoint":
        d = distance_to_rsu(vehicle, t, config, midpoint=True)
        return shannon_rate(v2i_snr(d, radio), radio)
    if mode != "quadrature":
        raise ValueError(f"unknown rate mode {mode!r}")
    road = config.road
    d_lr = config.lane_offset(vehicle.lane)
    step = road.slot_duration * road.speed
    x0 = (t - vehicle.entry_slot) * step - road.rsu_longitudinal
    x1 = x0 + step
    phi0 = math.atan(x0 / d_lr)
    phi1 = math.atan(x1 / d_lr)
    n = 8
    h = (phi1 - phi0) / n
    total = 0.0
    for i in range(n + 1):
        phi = phi0 + h * i
        d = d_lr / math.cos(phi)
        # dt = d_lr / (v cos^2 phi) dphi
        integrand = shannon_rate(v2i_snr(d, radio), radio) * d_lr / (
            road.speed * math.cos(phi) ** 2)
        w = 1 if i in (0, n) else (4 if i % 2 else 2)
        total += w * integrand
    return total * h / 3.0 / road.slot_duration


@dataclass(frozen=True)
class DirectionalLink:
    """A beam-aligned directional link; boresights point at the peer."""

    tx: int
    rx: int
    tx_pos: Point2D
    rx_pos: Point2D

    def __post_init__(self):
        if self.tx == self.rx:
            raise ValueError("link endpoints must differ")

    @property
    def length(self) -> float:
        return distance(self.tx_pos, self.rx_pos)


@dataclass(frozen=True)
class ConcurrentSet:
    """Links active in the same slot, with full-duplex relay bookkeeping."""

    links: tuple[DirectionalLink, ...]

    @property
    def relays(self) -> frozenset[int]:
        """Nodes that both receive and transmit within the set."""
        txs = {l.tx for l in self.links}
        rxs = {l.rx for l in self.links}
        return frozenset(txs & rxs)


def v2v_received_power(link: DirectionalLink, radio: RadioParams) -> float:
    """Desired-signal power at the receiver, watts; zero beyond V2V range."""
    d = link.length
    if d > radio.v2v_range:
        return 0.0
    if d == 0.0:
        return math.inf
    g = mainlobe_gain(radio)
    return radio.path_constant * radio.tx_power_vehicle * g * g * d ** (
        -radio.pathloss_exponent)


def v2v_interference(victim: DirectionalLink, others: ConcurrentSet,
                     radio: RadioParams) -> float:
    """Aggregate cross-link interference power at the victim receiver, watts.

    Interferers whose transmitter is the victim receiver itself are excluded;
    that path is the residual self-interference term handled in v2v_sinr.
    """
    total = 0.0
    for link in others.links:
        if link is victim or (link.tx == victim.tx and link.rx == victim.rx):
            continue
        if link.tx == victim.rx:
            continue  # self-interference, accounted separately
        d = distance(link.tx_pos, victim.rx_pos)
        if d > radio.v2v_range:
            continue
        if d == 0.0:
            return math.inf
        gt = antenna_gain(alignment_angle(link.tx_pos, link.rx_pos, victim.rx_pos),
                          radio.beamwidth, radio.sidelobe_gain)
        gr = antenna_gain(alignment_angle(victim.rx_pos, victim.tx_pos, link.tx_pos),
                          radio.beamwidth, radio.sidelobe_gain)
        total += (radio.mui_factor * radio.path_constant * radio.tx_power_vehicle
                  * gt * gr * d ** (-radio.pathloss_exponent))
    return total


def v2v_sinr(link: DirectionalLink, cset: ConcurrentSet, radio: RadioParams) -> float:
    """Receiver SINR of a link under the concurrent set, linear ratio."""
    pr = v2v_received_power(link, radio)
    if pr == 0.0:
        return 0.0
    interference = v2v_interference(link, cset, radio)
    rsi = radio.si_cancel * radio.tx_power_vehicle if link.rx in cset.relays else 0.0
    return pr / (radio.noise_floor_w + interference + rsi)


def v2v_rate(link: DirectionalLink, cset: ConcurrentSet, radio: RadioParams) -> float:
    """Achievable rate of a link under the concurrent set, bits/s.

    Feasibility gating against the SINR threshold is the scheduler's job;
    the rate is reported even below threshold.
    """
    return shannon_rate(v2v_sinr(link, cset, radio), radio)
