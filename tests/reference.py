"""Scalar reference geometry and link budgets, one slot and one link at a time.

The rate models and the audit compute these with numpy over whole
populations; the tests hold them to the pure-Python formulas here.
Noncoop's nearest-vehicle stretches have their plain bisection reference
here too, and the audit's V2V replay its walk one phase at a time.

The road runs along +x. Lane l is centered at y = (l - 0.5) * lane_width and
the RSU sits at y = -rsu_lateral_offset, so the perpendicular RSU distance of
lane l is rsu_lateral_offset + (l - 0.5) * lane_width.

Desired links are assumed perfectly beam-aligned (zero alignment error), so
they see mainlobe gain at both ends. Interference gains follow from geometry:
the interfering transmitter keeps its boresight on its own receiver and the
victim receiver keeps its boresight on its own transmitter. The antenna
pattern itself is the package's.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from v2xcast.audit import REL_GUARD, V2VBudget
from v2xcast.params import RadioParams, ScenarioConfig
from v2xcast.radio import antenna_gain, mainlobe_gain
from v2xcast.vehicles import VehicleState


@dataclass(frozen=True)
class Point2D:
    x: float  # m, longitudinal
    y: float  # m, lateral


def rsu_point(config: ScenarioConfig) -> Point2D:
    return Point2D(config.road.rsu_longitudinal, -config.road.rsu_lateral_offset)


def lane_center_y(config: ScenarioConfig, lane: int) -> float:
    return (lane - 0.5) * config.road.lane_width


def position(vehicle: VehicleState, t: int, config: ScenarioConfig,
             midpoint: bool = False) -> Point2D:
    """Vehicle position at slot t; midpoint=True samples mid-slot.

    Querying before the vehicle has entered the road is an error.
    """
    if t < vehicle.entry_slot:
        raise ValueError(
            f"vehicle {vehicle.id} queried at slot {t}, before entry "
            f"slot {vehicle.entry_slot}")
    offset = 0.5 if midpoint else 0.0
    x = (t - vehicle.entry_slot + offset) * config.road.slot_duration * config.road.speed
    return Point2D(x, lane_center_y(config, vehicle.lane))


def distance(a: Point2D, b: Point2D) -> float:
    return math.hypot(a.x - b.x, a.y - b.y)


def distance_to_rsu(vehicle: VehicleState, t: int, config: ScenarioConfig,
                    midpoint: bool = False) -> float:
    return distance(position(vehicle, t, config, midpoint=midpoint), rsu_point(config))


def coverage_window(vehicle: VehicleState, config: ScenarioConfig,
                    radius: float | None = None) -> tuple[int, int] | None:
    """Maximal contiguous slot range with RSU distance <= radius, or None.

    Distances use the mid-slot sampling convention, matching the rate model.
    The right end is not clipped to the horizon; callers clip as needed.
    radius defaults to the RSU range.
    """
    if radius is None:
        radius = config.radio.rsu_range
    d_lr = config.lane_offset(vehicle.lane)
    if d_lr >= radius:
        return None
    half_chord = math.sqrt(radius * radius - d_lr * d_lr)
    step = config.road.slot_duration * config.road.speed  # m of travel per slot
    # Mid-slot x of slot t is (t - entry + 0.5) * step; solve |x - rsu_x| <= hc.
    lo = vehicle.entry_slot - 0.5 + (config.road.rsu_longitudinal - half_chord) / step
    hi = vehicle.entry_slot - 0.5 + (config.road.rsu_longitudinal + half_chord) / step
    t_in = max(vehicle.entry_slot, math.ceil(lo))
    t_out = math.floor(hi)
    if t_out < t_in:
        return None
    return t_in, t_out


def nearest_stretches_by_bisection(model) -> list[tuple[int, int, int]]:
    """The reference for baselines._nearest_stretches: the same lower
    envelope of model.rsu_distance, with each takeover slot found by
    bisection over the whole of [first candidate slot, horizon) on the exact
    (distance, id) comparison, with no guess from the road geometry."""
    def beats(j, k, t):
        return (model.rsu_distance(j, t), j) < (model.rsu_distance(k, t), k)

    stack: list[tuple[int, int]] = []
    for j in model.entry_order:
        takeover = max(0, int(model._entry[j]))
        while stack:
            k, k_first = stack[-1]
            lo, hi = max(takeover, k_first), model.horizon
            while lo < hi:
                mid = (lo + hi) // 2
                if beats(j, k, mid):
                    hi = mid
                else:
                    lo = mid + 1
            if lo > k_first:
                takeover = lo
                break
            stack.pop()
        if takeover < model.horizon:
            stack.append((j, takeover))
    lasts = [first - 1 for _, first in stack[1:]] + [model.horizon - 1]
    return [(vid, first, last) for (vid, first), last in zip(stack, lasts)]


def replay_pairing_by_phase(pairing, model, strict: bool):
    """The reference for audit._replay_pairing: the same (delivered, weak)
    replay, one phase at a time. Each phase takes the active set's SINRs
    and rates from `model`'s phases (budget_phases on a V2VBudget), checks
    them against the threshold, and moves every link from x to x + n * g,
    with a relay hop capped at its feeder's f + n * g_f under strict
    causality. Each link's traced slot count is read by position."""
    floor = model.sinr_threshold * (1.0 - REL_GUARD)
    dt = model.slot_duration
    links = [(l.tx, l.rx) for l in pairing.links]
    span = np.array([l.slots for l in pairing.links], dtype=np.int64)
    into = {rx: m for m, (_, rx) in reversed(list(enumerate(links)))}
    hops = [(m, into[tx]) for m, (tx, _) in enumerate(links) if tx in into] \
        if strict else []
    hop, feeder = np.array(hops, dtype=np.int64).reshape(-1, 2).T
    phase = (budget_phases(model, links) if isinstance(model, V2VBudget)
             else model.phases(links))
    delivered = np.zeros(len(links))
    elapsed = 0
    active = np.flatnonzero(span > elapsed)
    while active.size:
        sinrs, rates = phase(active)
        weak = sinrs < floor
        if weak.any():
            k = int(weak.argmax())
            return (dict(zip(links, delivered.tolist())),
                    (links[active[k]], float(sinrs[k]), elapsed))
        left = span[active]
        nxt = int(left.min())
        n = nxt - elapsed
        grain = np.zeros(len(links))
        grain[active] = rates * dt
        moved = delivered + grain * n
        if hop.size:
            cap = delivered[feeder] + n * grain[feeder]
            cut = (span[hop] > elapsed) & (cap < moved[hop])
            moved[hop[cut]] = cap[cut]
        delivered = moved
        elapsed = nxt
        active = active[left > elapsed]
    return dict(zip(links, delivered.tolist())), None


def budget_phases(budget: V2VBudget, links):
    """A V2VBudget's phases of one pairing, one active set at a time: a
    function of the active link positions giving their SINRs and rates,
    summed with np.bincount from the budget's term table. A receiver relays
    while its node transmits on an active link."""
    n = len(links)
    tx = np.array([l[0] for l in links], dtype=np.int64)
    rx = np.array([l[1] for l in links], dtype=np.int64)
    desired = budget.desired(tx, rx)
    u, m, term = budget.interference(tx, rx)

    def phase(active: np.ndarray):
        on = np.zeros(n, dtype=bool)
        on[active] = True
        heard = on[u]
        itf = np.bincount(m[heard], term[heard], minlength=n)
        sending = np.zeros(len(budget._x), dtype=bool)
        sending[tx[active]] = True
        return budget.sinrs_and_rates(desired[active], itf[active],
                                      sending[rx[active]])
    return phase


def alignment_angle(tx: Point2D, boresight_target: Point2D, probe: Point2D) -> float:
    """Angle in [0, pi] at tx between the boresight ray and the probe direction."""
    if tx == boresight_target:
        raise ValueError("boresight target coincides with the antenna position")
    if tx == probe:
        raise ValueError("probe point coincides with the antenna position")
    ax, ay = boresight_target.x - tx.x, boresight_target.y - tx.y
    bx, by = probe.x - tx.x, probe.y - tx.y
    dot = ax * bx + ay * by
    na = math.hypot(ax, ay)
    nb = math.hypot(bx, by)
    cosang = max(-1.0, min(1.0, dot / (na * nb)))
    return math.acos(cosang)


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
