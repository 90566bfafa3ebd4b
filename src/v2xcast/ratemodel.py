"""Rate models: the slot-rate and feasibility surface the schedulers consume.

RateModel is the written protocol: each model supplies five primitives, and
every query the schedulers derive from them is written once, on RateModel.

PhysicalRateModel evaluates the full link-budget math over the vehicle
population, with caching that exploits two facts of the scenario: all
vehicles share one speed, so pairwise distances and angles never change, and
the RSU geometry per vehicle is a closed-form function of the slot index.
V2V geometry is therefore sparse and fixed: each vehicle keeps only its
neighbours within V2V range, found once by sort-and-sweep, and antenna gains
are memoised per (antenna, boresight peer, probe) triple.

TableRateModel replaces the physics with fixed per-vehicle and per-pair slot
counts. It is used for desk-scale reference instances and brute-force
comparisons where the schedule structure, not the radio, is under test.
"""

from __future__ import annotations

import math

import numpy as np

from .params import ScenarioConfig
from .radio import antenna_gain, mainlobe_gain
from .vehicles import VehicleState

Link = tuple[int, int]  # (tx id, rx id)


def fd_relays(links: list[Link]) -> set[int]:
    """Nodes that both receive and transmit within a concurrent set."""
    txs = {tx for tx, _ in links}
    rxs = {rx for _, rx in links}
    return txs & rxs


def min_rate(model, vid: int, start: int, end: int) -> float:
    """Lower bound on the vehicle's V2I rate over slots [start, end]: rates
    are unimodal over the pass, so the lower end rate bounds the rest."""
    return min(model.v2i_rates(vid, start, 1)[0], model.v2i_rates(vid, end, 1)[0])


def accumulate(model, vid: int, start: int, need: float, span: int,
               r_min: float) -> tuple[int, float]:
    """Slots from `start` until `need` bits have arrived, and the bits those
    slots carry; when the scanned slots fall short, all of them and their
    bits. At most `span` slots are scanned, and with a positive rate bound
    r_min no more than a download at that rate would take."""
    dt = model.slot_duration
    cap = min(span, int(math.ceil(need / (r_min * dt))) + 2) if r_min > 0 else span
    cum = np.cumsum(model.v2i_rates(vid, start, cap)) * dt
    n = min(int(np.searchsorted(cum, need, side="left")) + 1, cap)
    return n, float(cum[n - 1])


def near_pairs(x: np.ndarray, y: np.ndarray, reach: float):
    """Index pairs (a, b), a != b, of the points (x, y) no more than `reach`
    apart, each unordered pair once, with their distances.

    Sort-and-sweep along x: a pair can be in reach only if its x gap is, so
    after sorting by x each point is tested only against the points that
    follow it within a searchsorted window of `reach` (widened by a relative
    1e-9 so that rounding cannot drop a pair); the exact hypot test decides.
    """
    order = np.argsort(x, kind="stable")
    xs = x[order]
    pad = 1e-9 * (reach + float(np.abs(xs).max(initial=0.0)))
    ends = np.searchsorted(xs, xs + (reach + pad), side="right")
    counts = ends - np.arange(1, len(xs) + 1)
    p = np.repeat(np.arange(len(xs)), counts)
    q = p + 1 + np.arange(len(p)) - np.repeat(np.cumsum(counts) - counts, counts)
    a, b = order[p], order[q]
    d = np.hypot(x[a] - x[b], y[a] - y[b])
    keep = d <= reach
    return a[keep], b[keep], d[keep]


class RateModel:
    """The rate-model protocol, read by both schedulers and the audit. A
    model supplies five primitives:

    v2i_rates(vid, start, count)  per-slot RSU downlink rates for slots
                                  [start, start+count), bits/s
    rsu_distance(vid, t)          mid-slot RSU distance, meters
    rate_free(i, j)               interference-free V2V rate, bits/s; 0 when
                                  the pair cannot talk
    link_sinrs(links)             receiver SINR per link when all of them
                                  transmit concurrently
    link_rates(links)             rate per link under that concurrency, bits/s

    and sets _entry (entry slot, indexed by id) and, to serve inside less
    than the RSU range, _serve_radius. The attributes the schedulers read,
    config, vehicles, ids, content_size, slot_duration, horizon,
    sinr_threshold and rate_mode, are set here. Every other query is derived
    below from the primitives, once for every model.
    """

    rate_mode = "midpoint"
    _serve_radius: float | None = None  # None means the RSU range

    def __init__(self, config: ScenarioConfig, vehicles: list[VehicleState]):
        self.config = config
        self.vehicles = vehicles
        self.ids = [v.id for v in vehicles]
        self.content_size = config.road.content_size
        self.slot_duration = config.road.slot_duration
        self.horizon = config.road.horizon
        self.sinr_threshold = config.radio.sinr_threshold
        self._windows: dict[int, tuple[int, int] | None] = {}

    # ---- V2I ----

    def service_window(self, vid: int) -> tuple[int, int] | None:
        """Slot range where the vehicle is in coverage with adequate SNR,
        clipped to the horizon. None if the vehicle can never be served."""
        try:
            return self._windows[vid]
        except KeyError:
            pass
        from .geometry import coverage_window
        v = self.vehicles[vid - 1]
        assert v.id == vid
        win = coverage_window(v, self.config, radius=self._serve_radius)
        if win is not None:
            t_in, t_out = win
            t_out = min(t_out, self.horizon - 1)
            win = (t_in, t_out) if t_in <= t_out else None
        self._windows[vid] = win
        return win

    def in_service(self, vid: int, t: int) -> bool:
        win = self.service_window(vid)
        return win is not None and win[0] <= t <= win[1]

    def entered(self, vid: int, t: int) -> bool:
        return self._entry[vid] <= t

    def slots_to_download(self, vid: int, start: int) -> int | None:
        """Smallest slot count to accumulate the content from `start`, with
        every slot inside the serving window; None when impossible."""
        if self.content_size <= 0:
            return 0
        win = self.service_window(vid)
        if win is None or not (win[0] <= start <= win[1]):
            return None
        r_min = min_rate(self, vid, start, win[1])
        if r_min <= 0:
            return None
        n, bits = accumulate(self, vid, start, self.content_size,
                             win[1] - start + 1, r_min)
        return n if bits >= self.content_size else None

    # ---- V2V ----

    def slots_at_rate(self, rate: float) -> int:
        """Slots to carry the whole content at a constant positive rate."""
        return max(1, int(math.ceil(self.content_size / (rate * self.slot_duration))))

    def in_range(self, i: int, j: int) -> bool:
        return self.rate_free(i, j) > 0.0

    def link_slots_free(self, i: int, j: int) -> int | None:
        """Interference-free transfer slots; None when out of range."""
        r = self.rate_free(i, j)
        return self.slots_at_rate(r) if r > 0.0 else None

    def set_feasible(self, links: list[Link]) -> bool:
        return all(s >= self.sinr_threshold for s in self.link_sinrs(links))


class PhysicalRateModel(RateModel):
    def __init__(self, config: ScenarioConfig, vehicles: list[VehicleState],
                 rate_mode: str = "midpoint"):
        if rate_mode not in ("midpoint", "quadrature"):
            raise ValueError(f"unknown rate mode {rate_mode!r}")
        super().__init__(config, vehicles)
        self.rate_mode = rate_mode
        radio, road = config.radio, config.road

        n = len(vehicles)
        # 1-based arrays; index 0 unused.
        self._entry = np.zeros(n + 1, dtype=np.int64)
        self._dlr = np.zeros(n + 1)
        self._y = np.zeros(n + 1)
        for v in vehicles:
            self._entry[v.id] = v.entry_slot
            self._dlr[v.id] = config.lane_offset(v.lane)
            self._y[v.id] = (v.lane - 0.5) * road.lane_width
        self._step = road.slot_duration * road.speed  # m of travel per slot

        g = mainlobe_gain(radio)
        self._noise = radio.noise_floor_w
        self._tau = radio.pathloss_exponent
        self._c_rsu = radio.path_constant * radio.tx_power_rsu * g * g
        self._c_veh = radio.path_constant * radio.tx_power_vehicle * g * g
        self._c_itf = radio.mui_factor * radio.path_constant * radio.tx_power_vehicle
        self._rsi = radio.si_cancel * radio.tx_power_vehicle

        # QoS-feasible radius: SNR(d) >= threshold; serving needs both range and QoS.
        r_qos = (self._c_rsu / (self._noise * radio.sinr_threshold)) ** (1.0 / self._tau)
        self._serve_radius = min(radio.rsu_range, r_qos)

        # Virtual positions at slot 0; only differences matter and they are
        # constant over time, so V2V geometry is computed once, for the
        # pairs within V2V range only. _near[i] maps each neighbour j of
        # vehicle i to (distance, received power, interference-free rate).
        x0 = -self._entry.astype(float) * self._step
        self._x0 = x0
        a, b, dist = near_pairs(x0[1:], self._y[1:], radio.v2v_range)
        with np.errstate(divide="ignore"):
            pr = self._c_veh * dist ** (-self._tau)
        rate = radio.bandwidth * np.log2(1.0 + pr / self._noise)
        self._near: list[dict[int, tuple[float, float, float]]] = [
            {} for _ in range(n + 1)]
        for i, j, *pair in zip((a + 1).tolist(), (b + 1).tolist(),
                               dist.tolist(), pr.tolist(), rate.tolist()):
            self._near[i][j] = self._near[j][i] = tuple(pair)
        self._gains: dict[tuple[int, int, int], float] = {}

    # ---- V2I ----

    def _rsu_distances(self, vid: int, start: int, count: int) -> np.ndarray:
        t = np.arange(start, start + count, dtype=float)
        x = (t - self._entry[vid] + 0.5) * self._step - self.config.road.rsu_longitudinal
        return np.hypot(x, self._dlr[vid])

    def rsu_distance(self, vid: int, t: int) -> float:
        """Mid-slot RSU distance, meters."""
        x = (t - self._entry[vid] + 0.5) * self._step - self.config.road.rsu_longitudinal
        return math.hypot(x, self._dlr[vid])

    def _snr_of_distance(self, d: np.ndarray) -> np.ndarray:
        radio = self.config.radio
        snr = self._c_rsu * d ** (-self._tau) / self._noise
        return np.where(d <= radio.rsu_range, snr, 0.0)

    def v2i_rates(self, vid: int, start: int, count: int) -> np.ndarray:
        """Per-slot downlink rates for slots [start, start+count), bits/s."""
        radio, road = self.config.radio, self.config.road
        if self.rate_mode == "midpoint":
            d = self._rsu_distances(vid, start, count)
            return radio.bandwidth * np.log2(1.0 + self._snr_of_distance(d))
        # Simpson with 8 subintervals over the in-slot angle sweep.
        t = np.arange(start, start + count, dtype=float)
        xa = (t - self._entry[vid]) * self._step - road.rsu_longitudinal
        d_lr = self._dlr[vid]
        phi_a = np.arctan(xa / d_lr)
        phi_b = np.arctan((xa + self._step) / d_lr)
        h = (phi_b - phi_a) / 8.0
        weights = np.array([1, 4, 2, 4, 2, 4, 2, 4, 1], dtype=float)
        phi = phi_a[:, None] + h[:, None] * np.arange(9)[None, :]
        d = d_lr / np.cos(phi)
        rates = radio.bandwidth * np.log2(1.0 + self._snr_of_distance(d))
        integrand = rates * d_lr / (road.speed * np.cos(phi) ** 2)
        return (integrand @ weights) * h / 3.0 / road.slot_duration

    # ---- V2V ----

    def rate_free(self, i: int, j: int) -> float:
        """Interference-free link rate, bits/s; 0 when out of range."""
        pair = self._near[i].get(j)
        return 0.0 if pair is None else pair[2]

    def _angle(self, at: int, toward_a: int, toward_b: int) -> float:
        ax = self._x0[toward_a] - self._x0[at]
        ay = self._y[toward_a] - self._y[at]
        bx = self._x0[toward_b] - self._x0[at]
        by = self._y[toward_b] - self._y[at]
        dot = ax * bx + ay * by
        norm = math.hypot(ax, ay) * math.hypot(bx, by)
        if norm == 0.0:
            return 0.0  # a co-located peer: no direction, so no misalignment
        return math.acos(max(-1.0, min(1.0, dot / norm)))

    def _gain(self, at: int, toward_a: int, toward_b: int) -> float:
        """Gain of the antenna at `at`, aimed at `toward_a`, toward
        `toward_b`. Memoised: every angle is fixed for the whole run."""
        key = (at, toward_a, toward_b)
        try:
            return self._gains[key]
        except KeyError:
            radio = self.config.radio
            g = self._gains[key] = antenna_gain(
                self._angle(at, toward_a, toward_b), radio.beamwidth,
                radio.sidelobe_gain)
            return g

    def link_sinrs(self, links: list[Link]) -> list[float]:
        """Receiver SINR per link when all of them transmit concurrently.

        A link interferes only at the receivers that are neighbours of its
        transmitter. Interferers are taken in the order of `links`, so each
        receiver adds the same terms in the same order as a scan of every
        link would."""
        victims: dict[int, list[int]] = {}  # receiver -> indices of its links
        for m, (_, rx) in enumerate(links):
            victims.setdefault(rx, []).append(m)
        itf = [0.0] * len(links)
        for utx, urx in links:
            for rx, (d, _, _) in self._near[utx].items():
                for m in victims.get(rx, ()):
                    tx = links[m][0]
                    if tx == utx and rx == urx:
                        continue
                    if d == 0.0:
                        itf[m] = math.inf
                        continue
                    gt = self._gain(utx, urx, rx)
                    gr = self._gain(rx, tx, utx)
                    itf[m] += self._c_itf * gt * gr * d ** (-self._tau)
        relays = fd_relays(links)
        out = []
        for (tx, rx), interference in zip(links, itf):
            pair = self._near[rx].get(tx)
            rsi = self._rsi if rx in relays else 0.0
            out.append(0.0 if pair is None
                       else pair[1] / (self._noise + interference + rsi))
        return out

    def link_rates(self, links: list[Link]) -> list[float]:
        w = self.config.radio.bandwidth
        return [w * math.log2(1.0 + s) if s > 0 else 0.0
                for s in self.link_sinrs(links)]


class TableRateModel(RateModel):
    """Fixed slot-count tables in place of the physics.

    v2i_slots maps vehicle id -> slots to download from the RSU (any start
    inside the serving window). pair_slots maps frozenset({i, j}) -> slots for
    a vehicle-to-vehicle transfer; absent pairs are out of range. Rates are
    backed out of the slot counts with a half-slot margin so that integer
    accumulation lands exactly on the intended count.
    """

    def __init__(self, config: ScenarioConfig, vehicles: list[VehicleState],
                 v2i_slots: dict[int, int], pair_slots: dict[frozenset, int],
                 geometric_coverage: bool = True):
        super().__init__(config, vehicles)
        self._v2i_slots = dict(v2i_slots)
        self._pair_slots = {frozenset(k): v for k, v in pair_slots.items()}
        self._entry = {v.id: v.entry_slot for v in vehicles}
        self._geometric = geometric_coverage

    def _rate_for(self, slots: int) -> float:
        return self.content_size / ((slots - 0.5) * self.slot_duration)

    def service_window(self, vid: int) -> tuple[int, int] | None:
        if not self._geometric:
            return (self._entry[vid], self.horizon - 1)
        return super().service_window(vid)

    def rsu_distance(self, vid: int, t: int) -> float:
        if not self._geometric:
            return 0.0
        from .geometry import distance_to_rsu
        return distance_to_rsu(self.vehicles[vid - 1], t, self.config, midpoint=True)

    def v2i_rates(self, vid: int, start: int, count: int) -> np.ndarray:
        return np.full(count, self._rate_for(self._v2i_slots[vid]))

    def rate_free(self, i: int, j: int) -> float:
        slots = self._pair_slots.get(frozenset((i, j)))
        return 0.0 if slots is None else self._rate_for(slots)

    def link_sinrs(self, links: list[Link]) -> list[float]:
        return [self.sinr_threshold if self.in_range(tx, rx) else 0.0
                for tx, rx in links]

    def link_rates(self, links: list[Link]) -> list[float]:
        return [self.rate_free(tx, rx) for tx, rx in links]
