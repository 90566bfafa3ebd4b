"""Constraint auditor.

Consumes only the emitted schedule trace (grants, pairings, slot counts) and
recomputes every constraint: coverage and V2I link quality from its own
geometry arithmetic, and the structural rules of the sharing phase from the
trace alone. It calls none of the scheduling loops (v2i, v2v, baselines).

V2V delivery is replayed on the audit's own arithmetic: V2VBudget computes
desired power, interference terms and self-interference with numpy from the
config and the vehicles alone, and sums every phase's interference from the
pairing's term table; no rate-model code takes part. V2I delivery goes
through a second physical rate model, AuditRateModel, built from the config.
Its V2I memo is carried between audits of one config apart from the
scheduler's, so the audit computes a rate block again only after its memo
dropped it, and never reads the scheduler's rate arrays. One grant_bits
call sums every grant at once, each distinct (lane, offset, count) once,
reading each lane's covered memo blocks in one pass. A model
passed in (table-driven tests) supplies both instead: V2I through its
grant_bits, by default summed from its v2i_rates, and the V2V replay through
its phases.
Failures are data, not exceptions.

A relative guard of 1e-12 (REL_GUARD) absorbs float-association noise
between the scheduler's arithmetic and the recomputation. A strict-causality
phase is replayed as x + n * g where the scheduler adds g slot by slot, and
the two may differ by up to about n ulps, a bound the guard covers only for
links of up to about 40,000 slots (stock links take 1,500-4,000). That bound
is loose in practice: with content_gbit = 60 on the default config, random
under strict causality on seed 3 runs a link of 112,584 slots, and its audit
passes. A guard that scales with a link's slot count is still open. The
audit's own V2V rates, and its coverage distances, differ from the
scheduler's by a few ulps at most (numpy's power, hypot, arccos and log2
against the math module's), far inside the guard.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import SchemeResult
from .params import RadioParams, ScenarioConfig
from .radio import mainlobe_gain
from .ratemodel import PhysicalRateModel
from .vehicles import VehicleState

REL_GUARD = 1e-12


class AuditRateModel(PhysicalRateModel):
    """The audit's second physical model, for V2I delivery. As its own
    class it carries its V2I memo only across the audits' models of one
    config, never to or from the scheduler's models."""


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class AuditReport:
    checks: tuple[CheckResult, ...]

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    def failures(self) -> list[CheckResult]:
        return [c for c in self.checks if not c.ok]

    def __str__(self) -> str:
        return "\n".join(
            f"{'PASS' if c.ok else 'FAIL'} {c.name}" + (f": {c.detail}" if c.detail else "")
            for c in self.checks)


def audit(result: SchemeResult, config: ScenarioConfig,
          vehicles: list[VehicleState], model=None) -> AuditReport:
    """Check the full constraint set against the trace.

    By default V2I delivery is replayed through an AuditRateModel built
    from the config in the run's rate mode, and V2V SINR on the audit's own
    V2VBudget. Table-driven runs pass their `model`, which then supplies
    both.
    """
    v2i = v2v = model
    if model is None:
        v2i = AuditRateModel(config, vehicles, rate_mode=result.rate_mode)
        v2v = V2VBudget(config, vehicles)
    slots = _granted_slots(result)
    coverage, v2i_qos = _check_coverage_and_qos(slots, config, vehicles)
    checks = [
        coverage,
        v2i_qos,
        _check_rsu_serial(result),
        _check_v2i_delivery(result, slots, v2i),
        _check_source_once(result),
        _check_precedence(result),
        _check_two_hop(result),
        _check_v2v_delivery_and_qos(result, v2v),
        _check_totals(result, config, vehicles),
    ]
    return AuditReport(tuple(checks))


def _granted_slots(result):
    """The vehicle, first slot and slot count of every grant with slots, in
    grant order, as three integer arrays."""
    grants = [g for g in result.selection.grants if g.n_slots > 0]
    return (np.array([g.vehicle for g in grants], dtype=np.int64),
            np.array([g.start_slot for g in grants], dtype=np.int64),
            np.array([g.n_slots for g in grants], dtype=np.int64))


def _check_coverage_and_qos(slots, config, vehicles):
    """Granted slots, the _granted_slots arrays, must lie inside the RSU
    range (coverage) and meet the SNR threshold (v2i_qos). RSU distance
    over a slot interval is V-shaped and SNR falls with distance, so the
    interval endpoints bound both; the edge distances of every grant are
    computed at once, for both checks. A grant that starts before its
    vehicle's road entry fails both. Each check reports its first failing
    grant."""
    radio, road = config.radio, config.road
    vid, first_slot, n = slots
    lane = np.array([v.lane for v in vehicles], dtype=np.int64)[vid - 1]
    entry = np.array([v.entry_slot for v in vehicles], dtype=np.int64)[vid - 1]
    last_slot = first_slot + n - 1
    early = first_slot < entry

    def rsu_distance(t):
        """geometry.distance_to_rsu at mid-slot t, per grant."""
        x = (t - entry + 0.5) * road.slot_duration * road.speed
        return np.hypot(x - road.rsu_longitudinal,
                        (lane - 0.5) * road.lane_width + road.rsu_lateral_offset)

    first, last = rsu_distance(first_slot), rsu_distance(last_slot)
    worst = np.maximum(first, last)
    limit = radio.rsu_range * (1.0 + REL_GUARD)
    floor = radio.sinr_threshold * (1.0 - REL_GUARD)

    def first_failure(bad):
        bad = bad | early
        return int(bad.argmax()) if bad.any() else None

    i = first_failure(worst > limit)
    if i is None:
        coverage = CheckResult("coverage", True)
    else:
        slot = first_slot[i] if early[i] or first[i] > limit else last_slot[i]
        where = "before road entry" if early[i] else f"at distance {worst[i]:.3f} m"
        coverage = CheckResult("coverage", False,
                               f"vehicle {vid[i]} granted at slot {slot} {where}")
    i = first_failure(_v2i_snr(worst, radio) < floor)
    if i is None:
        qos = CheckResult("v2i_qos", True)
    else:
        why = ("granted before road entry" if early[i]
               else f"below threshold at distance {worst[i]:.3f} m")
        qos = CheckResult("v2i_qos", False, f"vehicle {vid[i]} {why}")
    return coverage, qos


def _check_rsu_serial(result) -> CheckResult:
    """At most one grant occupies any slot."""
    spans = sorted((g.start_slot, g.start_slot + g.n_slots, g.vehicle)
                   for g in result.selection.grants if g.n_slots > 0)
    for (a0, a1, va), (b0, _, vb) in zip(spans, spans[1:]):
        if b0 < a1:
            return CheckResult("rsu_serial", False,
                               f"grants to {va} and {vb} overlap at slot {b0}")
    return CheckResult("rsu_serial", True)


def _check_v2i_delivery(result, slots, model) -> CheckResult:
    """Every served-and-granted vehicle accumulated the full content over its
    granted slots, by independent rate recomputation: `model` is the
    audit's own AuditRateModel, or a rate model passed in. One grant_bits
    call gives the bits of every grant with slots (`slots`, the
    _granted_slots arrays), np.bincount adds them per vehicle in grant
    order, from 0.0, and the lowest short id is reported."""
    target = model.content_size * (1.0 - REL_GUARD)
    granted = {g.vehicle for g in result.selection.grants}
    vid, start, n = slots
    got = np.bincount(vid, model.grant_bits(vid, start, n),
                      minlength=max(granted, default=0) + 1)
    ids = np.array(sorted(granted & set(result.served)), dtype=np.int64)
    short = ids[got[ids] < target]
    if short.size:
        v = int(short[0])
        return CheckResult("v2i_delivery", False,
                           f"vehicle {v} delivered {float(got[v]):.3e} "
                           f"of {model.content_size:.3e} bits")
    return CheckResult("v2i_delivery", True)


def _v2i_snr(d: np.ndarray, radio: RadioParams) -> np.ndarray:
    """radio.v2i_snr of each distance d, meters."""
    g = mainlobe_gain(radio)
    with np.errstate(divide="ignore"):
        snr = (radio.path_constant * radio.tx_power_rsu * g * g
               * d ** -radio.pathloss_exponent) / radio.noise_floor_w
    return np.where(d > radio.rsu_range, 0.0, snr)


def _check_source_once(result) -> CheckResult:
    """Each vehicle transmits at most one flow over the whole sharing phase,
    each receiver receives exactly once, and no receiver was RSU-granted."""
    granted = {g.vehicle for g in result.selection.grants}
    seen_tx: set[int] = set()
    seen_rx: set[int] = set()
    for pairing in result.v2v.pairings:
        for link in pairing.links:
            if link.tx in seen_tx:
                return CheckResult("source_once", False,
                                   f"vehicle {link.tx} sources twice")
            if link.rx in seen_rx:
                return CheckResult("source_once", False,
                                   f"vehicle {link.rx} receives twice")
            if link.rx in granted:
                return CheckResult("source_once", False,
                                   f"vehicle {link.rx} receives after an RSU grant")
            seen_tx.add(link.tx)
            seen_rx.add(link.rx)
    return CheckResult("source_once", True)


def _check_precedence(result) -> CheckResult:
    """A source must hold the content before transmitting: an RSU grant, a
    receive in an earlier pairing, or a same-pairing relay join."""
    granted = {g.vehicle for g in result.selection.grants}
    received_before: set[int] = set()
    for pairing in result.v2v.pairings:
        rx_here = {l.rx for l in pairing.links}
        for link in pairing.links:
            if link.tx in granted or link.tx in received_before:
                continue
            if link.tx in rx_here:
                continue  # full-duplex relay: receives and forwards together
            return CheckResult("precedence", False,
                               f"pairing {pairing.index}: source {link.tx} "
                               f"had no content")
        received_before |= rx_here
    return CheckResult("precedence", True)


def _check_two_hop(result) -> CheckResult:
    """Within a pairing the link graph must decompose into simple directed
    paths of at most two links, each starting at a chain head: a transmitter
    that receives nothing in the pairing. Links no head reaches form a
    cycle, whose members never had the content."""
    for pairing in result.v2v.pairings:
        nxt = {l.tx: l.rx for l in pairing.links}
        rxs = {l.rx for l in pairing.links}
        if len(nxt) < len(pairing.links) or len(rxs) < len(pairing.links):
            return CheckResult("two_hop", False,
                               f"pairing {pairing.index}: node shared beyond "
                               f"the relay pattern")
        reached = 0
        for head in (l.tx for l in pairing.links if l.tx not in rxs):
            hops, node = 0, head
            while node in nxt:
                node, hops = nxt[node], hops + 1
            if hops > 2:
                return CheckResult("two_hop", False,
                                   f"pairing {pairing.index}: chain longer "
                                   f"than two hops")
            reached += hops
        if reached < len(pairing.links):
            return CheckResult("two_hop", False,
                               f"pairing {pairing.index}: cyclic link structure")
    return CheckResult("two_hop", True)


def _check_v2v_delivery_and_qos(result, model) -> CheckResult:
    """Replay each pairing from its traced slot counts (_replay_pairing):
    at every phase each active link must clear the SINR threshold, and the
    accumulated bits must reach the content size."""
    target = model.content_size * (1.0 - REL_GUARD)
    for pairing in result.v2v.pairings:
        delivered, weak = _replay_pairing(pairing, model, result.strict_causality)
        if weak is not None:
            l, s, elapsed = weak
            return CheckResult(
                "v2v_delivery", False,
                f"pairing {pairing.index}: link {l} SINR {s:.2f} "
                f"below threshold after slot {elapsed}")
        for l, got in delivered.items():
            if got < target:
                return CheckResult("v2v_delivery", False,
                                   f"pairing {pairing.index}: link {l} delivered "
                                   f"{got:.3e} of {model.content_size:.3e}")
    return CheckResult("v2v_delivery", True)


def _replay_pairing(pairing, model, strict: bool):
    """Bits each link of a pairing delivers over its traced span, in trace
    order, and the first (link, SINR, slot) below the threshold, or None
    (then the bits are not replayed further).

    `model` is the audit's own V2VBudget, which sums every phase from the
    pairing's term table, or a rate model; either gives the phases of the
    pairing through its `phases`.

    Links stay active for their recorded spans and the concurrent set
    shrinks as they finish. A phase of n slots at a fixed active set moves a
    link from x to x + n * g, with g its per-slot grain. Under strict
    causality a relay hop (derived from the links, as run_pairing does, not
    read from relay_hop) forwards at most what its feeder has delivered up
    to and including the same slot. Since x never exceeds the feeder's f,
    that is x_{t+1} = min(x_t + g, f_{t+1}): a rate-g server fed by the
    feeder, whose output is the min-plus convolution
    x_n = min(x + n * g, min_k f_k + (n - k) * g). With the feeder moving by
    g_f per slot (0 once it has finished) the inner term is linear in k, so
    it is least at k = n, or at k = 1 when g < g_f; but then it is no less
    than x + n * g. The phase ends at min(x + n * g, f + n * g_f).
    """
    floor = model.sinr_threshold * (1.0 - REL_GUARD)
    dt = model.slot_duration
    links = [(l.tx, l.rx) for l in pairing.links]
    spans = {(l.tx, l.rx): l.slots for l in pairing.links}
    span = np.array([spans[l] for l in links], dtype=np.int64)
    into = {rx: m for m, (_, rx) in reversed(list(enumerate(links)))}
    hops = [(m, into[tx]) for m, (tx, _) in enumerate(links) if tx in into] \
        if strict else []
    hop, feeder = np.array(hops, dtype=np.int64).reshape(-1, 2).T
    phase = model.phases(links)
    delivered = np.zeros(len(links))
    elapsed = 0
    active = np.flatnonzero(span > elapsed)  # a 0-slot link is never on the air
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


class V2VBudget:
    """The audit's own V2V link budget, numpy over the vehicle population,
    computed from the config and the vehicles alone.

    Positions are taken in the slot-0 frame, x = -entry_slot * step and
    y = (lane - 0.5) * lane_width: all vehicles share one speed, so every
    distance and angle holds for the whole run. A link's desired power is
    mainlobe at both ends. Link u interferes at link m's receiver only when
    u's transmitter is another vehicle within v2v_range of it (np.hypot of
    the coordinate differences), with the gains of u's beam toward that
    receiver and of m's receiver beam toward u's transmitter; a co-located
    peer is at alignment angle 0, and a term at distance 0 is infinite. A
    receiver that also transmits adds the residual self-interference.
    Each pairing's terms are found once, as a table of (interferer, victim,
    term) entries, and every phase is summed from that table.
    """

    def __init__(self, config: ScenarioConfig, vehicles: list[VehicleState]):
        radio, road = config.radio, config.road
        self.content_size = road.content_size
        self.slot_duration = road.slot_duration
        self.sinr_threshold = radio.sinr_threshold
        ids = np.array([v.id for v in vehicles], dtype=np.int64)
        self._x = np.zeros(int(ids.max(initial=0)) + 1)
        self._y = np.zeros_like(self._x)
        self._x[ids] = -np.array([float(v.entry_slot) for v in vehicles]) \
            * (road.slot_duration * road.speed)
        self._y[ids] = (np.array([v.lane for v in vehicles]) - 0.5) * road.lane_width
        g = mainlobe_gain(radio)
        self._c_desired = radio.path_constant * radio.tx_power_vehicle * g * g
        self._c_itf = radio.mui_factor * radio.path_constant * radio.tx_power_vehicle
        self._main, self._side = g, radio.sidelobe_gain
        self._half_beam = radio.beamwidth / 2.0
        self._tau = radio.pathloss_exponent
        self._reach = radio.v2v_range
        self._noise = radio.noise_floor_w
        self._rsi = radio.si_cancel * radio.tx_power_vehicle
        self._bandwidth = radio.bandwidth

    def _distance(self, a, b):
        return np.hypot(self._x[a] - self._x[b], self._y[a] - self._y[b])

    def _gain(self, at, toward, probe):
        """Gain of the antennas at `at`, aimed at `toward`, toward `probe`."""
        ax, ay = self._x[toward] - self._x[at], self._y[toward] - self._y[at]
        bx, by = self._x[probe] - self._x[at], self._y[probe] - self._y[at]
        norm = np.hypot(ax, ay) * np.hypot(bx, by)
        cos = np.divide(ax * bx + ay * by, norm, out=np.ones_like(norm),
                        where=norm != 0.0)
        theta = np.arccos(np.clip(cos, -1.0, 1.0))
        return np.where(theta <= self._half_beam, self._main, self._side)

    def desired(self, tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        """Received power of the links tx -> rx, watts; 0 out of range."""
        d = self._distance(tx, rx)
        with np.errstate(divide="ignore"):
            return np.where((tx != rx) & (d <= self._reach),
                            self._c_desired * d ** -self._tau, 0.0)

    def interference(self, tx: np.ndarray, rx: np.ndarray):
        """Every nonzero interference term among the links tx -> rx, as
        arrays (u, m, term): link u's power at link m's receiver, watts,
        ordered by m and then u."""
        pad = 1e-9 * (self._reach + float(np.abs(self._x).max(initial=0.0)))
        u, m = _within_x(self._x[tx], self._x[rx], self._reach + pad)
        d = self._distance(tx[u], rx[m])
        keep = ((d <= self._reach) & (tx[u] != rx[m])
                & ((tx[u] != tx[m]) | (rx[u] != rx[m])))
        u, m, d = u[keep], m[keep], d[keep]
        with np.errstate(divide="ignore"):
            term = np.where(d == 0.0, np.inf,
                            self._c_itf * self._gain(tx[u], rx[u], rx[m])
                            * self._gain(rx[m], tx[m], tx[u]) * d ** -self._tau)
        order = np.argsort(m, kind="stable")
        return u[order], m[order], term[order]

    def sinrs_and_rates(self, desired, interference, relay):
        """SINRs, and Shannon rates in bits/s (0 unless the SINR is
        positive), of links with these powers, watts; a receiver that
        `relay`s also hears its own transmitter's residue."""
        rsi = np.where(relay, self._rsi, 0.0)
        with np.errstate(invalid="ignore"):
            sinrs = desired / (self._noise + interference + rsi)
            return sinrs, np.where(sinrs > 0.0,
                                   self._bandwidth * np.log2(1.0 + sinrs), 0.0)

    def phases(self, links: list[tuple[int, int]]):
        """A replay phase source for the links of one pairing: a function of
        the active link positions alone, giving their SINRs and rates. A
        receiver relays while its node transmits on an active link."""
        n = len(links)
        tx = np.array([l[0] for l in links], dtype=np.int64)
        rx = np.array([l[1] for l in links], dtype=np.int64)
        desired = self.desired(tx, rx)
        u, m, term = self.interference(tx, rx)

        def phase(active: np.ndarray):
            on = np.zeros(n, dtype=bool)
            on[active] = True
            heard = on[u]
            # Same floats as a loop: each receiver's live terms, in link order, from 0.0.
            itf = np.bincount(m[heard], term[heard], minlength=n)
            sending = np.zeros(len(self._x), dtype=bool)
            sending[tx[active]] = True
            return self.sinrs_and_rates(desired[active], itf[active],
                                        sending[rx[active]])
        return phase


def _within_x(a: np.ndarray, b: np.ndarray, reach: float):
    """Every index pair (i, j) with |a[i] - b[j]| <= reach: b is sorted
    once and each a[i] takes a searchsorted window of it. Callers widen
    `reach` by a rounding margin and then test the exact distance."""
    order = np.argsort(b, kind="stable")
    bs = b[order]
    lo = np.searchsorted(bs, a - reach, side="left")
    counts = np.searchsorted(bs, a + reach, side="right") - lo
    i = np.repeat(np.arange(len(a)), counts)
    first = np.repeat(lo - (np.cumsum(counts) - counts), counts)
    return i, order[first + np.arange(first.size)]


def _check_totals(result, config, vehicles) -> CheckResult:
    """Reported phase totals must equal an independent recount, pairing
    durations must equal their longest link, and the sum must fit the
    horizon. Who was served is recounted too: served and unserved partition
    the vehicle ids, every served vehicle was granted or received in a
    pairing, and no receiver is listed as unserved."""
    t_v2i = sum(g.n_slots for g in result.selection.grants)
    if t_v2i != result.selection.t_v2i:
        return CheckResult("totals", False,
                           f"t_v2i recount {t_v2i} != reported {result.selection.t_v2i}")
    t_v2v = 0
    for pairing in result.v2v.pairings:
        longest = max((l.slots for l in pairing.links), default=0)
        if longest != pairing.duration:
            return CheckResult("totals", False,
                               f"pairing {pairing.index} duration {pairing.duration} "
                               f"!= longest link {longest}")
        t_v2v += pairing.duration
    if t_v2v != result.v2v.t_v2v:
        return CheckResult("totals", False,
                           f"t_v2v recount {t_v2v} != reported {result.v2v.t_v2v}")
    if t_v2i + t_v2v > config.road.horizon:
        return CheckResult("totals", False,
                           f"total {t_v2i + t_v2v} exceeds horizon {config.road.horizon}")
    served, unserved = set(result.served), set(result.unserved)
    received = {l.rx for p in result.v2v.pairings for l in p.links}
    ghosts = served - received - {g.vehicle for g in result.selection.grants}
    if served & unserved or served | unserved != {v.id for v in vehicles}:
        detail = "served and unserved do not partition the vehicle ids"
    elif ghosts:
        detail = f"vehicle {min(ghosts)} served but neither granted nor a receiver"
    elif received & unserved:
        detail = f"vehicle {min(received & unserved)} received but is listed unserved"
    else:
        return CheckResult("totals", True)
    return CheckResult("totals", False, detail)
