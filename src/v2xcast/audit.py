"""Constraint auditor.

Consumes only the emitted schedule trace (grants, pairings, slot counts) and
recomputes every constraint: coverage and V2I link quality from its own
geometry arithmetic, and the structural rules of the sharing phase from the
trace alone. It calls none of the scheduling loops (v2i, v2v, baselines),
but it does replay V2I delivery and V2V SINR through a rate model: a second
PhysicalRateModel by default, built from the config. Its V2V replay calls
link_sinrs, the from-scratch reference, once per phase, while the scheduler
admits links and re-rates pairings incrementally; so the V2V interference
sums of scheduler and audit are computed by different code. Failures are
data, not exceptions.

A relative guard of 1e-12 (REL_GUARD) absorbs float-association noise
between the scheduler's accumulation order and the recomputation. Its reach
is bounded: a strict-causality phase is replayed as x + n * g where the
scheduler adds g slot by slot, and the two differ by up to about n ulps, so
the guard covers links of up to about 40,000 slots (stock links take
1,500-4,000). A longer link may fail the audit spuriously.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import SchemeResult
from .geometry import distance_to_rsu
from .params import ScenarioConfig
from .radio import v2i_snr
from .ratemodel import PhysicalRateModel
from .vehicles import VehicleState

REL_GUARD = 1e-12


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

    `model` supplies the rate arithmetic; by default a fresh physical model is
    built from the config, so table-driven runs must pass their own.
    """
    if model is None:
        model = PhysicalRateModel(config, vehicles, rate_mode=result.rate_mode)
    coverage, v2i_qos = _check_coverage_and_qos(result, config, vehicles)
    checks = [
        coverage,
        v2i_qos,
        _check_rsu_serial(result),
        _check_v2i_delivery(result, model),
        _check_source_once(result),
        _check_precedence(result),
        _check_two_hop(result),
        _check_v2v_delivery_and_qos(result, model),
        _check_totals(result, config, vehicles),
    ]
    return AuditReport(tuple(checks))


def _check_coverage_and_qos(result, config, vehicles):
    """Granted slots must lie inside the RSU range (coverage) and meet the
    SNR threshold (v2i_qos). RSU distance over a slot interval is V-shaped
    and SNR falls with distance, so the interval endpoints bound both; each
    grant's two edge distances are computed once, for both checks. Each
    check reports its first failing grant."""
    limit = config.radio.rsu_range * (1.0 + REL_GUARD)
    floor = config.radio.sinr_threshold * (1.0 - REL_GUARD)
    coverage = qos = None
    for grant in result.selection.grants:
        if grant.n_slots == 0:
            continue
        v = vehicles[grant.vehicle - 1]
        try:
            first = distance_to_rsu(v, grant.start_slot, config, midpoint=True)
            last = distance_to_rsu(v, grant.start_slot + grant.n_slots - 1,
                                   config, midpoint=True)
        except ValueError:
            if coverage is None:
                coverage = CheckResult("coverage", False,
                                       f"vehicle {grant.vehicle} granted at slot "
                                       f"{grant.start_slot} before road entry")
            if qos is None:
                qos = CheckResult("v2i_qos", False,
                                  f"vehicle {grant.vehicle} granted before road entry")
            continue
        worst = max(first, last)
        if coverage is None and (first > limit or last > limit):
            slot = grant.start_slot if first > limit else grant.start_slot + grant.n_slots - 1
            coverage = CheckResult("coverage", False,
                                   f"vehicle {grant.vehicle} granted at slot {slot} "
                                   f"at distance {worst:.3f} m")
        if qos is None and v2i_snr(worst, config.radio) < floor:
            qos = CheckResult("v2i_qos", False,
                              f"vehicle {grant.vehicle} below threshold at "
                              f"distance {worst:.3f} m")
        if coverage is not None and qos is not None:
            break
    return (coverage or CheckResult("coverage", True),
            qos or CheckResult("v2i_qos", True))


def _check_rsu_serial(result) -> CheckResult:
    """At most one grant occupies any slot."""
    spans = sorted((g.start_slot, g.start_slot + g.n_slots, g.vehicle)
                   for g in result.selection.grants if g.n_slots > 0)
    for (a0, a1, va), (b0, _, vb) in zip(spans, spans[1:]):
        if b0 < a1:
            return CheckResult("rsu_serial", False,
                               f"grants to {va} and {vb} overlap at slot {b0}")
    return CheckResult("rsu_serial", True)


def _check_v2i_delivery(result, model) -> CheckResult:
    """Every served-and-granted vehicle accumulated the full content over its
    granted slots, by independent rate recomputation."""
    target = model.content_size * (1.0 - REL_GUARD)
    dt = model.slot_duration
    got: dict[int, float] = {}
    for g in result.selection.grants:
        if g.n_slots == 0:
            continue
        rates = model.v2i_rates(g.vehicle, g.start_slot, g.n_slots)
        got[g.vehicle] = got.get(g.vehicle, 0.0) + float(np.sum(rates)) * dt
    granted_served = {g.vehicle for g in result.selection.grants} & set(result.served)
    for vid in sorted(granted_served):
        if got.get(vid, 0.0) < target:
            return CheckResult("v2i_delivery", False,
                               f"vehicle {vid} delivered {got.get(vid, 0.0):.3e} "
                               f"of {model.content_size:.3e} bits")
    return CheckResult("v2i_delivery", True)


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
    into = {l[1]: l for l in reversed(links)}  # the first link into a node
    feeder_of = {l: into[l[0]] for l in links if l[0] in into} if strict else {}
    delivered = {l: 0.0 for l in links}
    elapsed = 0
    active = [l for l in links if spans[l] > elapsed]
    while active:
        sinrs = model.link_sinrs(active)
        for l, s in zip(active, sinrs):
            if s < floor:
                return delivered, (l, s, elapsed)
        nxt = min(spans[l] for l in active)
        n = nxt - elapsed
        grain = {l: r * dt for l, r in zip(active, model.link_rates(active, sinrs))}
        moved = {l: delivered[l] + grain[l] * n for l in active}
        for l, feeder in feeder_of.items():
            if l in moved:
                moved[l] = min(moved[l], delivered[feeder]
                               + n * grain.get(feeder, 0.0))
        delivered.update(moved)
        elapsed = nxt
        active = [l for l in active if spans[l] > elapsed]
    return delivered, None


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
