"""Vehicle-phase scheduling: full-duplex concurrent pairings.

Content spreads from the granted vehicles outward in rounds ("pairings").
Each pairing is a conflict-free set of directional links transmitted
simultaneously: every available source proposes its best receiver, proposals
commit in ascending order of their slot demand, and each committed first hop
may attach one full-duplex second hop at its receiver. A pairing then runs
until every link has delivered the full content; interference drops as
links finish, so surviving links speed up. Its state is held in arrays
indexed by link position, and the slots between two finishes are advanced
as one span. Under strict causality a relay hop forwards only bits it has
received; those per-slot sums are computed a span of slots at a time, float
for float as a slot loop would.

The pairing's structure holds by construction: build_pairing commits a
first hop only from a source yet to transmit to a vehicle still waiting, and
a relay hop only onward from the receiver just committed, so each vehicle
transmits once and receives once, and a relay joins exactly two hops. The
one conflict left to test is physical: adding the link would push some
receiver, its own included, below the SINR threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Link = tuple[int, int]

CHUNK = 4096    # most slots one strict-causality span advances at once


@dataclass(frozen=True)
class LinkSchedule:
    tx: int
    rx: int
    relay_hop: bool     # True when tx also receives in the same pairing
    slots: int
    delivered: float    # bits


@dataclass(frozen=True)
class Pairing:
    index: int          # 1-based
    start_slot: int     # on the transmit timeline (idle excluded)
    links: tuple[LinkSchedule, ...]
    duration: int       # max link slot count


@dataclass(frozen=True)
class V2VSchedule:
    pairings: tuple[Pairing, ...]
    t_v2v: int
    unserved: tuple[int, ...]


def best_first_hop(model, source: int, v_b) -> Link | None:
    """Highest interference-free-rate link from `source` into v_b; ties go to
    the lower receiver id; None when nobody is in range. Only the model's
    peers of `source` are looked at, not all of v_b."""
    best, best_rate = None, 0.0
    for j in model.peers(source):
        if j in v_b:
            r = model.rate_free(source, j)
            if r > best_rate or (r == best_rate > 0.0 and j < best):
                best, best_rate = j, r
    if best is None:
        return None
    return (source, best)


def conflict(model, candidate: Link, committed: list[Link]) -> bool:
    """True when the candidate would push some link of committed + [candidate]
    below the SINR threshold: model.admits, which gives set_feasible's answer
    but may keep the interference of `committed` between calls. Structure is
    not checked here; build_pairing keeps it."""
    return not model.admits(committed, candidate)


def best_first_hops(model, v_a: set[int], v_b: set[int]) -> list[Link]:
    """Every source's best first hop, in ascending order of interference-free
    slot demand, ties to the lower source id."""
    proposals = [link for link in (best_first_hop(model, src, v_b)
                                   for src in sorted(v_a)) if link is not None]
    proposals.sort(key=lambda l: (model.link_slots_free(*l), l[0]))
    return proposals


def build_pairing(model, v_a: set[int], v_b: set[int],
                  first_hops=best_first_hops, next_hop=best_first_hop):
    """Assemble one pairing. Returns (links, new_v_a, new_v_b); links is
    empty when no source can reach anyone. v_a (the holders) and v_b (the
    vehicles still waiting) must be disjoint, else ValueError.

    first_hops(model, v_a, live_v_b) proposes first hops in commit order; a
    lazy generator sees every commit in live_v_b. A proposal commits when
    its transmitter is in v_a and has not transmitted yet, its receiver is
    still in live_v_b, and it does not conflict. next_hop(model, receiver,
    live_v_b) then offers that receiver's relay hop, or None; it commits
    when it leaves that receiver, ends in live_v_b and does not conflict.
    Any other proposal is skipped. Sources are consumed when they transmit;
    receivers become sources for later pairings unless they already relayed
    here.
    """
    committed: list[Link] = []
    va, vb = set(v_a), set(v_b)
    if not va.isdisjoint(vb):
        raise ValueError(f"v_a and v_b share {sorted(va & vb)}")

    def commit(link: Link):
        committed.append(link)
        tx, rx = link
        va.discard(tx)
        va.add(rx)
        vb.discard(rx)

    for link in first_hops(model, v_a, vb):
        tx, rx = link
        # A source of v_a stays in va until it transmits.
        if tx not in v_a or tx not in va or rx not in vb \
                or conflict(model, link, committed):
            continue
        commit(link)
        relay = next_hop(model, rx, vb)
        if relay is not None and relay[0] == rx and relay[1] in vb \
                and not conflict(model, relay, committed):
            commit(relay)
    return committed, va, vb


def run_pairing(model, links: list[Link], start_slot: int, index: int,
                strict_causality: bool = False) -> Pairing:
    """Simulate a pairing to completion and return its schedule.

    The pairing's state lives in arrays indexed by link position: bits
    delivered, per-slot grain (rate times slot duration) and slot count,
    with the positions still active in commit order. Rates come from the
    pairing's phase function, model.phases(links), at the start and after
    every finish; a rate that is not positive (NaN included) aborts with
    RuntimeError. Between changes the geometry is static, so whole spans of
    identical slots are advanced at once. A relaxed span lasts until the
    first slot by which some link's missing bits fit at its grain (one
    ceil and one min over the active links), and adds grain * slots to every
    active link. strict_causality additionally caps what a relay forwards
    at what it has received so far, which serializes unequal-rate chains
    honestly. A relay hop is a link whose transmitter also receives in the
    pairing, and its feeder is the first link into that transmitter; a
    relay hop must be listed after its feeder, as build_pairing commits
    them, else ValueError. Each slot then adds, in commit order,
    min(grain, feeder - relay) to a relay hop, so a relay sees its feeder's
    same-slot arrivals before forwarding (pass-through within a slot).
    Those per-slot sums are kept float for float, but advanced a span at a
    time by _strict_span. The simulation stops once it has run past the
    slots left before the horizon; the pairing it returns then overruns the
    slot budget.
    """
    d_target, dt = model.content_size, model.slot_duration
    into = {rx: m for m, (_, rx) in reversed(list(enumerate(links)))}
    feeder = np.array([into.get(tx, -1) for tx, _ in links], dtype=np.int64)
    if (feeder >= np.arange(len(links))).any():
        raise ValueError("a relay hop is listed before its feeder")
    phase = model.phases(links)
    delivered = np.zeros(len(links))
    grain = np.zeros(len(links))
    slots = np.zeros(len(links), dtype=np.int64)
    active = np.arange(len(links))
    rerate = True
    elapsed = 0
    while active.size and elapsed <= model.horizon - start_slot:
        if rerate:
            _, rates = phase(active)
            starved = ~(rates > 0.0)
            if starved.any():
                k = int(starved.argmax())
                raise RuntimeError(
                    f"active link {links[active[k]]} starved (rate "
                    f"{float(rates[k])}); pairing feasibility gate is inconsistent")
            grain[active] = rates * dt
        if strict_causality:
            left = model.horizon - start_slot - elapsed + 1
            step = _strict_span(active, grain, delivered, feeder, d_target,
                                min(CHUNK, left))
        else:
            g = grain[active]
            step = max(1, int(np.ceil((d_target - delivered[active]) / g).min()))
            delivered[active] += g * step
        slots[active] += step
        elapsed += step
        held = delivered[active] >= d_target
        rerate = bool(held.any())
        active = active[~held]
    return Pairing(index, start_slot,
                   tuple(LinkSchedule(tx, rx, relay, m, x) for (tx, rx), relay, m, x
                         in zip(links, (feeder >= 0).tolist(), slots.tolist(),
                                delivered.tolist())),
                   int(slots.max()))


def _strict_span(active, grain, delivered, feeder, d_target, n: int) -> int:
    """Advance the active positions by up to n strict-causality slots and
    return the slots taken: n, or fewer when a link gets the content first.
    delivered is moved to the end of the span.

    Row r of an (active, n + 1) matrix is active link r's path over the
    span. All rows start uncapped, one np.add.accumulate along the rows
    over [x, g, g, ...], which adds left to right as the slot loop's +=
    does; then each relay row, in commit order, is capped in place by _cap
    at its feeder's row (an active feeder sits in an earlier row, already
    final) or at a finished feeder's delivered bits; then one search finds
    the first slot after which some row holds the content.
    """
    g, fed = grain[active], feeder[active]
    plain = fed < 0
    if plain.any():  # no plain link needs many more slots than its missing bits over g
        n = min(n, int(np.ceil((d_target - delivered[active[plain]])
                               / g[plain]).min()) + 1)
    row = np.full(len(delivered), -1)
    row[active] = np.arange(active.size)
    paths = np.empty((active.size, n + 1))
    paths[:, 0] = delivered[active]
    paths[:, 1:] = g[:, None]
    np.add.accumulate(paths, axis=1, out=paths)
    relays = np.flatnonzero(~plain)
    for r, f, j, gr in zip(relays.tolist(), fed[relays].tolist(),
                           row[fed[relays]].tolist(), g[relays].tolist()):
        _cap(paths[r], gr, paths[j, 1:] if j >= 0 else np.full(n, delivered[f]))
    held = paths[:, n] >= d_target  # paths never fall
    if held.any():
        n = int((paths[held] < d_target).sum(axis=1).min())
    delivered[active] = paths[:, n]
    return n


def _cap(path: np.ndarray, g: float, feed: np.ndarray) -> None:
    """Turn a relay hop's uncapped path over len(feed) slots into its
    backlog x_{t+1} = x_t + min(g, max(0.0, feed[t] - x_t)), in place and as
    the same floats as stepping it slot by slot.

    The guess for each element is min(uncapped, feed), and every element is
    checked against the step from the one before it, so the path is exact by
    induction. At the first mismatch the step's own value is kept and the
    uncapped path is accumulated again from there.
    """
    t = 0
    while True:
        rest = path[t + 1:]
        np.minimum(rest, feed[t:], out=rest)
        head = path[t:-1]
        step = head + np.minimum(g, np.maximum(0.0, feed[t:] - head))
        bad = (step != rest).nonzero()[0]
        if not bad.size:
            return
        t += int(bad[0]) + 1
        tail = path[t:]
        tail[0] = step[bad[0]]
        tail[1:] = g
        np.add.accumulate(tail, out=tail)


def schedule_v2v(model, v_a, v_b, t_v2i: int,
                 strict_causality: bool = False,
                 pairing_builder=build_pairing) -> V2VSchedule:
    """Run pairings until everyone is served or no link can form.

    The slot budget (phase totals against the horizon) is respected by not
    starting a pairing past it. pairing_builder is swappable so alternative
    selection policies can reuse the simulation loop.
    """
    va, vb = set(v_a), set(v_b)
    pairings: list[Pairing] = []
    t_v2v = 0
    while vb:
        if t_v2i + t_v2v >= model.horizon:
            break
        links, va_next, vb_next = pairing_builder(model, va, vb)
        if not links:
            break
        pairing = run_pairing(model, links, t_v2i + t_v2v, len(pairings) + 1,
                              strict_causality)
        if t_v2i + t_v2v + pairing.duration > model.horizon:
            break  # would overrun the slot budget; receivers stay unserved
        pairings.append(pairing)
        t_v2v += pairing.duration
        va, vb = va_next, vb_next
    return V2VSchedule(tuple(pairings), t_v2v, tuple(sorted(vb)))
