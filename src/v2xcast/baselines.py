"""The five schedulable schemes behind one result type.

proposed     utility-driven RSU grants + full-duplex concurrent sharing
fcfs         RSU serves vehicles in entry order, same sharing phase
random       uniformly random RSU grants and random sharing partners
noncoop      RSU alone, always talking to the nearest vehicle, no sharing
serial-tdma  RSU serves everyone in entry order, no sharing (reference)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .ratemodel import accumulate, min_rate
from .v2i import (Grant, UtilityEval, V2ISelection, next_service_slot,
                  select_v2i_paths, two_hop_estimate)
from .v2v import V2VSchedule, conflict, schedule_v2v

SCHEMES = ("proposed", "fcfs", "random", "noncoop", "serial-tdma")


@dataclass(frozen=True)
class SchemeResult:
    scheme: str
    seed: int
    selection: V2ISelection
    v2v: V2VSchedule
    served: frozenset[int]
    unserved: frozenset[int]
    rate_mode: str
    strict_causality: bool


def _assemble(scheme, seed, model, selection, v2vsched, strict) -> SchemeResult:
    served = set(selection.v_a)
    for pairing in v2vsched.pairings:
        served.update(l.rx for l in pairing.links)
    unserved = set(model.ids) - served
    return SchemeResult(
        scheme=scheme, seed=seed, selection=selection, v2v=v2vsched,
        served=frozenset(served), unserved=frozenset(unserved),
        rate_mode=model.rate_mode, strict_causality=strict)


def schedule_proposed(model, seed: int, strict_causality: bool = False,
                      v2i_termination: str = "coverage") -> SchemeResult:
    selection = select_v2i_paths(model, termination=v2i_termination)
    v2vsched = schedule_v2v(model, selection.v_a, selection.v_b,
                            selection.t_v2i, strict_causality)
    return _assemble("proposed", seed, model, selection, v2vsched,
                     strict_causality)


def _entry_order_grants(model, partial: bool) -> V2ISelection:
    """RSU grants in entry order, each starting once the previous one ends.
    A vehicle that cannot finish inside its window at its turn is skipped,
    or with `partial` transmitted to until its window closes; either way it
    ends up in v_b. Only partial service, which ends the run, reports such
    leftovers as incomplete."""
    clock = 0
    grants, served, unserved = [], [], []
    for vid in model.ids:
        win = model.service_window(vid)
        if win is None or max(clock, win[0]) > win[1]:
            unserved.append(vid)
            continue
        start = max(clock, win[0])
        m = model.slots_to_download(vid, start)
        if m is not None:
            served.append(vid)
        else:
            unserved.append(vid)
            if not partial:
                continue
            m = win[1] - start + 1  # transmit to the window edge, then give up
        grants.append(Grant(vid, start, m))
        clock = start + m
    return V2ISelection(tuple(grants), sum(g.n_slots for g in grants),
                        tuple(served), tuple(sorted(unserved)), (),
                        incomplete=partial and bool(unserved))


def schedule_fcfs(model, seed: int, strict_causality: bool = False) -> SchemeResult:
    """Entry-order grants; whoever cannot finish inside coverage at their turn
    is left to the sharing phase."""
    selection = _entry_order_grants(model, partial=False)
    v2vsched = schedule_v2v(model, selection.v_a, selection.v_b,
                            selection.t_v2i, strict_causality)
    return _assemble("fcfs", seed, model, selection, v2vsched, strict_causality)


def schedule_random(model, seed: int, strict_causality: bool = False) -> SchemeResult:
    """Random grants with the same coverage-based termination as the proposed
    scheme, then random pairing partners under identical conflict rules."""
    rng = np.random.default_rng([seed, 1])

    def random_pick(model, v_b, clock, pool):
        slots = {vid: model.slots_to_download(vid, clock) for vid in sorted(pool)
                 if model.entered(vid, clock) and model.in_service(vid, clock)}
        cands = [vid for vid, m in slots.items() if m is not None]
        if not cands:
            return None
        winner = int(rng.choice(cands))
        others = [j for j in sorted(v_b) if j != winner and model.entered(j, clock)]
        est = two_hop_estimate(model, winner, others)
        return UtilityEval(winner, slots[winner], est.first_hop, est.second_hop,
                           est.chain_slots)

    selection = select_v2i_paths(model, pick=random_pick)

    def random_pairing(model, va, vb):
        committed, flags = [], []
        va2, vb2 = set(va), set(vb)

        def commit(link, relay):
            committed.append(link)
            flags.append(relay)
            va2.discard(link[0])
            va2.add(link[1])
            vb2.discard(link[1])

        for _ in range(100):
            for s in rng.permutation(sorted(va)):
                s = int(s)
                cands = [r for r in sorted(vb2) if model.in_range(s, r)]
                if not cands:
                    continue
                r = int(rng.choice(cands))
                if conflict(model, (s, r), committed):
                    continue
                commit((s, r), False)
                g_cands = [g for g in sorted(vb2) if model.in_range(r, g)]
                if g_cands:
                    g = int(rng.choice(g_cands))
                    if not conflict(model, (r, g), committed):
                        commit((r, g), True)
            if committed:
                return committed, flags, va2, vb2
            # Unlucky draw; only retry while a lone feasible link exists.
            if not any(model.in_range(s, r) and model.set_feasible([(s, r)])
                       for s in va for r in vb):
                break
        return committed, flags, va2, vb2

    v2vsched = schedule_v2v(model, selection.v_a, selection.v_b,
                            selection.t_v2i, strict_causality,
                            pairing_builder=random_pairing)
    return _assemble("random", seed, model, selection, v2vsched,
                     strict_causality)


def schedule_noncoop(model, seed: int) -> SchemeResult:
    """RSU-only, distance-greedy service: in every slot the channel belongs
    to the nearest in-coverage vehicle, wanting or not, and the RSU transmits
    only when that vehicle still wants the content. With one shared speed the
    distance ranks cross once per pair, so each vehicle holds the channel for
    a single contiguous stretch around its closest approach; vehicles whose
    stretch is too short never finish and end unserved.

    Implementation is event-driven: between rank changes the target is
    constant, so whole spans are accumulated at once.
    """
    remaining = {vid: model.content_size for vid in model.ids}
    v_b = set(model.ids)
    grants: list[Grant] = []
    served: list[int] = []
    clock = 0
    while v_b:
        if not any(model.in_service(i, clock) for i in v_b):
            nxt = next_service_slot(model, v_b, clock)
            if nxt is None:
                break
            clock = nxt
            continue
        in_cov = [i for i in model.ids if model.in_service(i, clock)]
        target = min(in_cov, key=lambda i: (model.rsu_distance(i, clock), i))
        t_win = model.service_window(target)
        events = [t_win[1] + 1]
        for j in model.ids:
            if j == target:
                continue
            win = model.service_window(j)
            if win is None:
                continue
            if clock < win[0] <= t_win[1]:
                events.append(win[0])  # a new arrival may take the channel
        for j in in_cov:
            if j == target:
                continue
            t_cross = _overtake_slot(model, target, j, clock)
            if t_cross is not None:
                events.append(t_cross)
        span = max(1, min(events) - clock)
        if target not in v_b:
            clock += span  # channel held by an already-served vehicle
            continue
        rem = remaining[target]
        # With a zero edge rate there is no safe cap: the whole span is
        # scanned, where slots_to_download would give up.
        n, bits = accumulate(model, target, clock, rem, span,
                             min_rate(model, target, clock, t_win[1]))
        grants.append(Grant(target, clock, n))
        clock += n
        if bits >= rem:
            remaining[target] = 0.0
            v_b.discard(target)
            served.append(target)
        else:
            # The channel moves on before the download finishes; the spent
            # slots stay in the trace and the vehicle keeps its partial tally
            # in case a tie geometry ever hands the channel back.
            remaining[target] = rem - bits
    selection = V2ISelection(tuple(grants), sum(g.n_slots for g in grants),
                             tuple(served), tuple(sorted(v_b)), (),
                             incomplete=bool(v_b))
    return _assemble("noncoop", seed, model, selection,
                     V2VSchedule((), 0, selection.v_b), False)


def _overtake_slot(model, winner: int, rival: int, clock: int) -> int | None:
    """First slot after `clock` where the rival outranks the winner, or None.

    Squared RSU distances differ by an affine function of the slot index, so
    the crossing is solved in closed form and then pinned by evaluation.
    """
    win_r = model.service_window(rival)
    d0w = model.rsu_distance(winner, clock)
    d0r = model.rsu_distance(rival, clock)
    d1w = model.rsu_distance(winner, clock + 1)
    d1r = model.rsu_distance(rival, clock + 1)
    f0 = d0r * d0r - d0w * d0w
    f1 = d1r * d1r - d1w * d1w
    slope = f1 - f0
    if slope >= 0 and f0 >= 0:
        return None  # gap never shrinks

    def beats(t):
        dr = model.rsu_distance(rival, t)
        dw = model.rsu_distance(winner, t)
        return (dr, rival) < (dw, winner)

    if slope == 0:
        t_guess = clock + 1
    else:
        t_guess = clock + max(1.0, -f0 / slope)
    t = int(math.floor(t_guess))
    t = max(clock + 1, t - 2)
    limit = win_r[1] if win_r is not None else clock
    # The crossing is affine, so the prediction is exact up to float noise;
    # a short scan pins the first integer slot.
    for _ in range(16):
        if t > limit:
            return None
        if beats(t):
            return t
        t += 1
    return None


def schedule_serial_tdma(model, seed: int) -> SchemeResult:
    """Everyone served one-by-one in entry order, no sharing. A vehicle whose
    window closes mid-download keeps its partial slots and ends unserved."""
    selection = _entry_order_grants(model, partial=True)
    return _assemble("serial-tdma", seed, model, selection,
                     V2VSchedule((), 0, selection.v_b), False)


def run_scheme(scheme: str, model, seed: int, strict_causality: bool = False,
               v2i_termination: str = "coverage") -> SchemeResult:
    if scheme == "proposed":
        return schedule_proposed(model, seed, strict_causality, v2i_termination)
    if scheme == "fcfs":
        return schedule_fcfs(model, seed, strict_causality)
    if scheme == "random":
        return schedule_random(model, seed, strict_causality)
    if scheme == "noncoop":
        return schedule_noncoop(model, seed)
    if scheme == "serial-tdma":
        return schedule_serial_tdma(model, seed)
    raise ValueError(f"unknown scheme {scheme!r}; expected one of {SCHEMES}")
