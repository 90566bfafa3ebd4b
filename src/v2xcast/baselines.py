"""The five schedulable schemes behind one result type.

proposed     utility-driven RSU grants + full-duplex concurrent sharing
fcfs         RSU serves vehicles in entry order, same sharing phase
random       uniformly random RSU grants and random sharing partners
noncoop      RSU alone, always talking to the nearest vehicle, no sharing
serial-tdma  RSU serves everyone in entry order, no sharing (reference)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ratemodel import accumulate, min_rate
from .v2i import (Grant, UtilityEval, V2ISelection, select_v2i_paths,
                  two_hop_estimate)
from .v2v import V2VSchedule, build_pairing, conflict, schedule_v2v

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

    def random_hop(model, tx, vb):
        cands = [r for r in sorted(vb) if model.in_range(tx, r)]
        return (tx, int(rng.choice(cands))) if cands else None

    def random_first_hops(model, va, live_vb):
        for s in rng.permutation(sorted(va)):
            link = random_hop(model, int(s), live_vb)
            if link is not None:
                yield link

    def random_pairing(model, va, vb):
        for _ in range(100):
            links, flags, va2, vb2 = build_pairing(model, va, vb,
                                                   random_first_hops, random_hop)
            # Unlucky draw; only retry while a lone feasible link exists.
            if links or not any(model.in_range(s, r)
                                and not conflict(model, (s, r), [])
                                for s in va for r in vb):
                break
        return links, flags, va2, vb2

    v2vsched = schedule_v2v(model, selection.v_a, selection.v_b,
                            selection.t_v2i, strict_causality,
                            pairing_builder=random_pairing)
    return _assemble("random", seed, model, selection, v2vsched,
                     strict_causality)


def schedule_noncoop(model, seed: int) -> SchemeResult:
    """RSU-only, distance-greedy service: in every slot the channel belongs
    to the nearest in-coverage vehicle, wanting or not, and the RSU transmits
    only when that vehicle still wants the content. Each vehicle holds the
    channel for at most one contiguous stretch (see _nearest_stretches), so it
    gets at most one grant; vehicles whose stretch is too short never finish
    and end unserved.
    """
    stretches = _nearest_stretches(model)
    ends = [first - 1 for _, first in stretches[1:]] + [model.horizon - 1]
    grants: list[Grant] = []
    served: list[int] = []
    # The nearest entered vehicle is out of coverage only when every entered
    # vehicle is, so clipping each stretch to its holder's window is exact.
    for (vid, first), last in zip(stretches, ends):
        win = model.service_window(vid)
        if win is None:
            continue
        start, end = max(first, win[0]), min(last, win[1])
        if start > end:
            continue
        n, bits = accumulate(model, vid, start, model.content_size,
                             end - start + 1, min_rate(model, vid, start, win[1]))
        grants.append(Grant(vid, start, n))
        if bits >= model.content_size:
            served.append(vid)
    unserved = tuple(sorted(set(model.ids) - set(served)))
    selection = V2ISelection(tuple(grants), sum(g.n_slots for g in grants),
                             tuple(served), unserved, (),
                             incomplete=bool(unserved))
    return _assemble("noncoop", seed, model, selection,
                     V2VSchedule((), 0, selection.v_b), False)


def _nearest_stretches(model) -> list[tuple[int, int]]:
    """(vehicle, first slot) of each stretch of slots in [0, horizon) in
    which that vehicle is the nearest entered one, by (mid-slot RSU distance,
    id); each stretch runs up to the next one's first slot, the last one to
    the horizon.

    All vehicles share one speed, so for k entered no later than j the gap
    d_k(t)^2 - d_j(t)^2 is affine in t with a non-negative slope: once j
    outranks k it keeps doing so. The nearest vehicle therefore changes in id
    (entry) order and the stretches form a lower envelope, built with the
    Felzenszwalb-Huttenlocher stack; each takeover slot is found by bisection
    on the exact comparison, so ties and sampling match a per-slot scan.
    """
    def beats(j, k, t):
        return (model.rsu_distance(j, t), j) < (model.rsu_distance(k, t), k)

    stack: list[tuple[int, int]] = []
    for j in model.ids:
        takeover = max(0, model.vehicles[j - 1].entry_slot)
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
    return stack


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
