"""The five schedulable schemes behind one result type.

proposed     utility-driven RSU grants + full-duplex concurrent sharing
fcfs         RSU serves vehicles in entry order, same sharing phase
random       uniformly random RSU grants and random sharing partners
noncoop      RSU alone, always talking to the nearest vehicle, no sharing
serial-tdma  RSU serves everyone in entry order, no sharing (reference)

Entry order is the model's entry_order, by (entry slot, id), in every
scheme: id order only where ids are numbered so, as spawn_vehicles's are.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .v2i import Grant, Others, V2ISelection, select_v2i_paths, two_hop_estimate
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


def _serve_in_order(model, spans, partial: bool) -> V2ISelection:
    """RSU grants over (vehicle, first, last) slot spans, taken in order.
    Each grant starts at the latest of the span's first slot, the end of the
    previous grant and the start of the vehicle's service window, and may
    run to the end of the span or of the window, whichever comes first. A
    vehicle that cannot finish there is skipped, or with `partial` keeps the
    slots it got; either way it ends up in v_b. Only partial service, which
    ends the run, reports such leftovers as incomplete."""
    clock = 0
    grants, served = [], []
    w_first, w_last = (w.tolist() for w in model.window_bounds())
    for vid, first, last in spans:
        start, end = max(first, clock, w_first[vid]), min(last, w_last[vid])
        if start > end:
            continue
        n, complete = model.download(vid, start, end)
        if complete:
            served.append(vid)
        elif not partial:
            continue
        grants.append(Grant(vid, start, n))
        clock = start + n
    unserved = tuple(sorted(set(model.ids) - set(served)))
    return V2ISelection(tuple(grants), sum(g.n_slots for g in grants),
                        tuple(served), unserved, (),
                        incomplete=partial and bool(unserved))


def schedule_fcfs(model, seed: int, strict_causality: bool = False) -> SchemeResult:
    """Entry-order grants; whoever cannot finish inside coverage at their turn
    is left to the sharing phase."""
    whole_run = [(vid, 0, model.horizon - 1) for vid in model.entry_order]
    selection = _serve_in_order(model, whole_run, partial=False)
    v2vsched = schedule_v2v(model, selection.v_a, selection.v_b,
                            selection.t_v2i, strict_causality)
    return _assemble("fcfs", seed, model, selection, v2vsched, strict_causality)


def random_pick(rng):
    """Random's grant policy for select_v2i_paths: a uniform draw from rng
    among the pool's servable vehicles, listed in id order, with the
    winner's tentative chain."""
    def pick(model, loop):
        slots = loop.servable()
        if not slots:
            return None
        winner = int(rng.choice(list(slots)))
        return two_hop_estimate(model, winner, slots[winner],
                                Others(loop.entered, winner))
    return pick


def schedule_random(model, seed: int, strict_causality: bool = False) -> SchemeResult:
    """Random grants with the same coverage-based termination as the proposed
    scheme, then random pairing partners through the same pairing builder."""
    rng = np.random.default_rng([seed, 1])
    selection = select_v2i_paths(model, pick=random_pick(rng))

    def in_range_of(model, tx, vb):
        """The members of vb in range of tx, among its peers, in id order."""
        return sorted(r for r in model.peers(tx) if r in vb and model.in_range(tx, r))

    def random_hop(model, tx, vb):
        cands = in_range_of(model, tx, vb)
        return (tx, int(rng.choice(cands))) if cands else None

    def random_first_hops(model, va, live_vb):
        for s in rng.permutation(sorted(va)):
            link = random_hop(model, int(s), live_vb)
            if link is not None:
                yield link

    def random_pairing(model, va, vb):
        lone = None
        for _ in range(100):
            pairing = build_pairing(model, va, vb, random_first_hops, random_hop)
            if pairing[0]:
                break
            # Unlucky draw; only retry while a lone feasible link exists.
            if lone is None:
                lone = any(not conflict(model, (s, r), [])
                           for s in va for r in in_range_of(model, s, vb))
            if not lone:
                break
        return pairing

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
    and end unserved. The nearest entered vehicle is out of coverage only
    when every entered vehicle is, so clipping each stretch to its holder's
    window is exact.
    """
    selection = _serve_in_order(model, _nearest_stretches(model), partial=True)
    return _assemble("noncoop", seed, model, selection,
                     V2VSchedule((), 0, selection.v_b), False)


def _nearest_stretches(model) -> list[tuple[int, int, int]]:
    """(vehicle, first, last slot) of each stretch of slots in [0, horizon)
    in which that vehicle is the nearest entered one, by (mid-slot RSU
    distance, id); the stretches tile [0, horizon) from the first one on.

    All vehicles share one speed, so for k entered no later than j the gap
    d_k(t)^2 - d_j(t)^2 is affine in t with a non-negative slope: once j
    outranks k it keeps doing so. The nearest vehicle therefore changes in
    entry order (model.entry_order) and the stretches form a lower envelope,
    built with the Felzenszwalb-Huttenlocher stack. Each takeover slot is
    first solved from that gap in closed form, as the intersection of two
    parabolas, on the road geometry rsu_distance reads; the exact comparison
    then confirms it, galloping outward from the solved slot and bisecting
    the bracket it finds, so ties and sampling match a per-slot scan and a
    guess that is off costs only a logarithm of its error. Two vehicles that
    enter in the same slot never change order: one comparison decides them.
    """
    def beats(j, k, t):
        return (model.rsu_distance(j, t), j) < (model.rsu_distance(k, t), k)

    entry, d_lr = model._entry.tolist(), model._dlr.tolist()
    step, rsu_x = model._step, model.config.road.rsu_longitudinal

    def first_win(j, k, lo, hi):
        """The first slot in [lo, hi) at which j beats k, or hi if none."""
        if lo >= hi:
            return lo
        if entry[j] == entry[k]:
            return lo if beats(j, k, lo) else hi
        # d_k^2 - d_j^2 = 0 at slot (e_k + e_j - 1)/2 + (R - (a_k^2 - a_j^2)/(2D))/s,
        # D = (e_j - e_k)s, s the step and R the RSU's longitudinal position.
        gap = (entry[j] - entry[k]) * step
        solved = (entry[k] + entry[j] - 1) / 2 + (
            rsu_x - (d_lr[k] ** 2 - d_lr[j] ** 2) / (2 * gap)) / step
        guess = math.ceil(min(hi, max(lo, solved)))  # lo for a NaN
        # Bracket (fail, win]: beats fails at fail (or fail < lo), holds at
        # win (or win == hi).
        if guess < hi and not beats(j, k, guess):
            fail, stride = guess, 1
            while fail + stride < hi and not beats(j, k, fail + stride):
                fail, stride = fail + stride, 2 * stride
            win = min(fail + stride, hi)
        else:
            win, stride = guess, 1
            while win - stride >= lo and beats(j, k, win - stride):
                win, stride = win - stride, 2 * stride
            fail = max(win - stride, lo - 1)
        while win - fail > 1:
            mid = (fail + win) // 2
            if beats(j, k, mid):
                win = mid
            else:
                fail = mid
        return win

    stack: list[tuple[int, int]] = []
    for j in model.entry_order:
        takeover = max(0, entry[j])
        while stack:
            k, k_first = stack[-1]
            slot = first_win(j, k, max(takeover, k_first), model.horizon)
            if slot > k_first:
                takeover = slot
                break
            stack.pop()
        if takeover < model.horizon:
            stack.append((j, takeover))
    lasts = [first - 1 for _, first in stack[1:]] + [model.horizon - 1]
    return [(vid, first, last) for (vid, first), last in zip(stack, lasts)]


def schedule_serial_tdma(model, seed: int) -> SchemeResult:
    """Everyone served one-by-one in entry order, no sharing. A vehicle whose
    window closes mid-download keeps its partial slots and ends unserved."""
    whole_run = [(vid, 0, model.horizon - 1) for vid in model.entry_order]
    selection = _serve_in_order(model, whole_run, partial=True)
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
