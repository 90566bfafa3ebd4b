"""Infrastructure-phase scheduling: utility-based selection of which vehicles
download the full content directly from the RSU.

At each grant boundary the scheduler scores every not-yet-served vehicle that
is inside the serving window and able to finish before leaving it. The score
is the number of RSU slots it needs plus the worst-hop slot count of its best
two-hop forwarding chain; the minimum-score vehicle wins the grant. Who wins
is a pluggable policy, so the random baseline runs this same loop. The phase
ends once every vehicle is either granted or claimed by some recorded chain
(default), or, under the literal termination rule, once the last-entering
vehicle has itself been granted.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .v2v import best_first_hop


@dataclass(frozen=True)
class Grant:
    vehicle: int
    start_slot: int  # wall-clock slot of the first transmission
    n_slots: int


@dataclass(frozen=True)
class ChainEstimate:
    """Tentative two-hop forwarding chain recorded at grant time."""
    vehicle: int
    first_hop: int | None
    second_hop: int | None


@dataclass(frozen=True)
class UtilityEval:
    vehicle: int
    v2i_slots: int          # slots to download from the RSU at this clock
    first_hop: int | None
    second_hop: int | None
    chain_slots: int        # worst hop of the tentative chain

    @property
    def utility(self) -> int:
        return self.v2i_slots + self.chain_slots


@dataclass(frozen=True)
class V2ISelection:
    grants: tuple[Grant, ...]
    t_v2i: int                          # transmit slots only, idle excluded
    v_a: tuple[int, ...]                # granted vehicles, in grant order
    v_b: tuple[int, ...]                # vehicles still lacking the content
    chains: tuple[ChainEstimate, ...]
    incomplete: bool                    # ran out of coverage or horizon


def two_hop_estimate(model, vid: int, candidates) -> UtilityEval:
    """Best forwarding chain vid -> j -> g among `candidates` (vid not among
    them; a set keeps the hop scans to vid's and j's peers), each hop the
    best interference-free rate, with hop slot counts evaluated under the
    chain's own concurrency.

    Returns chain_slots only (v2i_slots filled by the caller; the returned
    eval carries 0 there). With no candidates at all the chain cost is 0;
    with candidates but none in range it is the horizon, which keeps the
    utility finite while deprioritizing isolated vehicles.
    """
    if not candidates:
        return UtilityEval(vid, 0, None, None, 0)
    first = best_first_hop(model, vid, candidates)
    if first is None:
        return UtilityEval(vid, 0, None, None, model.horizon)
    j = first[1]
    second = best_first_hop(model, j, candidates)  # j is not its own peer
    if second is not None:
        chain = [first, second]
        sinrs = model.link_sinrs(chain)  # set_feasible's test, SINRs kept
        if all(s >= model.sinr_threshold for s in sinrs):
            slots = max(map(model.slots_at_rate, model.link_rates(chain, sinrs)))
            return UtilityEval(vid, 0, j, second[1], slots)
    # Chain infeasible or no second receiver: fall back to the single hop.
    return UtilityEval(vid, 0, j, None, model.link_slots_free(vid, j))


def servable(model, v_b: set[int], clock: int,
             pool: set[int]) -> tuple[set[int], dict[int, int]]:
    """The vehicles of v_b that have entered by `clock`, and the download
    slots of each one in `pool` (a subset of v_b) that is in service at
    `clock` and can finish from there inside its window, in id order. Both
    are read off the model's id-indexed arrays, entry slots and window
    bounds, so only vehicles whose window holds the clock are asked for
    their download slots. A window never opens before its vehicle enters."""
    first, last = model.window_bounds()
    entered = v_b.intersection(np.flatnonzero(model._entry <= clock).tolist())
    slots = {}
    for vid in np.flatnonzero((first <= clock) & (clock <= last)).tolist():
        if vid in pool:
            m = model.slots_to_download(vid, clock)  # None if it cannot finish
            if m is not None:
                slots[vid] = m
    return entered, slots


def evaluate_candidates(model, v_b: set[int], clock: int,
                        pool: set[int]) -> list[UtilityEval]:
    """Utility of every servable vehicle of `pool` at the given clock. Chain
    targets always come from the full not-yet-served set v_b, claimed or
    not."""
    entered, slots = servable(model, v_b, clock, pool)
    return [replace(two_hop_estimate(model, vid, entered - {vid}), v2i_slots=m)
            for vid, m in slots.items()]


def next_service_slot(model, pool, clock: int) -> int | None:
    """Earliest slot strictly after idling starts at which any vehicle in
    the pool is servable; None when every remaining window has already
    closed. Reads the model's window arrays, built once."""
    first, last = model.window_bounds()
    ids = np.fromiter(pool, dtype=np.int64, count=len(pool))
    still = last[ids] >= clock
    if not still.any():
        return None
    nxt = max(int(first[ids[still]].min()), clock + 1)
    return nxt if nxt < model.horizon else None


def min_utility(model, v_b: set[int], clock: int,
                pool: set[int]) -> UtilityEval | None:
    """The proposed scheme's grant policy: the minimum-utility candidate,
    ties to the lower id; None when nobody in the pool is servable."""
    evals = evaluate_candidates(model, v_b, clock, pool=pool)
    return min(evals, key=lambda e: (e.utility, e.vehicle), default=None)


def select_v2i_paths(model, termination: str = "coverage",
                     pick=min_utility) -> V2ISelection:
    """Run the grant-selection loop over the whole vehicle population.

    The pool holds the grant candidates. termination="coverage" takes out
    of it each granted vehicle and the vehicles its recorded chain claims,
    which are left to the sharing phase, and stops once the pool is empty.
    "literal" keeps every ungranted vehicle eligible, so its pool is v_b
    itself, and stops only once the last-entering vehicle has been granted.

    pick(model, v_b, clock, pool) chooses the next grant among the pool,
    with its download slots and tentative chain, or returns None when
    nobody in the pool is servable at that clock.
    """
    if termination not in ("coverage", "literal"):
        raise ValueError(f"unknown termination rule {termination!r}")
    literal = termination == "literal"
    v_b: set[int] = set(model.ids)
    pool = v_b if literal else set(v_b)
    last_id = max(v_b)
    grants: list[Grant] = []
    chains: list[ChainEstimate] = []
    clock = 0
    incomplete = False

    while (last_id in v_b) if literal else pool:
        winner = pick(model, v_b, clock, pool)
        if winner is None:
            # Idle: jump to the next slot at which any grantable vehicle
            # becomes servable. Idle slots are not charged to the phase.
            nxt = next_service_slot(model, pool, clock)
            if nxt is None:
                incomplete = True
                break
            clock = nxt
            continue
        grants.append(Grant(winner.vehicle, clock, winner.v2i_slots))
        chains.append(ChainEstimate(winner.vehicle, winner.first_hop,
                                    winner.second_hop))
        v_b.discard(winner.vehicle)
        if not literal:
            pool.difference_update((winner.vehicle, winner.first_hop,
                                    winner.second_hop))
        clock += winner.v2i_slots

    return V2ISelection(
        grants=tuple(grants),
        t_v2i=sum(g.n_slots for g in grants),
        v_a=tuple(g.vehicle for g in grants),
        v_b=tuple(sorted(v_b)),
        chains=tuple(chains),
        incomplete=incomplete,
    )
