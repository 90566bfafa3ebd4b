"""Infrastructure-phase scheduling: utility-based selection of which vehicles
download the full content directly from the RSU.

At each grant boundary the scheduler scores every not-yet-served vehicle that
is inside the serving window and able to finish before leaving it. The score
is the number of RSU slots it needs plus the worst-hop slot count of its best
two-hop forwarding chain; the minimum-score vehicle wins the grant. Who wins
is a pluggable policy, so the random baseline runs this same loop. Both
policies read their candidates off one GrantLoop per run, which follows the
clock through the entry order and through the windows sorted by first slot,
so that a grant boundary costs in proportion to the vehicles whose window
holds the clock, not to the population. When nobody can win, the clock jumps
to the next window opening among the grant candidates: a vehicle that cannot
finish from a slot of its window cannot finish from any later one. The
phase ends once every vehicle is either granted or claimed by some recorded
chain (default), or, under the literal termination rule, once the vehicle
that enters last, by (entry slot, id), has itself been granted.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

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


def two_hop_estimate(model, vid: int, v2i_slots: int, candidates) -> UtilityEval:
    """The utility of granting vid `v2i_slots` RSU slots: its best
    forwarding chain vid -> j -> g among `candidates` (vid not among them;
    a set, or an Others view of one, keeps the hop scans to vid's and j's
    peers), each hop the best interference-free rate, with hop slot counts
    evaluated under the chain's own concurrency.

    With no candidates at all the chain cost is 0; with candidates but none
    in range it is the horizon, which keeps the utility finite while
    deprioritizing isolated vehicles.
    """
    if not candidates:
        return UtilityEval(vid, v2i_slots, None, None, 0)
    first = best_first_hop(model, vid, candidates)
    if first is None:
        return UtilityEval(vid, v2i_slots, None, None, model.horizon)
    j = first[1]
    second = best_first_hop(model, j, candidates)  # j is not its own peer
    if second is not None:
        chain = [first, second]
        sinrs = model.link_sinrs(chain)  # set_feasible's test, SINRs kept
        if all(s >= model.sinr_threshold for s in sinrs):
            slots = max(map(model.slots_at_rate, model.link_rates(chain, sinrs)))
            return UtilityEval(vid, v2i_slots, j, second[1], slots)
    # Chain infeasible or no second receiver: fall back to the single hop.
    return UtilityEval(vid, v2i_slots, j, None, model.link_slots_free(vid, j))


class Others:
    """The members of a set other than one vehicle, as a live read-only
    view: chain targets for two_hop_estimate without a copy of the set."""

    __slots__ = ("members", "skip")

    def __init__(self, members: set[int], skip: int):
        self.members, self.skip = members, skip

    def __contains__(self, vid) -> bool:
        return vid != self.skip and vid in self.members

    def __bool__(self) -> bool:
        return len(self.members) > (self.skip in self.members)


class GrantLoop:
    """The candidates of one grant loop at its clock, kept per grant and per
    clock move instead of rescanned at each grant boundary.

    v_b (the vehicles still lacking the content) and pool (the grant
    candidates, a subset of v_b) are the caller's sets, read live; a vehicle
    taken out of v_b must also be taken out of `entered`. Two sweeps follow
    the clock, which only moves forward:
    - the ids in the model's entry_order, by (entry slot, id), and how many
      of them have entered by the clock; `entered` is v_b's part of that
      prefix;
    - the ids with a service window in order of its first slot, and how many
      of those windows have opened by the clock; the open set holds the pool
      vehicles among them, and loses each one found past its window or out
      of the pool. A window never opens before its vehicle enters.
    """

    def __init__(self, model, v_b: set[int], pool: set[int], clock: int = 0):
        self.model, self.v_b, self.pool = model, v_b, pool
        self.order = model.entry_order
        self._entries = model._entry[self.order].tolist()
        ids = np.asarray(model.ids, dtype=np.int64)
        first, last = model.window_bounds()
        ids = ids[first[ids] <= last[ids]]
        by_first = ids[np.argsort(first[ids], kind="stable")]
        self._by_first = by_first.tolist()
        self._firsts = first[by_first].tolist()
        self._last = last.tolist()
        self.entered: set[int] = set()
        self._open: set[int] = set()
        self._n_entered = self._n_opened = 0
        self.move(clock)

    def move(self, clock: int) -> None:
        """Set the clock, taking in the vehicles of v_b that have entered
        and the pool vehicles whose window has opened by then."""
        self.clock = clock
        n = bisect_right(self._entries, clock)
        self.entered.update(self.v_b.intersection(self.order[self._n_entered:n]))
        self._n_entered = n
        n = bisect_right(self._firsts, clock)
        self._open.update(self.pool.intersection(self._by_first[self._n_opened:n]))
        self._n_opened = n

    def servable(self) -> dict[int, int]:
        """The download slots of each pool vehicle in service at the clock
        that can finish from there inside its window, in id order. Only the
        vehicles whose window holds the clock are asked."""
        clock, last, pool = self.clock, self._last, self.pool
        self._open = {v for v in self._open if v in pool and last[v] >= clock}
        slots = {}
        for vid in sorted(self._open):
            m = self.model.slots_to_download(vid, clock)  # None if it cannot finish
            if m is not None:
                slots[vid] = m
        return slots

    def next_opening(self) -> int | None:
        """The idle jump: the first slot after the clock at which a pool
        vehicle's window opens, or None when no such window is left. Windows
        are clipped to the horizon, so the slot is always before it."""
        by_first, pool = self._by_first, self.pool
        return next((self._firsts[k] for k in range(self._n_opened, len(by_first))
                     if by_first[k] in pool), None)


def evaluate_candidates(model, loop: GrantLoop) -> list[UtilityEval]:
    """Utility of every servable vehicle of the loop's pool at its clock.
    Chain targets always come from the entered vehicles of the full
    not-yet-served set v_b, claimed or not."""
    entered = loop.entered
    return [two_hop_estimate(model, vid, m, Others(entered, vid))
            for vid, m in loop.servable().items()]


def min_utility(model, loop: GrantLoop) -> UtilityEval | None:
    """The proposed scheme's grant policy: the minimum-utility candidate,
    ties to the lower id; None when nobody in the pool is servable."""
    evals = evaluate_candidates(model, loop)
    return min(evals, key=lambda e: (e.utility, e.vehicle), default=None)


def select_v2i_paths(model, termination: str = "coverage",
                     pick=min_utility) -> V2ISelection:
    """Run the grant-selection loop over the whole vehicle population.

    The pool holds the grant candidates. termination="coverage" takes out
    of it each granted vehicle and the vehicles its recorded chain claims,
    which are left to the sharing phase, and stops once the pool is empty.
    "literal" keeps every ungranted vehicle eligible, so its pool is v_b
    itself, and stops only once the vehicle that enters last, the last of
    the entry order by (entry slot, id), has been granted.

    pick(model, loop) chooses the next grant among loop.pool at loop.clock,
    with its download slots and tentative chain, reading loop.servable()
    and loop.entered; it returns None when nobody in the pool is servable
    at that clock. The clock then jumps to loop.next_opening(), the next
    window opening among the pool vehicles, and the loop ends incomplete
    when there is none. The jump skips no grant: the bits of slots
    [t + 1, last] never exceed those of [t, last], as rates are non-negative
    and rounding is monotone, so a vehicle that cannot finish from slot t
    of its window cannot from any later slot of it either. Idle slots are
    not charged to the phase.
    """
    if termination not in ("coverage", "literal"):
        raise ValueError(f"unknown termination rule {termination!r}")
    literal = termination == "literal"
    v_b: set[int] = set(model.ids)
    pool = v_b if literal else set(v_b)
    loop = GrantLoop(model, v_b, pool)
    last_in = loop.order[-1]
    grants: list[Grant] = []
    chains: list[ChainEstimate] = []
    incomplete = False

    while (last_in in v_b) if literal else pool:
        winner = pick(model, loop)
        if winner is None:
            nxt = loop.next_opening()
            if nxt is None:
                incomplete = True
                break
            loop.move(nxt)
            continue
        grants.append(Grant(winner.vehicle, loop.clock, winner.v2i_slots))
        chains.append(ChainEstimate(winner.vehicle, winner.first_hop,
                                    winner.second_hop))
        v_b.discard(winner.vehicle)
        loop.entered.discard(winner.vehicle)
        if not literal:
            pool.difference_update((winner.vehicle, winner.first_hop,
                                    winner.second_hop))
        loop.move(loop.clock + winner.v2i_slots)

    return V2ISelection(
        grants=tuple(grants),
        t_v2i=sum(g.n_slots for g in grants),
        v_a=tuple(g.vehicle for g in grants),
        v_b=tuple(sorted(v_b)),
        chains=tuple(chains),
        incomplete=incomplete,
    )
