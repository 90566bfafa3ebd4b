"""The scheduler's incremental paths against their from-scratch references.

PhysicalRateModel.admits keeps each committed link's interference as a
running sum, and a pairing's phases sum a kept term table and reuse every
rate whose SINR did not move. Both, and link_sinrs, must give the floats of
oracle_link_sinrs, a from-scratch scan kept in tests/oracle.py that shares
none of the model's SINR helpers, not close ones: admits only answers a
boolean, which would hide a last-ulp error, so these tests also read the
sums it keeps, and the phases are checked on their SINRs as well as their
rates.
best_first_hop scans peers instead of all of v_b, and the grant loop's
GrantLoop sweeps the entry order and the windows sorted by first slot as
the clock moves; the full scans they replaced are kept here as their
oracles, which read each vehicle's window from instances.reference_window.
The loop's state is checked against them at every grant boundary and idle
jump of real runs and of hand-built populations, and on states built at
any clock. The idle jump is oracle_next_service_slot over the pool less
the vehicles whose window holds the clock, since those cannot finish from
any later slot of it either. GrantLoop.servable asks for download slots
only where a window holds the clock.
"""

import contextlib
import dataclasses
import math
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2xcast.baselines import random_pick, run_scheme
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.v2i import GrantLoop, min_utility, select_v2i_paths
from v2xcast.v2v import best_first_hop, conflict
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import (TableRateModel, default_config, default_radio,
                       reference_window)
from oracle import oracle_link_sinrs
from test_golden import LADDER, stock_config


# ---- references ----

def fold_sinrs(model, committed, candidate):
    """The SINRs of committed + [candidate] as admits sees them: the kept
    sums of the committed links, with the candidate's changes applied."""
    fold = model._folded(committed)
    changed, relays = model._join(fold, candidate)
    itf = fold.itf + [None]
    for m, value in changed.items():
        itf[m] = value
    links = committed + [candidate]
    return [model._sinr(l, i, l[1] in relays or l[1] in fold.relays)
            for l, i in zip(links, itf)]


def assert_admits_exact(model, committed, candidate):
    links = committed + [candidate]
    ref = oracle_link_sinrs(model, links)
    assert model.admits(committed, candidate) == \
        all(s >= model.sinr_threshold for s in ref)
    assert np.array_equal(fold_sinrs(model, committed, candidate), ref,
                          equal_nan=True), (committed, candidate)


def assert_phase_exact(model, links, active, answer):
    """A phase's answer (SINRs, rates) for the `active` positions of
    `links`: the oracle's SINRs bit for bit, and link_rates of those."""
    now = [links[m] for m in active]
    want = oracle_link_sinrs(model, now)
    sinrs, rates = answer
    assert np.array_equal(sinrs, want, equal_nan=True), (links, active)
    assert rates.tolist() == model.link_rates(now, want), (links, active)
    return rates


def check_phase(model, phase, links, active):
    return assert_phase_exact(model, links, active,
                              phase(np.array(active, dtype=np.int64)))


def oracle_best_first_hop(model, source, v_b):
    best, best_rate = None, 0.0
    for j in sorted(v_b):
        r = model.rate_free(source, j)
        if r > best_rate:
            best, best_rate = j, r
    return None if best is None else (source, best)


def oracle_servable(model, v_b, clock, pool):
    entered = [i for i in sorted(v_b) if model._entry[i] <= clock]
    slots = {}
    for vid in entered:
        win = reference_window(model, vid)
        if vid in pool and win is not None and win[0] <= clock <= win[1]:
            m = model.slots_to_download(vid, clock)
            if m is not None:
                slots[vid] = m
    return entered, slots


def oracle_next_service_slot(model, pool, clock):
    upcoming = []
    for vid in pool:
        win = reference_window(model, vid)
        if win is not None and win[1] >= clock:
            upcoming.append(max(win[0], clock + 1))
    if not upcoming:
        return None
    nxt = min(upcoming)
    return nxt if nxt < model.horizon else None


# ---- populations ----

def hand_built(config, spots):
    """Vehicles at (lane, entry slot) spots, with ids in the drawn order,
    not in entry order; equal spots are co-located."""
    return [VehicleState(vid, lane, entry)
            for vid, (lane, entry) in enumerate(spots, start=1)]


def drawn_population(data, spread_m, **radio):
    """A drawn config and hand_built vehicles on it, spread over up to
    spread_m meters."""
    lanes = data.draw(st.integers(1, 3), label="lanes")
    n = data.draw(st.integers(2, 14), label="vehicles")
    config = default_config(lane_count=lanes, vehicle_count=n)
    config = dataclasses.replace(config, radio=default_radio(**radio))
    per_m = round(1.0 / (config.road.slot_duration * config.road.speed))
    spots = data.draw(st.lists(
        st.tuples(st.integers(1, lanes), st.integers(0, spread_m)),
        min_size=n, max_size=n), label="spots")
    return config, hand_built(config, [(lane, x * per_m) for lane, x in spots])


def drawn_model(data, spread_m, **radio):
    return PhysicalRateModel(*drawn_population(data, spread_m, **radio))


def check_pairing_build(model, order, forced):
    """Commit `order` greedily on conflict, the physical test build_pairing
    applies (and the `forced` links whatever conflict says), checking admits
    for every candidate at every prefix; returns the committed links. The
    structure build_pairing keeps is not imposed, so links may share nodes:
    admits must answer as set_feasible does for any link list."""
    committed = []
    for k, link in enumerate(order):
        if k == 0 or committed[-1] == order[k - 1]:  # a new prefix
            for cand in order:
                assert_admits_exact(model, committed, cand)
        if k in forced and link not in committed:
            committed.append(link)
        elif not conflict(model, link, committed):
            committed.append(link)
    return committed


def check_shrinks(model, links, groups):
    """Finish `links` in the given groups, checking every phase."""
    phase = model.phases(links)
    active = list(range(len(links)))
    check_phase(model, phase, links, active)
    for finished in groups:
        active = [m for m in active if links[m] not in finished]
        check_phase(model, phase, links, active)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(si_cancel=st.sampled_from([1e-12, 1e-10, 1e-9, 1e-8]), data=st.data())
def test_incremental_interference_matches_link_sinrs(si_cancel, data):
    """Every prefix, candidate and shrink of a link set built greedily from
    every in-range link of a dense hand-built population, co-located
    vehicles included, gives the oracle's SINRs and the rates of those bit
    for bit; so does link_sinrs on every prefix and on all in-range links
    at once."""
    model = drawn_model(data, 30, si_cancel=si_cancel)
    near = [(i, j) for i in model.ids for j in model.peers(i)]
    order = data.draw(st.permutations(near), label="order")
    forced = set(data.draw(st.lists(st.integers(0, max(0, len(order) - 1)),
                                    max_size=3), label="forced"))
    committed = check_pairing_build(model, order, forced)
    for links in [order] + [committed[:k] for k in range(len(committed) + 1)]:
        assert np.array_equal(model.link_sinrs(links),
                              oracle_link_sinrs(model, links), equal_nan=True)
    finish = data.draw(st.permutations(committed), label="finish")
    cuts = sorted(set(data.draw(st.lists(st.integers(1, max(1, len(finish))),
                                         max_size=len(finish)), label="cuts")))
    groups = [finish[a:b] for a, b in zip([0] + cuts, cuts + [len(finish)])]
    check_shrinks(model, committed, [g for g in groups if g])


def test_relay_join_and_finish_refresh_the_feeder():
    """A relay join adds the relay's self-interference to its feeder link,
    and the relay hop finishing takes it off again."""
    config = default_config(vehicle_count=4)
    per_m = round(1.0 / (config.road.slot_duration * config.road.speed))
    model = PhysicalRateModel(config, hand_built(
        config, [(1, 0), (1, 10 * per_m), (1, 14 * per_m), (2, 40 * per_m)]))
    feeder, relay = (1, 2), (2, 3)
    assert model.set_feasible([feeder]) and not model.admits([feeder], relay)
    assert_admits_exact(model, [feeder], relay)
    links = [feeder, relay]
    phase = model.phases(links)
    before = check_phase(model, phase, links, [0, 1])
    after = check_phase(model, phase, links, [0])
    assert after[0] > before[0]             # self-interference is gone
    check_shrinks(model, links, [[feeder]])


def test_colocated_peers_match_link_sinrs():
    """Co-located vehicles (distance 0.0) give infinite power and infinite
    interference; the incremental paths must give the same inf and NaN."""
    config = default_config(vehicle_count=5)
    per_m = round(1.0 / (config.road.slot_duration * config.road.speed))
    model = PhysicalRateModel(config, hand_built(
        config, [(1, 0), (1, 0), (1, 6 * per_m), (1, 6 * per_m), (2, 3 * per_m)]))
    assert model.rate_free(1, 2) == math.inf
    links = [(1, 2), (3, 4), (5, 1)]
    for k in range(len(links) + 1):
        for cand in [(1, 2), (3, 4), (5, 1), (2, 5), (4, 3), (5, 3)]:
            assert_admits_exact(model, links[:k], cand)
    assert math.isnan(oracle_link_sinrs(model, [(1, 2), (1, 5)])[0])  # inf / inf
    assert_admits_exact(model, [(1, 2)], (1, 5))
    assert_admits_exact(model, [(1, 2)], (2, 1))
    check_shrinks(model, links, [[(3, 4)], [(1, 2)]])


@pytest.mark.parametrize("overrides, seed", [
    (LADDER, 1), (LADDER, 2), ({}, 113), ({}, 195)])
def test_scheduler_pairings_are_exact(overrides, seed):
    """Every admits call and phase the proposed and random schedulers make
    on ladder seeds 1-2 and on the stock seeds that co-locate two vehicles,
    checked against the from-scratch references."""
    config = stock_config(**overrides)
    admits_calls, pairings = [], []
    for scheme in ("proposed", "random"):
        model = PhysicalRateModel(config, spawn_vehicles(config, seed))
        admits, phases = model.admits, model.phases

        def recorded_admits(committed, link, admits=admits):
            admits_calls.append((model, list(committed), link))
            return admits(committed, link)

        def recorded_phases(links, phases=phases):
            phase, answers = phases(links), []
            pairings.append((model, list(links), answers))

            def recorded(active):
                sinrs, rates = phase(active)
                answers.append((active.tolist(), (sinrs.copy(), rates.copy())))
                return sinrs, rates
            return recorded

        model.admits, model.phases = recorded_admits, recorded_phases
        run_scheme(scheme, model, seed)
        del model.admits, model.phases
    joins = colocated = relay_finishes = 0
    for model, committed, link in admits_calls:
        assert_admits_exact(model, committed, link)
        joins += any(rx == link[0] for _, rx in committed)
        colocated += model.rate_free(*link) == math.inf
    for model, links, answers in pairings:
        before = set(range(len(links)))
        for active, answer in answers:
            assert_phase_exact(model, links, active, answer)
            finished = {links[m][0] for m in before.difference(active)}
            relay_finishes += any(links[m][1] in finished for m in active)
            before = set(active)
    assert joins and relay_finishes
    if seed in (113, 195):
        assert colocated


def grow_back(n, seed):
    """Active sets of n positions: all but one, so that the first call
    leaves a position off the air, then sets that shrink from all, grow
    back by one position and by many, and repeat."""
    order = np.random.default_rng(seed).permutation(n)
    shrinking = [np.sort(order[k:]) for k in (0, n // 4, n // 2, n - 3)]
    back = [np.sort(order[k - 1:]) for k in (n - 3, n // 2)]
    return [np.sort(order[1:])] + shrinking + back + [
        shrinking[1], shrinking[1], shrinking[-1], shrinking[0]]


def test_phases_answer_any_active_set_in_any_order():
    """One model holds the phase functions of two pairings, proposed's and
    random's first on the same population, and each is asked in turn about
    active sets that shrink, grow back and repeat: every answer must be the
    oracle's."""
    config = stock_config()
    model = PhysicalRateModel(config, spawn_vehicles(config, 1))
    pairings = [[(l.tx, l.rx) for l in run_scheme(scheme, model, 1).v2v.pairings[0].links]
                for scheme in ("proposed", "random")]
    assert pairings[0] != pairings[1] and min(map(len, pairings)) > 8
    phases = [model.phases(links) for links in pairings]
    for sets in zip(*(grow_back(len(links), 1) for links in pairings)):
        for links, phase, active in zip(pairings, phases, sets):
            check_phase(model, phase, links, active)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(si_cancel=st.sampled_from([1e-12, 1e-9]), data=st.data())
def test_phases_answer_any_active_set_on_hand_built_populations(si_cancel, data):
    """Chains of one and two hops over a dense hand-built population,
    co-located vehicles included, asked about active sets that shrink,
    grow back and repeat: every answer must be the oracle's."""
    model = drawn_model(data, 30, si_cancel=si_cancel)
    order = data.draw(st.permutations(model.ids), label="order")
    links, k = [], 0
    while k + 1 < len(order):
        hops = data.draw(st.integers(1, 2), label="hops")
        chain = order[k:k + hops + 1]
        links += list(zip(chain, chain[1:]))
        k += hops + 1
    links = data.draw(st.permutations(links), label="links")
    phase = model.phases(links)
    for active in grow_back(len(links), data.draw(st.integers(0, 99), label="seed")):
        check_phase(model, phase, links, active)


# ---- scans ----

def scan_cases(model, data):
    ids = model.ids
    for _ in range(5):
        v_b = set(data.draw(st.lists(st.sampled_from(ids), max_size=len(ids)),
                            label="v_b"))
        pool = set(data.draw(st.lists(st.sampled_from(ids), max_size=len(ids)),
                             label="pool")) & v_b
        clock = data.draw(st.integers(-1000, 700_000), label="clock")
        yield v_b, pool, clock


def in_window(model, vid, clock):
    win = reference_window(model, vid)
    return win is not None and win[0] <= clock <= win[1]


def assert_candidates_match(loop, slots):
    """The loop's entered set, and `slots` from its servable, are
    oracle_servable's."""
    entered, want = oracle_servable(loop.model, loop.v_b, loop.clock, loop.pool)
    assert sorted(loop.entered) == entered
    assert list(slots.items()) == list(want.items())


def assert_jump_matches(loop, nxt):
    """`nxt` from the loop's next_opening is oracle_next_service_slot's over
    the pool less the vehicles whose window holds the clock."""
    waiting = {v for v in loop.pool if not in_window(loop.model, v, loop.clock)}
    assert nxt == oracle_next_service_slot(loop.model, waiting, loop.clock)


def assert_loop_matches(loop):
    assert_candidates_match(loop, loop.servable())
    assert_jump_matches(loop, loop.next_opening())


def assert_scans_match(model, data):
    for v_b, pool, clock in scan_cases(model, data):
        for source in model.ids:
            assert best_first_hop(model, source, v_b) == \
                oracle_best_first_hop(model, source, v_b)
        assert_loop_matches(GrantLoop(model, v_b, pool, clock))


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_scans_match_oracles_on_hand_built_populations(data):
    """Ids out of entry order, and co-located peers, whose equal rates must
    go to the lower id."""
    model = drawn_model(data, 400)
    assert_scans_match(model, data)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(seed=st.integers(1, 10_000), lanes=st.integers(1, 5),
       arrival=st.floats(1.0, 30.0), data=st.data())
def test_scans_match_oracles_on_spawned_populations(seed, lanes, arrival, data):
    config = default_config(lane_count=lanes, arrival_rate=arrival,
                            vehicle_count=30)
    model = PhysicalRateModel(config, spawn_vehicles(config, seed))
    assert_scans_match(model, data)


def record_asks(model):
    """The (vid, start) of every slots_to_download call made on `model`
    from now on, recorded in call order."""
    asks, ask = [], model.slots_to_download

    def recorded(vid, start):
        asks.append((vid, start))
        return ask(vid, start)
    model.slots_to_download = recorded
    return asks


def assert_asks_in_window(model, asks, clock, pool):
    """servable's slots_to_download calls at `clock`: one for each vehicle
    of `pool` whose reference_window holds the clock, in id order, and no
    other."""
    want = [(vid, clock) for vid in sorted(pool) if in_window(model, vid, clock)]
    assert asks == want, (clock, sorted(pool))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_servable_asks_only_in_window_pool_vehicles_on_stock_runs(seed):
    config = stock_config()
    model = PhysicalRateModel(config, spawn_vehicles(config, seed))
    asks, picks = record_asks(model), []

    def pick(model, loop):
        asks.clear()
        winner = min_utility(model, loop)
        assert_asks_in_window(model, asks, loop.clock, loop.pool)
        picks.append(len(asks))
        return winner
    select_v2i_paths(model, pick=pick)
    assert sum(picks) > 0


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_servable_asks_only_in_window_pool_vehicles_on_hand_built_populations(data):
    model = drawn_model(data, 400)
    asks = record_asks(model)
    for v_b, pool, clock in scan_cases(model, data):
        asks.clear()
        GrantLoop(model, v_b, pool, clock).servable()
        assert_asks_in_window(model, asks, clock, pool)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_grant_loop_at_window_edges(data):
    """States built one slot before, at and after each end of each window:
    a vehicle is asked, and counts as opened, exactly on its window's
    slots."""
    model = drawn_model(data, 400)
    asks, ids = record_asks(model), set(model.ids)
    first, last = model.window_bounds()
    for vid in model.ids:
        if first[vid] <= last[vid]:
            for clock in {int(first[vid]) + d for d in (-1, 0, 1)} | \
                    {int(last[vid]) + d for d in (-1, 0, 1)}:
                loop = GrantLoop(model, ids, ids, clock)
                asks.clear()
                slots = loop.servable()
                assert_asks_in_window(model, asks, clock, ids)
                assert_candidates_match(loop, slots)
                assert_jump_matches(loop, loop.next_opening())


def test_equal_rate_peers_go_to_the_lower_id():
    config = default_config(vehicle_count=4)
    per_m = round(1.0 / (config.road.slot_duration * config.road.speed))
    # 1 and 3 are 5 m behind and ahead of 2; 4 is out of range.
    vehicles = hand_built(
        config, [(1, -5 * per_m), (1, 0), (1, 5 * per_m), (1, 100 * per_m)])
    model = PhysicalRateModel(config, vehicles)
    assert model.rate_free(2, 3) == model.rate_free(2, 1) > 0.0
    assert list(model.peers(2))[0] == 3  # the higher id is seen first
    for v_b in ({1, 3, 4}, [3, 1], {3}):
        assert best_first_hop(model, 2, v_b) == oracle_best_first_hop(model, 2, v_b)
    assert best_first_hop(model, 2, {1, 3, 4}) == (2, 1)

    # Table models scan every other id; equal table rates tie the same way.
    table = TableRateModel(config, vehicles, {i: 5 for i in range(1, 5)},
                           {frozenset((3, 4)): 8, frozenset((3, 2)): 8},
                           geometric_coverage=False)
    assert best_first_hop(table, 3, {4, 2, 1}) == (3, 2)
    assert best_first_hop(table, 3, {1}) is None


def test_servable_with_ids_out_of_entry_order():
    """Vehicle 1 enters last: a scan that stopped at the first not-yet-entered
    id would miss 2 and 3."""
    config = default_config(vehicle_count=3)
    model = PhysicalRateModel(config, hand_built(
        config, [(1, 9000), (1, 0), (2, 3000)]))
    for clock in (-1, 0, 2999, 3000, 8999, 9000, 200_000):
        for pool in ({1, 2, 3}, {1}, {2, 3}, set()):
            assert_loop_matches(GrantLoop(model, {1, 2, 3}, pool, clock))
    assert GrantLoop(model, {1, 2, 3}, set(), 3000).entered == {2, 3}


@contextlib.contextmanager
def checked_loops():
    """Check every GrantLoop against the oracles while inside: at each
    servable call, made at every grant boundary, and at each idle jump.
    Yields the counts of both."""
    seen = Counter()
    servable, next_opening = GrantLoop.servable, GrantLoop.next_opening

    def checked_servable(loop):
        slots = servable(loop)
        assert_candidates_match(loop, slots)
        seen["boundaries"] += 1
        return slots

    def checked_next_opening(loop):
        nxt = next_opening(loop)
        assert_jump_matches(loop, nxt)
        seen["jumps"] += 1
        return nxt

    with mock.patch.object(GrantLoop, "servable", checked_servable), \
            mock.patch.object(GrantLoop, "next_opening", checked_next_opening):
        yield seen


def run_both_pickers(model, seed):
    for termination in ("coverage", "literal"):
        for pick in (min_utility, random_pick(np.random.default_rng([seed, 1]))):
            select_v2i_paths(model, termination, pick=pick)


@pytest.mark.parametrize("seed", range(1, 6))
def test_grant_loop_matches_oracles_on_stock_runs(seed):
    """Proposed's and random's pickers under both termination rules."""
    config = stock_config()
    model = PhysicalRateModel(config, spawn_vehicles(config, seed))
    with checked_loops() as seen:
        run_both_pickers(model, seed)
    assert seen["boundaries"] > 100 and seen["jumps"] > 100


@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_grant_loop_matches_oracles_on_hand_built_populations(data):
    """Ids out of entry order, co-located vehicles and shared entry slots."""
    model = drawn_model(data, 400)
    with checked_loops() as seen:
        run_both_pickers(model, 1)
    assert seen["boundaries"] and seen["jumps"]
