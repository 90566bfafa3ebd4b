"""The audit's V2V replay, ROWS phases at a time (audit._replay_pairing),
against its reference walk one phase at a time
(reference.replay_pairing_by_phase): the same delivered dict and weak
tuple, float for float, on the audit's own V2VBudget and on table rate
models through the derived RateModel.phase_rows.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from v2xcast.audit import ROWS, V2VBudget, _replay_pairing, audit
from v2xcast.baselines import SchemeResult, run_scheme
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.v2i import V2ISelection
from v2xcast.v2v import LinkSchedule, Pairing, V2VSchedule
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import (CrowdedTableRateModel, TableRateModel, default_config,
                       six_vehicle_instance)
from reference import replay_pairing_by_phase
from test_golden import LADDER, stock_config

RSU = {"vehicle_count": 1600, "horizon_slots": 16_000_000}


def _assert_same(pairing, model, strict):
    """Block replay and reference agree bit for bit: repr prints every float
    exactly, infinities and NaNs included, and the dicts in trace order."""
    got = _replay_pairing(pairing, model, strict)
    want = replay_pairing_by_phase(pairing, model, strict)
    assert repr(got) == repr(want)
    return got


def _replay_runs(runs, schemes, strict):
    """Replay every pairing of every (overrides, seed) run of `schemes` on
    the run's own V2VBudget; the number of pairings replayed."""
    pairings = 0
    for overrides, seed in runs:
        config = stock_config(**overrides)
        vehicles = spawn_vehicles(config, seed)
        budget = V2VBudget(config, vehicles)
        for scheme in schemes:
            result = run_scheme(scheme, PhysicalRateModel(config, vehicles),
                                seed, strict)
            for pairing in result.v2v.pairings:
                _assert_same(pairing, budget, strict)
                pairings += 1
    return pairings


@pytest.mark.parametrize("strict", [False, True])
def test_block_replay_matches_reference_on_stock_runs(strict):
    """Stock seeds 1-20, proposed, fcfs and random."""
    runs = [({}, seed) for seed in range(1, 21)]
    assert _replay_runs(runs, ("proposed", "fcfs", "random"), strict) >= 60


@pytest.mark.parametrize("strict", [False, True])
def test_block_replay_matches_reference_on_the_ladder(strict):
    """The 400-vehicle rung, seeds 1-2: pairings of ~180 links, so
    about a dozen row blocks each."""
    runs = [(LADDER, seed) for seed in (1, 2)]
    assert _replay_runs(runs, ("proposed", "fcfs", "random"), strict) >= 6


def test_block_replay_matches_reference_on_the_largest_pairing():
    """The 727-link proposed pairing at 1,600 vehicles, seed 1, replayed
    relaxed and under strict causality."""
    config = stock_config(**RSU)
    vehicles = spawn_vehicles(config, 1)
    result = run_scheme("proposed", PhysicalRateModel(config, vehicles), 1)
    pairing = max(result.v2v.pairings, key=lambda p: len(p.links))
    assert len(pairing.links) == 727
    budget = V2VBudget(config, vehicles)
    for strict in (False, True):
        delivered, weak = _assert_same(pairing, budget, strict)
        assert weak is None


def test_a_raised_threshold_fails_in_the_first_phase():
    """Interference only falls as links finish, so a budget's SINRs never
    drop from one phase to the next and its first weak phase is the first:
    raised to a real pairing's median first-phase SINR, the threshold
    fails a link at slot 0 with nothing delivered, as in the reference."""
    config = stock_config(**LADDER)
    vehicles = spawn_vehicles(config, 1)
    result = run_scheme("proposed", PhysicalRateModel(config, vehicles), 1)
    pairing = max(result.v2v.pairings, key=lambda p: len(p.links))
    budget = V2VBudget(config, vehicles)
    on = np.array([[l.slots > 0 for l in pairing.links]])
    sinrs, _ = budget.phase_rows([(l.tx, l.rx) for l in pairing.links])(on)
    budget.sinr_threshold = float(np.median(sinrs[on]))
    for strict in (False, True):
        delivered, weak = _assert_same(pairing, budget, strict)
        assert weak is not None and weak[2] == 0
        assert not any(delivered.values())


class DippingTableRateModel(TableRateModel):
    """Table rates whose link from `dip_tx` falls to half the SINR
    threshold while exactly `dip_count` links are on the air."""

    dip_tx, dip_count = 0, 0

    def link_sinrs(self, links):
        return [s / 2 if tx == self.dip_tx and len(links) == self.dip_count else s
                for (tx, _), s in zip(links, super().link_sinrs(links))]


def _pairs_table(table, n, slots_of):
    """`table` over n disjoint links 2k-1 -> 2k, k = 1..n, the k-th at
    slots_of(k) rate slots, and every vehicle at one point."""
    config = default_config(vehicle_count=2 * n)
    vehicles = [VehicleState(i, 1, 0) for i in range(1, 2 * n + 1)]
    pairs = {frozenset((2 * k - 1, 2 * k)): slots_of(k) for k in range(1, n + 1)}
    return table(config, vehicles, {i: 2 for i in range(1, 2 * n + 1)}, pairs,
                 geometric_coverage=False)


@pytest.mark.parametrize("phase", [1, ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 3])
@pytest.mark.parametrize("strict", [False, True])
def test_a_weak_phase_past_the_first_row_block(phase, strict):
    """Forty links traced at 100, 200, ... 4,000 slots make forty phases;
    the last link's SINR dips below the threshold in phase `phase` alone
    (0-based), at rows on either side of a block edge. The replay reports
    that link at the slot the phase starts after, with the bits delivered
    before it, as the reference does."""
    n = 40
    model = _pairs_table(DippingTableRateModel, n, lambda k: 500 + 37 * k)
    model.dip_tx, model.dip_count = 2 * n - 1, n - phase
    pairing = Pairing(1, 0, tuple(LinkSchedule(2 * k - 1, 2 * k, False, 100 * k, 0.0)
                                  for k in range(1, n + 1)), 100 * n)
    delivered, weak = _assert_same(pairing, model, strict)
    assert weak == ((2 * n - 1, 2 * n), model.sinr_threshold / 2, 100 * phase)
    assert delivered[(1, 2)] == (model.rate_free(1, 2) * model.slot_duration * 100
                                 if phase else 0.0)


_HOP = st.tuples(st.integers(1, 3000), st.integers(1, 3000))  # (rate slots, traced)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chains=st.lists(st.lists(_HOP, min_size=1, max_size=3), min_size=1,
                       max_size=12),
       crowded=st.booleans(), strict=st.booleans(), data=st.data())
def test_block_replay_matches_reference_on_table_chains(chains, crowded,
                                                        strict, data):
    """Random chains of one to three hops, in any order, on table and
    crowded table rates (whose rates rise as links finish) through the
    derived phase_rows: up to 36 links with unrelated traced spans, so up
    to three row blocks, and under strict causality hops whose feeder is
    itself a hop."""
    n = 4 * len(chains)
    config = default_config(vehicle_count=n)
    vehicles = [VehicleState(i, 1, 0) for i in range(1, n + 1)]
    pairs, links = {}, []
    for k, chain in enumerate(chains):
        for h, (rate_slots, traced) in enumerate(chain):
            a = 4 * k + 1 + h
            pairs[frozenset((a, a + 1))] = rate_slots
            links.append(LinkSchedule(a, a + 1, h > 0, traced, 0.0))
    links = data.draw(st.permutations(links))
    table = CrowdedTableRateModel if crowded else TableRateModel
    model = table(config, vehicles, {i: 2 for i in range(1, n + 1)}, pairs,
                  geometric_coverage=False)
    pairing = Pairing(1, 0, tuple(links), max(l.slots for l in links))
    _assert_same(pairing, model, strict)


def test_a_three_hop_chain_on_the_budget():
    """A real strict 400-vehicle pairing with one relay chain a -> b -> c
    extended by a third hop c -> d to a vehicle in range, traced three
    times as long as the pairing: the replay caps d at what c received,
    which is itself capped at what b received, as the reference does."""
    config = stock_config(**LADDER)
    vehicles = spawn_vehicles(config, 1)
    result = run_scheme("proposed", PhysicalRateModel(config, vehicles), 1, True)
    budget = V2VBudget(config, vehicles)
    budget.sinr_threshold = 0.0  # replay every phase
    pairing = max(result.v2v.pairings, key=lambda p: len(p.links))
    rxs = {l.rx: l for l in pairing.links}
    hop = next(l for l in pairing.links if l.tx in rxs)
    nodes = {v for l in pairing.links for v in (l.tx, l.rx)}
    c = np.array([hop.rx])
    d = next(v.id for v in vehicles if v.id not in nodes
             and budget.desired(c, np.array([v.id]))[0] > 0.0)
    third = LinkSchedule(hop.rx, d, True, 3 * pairing.duration, 0.0)
    longer = dataclasses.replace(pairing, links=pairing.links + (third,))
    strict, weak = _assert_same(longer, budget, True)
    assert weak is None
    relaxed, _ = _assert_same(longer, budget, False)
    assert strict[(hop.rx, d)] == strict[(hop.tx, hop.rx)] < relaxed[(hop.rx, d)]


@pytest.mark.parametrize("crowded", [False, True])
@pytest.mark.parametrize("strict", [False, True])
def test_table_runs_replay_through_the_derived_rows(crowded, strict):
    """The six-vehicle instance scheduled on table and crowded table
    rates: each pairing replays as in the reference, and the audit
    passes."""
    config, vehicles, model = six_vehicle_instance()
    if crowded:
        model = CrowdedTableRateModel(config, vehicles, model._v2i_slots,
                                      model._pair_slots)
    result = run_scheme("proposed", model, 0, strict)
    assert result.v2v.pairings
    for pairing in result.v2v.pairings:
        assert _assert_same(pairing, model, strict)[1] is None
    assert audit(result, config, vehicles, model=model).ok


def test_a_duplicated_link_replays_each_copy_over_its_own_slots():
    """A trace listing link 1 -> 2 twice, at 3,000 and at 500 slots, with
    3 -> 4 between them, on crowded table rates: the replay keeps the first
    copy on the air for its own 3,000 slots, so 3 -> 4 gets exactly the bits
    it gets beside a distinct link 7 -> 8 of the same rates there, and the
    delivered dict holds the last copy's bits. source_once fails the
    trace."""
    model = _pairs_table(CrowdedTableRateModel, 4, lambda k: 1000)
    dup = (LinkSchedule(1, 2, False, 3000, 0.0), LinkSchedule(3, 4, False, 2000, 0.0),
           LinkSchedule(1, 2, False, 500, 0.0))
    distinct = (LinkSchedule(7, 8, False, 3000, 0.0),) + dup[1:]
    got, weak = _replay_pairing(Pairing(1, 0, dup, 3000), model, False)
    want, _ = _replay_pairing(Pairing(1, 0, distinct, 3000), model, False)
    assert weak is None
    assert list(got) == [(1, 2), (3, 4)]
    assert got[(3, 4)] == want[(3, 4)] and got[(1, 2)] == want[(1, 2)]
    short, _ = _replay_pairing(Pairing(1, 0, tuple(dataclasses.replace(l, slots=500)
                                                   if l.tx == 1 else l for l in dup),
                                       2000), model, False)
    assert short[(3, 4)] > got[(3, 4)]

    sel = V2ISelection((), 0, (1, 3), (2, 4), (), False)
    res = SchemeResult("proposed", 0, sel, V2VSchedule((Pairing(1, 0, dup, 3000),), 3000, ()),
                       frozenset({1, 2, 3, 4}), frozenset(range(5, 9)),
                       "midpoint", False)
    report = audit(res, model.config, [VehicleState(i, 1, 0) for i in range(1, 9)],
                   model=model)
    check = next(c for c in report.checks if c.name == "source_once")
    assert not check.ok and check.detail == "vehicle 1 sources twice"
