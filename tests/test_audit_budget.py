"""The audit's own V2V link budget (audit.V2VBudget).

The audit replays each pairing's SINRs on arithmetic it owns, re-summing
only the receivers a finish touched. These tests hold that replay to the
scalar reference in `radio`, to the rate model's from-scratch replay on real
pairings, and to the runs whose vehicles co-locate.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from v2xcast.audit import REL_GUARD, V2VBudget, _replay_pairing, audit
from v2xcast.baselines import run_scheme
from v2xcast.geometry import distance, position
from v2xcast.harness import run_scenario
from v2xcast.radio import ConcurrentSet, DirectionalLink, v2v_sinr
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.vehicles import spawn_vehicles
from instances import default_config, default_radio
from test_golden import LADDER, stock_config

CHECKS = ("coverage", "v2i_qos", "rsu_serial", "v2i_delivery", "source_once",
          "precedence", "two_hop", "v2v_delivery", "totals")


def _both_replays(config, vehicles, result):
    """Each pairing's replay on the audit's budget and through a physical
    rate model, as ((delivered, weak), (delivered, weak))."""
    budget = V2VBudget(config, vehicles)
    model = PhysicalRateModel(config, vehicles)
    strict = result.strict_causality
    for pairing in result.v2v.pairings:
        yield (_replay_pairing(pairing, budget, strict),
               _replay_pairing(pairing, model, strict))


def _assert_agree(own, reference):
    (got, weak), (want, weak_ref) = own, reference
    assert (weak is None) == (weak_ref is None)
    if weak is not None:
        assert weak[0::2] == weak_ref[0::2]
        assert weak[1] == pytest.approx(weak_ref[1], rel=REL_GUARD)
    assert list(got) == list(want)
    for link, bits in want.items():
        if math.isfinite(bits):
            assert got[link] == pytest.approx(bits, rel=REL_GUARD, abs=0.0)
        else:
            assert got[link] == bits


@pytest.mark.parametrize("strict", [False, True])
def test_own_budget_replay_agrees_with_the_rate_model(strict):
    """On real pairings (stock seeds 1-20 and the 400-vehicle ladder rung,
    proposed, fcfs and random) the audit's budget and the rate model's
    from-scratch link_sinrs give the same weak result and every delivered
    value within REL_GUARD."""
    runs = [({}, seed) for seed in range(1, 21)] + [(LADDER, 1)]
    pairings = 0
    for overrides, seed in runs:
        config = stock_config(**overrides)
        vehicles = spawn_vehicles(config, seed)
        for scheme in ("proposed", "fcfs", "random"):
            result = run_scheme(scheme, PhysicalRateModel(config, vehicles),
                                seed, strict)
            for own, reference in _both_replays(config, vehicles, result):
                _assert_agree(own, reference)
                pairings += 1
    assert pairings >= 60


@pytest.mark.parametrize("strict", [False, True])
def test_a_link_traced_at_zero_slots_never_goes_on_the_air(strict):
    """A link whose traced span is 0 is never active: it interferes with no
    receiver and makes no relay, on the budget as in the rate model."""
    config = stock_config()
    vehicles = spawn_vehicles(config, 3)
    result = run_scheme("proposed", PhysicalRateModel(config, vehicles), 3, strict)
    pairing = result.v2v.pairings[0]
    budget, model = V2VBudget(config, vehicles), PhysicalRateModel(config, vehicles)
    for k in range(len(pairing.links)):
        links = list(pairing.links)
        links[k] = dataclasses.replace(links[k], slots=0)
        cut = dataclasses.replace(pairing, links=tuple(links))
        _assert_agree(_replay_pairing(cut, budget, strict),
                      _replay_pairing(cut, model, strict))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lanes=st.integers(1, 5), arrival=st.floats(5.0, 60.0),
       count=st.integers(2, 12), v2v_range=st.floats(4.0, 40.0),
       seed=st.integers(1, 10_000), data=st.data())
def test_budget_matches_scalar_radio_as_links_finish(lanes, arrival, count,
                                                     v2v_range, seed, data):
    """A random concurrent set with relay chains and stray links: the
    budget's SINR of every link still on the air matches radio.v2v_sinr of
    that set, at the start and after each batch of finishes."""
    config = default_config(lane_count=lanes, arrival_rate=arrival,
                            vehicle_count=count)
    config = dataclasses.replace(config, radio=default_radio(v2v_range=v2v_range))
    vehicles = spawn_vehicles(config, seed)
    slots = [(v.entry_slot, v.lane) for v in vehicles]
    assume(len(set(slots)) == len(slots))  # radio.alignment_angle raises on co-location
    t = max(v.entry_slot for v in vehicles)
    pos = {v.id: position(v, t, config, midpoint=True) for v in vehicles}
    ids = list(pos)
    assume(all(abs(distance(pos[i], pos[j]) - v2v_range) > 1e-9 * v2v_range
               for i in ids for j in ids if i < j))  # rounding decides ties

    order = data.draw(st.permutations(ids))
    links, k = [], 0
    while k + 1 < len(order):
        hops = data.draw(st.integers(1, 2))
        chain = order[k:k + hops + 1]
        links += list(zip(chain, chain[1:]))
        k += hops + 1
    for _ in range(data.draw(st.integers(0, 3))):
        tx, rx = data.draw(st.lists(st.sampled_from(ids), min_size=2,
                                    max_size=2, unique=True))
        if (tx, rx) not in links:
            links.append((tx, rx))
    links = data.draw(st.permutations(links))

    phase = V2VBudget(config, vehicles).phases(links)
    active = list(range(len(links)))
    finished: list[int] = []
    while active:
        sinrs, rates = phase(np.array(active, dtype=np.int64),
                             np.array(finished, dtype=np.int64))
        cset = ConcurrentSet(tuple(DirectionalLink(links[m][0], links[m][1],
                                                   pos[links[m][0]], pos[links[m][1]])
                                   for m in active))
        for link, s, r in zip(cset.links, sinrs, rates):
            want = v2v_sinr(link, cset, config.radio)
            assert s == pytest.approx(want, rel=1e-9)
            assert (r > 0.0) == (want > 0.0)
        cut = data.draw(st.integers(1, len(active)))
        finished = data.draw(st.permutations(active))[:cut]
        active = [m for m in active if m not in finished]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("seed", [113, 195])
@pytest.mark.parametrize("scheme", ["proposed", "random"])
@pytest.mark.parametrize("strict", [False, True])
def test_co_located_runs_audit_as_before(seed, scheme, strict):
    """Stock seeds 113 and 195 spawn vehicles in the same lane and slot;
    most of these runs pair two of them on a one-slot link that delivers
    infinite bits. The audit passes every run with every check named,
    raises no numpy warning, and its budget agrees with the rate model on
    every pairing, infinities included."""
    result, _, report = run_scenario(stock_config(), seed, scheme,
                                     strict_causality=strict, with_audit=True)
    assert report.ok
    assert str(report) == "\n".join(f"PASS {name}" for name in CHECKS)
    config = stock_config()
    vehicles = spawn_vehicles(config, seed)
    for own, reference in _both_replays(config, vehicles, result):
        _assert_agree(own, reference)


def test_default_audit_does_not_call_link_sinrs(monkeypatch):
    """With no model given, the V2V replay runs on the audit's budget: the
    scheduler's from-scratch reference is never consulted."""
    config = stock_config(**LADDER)
    vehicles = spawn_vehicles(config, 1)
    result = run_scheme("proposed", PhysicalRateModel(config, vehicles), 1)
    assert max(len(p.links) for p in result.v2v.pairings) > 100

    def refuse(self, links):
        raise AssertionError("link_sinrs called")

    monkeypatch.setattr(PhysicalRateModel, "link_sinrs", refuse)
    assert audit(result, config, vehicles).ok
