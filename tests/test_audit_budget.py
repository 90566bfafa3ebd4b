"""The audit's own arithmetic: its V2V link budget (audit.V2VBudget), and
the V2I rate memo its AuditRateModel keeps apart from the scheduler's.

The audit replays each pairing's SINRs on arithmetic it owns, summing every
phase from the pairing's term table. These tests hold the budget to the
scalar reference in `reference` and to the scheduler's rate model on real runs,
and the V2V replay to the runs whose vehicles co-locate.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from v2xcast.audit import (REL_GUARD, AuditRateModel, CheckResult, V2VBudget,
                           _check_coverage_and_qos, _granted_slots, _replay_pairing,
                           audit)
from v2xcast.baselines import SchemeResult, run_scheme
from v2xcast.harness import run_scenario
from v2xcast import ratemodel
from v2xcast.ratemodel import PhysicalRateModel, RateModel
from v2xcast.v2i import Grant, V2ISelection
from v2xcast.v2v import V2VSchedule
from v2xcast.vehicles import spawn_vehicles
from instances import default_config, default_radio
from reference import (ConcurrentSet, DirectionalLink, distance, distance_to_rsu,
                       position, v2i_snr, v2v_sinr)
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
    phases give the same weak result and every delivered value within
    REL_GUARD."""
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
    """A random concurrent set with relay chains and stray links: asked
    one row at a time, the budget's SINR of every link still on the air
    matches reference.v2v_sinr of that set, at the start and after each
    batch of finishes, and every link off the air has rate 0."""
    config = default_config(lane_count=lanes, arrival_rate=arrival,
                            vehicle_count=count)
    config = dataclasses.replace(config, radio=default_radio(v2v_range=v2v_range))
    vehicles = spawn_vehicles(config, seed)
    slots = [(v.entry_slot, v.lane) for v in vehicles]
    assume(len(set(slots)) == len(slots))  # alignment_angle raises on co-location
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

    rows = V2VBudget(config, vehicles).phase_rows(links)
    active = list(range(len(links)))
    finished: list[int] = []
    while active:
        on = np.zeros((1, len(links)), dtype=bool)
        on[0, active] = True
        sinrs, rates = rows(on)
        assert not rates[~on].any()
        sinrs, rates = sinrs[0, active], rates[0, active]
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


def test_phase_source_depends_only_on_the_active_set():
    """On a real 400-vehicle pairing, one row source asked about active
    sets that shrink, then grow back and repeat, one row at a time, gives
    each set, bit for bit, what a fresh source gives it, and what the same
    sets stacked into one block give their rows, and within REL_GUARD what
    the rate model gives it from scratch."""
    config = stock_config(**LADDER)
    vehicles = spawn_vehicles(config, 1)
    result = run_scheme("proposed", PhysicalRateModel(config, vehicles), 1)
    pairing = max(result.v2v.pairings, key=lambda p: len(p.links))
    links = [(l.tx, l.rx) for l in pairing.links]
    n = len(links)
    assert n > 100
    budget = V2VBudget(config, vehicles)
    rows = budget.phase_rows(links)
    reference = RateModel.phases(PhysicalRateModel(config, vehicles), links)
    order = np.random.default_rng(1).permutation(n)
    shrinking = [np.sort(order[k:]) for k in (0, n // 4, n // 2, n - 3)]
    sets = shrinking + [shrinking[1], shrinking[1], shrinking[-1]]
    block = np.zeros((len(sets), n), dtype=bool)
    for r, active in enumerate(sets):
        block[r, active] = True
    block_sinrs, block_rates = rows(block)
    for r, active in enumerate(sets):
        sinrs, rates = (a[0, active] for a in rows(block[r:r + 1]))
        fresh_sinrs, fresh_rates = (a[0, active] for a in
                                    budget.phase_rows(links)(block[r:r + 1]))
        assert sinrs.tolist() == fresh_sinrs.tolist()
        assert rates.tolist() == fresh_rates.tolist()
        assert sinrs.tolist() == block_sinrs[r, active].tolist()
        assert rates.tolist() == block_rates[r, active].tolist()
        want_sinrs, want_rates = reference(active)
        assert sinrs.tolist() == pytest.approx(want_sinrs.tolist(), rel=REL_GUARD)
        assert rates.tolist() == pytest.approx(want_rates.tolist(), rel=REL_GUARD)


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
    scheduler's link_sinrs is never consulted."""
    config = stock_config(**LADDER)
    vehicles = spawn_vehicles(config, 1)
    result = run_scheme("proposed", PhysicalRateModel(config, vehicles), 1)
    assert max(len(p.links) for p in result.v2v.pairings) > 100

    def refuse(self, links):
        raise AssertionError("link_sinrs called")

    monkeypatch.setattr(PhysicalRateModel, "link_sinrs", refuse)
    assert audit(result, config, vehicles).ok


@pytest.mark.parametrize("scheme", ["serial-tdma", "noncoop"])
def test_default_audit_builds_no_budget_without_a_pairing(monkeypatch, scheme):
    """serial-tdma and noncoop form no pairing, so the default audit passes
    them with every check named and never builds its V2VBudget."""
    config = stock_config()
    vehicles = spawn_vehicles(config, 1)
    result = run_scheme(scheme, PhysicalRateModel(config, vehicles), 1)
    assert not result.v2v.pairings

    def refuse(self, config, vehicles):
        raise AssertionError("V2VBudget built")

    monkeypatch.setattr(V2VBudget, "__init__", refuse)
    report = audit(result, config, vehicles)
    assert str(report) == "\n".join(f"PASS {name}" for name in CHECKS)


@pytest.mark.parametrize("mode", ["midpoint", "quadrature"])
def test_audit_carries_a_v2i_memo_apart_from_the_schedulers(mode):
    """The audit's model reads none of the scheduler's rate arrays, though
    they hold the same rates, and the next audit of an equal config (a new
    object) reads the blocks the last audit's model holds; the next
    scheduler's model reads the last scheduler's, not the audit's."""
    config = stock_config()
    vehicles = spawn_vehicles(config, 2)
    scheduler = PhysicalRateModel(config, vehicles, rate_mode=mode)
    result = run_scheme("proposed", scheduler, 2)
    assert audit(result, config, vehicles).ok
    held = dict(ratemodel._carries[AuditRateModel].blocks)
    assert held
    for key, rates in held.items():
        assert not any(rates is other for other in scheduler._blocks.values())
        if key in scheduler._blocks:
            assert np.array_equal(rates, scheduler._blocks[key])

    again = stock_config()
    assert again is not config
    assert audit(result, again, vehicles).ok
    blocks = ratemodel._carries[AuditRateModel].blocks
    assert blocks and all(rates is held[key] for key, rates in blocks.items())
    following = PhysicalRateModel(again, vehicles, rate_mode=mode)
    assert following._memo is ratemodel._carries[PhysicalRateModel]
    assert all(following._block(*key) is rates for key, rates in scheduler._blocks.items())


def _scalar_coverage_and_qos(grants, config, vehicles):
    """The coverage and V2I QoS checks grant by grant, on the scalar
    functions of tests/reference.py: the reference for the audit's arrays."""
    limit = config.radio.rsu_range * (1.0 + REL_GUARD)
    floor = config.radio.sinr_threshold * (1.0 - REL_GUARD)
    by_id = {v.id: v for v in vehicles}
    coverage = qos = None
    for grant in grants:
        if grant.n_slots == 0:
            continue
        v = by_id[grant.vehicle]
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
    return (coverage or CheckResult("coverage", True),
            qos or CheckResult("v2i_qos", True))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(threshold_m=st.floats(50.0, 199.0), rsu_m=st.floats(0.0, 600.0),
       seed=st.integers(1, 1000),
       grants=st.lists(st.tuples(
        st.integers(1, 20),
        st.one_of(st.integers(-3000, -1), st.integers(0, 360_000),
                  st.integers(140_000, 260_000)),
        st.one_of(st.integers(0, 3), st.integers(0, 120_000))), max_size=12))
def test_coverage_and_qos_match_the_scalar_checks(threshold_m, rsu_m, seed,
                                                  grants):
    """Grants anywhere on the road, before entry included, of any length,
    with the RSU anywhere from the road's entry (where a grant before entry
    can be in range) to 600 m along it (coverage then spans offsets of
    about 200,000 to 400,000 slots from entry): both checks give the pass,
    the first failing grant and the detail text of the grant-by-grant
    scalar checks, with the vehicles listed in id order and reversed."""
    config = stock_config(rsu_longitudinal_m=rsu_m)
    config = dataclasses.replace(config, radio=dataclasses.replace(
        config.radio, sinr_threshold=v2i_snr(threshold_m, config.radio)))
    vehicles = spawn_vehicles(stock_config(vehicle_count=20), seed)
    grants = tuple(Grant(vid, vehicles[vid - 1].entry_slot + k, n)
                   for vid, k, n in grants)
    result = SchemeResult("proposed", seed,
                          V2ISelection(grants, 0, (), (), (), False),
                          V2VSchedule((), 0, ()), frozenset(), frozenset(),
                          "midpoint", False)
    for listed in (vehicles, vehicles[::-1]):
        assert (_check_coverage_and_qos(_granted_slots(result), config, listed)
                == _scalar_coverage_and_qos(grants, config, listed))
