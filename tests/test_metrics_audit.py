import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from v2xcast.audit import REL_GUARD, _replay_pairing, audit
from v2xcast.baselines import SchemeResult, run_scheme
from v2xcast.metrics import build_report, energy, system_throughput
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.v2i import Grant, V2ISelection
from v2xcast.v2v import LinkSchedule, Pairing, V2VSchedule, run_pairing
from v2xcast.vehicles import VehicleState, spawn_vehicles
from test_golden import STRICT_OVERRUN, stock_config
from instances import (CrowdedTableRateModel, TableRateModel, default_config,
                       six_vehicle_instance)
from reference import v2i_snr


def _fabricated(config, t_v2i, t_v2v, served, total, grants=(), pairings=()):
    ids = frozenset(range(1, total + 1))
    served = frozenset(served)
    sel = V2ISelection(tuple(grants), t_v2i, tuple(sorted(served)),
                       tuple(sorted(ids - served)), (), False)
    v2v = V2VSchedule(tuple(pairings), t_v2v, tuple(sorted(ids - served)))
    return SchemeResult("proposed", 0, sel, v2v, served, ids - served,
                        "midpoint", False)


def test_throughput_arithmetic():
    config = default_config(vehicle_count=100)
    res = _fabricated(config, 1_000_000, 0, range(1, 101), 100)
    assert system_throughput(res, config) == pytest.approx(3e9)
    half = _fabricated(config, 500_000, 0, range(1, 101), 100)
    assert system_throughput(half, config) == pytest.approx(6e9)


def test_throughput_partial_and_degenerate():
    config = default_config(vehicle_count=100)
    none_served = _fabricated(config, 1000, 0, (), 100)
    assert system_throughput(none_served, config) == 0.0
    assert build_report(none_served, config).partial_service
    zero_slot = _fabricated(config, 0, 0, (), 100)
    assert system_throughput(zero_slot, config) == 0.0


def test_energy_v2i_only_and_flow_term():
    config = default_config()
    v2i_only = _fabricated(config, 10_000, 0, range(1, 101), 100)
    assert energy(v2i_only, config) == pytest.approx(10_000 * 1e-4 * 1.0)
    flow = Pairing(1, 10_000, (LinkSchedule(1, 2, False, 2084, 3e9),), 2084)
    with_flow = _fabricated(config, 10_000, 2084, range(1, 101), 100,
                            pairings=(flow,))
    assert energy(with_flow, config) == pytest.approx(
        10_000 * 1e-4 * 1.0 + 2084 * 1e-4 * 0.1)
    assert 2084 * 1e-4 * 0.1 == pytest.approx(0.02084)


def test_energy_airtime_equals_effective_rate_book_keeping():
    # Per-flow airtime m*dt equals D/R_eff with R_eff = D/(m*dt): the energy
    # charge is exactly the content over the flow's effective rate.
    config = default_config()
    m, dt, d = 2084, config.road.slot_duration, config.road.content_size
    r_eff = d / (m * dt)
    assert m * dt == pytest.approx(d / r_eff, rel=1e-12)


def test_reference_instance_audit_clean():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    report = audit(res, config, vehicles, model=model)
    assert report.ok, str(report)


def test_audit_flags_out_of_coverage_grant():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    bad_grant = dataclasses.replace(res.selection.grants[0], start_slot=-400_000)
    sel = dataclasses.replace(res.selection,
                              grants=(bad_grant,) + res.selection.grants[1:])
    bad = dataclasses.replace(res, selection=sel)
    report = audit(bad, config, vehicles, model=model)
    fails = {c.name for c in report.failures()}
    assert "coverage" in fails
    detail = next(c.detail for c in report.failures() if c.name == "coverage")
    assert "slot" in detail


def test_audit_coverage_and_qos_each_name_their_first_failure():
    """The two checks share each grant's edge distances, and each still
    names the first grant that fails it. Grant 1 is in range but, under a
    threshold met only within 120 m, below it; grant 2 is out of range."""
    config, vehicles, model = six_vehicle_instance()
    strict = dataclasses.replace(config, radio=dataclasses.replace(
        config.radio, sinr_threshold=v2i_snr(120.0, config.radio)))
    res = run_scheme("proposed", model, seed=0)
    step = config.road.slot_duration * config.road.speed

    def past_rsu(vid, metres):
        return vehicles[vid - 1].entry_slot + round(
            (config.road.rsu_longitudinal + metres) / step)

    early = Grant(3, vehicles[2].entry_slot - 10, 3)
    cases = [
        ((Grant(1, past_rsu(1, 150), 3), Grant(2, past_rsu(2, 300), 3), early),
         "vehicle 2 granted at slot 75000 at distance 300.545 m",
         "vehicle 1 below threshold at distance 151.081 m"),
        ((Grant(1, past_rsu(1, 150), 0), Grant(4, past_rsu(4, 0), 3), early,
          Grant(2, past_rsu(2, 300), 3)),
         "vehicle 3 granted at slot -323010 before road entry",
         "vehicle 3 granted before road entry"),
    ]
    for grants, coverage, qos in cases:
        sel = dataclasses.replace(res.selection, grants=grants)
        report = audit(dataclasses.replace(res, selection=sel), strict, vehicles,
                       model=model)
        details = {c.name: c.detail for c in report.failures()}
        assert (details["coverage"], details["v2i_qos"]) == (coverage, qos)


def test_audit_flags_double_source():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    extra = Pairing(2, 9, (LinkSchedule(1, 4, False, 6, 3.1e9),), 6)
    v2v = dataclasses.replace(res.v2v, pairings=res.v2v.pairings + (extra,),
                              t_v2v=res.v2v.t_v2v + 6)
    bad = dataclasses.replace(res, v2v=v2v)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "source_once" for c in report.failures())


def test_audit_flags_missing_precedence():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    rogue = Pairing(1, 5, (LinkSchedule(4, 2, False, 4, 3.1e9),), 4)
    v2v = V2VSchedule((rogue,), 4, ())
    served = frozenset({1, 3, 2})
    bad = SchemeResult("proposed", 0, res.selection, v2v, served,
                       frozenset(model.ids) - served, "midpoint", False)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "precedence" for c in report.failures())


def test_audit_flags_three_hop_chain():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    chain3 = Pairing(1, 5, (
        LinkSchedule(1, 2, False, 4, 3.1e9),
        LinkSchedule(2, 4, True, 4, 3.1e9),
        LinkSchedule(4, 6, True, 6, 3.1e9),
    ), 6)
    v2v = V2VSchedule((chain3,), 6, ())
    bad = dataclasses.replace(res, v2v=v2v)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "two_hop" for c in report.failures())


def test_audit_flags_relay_cycle_beside_a_chain():
    # 4 and 6 relay to each other while 1 -> 2 is a proper chain: neither 4
    # nor 6 ever had the content, so the pairing is cyclic.
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    cycle = Pairing(1, 5, (
        LinkSchedule(1, 2, False, 4, 3.1e9),
        LinkSchedule(4, 6, False, 4, 3.1e9),
        LinkSchedule(6, 4, True, 4, 3.1e9),
    ), 4)
    bad = dataclasses.replace(res, v2v=V2VSchedule((cycle,), 4, ()))
    report = audit(bad, config, vehicles, model=model)
    two_hop = [c for c in report.failures() if c.name == "two_hop"]
    assert two_hop and "cyclic" in two_hop[0].detail


def test_audit_flags_totals_mismatch():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    sel = dataclasses.replace(res.selection, t_v2i=99)
    bad = dataclasses.replace(res, selection=sel)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "totals" for c in report.failures())


def test_audit_recounts_who_was_served():
    # The strict overrun leaves 53 vehicles unserved. Relabelled as served,
    # nobody granted or received anything for them, and the reported
    # throughput would double; only the recount in totals can tell.
    config = stock_config(**STRICT_OVERRUN)
    vehicles = spawn_vehicles(config, 1)
    res = run_scheme("proposed", PhysicalRateModel(config, vehicles), 1,
                     strict_causality=True)
    assert len(res.unserved) == 53
    forged = dataclasses.replace(res, served=res.served | res.unserved,
                                 unserved=frozenset())
    assert system_throughput(forged, config) == pytest.approx(2.737e10, rel=1e-3)
    fails = {c.name: c.detail for c in audit(forged, config, vehicles).failures()}
    assert fails == {"totals": f"vehicle {min(res.unserved)} served but "
                               f"neither granted nor a receiver"}
    overlap = dataclasses.replace(res, served=res.served | res.unserved)
    fails = {c.name: c.detail for c in audit(overlap, config, vehicles).failures()}
    assert fails == {"totals": "served and unserved do not partition the "
                               "vehicle ids"}


def test_audit_flags_a_receiver_listed_unserved():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    rx = res.v2v.pairings[0].links[0].rx
    moved = dataclasses.replace(res, served=res.served - {rx},
                                unserved=res.unserved | {rx})
    fails = {c.name: c.detail
             for c in audit(moved, config, vehicles, model=model).failures()}
    assert fails == {"totals": f"vehicle {rx} received but is listed unserved"}


def test_audit_flags_v2i_delivery_shortfall():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    short = dataclasses.replace(res.selection.grants[0], n_slots=1)
    sel = dataclasses.replace(
        res.selection, grants=(short,) + res.selection.grants[1:], t_v2i=4)
    bad = dataclasses.replace(res, selection=sel)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "v2i_delivery" for c in report.failures())


@pytest.fixture(scope="module")
def stock_serial_tdma():
    config = stock_config()
    vehicles = spawn_vehicles(config, 1)
    return config, vehicles, run_scheme(
        "serial-tdma", PhysicalRateModel(config, vehicles), 1)


@pytest.mark.parametrize("fault, failures", [
    (lambda g: [dataclasses.replace(g, start_slot=-400_000)],
     [("coverage", "vehicle 1 granted at slot -400000 before road entry"),
      ("v2i_qos", "vehicle 1 granted before road entry"),
      ("v2i_delivery", "vehicle 1 delivered 0.000e+00 of 3.000e+09 bits")]),
    (lambda g: [dataclasses.replace(g, n_slots=g.n_slots - 1)],
     [("v2i_delivery", "vehicle 1 delivered 2.999e+09 of 3.000e+09 bits"),
      ("totals", "t_v2i recount 232830 != reported 232831")]),
    (lambda g: [dataclasses.replace(g, start_slot=g.start_slot + 10_000_000)],
     [("coverage", "vehicle 1 granted at slot 10155410 at distance 19804.754 m"),
      ("v2i_qos", "vehicle 1 below threshold at distance 19804.754 m"),
      ("v2i_delivery", "vehicle 1 delivered 0.000e+00 of 3.000e+09 bits")]),
    (lambda g: [dataclasses.replace(g, start_slot=g.start_slot + 3000)],
     [("rsu_serial", "grants to 2 and 1 overlap at slot 158410")]),
    (lambda g: [dataclasses.replace(g, n_slots=1000),
                dataclasses.replace(g, start_slot=g.start_slot + 1000,
                                    n_slots=g.n_slots - 1000)],
     []),
], ids=["before-entry", "one-slot-short", "past-window", "into-grant-1", "split"])
def test_default_audit_of_a_moved_v2i_grant(stock_serial_tdma, fault, failures):
    """The default audit, whose V2I delivery goes through its own physical
    model, on stock seed 1's serial-tdma run with grant 0 (vehicle 1, slots
    155410-157741) moved before the road entry, one slot short, 10^7 slots
    past its window, or 3000 slots later, into grant 1 (vehicle 2, from
    slot 157742), which then starts first; or split in two adjacent grants
    (which passes)."""
    config, vehicles, res = stock_serial_tdma
    grants = res.selection.grants
    sel = dataclasses.replace(res.selection,
                              grants=(*fault(grants[0]), *grants[1:]))
    report = audit(dataclasses.replace(res, selection=sel), config, vehicles)
    assert [(c.name, c.detail) for c in report.failures()] == failures


def test_audit_flags_v2v_delivery_shortfall():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    pairing = res.v2v.pairings[0]
    cut = tuple(dataclasses.replace(l, slots=l.slots - 2) for l in pairing.links)
    v2v = dataclasses.replace(
        res.v2v,
        pairings=(dataclasses.replace(pairing, links=cut, duration=2),),
        t_v2v=2)
    bad = dataclasses.replace(res, v2v=v2v)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "v2v_delivery" for c in report.failures())


def test_audit_flags_sinr_violation():
    # Interleaved same-lane links: each transmitter's beam sweeps over the
    # other link's receiver, so both SINRs collapse well below threshold.
    config = default_config(vehicle_count=4)
    step = config.road.slot_duration * config.road.speed
    xs = [(510.0, 1), (505.0, 1), (500.0, 1), (495.0, 1)]
    vehicles = [VehicleState(i, lane, round(-x / step))
                for i, (x, lane) in enumerate(xs, start=1)]
    model = PhysicalRateModel(config, vehicles)
    assert all(s < 100.0 for s in model.link_sinrs([(3, 1), (4, 2)]))
    m3 = model.slots_to_download(3, 0)
    grants = (Grant(3, 0, m3), Grant(4, m3, model.slots_to_download(4, m3)))
    sel = V2ISelection(grants, sum(g.n_slots for g in grants), (3, 4), (1, 2),
                       (), False)
    pairing = Pairing(1, sel.t_v2i, (
        LinkSchedule(3, 1, False, 2000, 3.1e9),
        LinkSchedule(4, 2, False, 2000, 3.1e9),
    ), 2000)
    res = SchemeResult("proposed", 0, sel, V2VSchedule((pairing,), 2000, ()),
                       frozenset({1, 2, 3, 4}), frozenset(), "midpoint", False)
    for strict in (False, True):
        report = audit(dataclasses.replace(res, strict_causality=strict),
                       config, vehicles)
        fails = {c.name: c.detail for c in report.failures()}
        assert "v2v_delivery" in fails
        assert "link (3, 1) SINR" in fails["v2v_delivery"]
        assert "below threshold" in fails["v2v_delivery"]


def _relay_chain_result(strict_causality, relay_slots=None, relay_hop=True):
    """Links 1->2 (4 slots) and relay 2->3 (2 slots at its own rate), run
    under strict causality; relay_slots overrides the traced relay span and
    relay_hop the relay's traced flag."""
    config = default_config(vehicle_count=3)
    step = config.road.slot_duration * config.road.speed
    vehicles = [VehicleState(i, 1, round(-x / step))
                for i, x in enumerate((510.0, 505.0, 500.0), start=1)]
    model = TableRateModel(config, vehicles, {1: 2, 2: 2, 3: 2},
                           {frozenset((1, 2)): 4, frozenset((2, 3)): 2},
                           geometric_coverage=False)
    pairing = run_pairing(model, [(1, 2), (2, 3)], 0, 1, strict_causality=True)
    assert [l.slots for l in pairing.links] == [4, 4]
    if relay_slots is not None:
        relay = dataclasses.replace(pairing.links[1], slots=relay_slots,
                                    relay_hop=relay_hop)
        pairing = dataclasses.replace(pairing, links=(pairing.links[0], relay))
    sel = V2ISelection((), 0, (1,), (2, 3), (), False)
    res = SchemeResult("proposed", 0, sel,
                       V2VSchedule((pairing,), pairing.duration, ()),
                       frozenset({1, 2, 3}), frozenset(), "midpoint",
                       strict_causality)
    return audit(res, config, vehicles, model=model)


def _v2v_delivery(report):
    return next(c for c in report.checks if c.name == "v2v_delivery")


def test_strict_replay_caps_a_relay_hop_at_its_feeder():
    assert _v2v_delivery(_relay_chain_result(True)).ok
    # Two slots at the relay's own rate deliver the content, but only 2 of
    # the feeder's 3.5 slot-shares have arrived by then.
    strict = _v2v_delivery(_relay_chain_result(True, relay_slots=2))
    assert not strict.ok
    assert "link (2, 3) delivered 1.714e+09 of 3.000e+09" in strict.detail
    assert _v2v_delivery(_relay_chain_result(False, relay_slots=2)).ok


def test_strict_replay_derives_relay_hops_from_the_links():
    # The trace's flag does not lift the cap: 2->3 is a relay hop because 2
    # receives in the same pairing, whatever its relay_hop field says.
    strict = _v2v_delivery(_relay_chain_result(True, relay_slots=2,
                                               relay_hop=False))
    assert not strict.ok
    assert "link (2, 3) delivered 1.714e+09 of 3.000e+09" in strict.detail


def test_strict_replay_flags_a_short_relay_hop_after_its_feeder_finished():
    # The feeder 1->2 needs 2 slots, the relay 2->3 needs 6 at its own rate.
    # Traced at 4 slots, the relay runs its last two alone: 4 of its 5.5
    # slot-shares arrive, whatever the feeder (done at slot 2) could give.
    config = default_config(vehicle_count=3)
    vehicles = [VehicleState(i, 1, 0) for i in (1, 2, 3)]
    model = TableRateModel(config, vehicles, {1: 2, 2: 2, 3: 2},
                           {frozenset((1, 2)): 2, frozenset((2, 3)): 6},
                           geometric_coverage=False)
    d = model.content_size

    def check(relay_slots):
        pairing = Pairing(1, 0, (LinkSchedule(1, 2, False, 2, d),
                                 LinkSchedule(2, 3, True, relay_slots, d)),
                          relay_slots)
        sel = V2ISelection((), 0, (1,), (2, 3), (), False)
        res = SchemeResult("proposed", 0, sel,
                           V2VSchedule((pairing,), relay_slots, ()),
                           frozenset({1, 2, 3}), frozenset(), "midpoint", True)
        return _v2v_delivery(audit(res, config, vehicles, model=model))

    assert check(6).ok
    short = check(4)
    assert not short.ok
    assert "link (2, 3) delivered 2.182e+09 of 3.000e+09" in short.detail


def _per_slot_replay(pairing, model):
    """Strict replay one slot at a time, in trace order: the oracle for the
    audit's closed-form phases."""
    dt = model.slot_duration
    links = [(l.tx, l.rx) for l in pairing.links]
    spans = {(l.tx, l.rx): l.slots for l in pairing.links}
    feeder_of = {(l.tx, l.rx): (f.tx, f.rx) for l in pairing.links
                 for f in pairing.links if l.relay_hop and f.rx == l.tx}
    delivered = {l: 0.0 for l in links}
    elapsed = 0
    active = [l for l in links if spans[l] > elapsed]
    while active:
        nxt = min(spans[l] for l in active)
        grains = [(l, r * dt, feeder_of.get(l))
                  for l, r in zip(active, model.link_rates(active))]
        for _ in range(elapsed, nxt):
            for l, grain, feeder in grains:
                if feeder is not None:
                    grain = min(grain, max(0.0, delivered[feeder] - delivered[l]))
                delivered[l] += grain
        elapsed = nxt
        active = [l for l in active if spans[l] > elapsed]
    return delivered


_CHAIN = st.tuples(st.integers(1, 3000), st.integers(1, 3000),
                   st.none() | st.tuples(st.integers(1, 3000),
                                         st.integers(1, 3000)))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chains=st.lists(_CHAIN, min_size=1, max_size=4), crowded=st.booleans())
def test_strict_replay_matches_per_slot_replay(chains, crowded):
    """Random chains (table rate slots, traced slots) for a first hop and an
    optional relay hop, traced spans unrelated to the rates: the closed-form
    phases give each link's bits to within REL_GUARD of a slot-by-slot
    replay, whether the relay is capped, uncapped, or outlives its feeder."""
    n = 3 * len(chains)
    config = default_config(vehicle_count=n)
    vehicles = [VehicleState(i, 1, 0) for i in range(1, n + 1)]
    pairs, links = {}, []
    for k, (rate_slots, traced, relay) in enumerate(chains):
        a, b, c = 3 * k + 1, 3 * k + 2, 3 * k + 3
        pairs[frozenset((a, b))] = rate_slots
        links.append(LinkSchedule(a, b, False, traced, 0.0))
        if relay is not None:
            pairs[frozenset((b, c))] = relay[0]
            links.append(LinkSchedule(b, c, True, relay[1], 0.0))
    table = CrowdedTableRateModel if crowded else TableRateModel
    model = table(config, vehicles, {i: 2 for i in range(1, n + 1)}, pairs,
                  geometric_coverage=False)
    pairing = Pairing(1, 0, tuple(links), max(l.slots for l in links))
    closed, weak = _replay_pairing(pairing, model, strict=True)
    assert weak is None
    oracle = _per_slot_replay(pairing, model)
    for l in oracle:
        assert closed[l] == pytest.approx(oracle[l], rel=REL_GUARD, abs=0.0)


def test_audit_report_formatting():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    report = audit(res, config, vehicles, model=model)
    text = str(report)
    assert "PASS coverage" in text
    assert report.failures() == []


def test_full_scale_runs_audit_clean():
    """Every scheme on a stock population, given in id order and in
    reverse: the models and the audit read the vehicles by id."""
    config = default_config()
    spawned = spawn_vehicles(config, seed=5)
    for vehicles in (spawned, spawned[::-1]):
        for scheme in ("proposed", "fcfs", "random", "noncoop", "serial-tdma"):
            model = PhysicalRateModel(config, vehicles)
            res = run_scheme(scheme, model, seed=5)
            report = audit(res, config, vehicles)
            assert report.ok, f"{scheme}: {report.failures()}"


def test_randomized_configs_audit_clean():
    # Fuzz the whole parameter space: every scheme on every random-but-valid
    # config must produce an audit-clean schedule.
    import math
    import random
    from v2xcast.params import (ConfigError, RadioParams, RoadConfig,
                                ScenarioConfig, validate)
    rng = random.Random(555)
    checked = 0
    for trial in range(18):
        lanes = rng.choice([1, 2, 3, 5])
        lane_w = rng.uniform(3.0, 5.0)
        rsu_range = rng.uniform(60.0, 300.0)
        if (lanes - 0.5) * lane_w >= rsu_range:
            continue
        radio = RadioParams(
            carrier_frequency=rng.choice([28e9, 60e9]),
            tx_power_rsu=rng.uniform(0.5, 2.0),
            tx_power_vehicle=rng.uniform(0.05, 0.2),
            bandwidth=rng.choice([400e6, 800e6, 1200e6]),
            noise_density=10 ** ((-134 - 30) / 10) / 1e6,
            pathloss_exponent=rng.uniform(2.0, 2.8),
            mui_factor=rng.uniform(0.3, 1.0),
            si_cancel=10.0 ** -rng.randint(5, 12),
            sinr_threshold=10 ** (rng.uniform(8, 25) / 10),
            beamwidth=math.radians(rng.uniform(15, 60)),
            sidelobe_gain=rng.uniform(0.05, 0.3),
            rsu_range=rsu_range,
            v2v_range=rng.uniform(10.0, min(40.0, rsu_range * 0.5)),
        )
        road = RoadConfig(
            lane_count=lanes, lane_width=lane_w,
            road_length=rng.uniform(800, 2500),
            rsu_longitudinal=rng.uniform(200, 600),
            speed=rng.uniform(10, 35),
            arrival_rate=rng.uniform(0.5, 4.0),
            vehicle_count=rng.randint(5, 30),
            content_size=rng.uniform(0.2e9, 4e9),
            slot_duration=rng.choice([1e-4, 5e-4]),
            horizon=1_000_000,
        )
        try:
            config = validate(ScenarioConfig(radio=radio, road=road, seed=trial))
        except ConfigError:
            continue
        vehicles = spawn_vehicles(config, seed=trial)
        for scheme in ("proposed", "fcfs", "random", "noncoop", "serial-tdma"):
            model = PhysicalRateModel(config, vehicles)
            res = run_scheme(scheme, model, seed=trial)
            report = audit(res, config, vehicles)
            assert report.ok, f"trial {trial} {scheme}: {report.failures()}"
            checked += 1
    assert checked >= 50
