import dataclasses

import pytest

from v2xcast.audit import audit
from v2xcast.baselines import SchemeResult, run_scheme
from v2xcast.metrics import build_report, energy, system_throughput
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.v2i import Grant, V2ISelection
from v2xcast.v2v import LinkSchedule, Pairing, V2VSchedule
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import default_config, six_vehicle_instance


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


def test_audit_flags_totals_mismatch():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    sel = dataclasses.replace(res.selection, t_v2i=99)
    bad = dataclasses.replace(res, selection=sel)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "totals" for c in report.failures())


def test_audit_flags_v2i_delivery_shortfall():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    short = dataclasses.replace(res.selection.grants[0], n_slots=1)
    sel = dataclasses.replace(
        res.selection, grants=(short,) + res.selection.grants[1:], t_v2i=4)
    bad = dataclasses.replace(res, selection=sel)
    report = audit(bad, config, vehicles, model=model)
    assert any(c.name == "v2i_delivery" for c in report.failures())


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
    report = audit(res, config, vehicles)
    fails = {c.name: c.detail for c in report.failures()}
    assert "v2v_delivery" in fails
    assert "below threshold" in fails["v2v_delivery"]


def test_audit_report_formatting():
    config, vehicles, model = six_vehicle_instance()
    res = run_scheme("proposed", model, seed=0)
    report = audit(res, config, vehicles, model=model)
    text = str(report)
    assert "PASS coverage" in text
    assert report.failures() == []


def test_full_scale_runs_audit_clean():
    config = default_config()
    vehicles = spawn_vehicles(config, seed=5)
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
