import pytest
from hypothesis import given, settings, strategies as st

from v2xcast.baselines import (run_scheme, schedule_fcfs, schedule_noncoop,
                               schedule_proposed, schedule_random,
                               schedule_serial_tdma)
from v2xcast.ratemodel import PhysicalRateModel, TableRateModel
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import default_config, six_vehicle_instance


def _vehicles_at(config, placements):
    step = config.road.slot_duration * config.road.speed
    return [VehicleState(id=vid, lane=lane, entry_slot=round(-x / step))
            for vid, (x, lane) in enumerate(placements, start=1)]


def test_fcfs_serves_in_entry_order():
    config, vehicles, model = six_vehicle_instance()
    res = schedule_fcfs(model, seed=0)
    assert [g.vehicle for g in res.selection.grants] == [1, 2, 3, 4, 5, 6]
    assert res.selection.t_v2i == 16       # everyone fits: serial reference
    assert res.v2v.pairings == ()
    assert res.unserved == frozenset()


def test_serial_tdma_reference_instance():
    config, vehicles, model = six_vehicle_instance()
    res = schedule_serial_tdma(model, seed=0)
    assert res.selection.t_v2i == 16
    assert res.selection.t_v2i == sum(g.n_slots for g in res.selection.grants)
    assert res.unserved == frozenset()


def test_single_vehicle_all_schemes_agree():
    config = default_config(vehicle_count=1)
    vehicles = _vehicles_at(config, [(0.0, 3)])
    totals = {}
    for scheme in ("proposed", "fcfs", "random", "noncoop", "serial-tdma"):
        model = PhysicalRateModel(config, vehicles)
        res = run_scheme(scheme, model, seed=5)
        assert res.served == frozenset({1})
        totals[scheme] = res.selection.t_v2i + res.v2v.t_v2v
    assert len(set(totals.values())) == 1


def test_random_is_seed_deterministic():
    config = default_config(vehicle_count=40)
    vehicles = spawn_vehicles(config, seed=7)
    model = PhysicalRateModel(config, vehicles)
    a = schedule_random(model, seed=3)
    b = schedule_random(PhysicalRateModel(config, vehicles), seed=3)
    assert a == b
    c = schedule_random(PhysicalRateModel(config, vehicles), seed=4)
    assert a != c


def test_random_grant_order_departs_from_entry_order():
    # Always-covered table instance with a rich candidate pool: a uniform
    # draw should not reproduce the entry order for every seed.
    config = default_config(vehicle_count=8)
    vehicles = [VehicleState(i, 1, 0) for i in range(1, 9)]
    model = TableRateModel(config, vehicles, {i: 3 for i in range(1, 9)}, {},
                           geometric_coverage=False)
    orders = set()
    for seed in range(6):
        res = schedule_random(model, seed=seed)
        orders.add(tuple(g.vehicle for g in res.selection.grants))
    assert len(orders) > 1
    assert any(order != tuple(sorted(order)) for order in orders)


def test_noncoop_leaves_bunched_vehicles_unserved():
    config = default_config()
    vehicles = spawn_vehicles(config, seed=1)
    model = PhysicalRateModel(config, vehicles)
    res = schedule_noncoop(model, seed=1)
    assert res.unserved
    assert res.v2v.pairings == ()
    assert res.served | res.unserved == frozenset(model.ids)


def test_noncoop_distance_tie_takes_lower_id():
    # Coincident vehicles (points, no minimum headway) give an exact tie.
    config = default_config(vehicle_count=2)
    vehicles = _vehicles_at(config, [(505.0, 1), (505.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    assert model.rsu_distance(1, 0) == model.rsu_distance(2, 0)
    res = schedule_noncoop(model, seed=0)
    assert res.selection.grants[0].vehicle == 1


def _naive_noncoop(model):
    """One slot at a time, channel to the nearest in-coverage vehicle,
    transmit only while it still wants content: (served, merged grants)."""
    dt = model.slot_duration
    remaining = {vid: model.content_size for vid in model.ids}
    v_b = set(model.ids)
    served, grants = set(), []
    for t in range(model.horizon):
        in_cov = [i for i in model.ids if model.in_service(i, t)]
        if not in_cov:
            continue
        target = min(in_cov, key=lambda i: (model.rsu_distance(i, t), i))
        if target not in v_b:
            continue
        if grants and grants[-1][0] == target and grants[-1][1] + grants[-1][2] == t:
            grants[-1] = (target, grants[-1][1], grants[-1][2] + 1)
        else:
            grants.append((target, t, 1))
        remaining[target] -= model.v2i_rates(target, t, 1)[0] * dt
        if remaining[target] <= 0:
            v_b.discard(target)
            served.add(target)
        if not v_b:
            break
    return frozenset(served), grants


def _assert_noncoop_matches_naive(config, seed):
    model = PhysicalRateModel(config, spawn_vehicles(config, seed=seed))
    res = schedule_noncoop(model, seed=0)
    served, grants = _naive_noncoop(model)
    assert res.served == served
    assert [(g.vehicle, g.start_slot, g.n_slots) for g in res.selection.grants] == grants


@pytest.mark.parametrize("seed", [23, 57, 91])
def test_noncoop_matches_naive_per_slot_reference(seed):
    config = default_config(vehicle_count=12, road_length=800.0,
                            rsu_longitudinal=400.0, slot_duration=1e-3,
                            content_size=1e8, horizon=60_000,
                            arrival_rate=3.0)
    _assert_noncoop_matches_naive(config, seed)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(rsu_x=st.one_of(st.just(0.0), st.floats(0.0, 800.0)),
       lanes=st.integers(1, 5),
       arrival_rate=st.floats(0.5, 50.0),
       content_size=st.floats(1e8, 3e10),
       horizon=st.integers(1, 60_000),
       vehicle_count=st.integers(1, 12),
       seed=st.integers(0, 2**32 - 1))
def test_noncoop_matches_naive_reference_on_random_configs(
        rsu_x, lanes, arrival_rate, content_size, horizon, vehicle_count, seed):
    # Large downloads outlast the next arrival, so a stretch must stay one
    # grant however many vehicles enter coverage during it.
    config = default_config(vehicle_count=vehicle_count, road_length=800.0,
                            rsu_longitudinal=rsu_x, lane_count=lanes,
                            slot_duration=1e-3, content_size=content_size,
                            horizon=horizon, arrival_rate=arrival_rate)
    _assert_noncoop_matches_naive(config, seed)


def test_fcfs_grants_more_than_proposed_at_scale():
    config = default_config()
    vehicles = spawn_vehicles(config, seed=2)
    model = PhysicalRateModel(config, vehicles)
    fcfs = schedule_fcfs(model, seed=2)
    prop = schedule_proposed(PhysicalRateModel(config, vehicles), seed=2)
    assert len(fcfs.selection.grants) > len(prop.selection.grants)
    assert fcfs.selection.t_v2i > prop.selection.t_v2i


def test_unknown_scheme_rejected():
    _, _, model = six_vehicle_instance()
    with pytest.raises(ValueError, match="unknown scheme"):
        run_scheme("dijkstra", model, seed=0)


def test_results_are_pure_functions_of_inputs():
    config = default_config(vehicle_count=30)
    vehicles = spawn_vehicles(config, seed=9)
    for scheme in ("proposed", "fcfs", "noncoop", "serial-tdma"):
        a = run_scheme(scheme, PhysicalRateModel(config, vehicles), seed=9)
        b = run_scheme(scheme, PhysicalRateModel(config, vehicles), seed=9)
        assert a == b, scheme
