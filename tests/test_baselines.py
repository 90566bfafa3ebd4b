import pytest
from hypothesis import given, settings, strategies as st

from v2xcast.baselines import (_nearest_stretches, run_scheme, schedule_fcfs,
                               schedule_noncoop, schedule_proposed,
                               schedule_random, schedule_serial_tdma)
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import (TableRateModel, default_config, reference_window,
                       six_vehicle_instance, vehicles_at)
from reference import nearest_stretches_by_bisection
from test_golden import COLOCATED_SEED, CROWD, LADDER, stock_config


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
    vehicles = vehicles_at(config, [(0.0, 3)])
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
    vehicles = vehicles_at(config, [(505.0, 1), (505.0, 1)])
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
    windows = {i: reference_window(model, i) for i in model.ids}
    for t in range(model.horizon):
        in_cov = [i for i, w in windows.items()
                  if w is not None and w[0] <= t <= w[1]]
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


def _assert_noncoop_matches_naive(config, vehicles):
    model = PhysicalRateModel(config, vehicles)
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
    _assert_noncoop_matches_naive(config, spawn_vehicles(config, seed=seed))


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
    _assert_noncoop_matches_naive(config, spawn_vehicles(config, seed=seed))


class CountingModel(PhysicalRateModel):
    """Counts rsu_distance calls."""

    calls = 0

    def rsu_distance(self, vid, t):
        self.calls += 1
        return super().rsu_distance(vid, t)


class LaggedRsuModel(CountingModel):
    """RSU distances as the road geometry gives them `lag` slots later, so
    they disagree with the config's RSU position by lag * step metres and
    the takeover slot solved from that position lands about lag slots off."""

    def __init__(self, config, vehicles, lag: int):
        super().__init__(config, vehicles)
        self.lag = lag

    def rsu_distance(self, vid, t):
        return super().rsu_distance(vid, t + self.lag)


@pytest.mark.parametrize("overrides, seeds", [
    ({}, [*range(1, 41), COLOCATED_SEED, 195]),
    (LADDER, range(1, 4)),
    (CROWD, range(1, 4)),
    ({"rsu_longitudinal_m": 0.0}, range(1, 21)),
], ids=["stock", "ladder-400", "rsu-1600", "rsu-at-entry"])
def test_nearest_stretches_match_bisection(overrides, seeds):
    """The takeover slots solved from the distance gap and confirmed by the
    exact comparison are the ones plain bisection finds. Stock seeds 113
    and 195 spawn two vehicles in one lane and slot, which one comparison
    decides."""
    config = stock_config(**overrides)
    for seed in seeds:
        model = PhysicalRateModel(config, spawn_vehicles(config, seed))
        assert _nearest_stretches(model) == nearest_stretches_by_bisection(model)


def test_nearest_stretches_of_side_by_side_vehicles():
    """Vehicles that enter in one slot in different lanes keep their order
    all run: the nearer lane wins from its first candidate slot on, whatever
    the ids say."""
    config = default_config(vehicle_count=5, road_length=800.0,
                            rsu_longitudinal=400.0, slot_duration=1e-3,
                            horizon=60_000)
    vehicles = [VehicleState(1, 3, 1000), VehicleState(2, 1, 1000),
                VehicleState(3, 2, 1000), VehicleState(4, 2, 9000),
                VehicleState(5, 1, 9000)]
    model = PhysicalRateModel(config, vehicles)
    stretches = _nearest_stretches(model)
    assert stretches == nearest_stretches_by_bisection(model)
    assert [vid for vid, _, _ in stretches] == [2, 5]


@pytest.mark.parametrize("lag", [-400_000, -50_000, -700, 3, 50_000, 400_000])
def test_nearest_stretches_recover_from_a_wrong_guess(lag):
    """A model whose rsu_distance disagrees with the road geometry puts
    every solved takeover slot about lag slots (lag / 500 m at stock) from
    the true one; the search still ends where bisection does, at a cost
    logarithmic in the miss: under twice bisection's rsu_distance calls."""
    config = stock_config()
    for seed in range(1, 6):
        model = LaggedRsuModel(config, spawn_vehicles(config, seed), lag)
        stretches = _nearest_stretches(model)
        calls, model.calls = model.calls, 0
        assert stretches == nearest_stretches_by_bisection(model)
        assert calls < 2 * model.calls


def test_nearest_stretches_probe_few_distances():
    """Takeover slots come from the distance gap, not from a search of the
    run: at most 8 rsu_distance calls per vehicle on stock seeds 1-20,
    where bisection over the horizon made about 52."""
    config = stock_config()
    calls = vehicles = 0
    for seed in range(1, 21):
        model = CountingModel(config, spawn_vehicles(config, seed))
        _nearest_stretches(model)
        calls += model.calls
        vehicles += len(model.ids)
    assert calls <= 8 * vehicles


def test_schedulers_take_entry_order_not_id_order():
    """Vehicle 1 enters last and vehicle 2 first: noncoop matches the
    per-slot scan, and fcfs and serial-tdma grant by (entry slot, id)."""
    config = default_config(vehicle_count=3, road_length=800.0,
                            rsu_longitudinal=400.0, slot_duration=1e-3,
                            content_size=1e8, horizon=60_000)
    vehicles = [VehicleState(1, 1, 9000), VehicleState(2, 1, 0),
                VehicleState(3, 2, 3000)]
    _assert_noncoop_matches_naive(config, vehicles)
    for schedule in (schedule_fcfs, schedule_serial_tdma):
        res = schedule(PhysicalRateModel(config, vehicles), seed=0)
        assert [g.vehicle for g in res.selection.grants] == [2, 3, 1]


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
