import dataclasses
import math
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from v2xcast.geometry import coverage_window, distance, position
from v2xcast.radio import ConcurrentSet, DirectionalLink, v2i_slot_rate, v2v_sinr
from v2xcast.params import RoadConfig, ScenarioConfig
from v2xcast.ratemodel import (PhysicalRateModel, RateModel, TableRateModel,
                               fd_relays)
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import (SIX_PAIR_SLOTS, default_config, default_radio,
                       six_vehicle_instance)


def test_fd_relays_identifies_dual_role_nodes():
    assert fd_relays([(1, 2), (2, 3)]) == {2}
    assert fd_relays([(1, 2), (3, 4)]) == set()
    assert fd_relays([]) == set()


@pytest.mark.parametrize("mode", ["midpoint", "quadrature"])
def test_model_v2i_rates_match_scalar_radio(mode):
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    rng = random.Random(8)
    for v in vehicles:
        win = coverage_window(v, config)
        for _ in range(5):
            t = rng.randint(win[0], win[1])
            got = model.v2i_rates(v.id, t, 1)[0]
            ref = v2i_slot_rate(v, t, config, mode=mode)
            assert got == pytest.approx(ref, rel=1e-12)


def test_model_link_sinrs_match_scalar_radio():
    config = default_config(vehicle_count=10)
    vehicles = spawn_vehicles(config, seed=6)
    model = PhysicalRateModel(config, vehicles, rate_mode="midpoint")
    t = max(v.entry_slot for v in vehicles) + 100
    rng = random.Random(9)
    for _ in range(30):
        ids = rng.sample([v.id for v in vehicles], 6)
        links = [(ids[0], ids[1]), (ids[2], ids[3]), (ids[3], ids[4])]
        dl = [DirectionalLink(a, b,
                              position(vehicles[a - 1], t, config, midpoint=True),
                              position(vehicles[b - 1], t, config, midpoint=True))
              for a, b in links]
        cset = ConcurrentSet(tuple(dl))
        got = model.link_sinrs(links)
        for link, d in zip(links, dl):
            assert got[links.index(link)] == pytest.approx(
                v2v_sinr(d, cset, config.radio), rel=1e-9)


def test_service_window_respects_qos_and_horizon():
    config = default_config()
    vehicles = [VehicleState(id=1, lane=3, entry_slot=0)]
    model = PhysicalRateModel(config, vehicles)
    win = model.service_window(1)
    cov = coverage_window(vehicles[0], config)
    # Stock parameters: SNR at 200 m is ~48 dB >> 20 dB, so QoS never binds.
    assert win == cov
    short = default_config(horizon=cov[0] + 10)
    model2 = PhysicalRateModel(short, vehicles)
    assert model2.service_window(1) == (cov[0], cov[0] + 9)


def test_service_window_qos_limited():
    from instances import default_radio
    import dataclasses
    config = default_config()
    # Raise the threshold until it bites: SNR(d)=th at d = (C/(N*th))^(1/2).
    radio = default_radio(sinr_threshold=1e6)
    config = dataclasses.replace(config, radio=radio)
    vehicles = [VehicleState(id=1, lane=3, entry_slot=0)]
    model = PhysicalRateModel(config, vehicles)
    win = model.service_window(1)
    c = radio.path_constant * radio.tx_power_rsu * 10.9 ** 2
    r_qos = math.sqrt(c / (radio.noise_floor_w * 1e6))
    ref = coverage_window(vehicles[0], config, radius=r_qos)
    assert win == ref
    assert win[1] - win[0] < coverage_window(vehicles[0], config)[1] - \
        coverage_window(vehicles[0], config)[0]


class ConstantRateStub(RateModel):
    """Fixed-rate feed for the accumulation contract. It supplies only the
    protocol's primitives: one vehicle, level with the RSU at slot 0, whose
    serving window is the real coverage window clipped to the horizon, and
    a second vehicle it can talk to at the same rate."""

    def __init__(self, rate, content, horizon=10 ** 9):
        road = RoadConfig(content_size=content, horizon=horizon)
        step = road.slot_duration * road.speed
        entry = -round(road.rsu_longitudinal / step)
        vehicles = [VehicleState(1, 1, entry), VehicleState(2, 1, entry + 1)]
        super().__init__(ScenarioConfig(default_radio(), road), vehicles)
        self._entry = {v.id: v.entry_slot for v in vehicles}
        self.rate = rate

    def v2i_rates(self, vid, start, count):
        return np.full(count, self.rate)

    def rsu_distance(self, vid, t):
        return 0.0

    def rate_free(self, i, j):
        return self.rate if {i, j} == {1, 2} else 0.0

    def link_sinrs(self, links):
        return [self.sinr_threshold if self.in_range(*l) else 0.0 for l in links]

    def link_rates(self, links):
        return [self.rate_free(*l) for l in links]


def test_constant_rate_stub_derives_every_query():
    stub = ConstantRateStub(rate=1.44e10, content=3e9)
    assert stub.service_window(1)[0] < 0 < stub.service_window(1)[1]
    assert stub.in_service(1, 0) and stub.entered(1, 0)
    assert stub.in_range(1, 2) and stub.in_range(2, 1)
    assert not stub.in_range(1, 1)
    assert stub.link_slots_free(1, 2) == 2084
    assert stub.link_slots_free(1, 1) is None
    assert stub.set_feasible([(1, 2)]) and not stub.set_feasible([(1, 2), (1, 1)])


def test_slots_to_download_constant_rate_oracle():
    # Brute-force accumulation oracle against the closed form.
    stub = ConstantRateStub(rate=1.44e10, content=3e9)
    acc, slots = 0.0, 0
    while acc < 3e9:
        acc += 1.44e10 * 1e-4
        slots += 1
    assert slots == 2084
    assert stub.slots_to_download(1, 0) == 2084


def test_slots_to_download_zero_content():
    stub = ConstantRateStub(rate=1.44e10, content=0.0)
    assert stub.slots_to_download(1, 0) == 0


def test_slots_to_download_window_exhausted():
    stub = ConstantRateStub(rate=1.44e10, content=3e9, horizon=1000)
    assert stub.service_window(1)[1] == 999
    assert stub.slots_to_download(1, 0) is None        # needs 2084 slots
    assert stub.slots_to_download(1, 1000) is None     # starts past the window


def test_physical_slots_match_bruteforce_accumulation():
    config = default_config(vehicle_count=3)
    vehicles = spawn_vehicles(config, seed=12)
    model = PhysicalRateModel(config, vehicles)
    for v in vehicles:
        win = model.service_window(v.id)
        for start in (win[0], (win[0] + win[1]) // 2):
            m = model.slots_to_download(v.id, start)
            rates = model.v2i_rates(v.id, start, m)
            assert float(np.sum(rates)) * config.road.slot_duration >= 3e9
            assert float(np.sum(rates[:-1])) * config.road.slot_duration < 3e9


def test_rate_free_symmetry_and_range_gate():
    config = default_config(vehicle_count=12)
    vehicles = spawn_vehicles(config, seed=3)
    model = PhysicalRateModel(config, vehicles)
    for i in range(1, 13):
        for j in range(1, 13):
            if i == j:
                continue
            assert model.rate_free(i, j) == model.rate_free(j, i)
            if model.in_range(i, j):
                assert model.rate_free(i, j) > 0
            else:
                assert model.rate_free(i, j) == 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(lanes=st.integers(1, 5), arrival=st.floats(5.0, 60.0),
       count=st.integers(2, 40), v2v_range=st.floats(4.0, 40.0),
       seed=st.integers(1, 10_000), data=st.data())
def test_sparse_geometry_matches_dense_reference(lanes, arrival, count,
                                                 v2v_range, seed, data):
    """Neighbour lists found by sort-and-sweep lose no pair and keep none too
    many, and interference summed over neighbours only matches the scalar
    reference, which scans every link of the set."""
    config = default_config(lane_count=lanes, arrival_rate=arrival,
                            vehicle_count=count)
    config = dataclasses.replace(
        config, radio=default_radio(v2v_range=v2v_range))
    vehicles = spawn_vehicles(config, seed)
    slots = [(v.entry_slot, v.lane) for v in vehicles]
    assume(len(set(slots)) == len(slots))  # co-location is out of scope here
    model = PhysicalRateModel(config, vehicles)
    t = max(v.entry_slot for v in vehicles)
    pos = {v.id: position(v, t, config, midpoint=True) for v in vehicles}
    ids = list(pos)

    for i in ids:
        for j in ids:
            if i == j:
                continue
            d = distance(pos[i], pos[j])
            if abs(d - v2v_range) > 1e-9 * v2v_range:  # rounding decides ties
                assert (model.rate_free(i, j) > 0.0) == (d <= v2v_range)
            assert model.rate_free(i, j) == model.rate_free(j, i)

    # Disjoint relay chains of one or two hops, plus a few arbitrary links
    # that may be out of range or share nodes with a chain.
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
        links.append((tx, rx))
    links = data.draw(st.permutations(links))
    cset = ConcurrentSet(tuple(DirectionalLink(tx, rx, pos[tx], pos[rx])
                               for tx, rx in links))
    got = model.link_sinrs(links)
    for link, s in zip(cset.links, got):
        assert s == pytest.approx(v2v_sinr(link, cset, config.radio), rel=1e-9)


def test_table_model_rates_land_exactly_on_slot_counts():
    config = default_config(vehicle_count=2)
    vehicles = [VehicleState(1, 1, 0), VehicleState(2, 1, -2500)]
    model = TableRateModel(config, vehicles, {1: 7, 2: 3},
                           {frozenset((1, 2)): 5}, geometric_coverage=False)
    assert model.slots_to_download(1, 0) == 7
    assert model.slots_to_download(2, 123) == 3
    assert model.link_slots_free(1, 2) == 5
    rate = model.rate_free(1, 2)
    dt = model.slot_duration
    assert 4 * rate * dt < model.content_size <= 5 * rate * dt
    # in_range, set_feasible and link_slots_free are derived from rate_free
    # and link_sinrs; on the six-vehicle instance they must read the tables.
    _, vehicles, model = six_vehicle_instance()
    ids = [v.id for v in vehicles]
    for i in ids:
        for j in ids:
            slots = SIX_PAIR_SLOTS.get(frozenset((i, j))) if i != j else None
            assert model.in_range(i, j) == (slots is not None)
            assert model.set_feasible([(i, j)]) == (slots is not None)
            assert model.link_slots_free(i, j) == slots
