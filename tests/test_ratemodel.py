import dataclasses
import gc
import importlib
import math
import random
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from v2xcast.baselines import SCHEMES, run_scheme
from v2xcast.params import RoadConfig, ScenarioConfig, load_config, validate
from v2xcast import ratemodel
from v2xcast.ratemodel import BLOCK, PhysicalRateModel, RateModel
from v2xcast.harness import run_scenario
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import (SIX_PAIR_SLOTS, TableRateModel, default_config,
                       default_radio, reference_window, six_vehicle_instance)
from reference import (ConcurrentSet, DirectionalLink, Point2D, coverage_window,
                       distance, lane_center_y, position, rsu_point,
                       shannon_rate, v2i_slot_rate, v2i_snr, v2v_sinr)
from test_golden import canonical, stock_config
from test_incremental import drawn_population


@pytest.mark.parametrize("mode", ["midpoint", "quadrature"])
def test_model_v2i_rates_match_scalar_radio(mode):
    """Every slot of every service window against the scalar reference.
    Quadrature gets the rel=1e-9 of the memo edge test below: one ulp of
    arctan moves about 0.2% of its slots by up to ~4e-10 relative."""
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    rel = 1e-12 if mode == "midpoint" else 1e-9
    for v in vehicles:
        w0, w1 = coverage_window(v, config)
        got = model.v2i_rates(v.id, w0, w1 - w0 + 1)
        ref = [v2i_slot_rate(v, t, config, mode=mode) for t in range(w0, w1 + 1)]
        np.testing.assert_allclose(got, ref, rtol=rel, atol=0)


@pytest.mark.parametrize("mode", ["midpoint", "quadrature"])
def test_v2i_rates_do_not_depend_on_the_query_window(mode):
    """A slot's rate is a function of the lane and the offset from entry
    alone: any query returns, bit for bit, the same slots of a query over
    the whole service window, and two vehicles of one lane at one offset
    get the same rates."""
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    rng = random.Random(5)
    for v in vehicles:
        w0, w1 = reference_window(model, v.id)
        whole = PhysicalRateModel(config, vehicles, rate_mode=mode).v2i_rates(
            v.id, w0, w1 - w0 + 1)
        edge = v.entry_slot + BLOCK * (-(-(w0 - v.entry_slot) // BLOCK) + 3)
        for count in (1, 3, 64, 1500):
            starts = [edge - count // 2, edge - 1, edge,
                      rng.randint(w0, w1 - count + 1)]
            for s in starts:
                got = model.v2i_rates(v.id, s, count)
                assert np.array_equal(got, whole[s - w0:s - w0 + count]), (v.id, s, count)
    by_lane: dict[int, list[VehicleState]] = {}
    for v in vehicles:
        by_lane.setdefault(v.lane, []).append(v)
    pairs = [vs[:2] for vs in by_lane.values() if len(vs) > 1]
    assert pairs
    for a, b in pairs:
        k = reference_window(model, a.id)[0] - a.entry_slot + 777
        fresh = PhysicalRateModel(config, vehicles, rate_mode=mode)
        assert np.array_equal(model.v2i_rates(a.id, a.entry_slot + k, 1500),
                              fresh.v2i_rates(b.id, b.entry_slot + k - 10, 1510)[10:])


def _scalar_rate(config, mode, v, t):
    """reference.v2i_slot_rate; before entry, where the scalar midpoint
    reference refuses the slot, the mid-slot distance is extrapolated back
    along the lane."""
    if t >= v.entry_slot or mode != "midpoint":
        return v2i_slot_rate(v, t, config, mode=mode)
    road = config.road
    x = (t - v.entry_slot + 0.5) * road.slot_duration * road.speed
    d = distance(Point2D(x, lane_center_y(config, v.lane)), rsu_point(config))
    return shannon_rate(v2i_snr(d, config.radio), config.radio)


def _memo_spans(model, v):
    """(start, count) queries at the memo's edges for vehicle v."""
    w0, w1 = reference_window(model, v.id)
    return [(v.entry_slot - BLOCK - 5, 10),        # negative offsets
            (v.entry_slot - 3, 6),                 # across offset 0
            (w1 - 2, 40),                          # out of the window
            (2 * w1 - w0, 5),                      # far past it
            (v.entry_slot + BLOCK * ((w0 - v.entry_slot) // BLOCK + 2) - 7,
             BLOCK + 14)]                          # three blocks


def _assert_scalar_rates(model, vehicles, mode):
    """Every _memo_spans query of `model` against _scalar_rate; returns the
    rates, by (vehicle id, start, count)."""
    rel = 1e-12 if mode == "midpoint" else 1e-9
    got = {}
    for v in vehicles:
        for start, count in _memo_spans(model, v):
            rates = got[v.id, start, count] = model.v2i_rates(v.id, start, count)
            assert rates.shape == (count,)
            for t, r in zip(range(start, start + count), rates):
                assert r == pytest.approx(_scalar_rate(model.config, mode, v, t),
                                          rel=rel)
    return got


@pytest.mark.parametrize("mode", ["midpoint", "quadrature"])
def test_v2i_rates_memo_edges_match_scalar_radio(mode):
    """Empty queries, offsets before entry, slots past the window and a
    query over three memo blocks, against the scalar reference.

    The scalar midpoint reference refuses slots before entry, so there the
    mid-slot distance is extrapolated back along the lane. Quadrature is
    compared at rel=1e-9: its step h = (phi_b - phi_a) / 8 cancels, so one
    ulp of arctan moves a rate by up to ~4e-10 relative, and numpy's vector
    arctan and math.atan differ by an ulp in about 0.2% of slots."""
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    radio = config.radio
    for v in vehicles[:2]:
        assert model.v2i_rates(v.id, v.entry_slot, 0).shape == (0,)
    _assert_scalar_rates(model, vehicles[:2], mode)
    for v in vehicles[:2]:
        w0, w1 = reference_window(model, v.id)
        for start, count in _memo_spans(model, v):
            for t, r in zip(range(start, start + count),
                            model.v2i_rates(v.id, start, count)):
                if mode == "midpoint" and model.rsu_distance(v.id, t) > radio.rsu_range:
                    assert r == 0.0
        assert model.v2i_rates(v.id, 2 * w1 - w0, 5).tolist() == [0.0] * 5


@pytest.mark.parametrize("mode", ["midpoint", "quadrature"])
def test_v2i_memo_carried_to_the_next_model_of_the_config(mode):
    """A model built right after another of an equal config (a new object)
    reads the blocks the first one holds, and returns, bit for bit, the
    rates checked against the scalar reference: on the memo's edges and
    across three blocks."""
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)[:2]
    first = PhysicalRateModel(config, vehicles, rate_mode=mode)
    checked = _assert_scalar_rates(first, vehicles, mode)
    second = PhysicalRateModel(default_config(vehicle_count=6), vehicles,
                               rate_mode=mode)
    for (vid, start, count), rates in checked.items():
        assert np.array_equal(second.v2i_rates(vid, start, count), rates)
    assert second._blocks and all(
        rates is first._blocks[key] for key, rates in second._blocks.items())


@pytest.mark.parametrize("stale", [
    {"road": {"speed": 25.0}},
    {"road": {"rsu_lateral_offset": 3.0}},
    {"mode": "quadrature"},
    {"mode": "midpoint"},
])
def test_v2i_memo_not_carried_across_inputs(stale):
    """A model built right after one whose config differs only in speed or
    only in the RSU's lateral offset, or whose rate mode differs, matches
    its own scalar reference and not the rates the last model held."""
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)[:2]
    other = {"midpoint": "quadrature", "quadrature": "midpoint"}
    mode = other.get(stale.get("mode"), "midpoint")
    before = PhysicalRateModel(
        dataclasses.replace(config, road=dataclasses.replace(
            config.road, **stale.get("road", {}))),
        vehicles, rate_mode=stale.get("mode", mode))
    windows = RateModel(config, vehicles)  # the spans of `config`, no memo
    held = {(v.id, start, count): before.v2i_rates(v.id, start, count)
            for v in vehicles for start, count in _memo_spans(windows, v)}
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    checked = _assert_scalar_rates(model, vehicles, mode)
    assert checked.keys() == held.keys()
    assert any(not np.array_equal(checked[key], rates)
               for key, rates in held.items())


def _block_of(model, v, b):
    """The memo block b of vehicle v's lane, as `model` reads it."""
    return model.v2i_rates(v.id, v.entry_slot + b * BLOCK, 1).base


def test_v2i_memo_keeps_a_block_a_model_skipped(monkeypatch):
    """A block the first model read, the second skipped and the third read
    again is the same array in the first and third models."""
    monkeypatch.setattr(ratemodel, "_carries", {})
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)
    v = vehicles[0]
    first = PhysicalRateModel(config, vehicles)
    skipped = _block_of(first, v, 5)
    _block_of(first, v, 0)
    _block_of(PhysicalRateModel(config, vehicles), v, 0)
    del first
    assert _block_of(PhysicalRateModel(config, vehicles), v, 5) is skipped


def test_v2i_memo_drops_the_least_recently_read_block(monkeypatch):
    """Models that each read one shared block and one block of their own
    read two blocks apiece, so the memo holds at most four. The fourth
    model's own block pushes out the first model's, the least recently
    read: once the models are gone it is unreachable, while the second
    model's block and the shared one stay in the memo."""
    monkeypatch.setattr(ratemodel, "_carries", {})
    config = default_config(vehicle_count=6)
    vehicles = spawn_vehicles(config, seed=4)
    v = vehicles[0]
    shared, own = [], []
    for b in range(10, 14):
        model = PhysicalRateModel(config, vehicles)
        shared.append(weakref.ref(_block_of(model, v, 0)))
        own.append(weakref.ref(_block_of(model, v, b)))
    memo = ratemodel._carries[PhysicalRateModel]
    assert len(memo.blocks) == 4 == 2 * memo.most
    del model
    gc.collect()
    assert own[0]() is None
    assert own[1]() is not None and all(ref() is shared[0]() for ref in shared)
    assert _block_of(PhysicalRateModel(config, vehicles), v, 0) is shared[0]()


def test_v2i_memo_computes_each_block_once_within_its_bound(monkeypatch):
    """Stock seeds 1-6, proposed, fcfs and random, quadrature rates and
    strict causality, audited: each model class computes each (lane,
    block) at most once, and after every run each class's memo holds at
    most twice the most blocks one of its models read."""
    monkeypatch.setattr(ratemodel, "_carries", {})
    computed, models = [], []
    compute, build = PhysicalRateModel._compute_block, PhysicalRateModel.__init__

    def counted(self, lane, b):
        computed.append((type(self), lane, b))
        return compute(self, lane, b)

    def kept(self, *args, **kwargs):
        build(self, *args, **kwargs)
        models.append(self)

    monkeypatch.setattr(PhysicalRateModel, "_compute_block", counted)
    monkeypatch.setattr(PhysicalRateModel, "__init__", kept)
    config = stock_config()
    for seed in range(1, 7):
        for scheme in ("proposed", "fcfs", "random"):
            audit = run_scenario(config, seed, scheme, rate_mode="quadrature",
                                 strict_causality=True, with_audit=True)[2]
            assert audit.ok
            for cls, memo in ratemodel._carries.items():
                most = max(len(m._blocks) for m in models if type(m) is cls)
                assert len(memo.blocks) <= 2 * most
    assert len(ratemodel._carries) == 2 and len(models) == 36
    assert len(set(computed)) == len(computed)
    assert len(computed) < sum(len(m._blocks) for m in models)


def test_v2i_rates_are_read_only():
    """Queries return read-only views of the memo (or read-only copies
    across blocks), so a caller cannot corrupt later queries."""
    config = default_config(vehicle_count=3)
    vehicles = spawn_vehicles(config, seed=4)
    model = PhysicalRateModel(config, vehicles)
    w0 = reference_window(model, 1)[0]
    first = float(model.v2i_rates(1, w0, 1)[0])
    for rates in (model.v2i_rates(1, w0, 3), model.v2i_rates(1, w0, 3 * BLOCK)):
        with pytest.raises(ValueError):
            rates[0] = 0.0
    assert model.v2i_rates(1, w0, 1)[0] == first


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


def array_window(model, vid):
    """Vehicle vid's window read off model.window_bounds(), or None."""
    first, last = model.window_bounds()
    return None if last[vid] == np.iinfo(np.int64).min else (first[vid], last[vid])


def test_service_window_respects_qos_and_horizon():
    config = default_config()
    vehicles = [VehicleState(id=1, lane=3, entry_slot=0)]
    model = PhysicalRateModel(config, vehicles)
    cov = coverage_window(vehicles[0], config)
    # Stock parameters: SNR at 200 m is ~48 dB >> 20 dB, so QoS never binds.
    assert array_window(model, 1) == cov
    short = default_config(horizon=cov[0] + 10)
    model2 = PhysicalRateModel(short, vehicles)
    assert array_window(model2, 1) == (cov[0], cov[0] + 9)


def test_service_window_qos_limited():
    from instances import default_radio
    import dataclasses
    config = default_config()
    # Raise the threshold until it bites: SNR(d)=th at d = (C/(N*th))^(1/2).
    radio = default_radio(sinr_threshold=1e6)
    config = dataclasses.replace(config, radio=radio)
    vehicles = [VehicleState(id=1, lane=3, entry_slot=0)]
    model = PhysicalRateModel(config, vehicles)
    win = array_window(model, 1)
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
        self.rate = rate

    def v2i_rates(self, vid, start, count):
        return np.full(count, self.rate)

    def rate_free(self, i, j):
        return self.rate if {i, j} == {1, 2} else 0.0

    def link_sinrs(self, links):
        return [self.sinr_threshold if self.in_range(*l) else 0.0 for l in links]

    def link_rates(self, links, sinrs=None):
        return [self.rate_free(*l) for l in links]


def test_constant_rate_stub_derives_every_query():
    stub = ConstantRateStub(rate=1.44e10, content=3e9)
    assert array_window(stub, 1) == reference_window(stub, 1)
    assert reference_window(stub, 1)[0] < 0 < reference_window(stub, 1)[1]
    assert stub.in_range(1, 2) and stub.in_range(2, 1)
    assert not stub.in_range(1, 1)
    assert stub.link_slots_free(1, 2) == 2084
    assert stub.link_slots_free(1, 1) is None
    assert stub.set_feasible([(1, 2)]) and not stub.set_feasible([(1, 2), (1, 1)])
    n, complete = stub.download(1, 0, 99)       # too short a span
    assert n == 100 and not complete
    n, complete = stub.download(1, 0, 9999)
    assert n == stub.slots_to_download(1, 0) == 2084 and complete


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
    assert array_window(stub, 1)[1] == reference_window(stub, 1)[1] == 999
    assert stub.slots_to_download(1, 0) is None        # needs 2084 slots
    assert stub.slots_to_download(1, 1000) is None     # starts past the window


def test_physical_slots_match_bruteforce_accumulation():
    config = default_config(vehicle_count=3)
    vehicles = spawn_vehicles(config, seed=12)
    model = PhysicalRateModel(config, vehicles)
    for v in vehicles:
        win = reference_window(model, v.id)
        for start in (win[0], (win[0] + win[1]) // 2):
            m = model.slots_to_download(v.id, start)
            rates = model.v2i_rates(v.id, start, m)
            assert float(np.sum(rates)) * config.road.slot_duration >= 3e9
            assert float(np.sum(rates[:-1])) * config.road.slot_duration < 3e9


def _download_with_spy(model, vid, start, end):
    """model.download's answer, and whether it handed the call to
    RateModel.download, the reference."""
    reference, calls = RateModel.download, []

    def spy(self, *args):
        calls.append(args)
        return reference(self, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(RateModel, "download", spy)
        got = model.download(vid, start, end)
    return got, bool(calls)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["midpoint", "quadrature"]),
       lanes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       gaps=st.lists(st.integers(0, 400_000), min_size=4, max_size=4),
       exponent=st.floats(5.0, 11.5),
       spans=st.lists(st.tuples(st.integers(0, 3), st.floats(0.0, 1.0),
                                st.floats(0.0, 1.0)), min_size=1, max_size=12))
def test_prefix_download_equals_the_reference(mode, lanes, gaps, exponent, spans):
    """PhysicalRateModel.download against RateModel.download on one model:
    random lanes, entries, content sizes, starts, and ends up to the end of
    the window (noncoop's stretches end before it). Each answer is the
    reference's, read off the prefix table, never from the fallback; the
    queries in drawn order grow and rebuild the tables."""
    config = default_config(vehicle_count=len(lanes), content_size=10.0 ** exponent,
                            horizon=10 ** 7)
    entries = np.cumsum(gaps[:len(lanes)]).tolist()
    vehicles = [VehicleState(i, lane, e)
                for i, (lane, e) in enumerate(zip(lanes, entries), start=1)]
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    for pick, a, b in spans:
        vid = 1 + pick % len(vehicles)
        w0, w1 = reference_window(model, vid)
        start = w0 + int(a * (w1 - w0))
        end = start + int(b * (w1 - start))
        got, fell_back = _download_with_spy(model, vid, start, end)
        assert got == RateModel.download(model, vid, start, end)
        assert not fell_back


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["midpoint", "quadrature"]),
       lanes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       gaps=st.lists(st.integers(0, 400_000), min_size=4, max_size=4),
       grants=st.lists(st.tuples(st.integers(0, 3), st.integers(-8, 180),
                                 st.integers(0, BLOCK - 1), st.integers(1, 4),
                                 st.floats(0.0, 1.0)), min_size=1, max_size=10),
       repeats=st.integers(0, 3))
def test_grant_bits_equal_the_reference(mode, lanes, gaps, grants, repeats):
    """PhysicalRateModel.grant_bits against RateModel.grant_bits, bit for
    bit: random lanes and entries, grants of 1-4 blocks at offsets from
    before the road entry to past the window, some repeated, most of them
    on blocks no other grant touches. A fresh model computes or reads
    exactly the blocks the grants cover, and no other."""
    config = default_config(vehicle_count=len(lanes), horizon=10 ** 7)
    entries = np.cumsum(gaps[:len(lanes)]).tolist()
    vehicles = [VehicleState(i, lane, e)
                for i, (lane, e) in enumerate(zip(lanes, entries), start=1)]
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    vids, starts, counts, covered = [], [], [], set()
    for pick, b, lo, span, a in grants + grants[:repeats]:
        v = vehicles[pick % len(vehicles)]
        fewest, most = max(1, (span - 1) * BLOCK - lo + 1), span * BLOCK - lo
        vids.append(v.id)
        starts.append(v.entry_slot + b * BLOCK + lo)
        counts.append(fewest + int(a * (most - fewest)))
        covered |= {(v.lane, c) for c in range(b, b + span)}
    got = model.grant_bits(vids, starts, counts)
    assert model._blocks.keys() == covered
    assert got.tolist() == RateModel.grant_bits(model, vids, starts, counts).tolist()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["midpoint", "quadrature"]),
       lanes=st.lists(st.integers(1, 3), min_size=2, max_size=6),
       gaps=st.lists(st.integers(0, 400_000), min_size=6, max_size=6),
       data=st.data())
def test_grant_bits_of_repeated_grants_equal_the_reference(mode, lanes, gaps, data):
    """Grants that repeat a (lane, offset, count) triple, across vehicles of
    one lane and within one vehicle, and grants of one offset with other
    counts, in drawn order: bit for bit RateModel.grant_bits, with each
    distinct triple summed once, counted by the slices np.add.reduceat sums."""
    config = default_config(vehicle_count=len(lanes), horizon=10 ** 7)
    entries = np.cumsum(gaps[:len(lanes)]).tolist()
    vehicles = [VehicleState(i, lane, e)
                for i, (lane, e) in enumerate(zip(lanes, entries), start=1)]
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    shapes = data.draw(st.lists(st.tuples(
        st.integers(-8, 180), st.integers(0, BLOCK - 1),
        st.lists(st.integers(1, 3 * BLOCK), min_size=1, max_size=3),
        st.lists(st.integers(0, len(vehicles) - 1), min_size=1, max_size=4)),
        min_size=1, max_size=8), label="shapes")
    grants = [(vehicles[pick], b * BLOCK + lo, n)
              for b, lo, ns, picks in shapes for n in ns for pick in picks]
    grants = [grants[i] for i in data.draw(st.permutations(range(len(grants))),
                                           label="order")]
    vids = [v.id for v, _, _ in grants]
    starts = [v.entry_slot + k for v, k, _ in grants]
    counts = [n for _, _, n in grants]
    summed = []

    class Add:
        def reduceat(self, a, edges):
            summed.extend((edges[1::2] - edges[::2]).tolist())
            return np.add.reduceat(a, edges)

    class Numpy:
        add = Add()

        def __getattr__(self, name):
            return getattr(np, name)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ratemodel, "np", Numpy())
        got = model.grant_bits(vids, starts, counts)
    assert got.tolist() == RateModel.grant_bits(model, vids, starts, counts).tolist()
    assert sorted(summed) == sorted(n for _, _, n in {(v.lane, k, n) for v, k, n in grants})


def test_models_keep_under_30_attributes():
    """A serial-tdma model and an audit model, which make no V2V query, and
    a proposed model, whose V2V queries add the neighbour lists, keep fewer
    than 30 instance attributes: at 30, CPython 3.11 reads every attribute
    more slowly, and serial-tdma's schedule at 1,600 vehicles took about 4%
    longer."""
    audit = importlib.import_module("v2xcast.audit")
    config = stock_config()
    vehicles = spawn_vehicles(config, 1)
    model = PhysicalRateModel(config, vehicles)
    result = run_scheme("serial-tdma", model, 1)
    checker = audit.AuditRateModel(config, vehicles)
    checker.grant_bits(*audit._granted_slots(result))
    proposed = PhysicalRateModel(config, vehicles)
    run_scheme("proposed", proposed, 1)
    assert all(len(vars(m)) < 30 for m in (model, checker, proposed))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_model_arrays_are_indexed_by_id(seed):
    """A model built from a shuffled population holds each vehicle's lane,
    entry slot and lateral RSU offset at the vehicle's id, not at its place
    in the list."""
    config = stock_config()
    vehicles = spawn_vehicles(config, seed)
    random.Random(seed).shuffle(vehicles)
    ids = [v.id for v in vehicles]
    assert ids != sorted(ids)
    model = PhysicalRateModel(config, vehicles)
    assert model._lane[ids].tolist() == [v.lane for v in vehicles]
    assert model._entry[ids].tolist() == [v.entry_slot for v in vehicles]
    assert model._dlr[ids].tolist() == [config.lane_offset(v.lane) for v in vehicles]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["midpoint", "quadrature"]),
       stock_seed=st.one_of(st.none(), st.integers(1, 20)), data=st.data())
def test_download_memo_answers_the_reference(mode, stock_seed, data):
    """download on drawn (vehicle, start, end) queries, repeated keys and
    vehicles of one lane at one offset among them, on a drawn_population
    or a stock seed: each answer is RateModel.download's on the
    same model and a fresh model's, and the model keeps one answer per
    (lane, start - entry, end - entry). Starts run from before the road
    entry to past the window, where download is called directly."""
    if stock_seed is None:
        config, vehicles = drawn_population(data, 400)
    else:
        config = stock_config()
        vehicles = spawn_vehicles(config, stock_seed)
    model = PhysicalRateModel(config, vehicles, rate_mode=mode)
    first, last = model.window_bounds()
    # Each lane's window in offsets from entry, from one vehicle of it.
    window = {v.lane: (int(first[v.id]) - v.entry_slot, int(last[v.id] - first[v.id]))
              for v in reversed(vehicles) if first[v.id] <= last[v.id]}
    at = st.one_of(st.sampled_from([-1.0, 0.0, 1.0, 1.25]), st.floats(-1.0, 1.3))
    shapes = data.draw(st.lists(st.tuples(at, st.floats(0.0, 1.0)),
                                min_size=1, max_size=4), label="shapes")
    queries = data.draw(st.lists(st.tuples(
        st.sampled_from([v for v in vehicles if v.lane in window]),
        st.sampled_from(shapes)), min_size=1, max_size=12), label="queries")
    keys = set()
    for v, (a, b) in queries:
        offset, span = window[v.lane]
        start = v.entry_slot + offset + int(a * span)
        end = start + int(b * span)
        got = model.download(v.id, start, end)
        assert got == RateModel.download(model, v.id, start, end)
        assert got == PhysicalRateModel(config, vehicles, rate_mode=mode).download(
            v.id, start, end)
        keys.add((v.lane, start - v.entry_slot, end - v.entry_slot))
    assert model._downloads.keys() == keys


def test_serial_tdma_computes_each_download_once():
    """serial-tdma on the 1,600-vehicle benchmark config, seed 1: the
    model computes each (lane, start - entry, end - entry) download once,
    though most grants repeat a key: an idle RSU starts a grant at its
    vehicle's window opening, the same offset for every vehicle of a
    lane."""
    config = load_config(Path(__file__).parent.parent / "perfbench" / "configs"
                         / "rsu-1600.cfg")
    computed, calls = Counter(), Counter()
    download, uncached = PhysicalRateModel.download, PhysicalRateModel._download

    def key(model, vid, start, end):
        lane, entry = model._lane_entry[vid]
        return id(model), lane, start - entry, end - entry

    def counting(model, *args):
        calls[key(model, *args)] += 1
        return download(model, *args)

    def computing(model, *args):
        computed[key(model, *args)] += 1
        return uncached(model, *args)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PhysicalRateModel, "download", counting)
        mp.setattr(PhysicalRateModel, "_download", computing)
        result, _, _ = run_scenario(config, 1, "serial-tdma")
    assert len(result.selection.grants) == sum(calls.values()) == 1600
    assert computed.keys() == calls.keys()
    assert max(computed.values()) == 1 and len(computed) < 1000


class _ConstantMemo(PhysicalRateModel):
    """A physical model whose memo holds one rate, 2**33 bits/s, at every
    offset, except `spikes`: offset -> rate. Sums of up to 2**20 such rates
    are exact."""

    RATE = 2.0 ** 33
    spikes: dict = {}

    def _block(self, lane, b):
        rates = np.full(BLOCK, self.RATE)
        for k, r in self.spikes.items():
            if k // BLOCK == b:
                rates[k % BLOCK] = r
        rates.setflags(write=False)
        return rates


def _constant_memo_model(content_size, spikes=None):
    config = default_config(vehicle_count=1, content_size=content_size)
    model = _ConstantMemo(config, [VehicleState(1, 1, 0)])
    model.spikes = spikes or {}
    return model


def test_download_falls_back_when_the_crossing_is_inside_delta():
    """Content of exactly 700 slots at a constant rate: the table's bits
    of 700 slots equal the content, inside the certificate's Delta, so the
    guess is refused and the reference decides; 699.5 slots' worth is
    decided by the table."""
    dt = default_config().road.slot_duration
    whole = float(np.cumsum(np.full(700, _ConstantMemo.RATE))[-1] * dt)
    model = _constant_memo_model(whole)
    start = 3 * BLOCK + 100
    got, fell_back = _download_with_spy(model, 1, start, start + 5000)
    assert fell_back
    assert got == RateModel.download(model, 1, start, start + 5000) == (700, True)
    model = _constant_memo_model(699.5 * _ConstantMemo.RATE * dt)
    got, fell_back = _download_with_spy(model, 1, start, start + 5000)
    assert not fell_back and got == (700, True)


@pytest.mark.parametrize("spike", [math.inf, math.nan])
def test_download_falls_back_on_a_table_that_is_not_finite(spike):
    """A rate that is not finite past the scanned slots, but in the block
    the table reads, leaves the table's last value not finite: the
    reference decides, and its answer stands."""
    dt = default_config().road.slot_duration
    start = 3 * BLOCK + 100
    content = 99.5 * _ConstantMemo.RATE * dt
    model = _constant_memo_model(content, {4 * BLOCK - 1: spike})
    got, fell_back = _download_with_spy(model, 1, start, start + 500)
    assert fell_back and not math.isfinite(model._prefixes[1][1][-1])
    assert got == RateModel.download(model, 1, start, start + 500) == (100, True)
    got, fell_back = _download_with_spy(_constant_memo_model(content), 1,
                                        start, start + 500)
    assert not fell_back and got == (100, True)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(mode=st.sampled_from(["midpoint", "quadrature"]),
       threshold_db=st.floats(20.0, 72.0), lateral=st.floats(0.0, 150.0),
       lanes=st.integers(1, 6), lane_width=st.floats(2.0, 8.0),
       rsu_x=st.floats(0.0, 2000.0), arrival=st.floats(0.5, 50.0),
       count=st.integers(1, 60), horizon=st.integers(1, 3_000_000),
       seed=st.integers(1, 1000), speed_exp=st.floats(-16.0, 1.5),
       slot_exp=st.floats(-8.0, -2.0))
@example(mode="midpoint", threshold_db=20.0, lateral=0.0, lanes=5, lane_width=4.0,
         rsu_x=500.0, arrival=2.0, count=100, horizon=1_000_000, seed=1,
         speed_exp=-13.0, slot_exp=-4.0)
def test_window_arrays_equal_service_window(mode, threshold_db, lateral, lanes,
                                            lane_width, rsu_x, arrival, count,
                                            horizon, seed, speed_exp, slot_exp):
    """window_bounds against reference_window per vehicle on random valid
    configs, for PhysicalRateModel and for TableRateModel with and without
    geometric coverage: windows clipped by the horizon, vehicles that enter
    after it, lanes beyond the QoS radius that are never served, and steps
    of travel per slot so short that a window would open past the int64
    range. The explicit example is configs/default.cfg, seed 1, at 1e-13
    m/s, where every window opens near slot 3e19 and no vehicle is served."""
    assume(lateral + (lanes - 0.5) * lane_width < 200.0)
    road = RoadConfig(lane_count=lanes, lane_width=lane_width, rsu_longitudinal=rsu_x,
                      rsu_lateral_offset=lateral, speed=10 ** speed_exp,
                      arrival_rate=arrival, vehicle_count=count,
                      slot_duration=10 ** slot_exp, horizon=horizon)
    config = validate(ScenarioConfig(default_radio(sinr_threshold=10 ** (threshold_db / 10)),
                                     road))
    vehicles = spawn_vehicles(config, seed)
    for model in (PhysicalRateModel(config, vehicles, rate_mode=mode),
                  TableRateModel(config, vehicles, {}, {}),
                  TableRateModel(config, vehicles, {}, {}, geometric_coverage=False)):
        for v in vehicles:
            assert array_window(model, v.id) == reference_window(model, v.id), \
                (type(model).__name__, v)


def test_window_arrays_cover_clipped_and_unservable_vehicles():
    """The window test's cases, pinned: one config where the horizon clips
    a window, a vehicle enters after the horizon, and a lane lies beyond
    the QoS radius."""
    road = RoadConfig(lane_count=5, rsu_lateral_offset=40.0, vehicle_count=40,
                      arrival_rate=5.0, horizon=250_000)
    config = validate(ScenarioConfig(default_radio(sinr_threshold=10 ** 6.1), road))
    vehicles = spawn_vehicles(config, 3)
    model = PhysicalRateModel(config, vehicles)
    windows = [reference_window(model, v.id) for v in vehicles]
    full = [coverage_window(v, config, radius=model._serve_radius) for v in vehicles]
    assert any(w is None and f is None for w, f in zip(windows, full))  # QoS radius
    assert any(w is None and f is not None for w, f in zip(windows, full))  # too late
    assert any(w is not None and w != f for w, f in zip(windows, full))  # clipped
    for v, win in zip(vehicles, windows):
        assert array_window(model, v.id) == win


def test_window_arrays_serve_no_lane_beyond_the_radius():
    """A lane beyond the serving radius has no window, also where the two
    ends of the coverage formula meet on a whole slot: a 1 m step and an
    RSU half a slot off the grid."""
    road = RoadConfig(slot_duration=1 / 16, speed=16.0, rsu_longitudinal=500.5,
                      rsu_lateral_offset=40.0, arrival_rate=0.5, vehicle_count=20,
                      horizon=10 ** 6)
    config = validate(ScenarioConfig(default_radio(sinr_threshold=10 ** 6.1), road))
    vehicles = spawn_vehicles(config, 1)
    model = PhysicalRateModel(config, vehicles)
    beyond = [v for v in vehicles if config.lane_offset(v.lane) >= model._serve_radius]
    assert beyond and all(reference_window(model, v.id) is None for v in beyond)
    assert all(array_window(model, v.id) is None for v in beyond)


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


def test_runs_do_not_depend_on_the_order_of_configs():
    """The V2I memo is carried between models, and the audit's V2I table
    between audits, so a carry key that missed an input of the V2I rate
    would make a run depend on the runs before it. Stock seeds 1-3, every
    scheme, both rate modes, audited: each run's canonical text and audit
    report are the same run in order, in reverse, and interleaved with
    runs of other configs. Every vehicle enters coverage at the same
    offsets, so a faster road reads other memo blocks than the stock one;
    the RSU set back by 1 m, or a weaker RSU transmitter, reads the same
    blocks at other rates."""
    stock = stock_config()
    others = [stock_config(speed_mps=25), stock_config(rsu_lateral_m=1),
              stock_config(pt_dbm=27)]
    matrix = [(seed, scheme, mode) for mode in ("midpoint", "quadrature")
              for seed in (1, 2, 3) for scheme in SCHEMES]

    def text(config, run):
        seed, scheme, mode = run
        result, report, audit_report = run_scenario(
            config, seed, scheme, rate_mode=mode, with_audit=True)
        assert audit_report.ok
        return canonical(result, report) + str(audit_report)

    in_order = [text(stock, run) for run in matrix]
    reverse = [text(stock, run) for run in reversed(matrix)][::-1]
    interleaved = []
    for k, run in enumerate(matrix):
        other = text(others[k % len(others)], run)
        interleaved.append(text(stock, run))
        assert other != interleaved[-1]
    assert in_order == reverse
    assert in_order == interleaved
