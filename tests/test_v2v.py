import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.v2v import (CHUNK, _cap, best_first_hop, build_pairing,
                         conflict, run_pairing, schedule_v2v)
from v2xcast.vehicles import VehicleState
from instances import (CrowdedTableRateModel, TableRateModel, default_config,
                       six_vehicle_instance, vehicles_at)


def _table(config, vehicles, v2i, pairs):
    return TableRateModel(config, vehicles, v2i,
                          {frozenset(k): v for k, v in pairs.items()},
                          geometric_coverage=False)


def test_best_first_hop_prefers_nearest():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(515.0, 1), (505.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    assert best_first_hop(model, 3, {1, 2}) == (3, 2)   # 5 m beats 15 m
    assert best_first_hop(model, 3, {1}) == (3, 1)
    assert best_first_hop(model, 1, set()) is None


def test_best_first_hop_none_in_range():
    config = default_config(vehicle_count=2)
    vehicles = vehicles_at(config, [(600.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    assert best_first_hop(model, 2, {1}) is None


def test_best_first_hop_tie_takes_lower_id():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(506.0, 1), (500.0, 1), (494.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    assert best_first_hop(model, 2, {1, 3}) == (2, 1)


def _all_in_range():
    """Four vehicles, every pair in range on a table model, so no link is
    ever refused on physics: only the pairing's structure can refuse one."""
    config = default_config(vehicle_count=4)
    vehicles = vehicles_at(config, [(515.0, 1), (510.0, 1), (505.0, 1), (500.0, 1)])
    return _table(config, vehicles, {i: 2 for i in range(1, 5)},
                  {(i, j): 3 for i in range(1, 5) for j in range(i + 1, 5)})


def _scripted(model, v_a, v_b, first, relays=None):
    """build_pairing with hooks that propose the `first` links in order and
    the relay hop relays[receiver] after each committed first hop."""
    relays = relays or {}
    return build_pairing(model, v_a, v_b,
                         first_hops=lambda model, va, vb: iter(first),
                         next_hop=lambda model, rx, vb: relays.get(rx))


def test_build_pairing_on_shared_nodes():
    model = _all_in_range()
    # A shared transmitter: a source sends once per pairing.
    assert _scripted(model, {1}, {2, 3, 4}, [(1, 2), (1, 3)])[0] == [(1, 2)]
    # A taken receiver, taken by a first hop or by a relay hop.
    links, va, vb = _scripted(model, {1, 3}, {2, 4}, [(1, 2), (3, 2)])
    assert links == [(1, 2)] and va == {2, 3} and vb == {4}
    assert _scripted(model, {1, 3}, {2, 4}, [(1, 2), (3, 4)],
                     {2: (2, 4)})[0] == [(1, 2), (2, 4)]
    # The sanctioned relay join: the receiver just committed forwards once,
    # through next_hop only, never as a first hop of its own.
    links, va, vb = _scripted(model, {1}, {2, 3, 4}, [(1, 2), (2, 4)],
                              {2: (2, 3)})
    assert links == [(1, 2), (2, 3)] and va == {3} and vb == {4}
    assert _scripted(model, {1}, {2, 3, 4}, [(1, 2), (2, 3)])[0] == [(1, 2)]
    # A disjoint link.
    links, va, vb = _scripted(model, {1, 3}, {2, 4}, [(1, 2), (3, 4)])
    assert links == [(1, 2), (3, 4)] and va == {2, 4} and vb == set()


def test_build_pairing_blocks_three_hop_chains():
    model = _all_in_range()
    links, va, vb = _scripted(model, {1}, {2, 3, 4}, [(1, 2), (3, 4)],
                              {2: (2, 3)})
    assert links == [(1, 2), (2, 3)] and vb == {4}


def test_build_pairing_relay_hop_must_leave_its_receiver():
    model = _all_in_range()
    for relay in [(3, 4), (1, 3), (2, 1), (2, 2)]:
        links, va, vb = _scripted(model, {1}, {2, 3, 4}, [(1, 2)], {2: relay})
        assert links == [(1, 2)] and va == {2} and vb == {3, 4}


def test_build_pairing_rejects_overlapping_sets():
    model = _all_in_range()
    with pytest.raises(ValueError, match="share"):
        build_pairing(model, {1, 2}, {2, 3})


def test_conflict_when_sinr_would_collapse():
    # Collinear second hop: the relay's receive SINR falls to ~86 < 100.
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(520.0, 1), (510.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    committed = [(3, 2)]   # 500 -> 510
    assert conflict(model, (2, 1), committed)


def test_no_conflict_for_far_parallel_links():
    config = default_config(vehicle_count=4)
    vehicles = vehicles_at(config, [(674.0, 1), (660.0, 1), (510.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    committed = [(4, 3)]   # 500 -> 510
    assert not conflict(model, (2, 1), committed)   # 660 -> 674, 150 m away
    assert all(s >= 100.0 for s in model.link_sinrs([(4, 3), (2, 1)]))


def test_build_pairing_reference_instance():
    config, vehicles, model = six_vehicle_instance()
    links, va, vb = build_pairing(model, {1, 3}, {2, 4, 5, 6})
    assert links == [(1, 2), (2, 4), (3, 5), (5, 6)]
    pairing = run_pairing(model, links, 0, 1)
    assert [l.relay_hop for l in pairing.links] == [False, True, False, True]
    assert vb == set()
    assert va == {4, 6}   # leaf receivers become future sources


def test_build_pairing_contested_receiver():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(510.0, 1), (505.0, 1), (500.0, 1)])
    model = _table(config, vehicles, {1: 2, 2: 2, 3: 2},
                   {(1, 3): 4, (2, 3): 4})
    links, va, vb = build_pairing(model, {1, 2}, {3})
    assert links == [(1, 3)]   # slot-count tie, lower source id commits
    assert va == {2, 3}        # loser keeps its source turn


def test_build_pairing_no_reachable_receiver():
    config = default_config(vehicle_count=2)
    vehicles = vehicles_at(config, [(600.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    links, va, vb = build_pairing(model, {1}, {2})
    assert links == []
    assert va == {1} and vb == {2}


def test_run_pairing_constant_rate_slot_count():
    config = default_config(vehicle_count=2)
    vehicles = vehicles_at(config, [(510.0, 1), (500.0, 1)])
    model = _table(config, vehicles, {1: 2, 2: 2}, {(1, 2): 7})
    pairing = run_pairing(model, [(1, 2)], start_slot=0, index=1)
    assert pairing.duration == 7
    assert pairing.links[0].slots == 7
    assert pairing.links[0].delivered >= model.content_size


def test_run_pairing_survivor_speeds_up():
    # Two cross-lane links close enough to couple through their sidelobes:
    # a 6 m link finishes first and relieves the 10 m one.
    config = default_config(vehicle_count=4)
    vehicles = vehicles_at(config, [(10.0, 1), (6.0, 5), (0.0, 1), (0.0, 5)])
    model = PhysicalRateModel(config, vehicles)
    links = [(3, 1), (4, 2)]   # 10 m in lane 1, 6 m in lane 5
    both = dict(zip(links, model.link_rates(links)))
    dt = model.slot_duration
    slower = (3, 1)
    assert both[(4, 2)] > both[slower]
    bound_if_never_relieved = math.ceil(model.content_size / (both[slower] * dt))
    pairing = run_pairing(model, links, 0, 1)
    m = {(l.tx, l.rx): l.slots for l in pairing.links}
    assert m[(4, 2)] < m[slower]
    assert m[slower] < bound_if_never_relieved
    assert pairing.duration == m[slower]


def test_run_pairing_chunked_matches_per_slot_reference():
    # Three cross-lane links of different lengths finish at staggered times;
    # the span-advancing simulation must match a naive slot-by-slot loop.
    config = default_config(vehicle_count=6)
    placements = [(10.0, 1), (8.0, 3), (6.0, 5), (0.0, 1), (0.0, 3), (0.0, 5)]
    vehicles = vehicles_at(config, placements)
    model = PhysicalRateModel(config, vehicles)
    links = [(4, 1), (5, 2), (6, 3)]
    assert all(s >= 100.0 for s in model.link_sinrs(links))
    pairing = run_pairing(model, links, 0, 1)
    got = {(l.tx, l.rx): l.slots for l in pairing.links}

    d, dt = model.content_size, model.slot_duration
    delivered = {l: 0.0 for l in links}
    m = {l: 0 for l in links}
    active = list(links)
    while active:
        rates = model.link_rates(active)
        for l, r in zip(active, rates):
            delivered[l] += r * dt
            m[l] += 1
        active = [l for l in active if delivered[l] < d]
    assert got == m
    assert pairing.duration == max(m.values())


def test_run_pairing_starvation_aborts():
    class StarvingModel:
        content_size = 1e9
        slot_duration = 1e-4
        horizon = 10 ** 6

        def phases(self, links):
            return lambda active: (None, np.zeros(len(active)))

    with pytest.raises(RuntimeError, match="starved"):
        run_pairing(StarvingModel(), [(1, 2)], 0, 1)


def test_run_pairing_nan_rate_aborts():
    """A NaN rate fails `rate > 0` as a zero one does, and names its link,
    in either mode."""
    class NaNModel:
        content_size = 1e9
        slot_duration = 1e-4
        horizon = 10 ** 6

        def phases(self, links):
            return lambda active: (None, np.array(
                [1e9 if links[m] == (1, 2) else math.nan for m in active]))

    for strict in (False, True):
        with pytest.raises(RuntimeError, match=r"link \(3, 4\) starved"):
            run_pairing(NaNModel(), [(1, 2), (3, 4)], 0, 1, strict_causality=strict)


def test_strict_causality_serializes_fast_second_hop():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(510.0, 1), (505.0, 1), (500.0, 1)])
    model = _table(config, vehicles, {1: 2, 2: 2, 3: 2},
                   {(1, 2): 4, (2, 3): 2})
    links = [(1, 2), (2, 3)]
    ideal = run_pairing(model, links, 0, 1, strict_causality=False)
    strict = run_pairing(model, links, 0, 1, strict_causality=True)
    m_ideal = {(l.tx, l.rx): l.slots for l in ideal.links}
    m_strict = {(l.tx, l.rx): l.slots for l in strict.links}
    assert m_ideal[(2, 3)] == 2          # idealized relay runs at its own rate
    assert m_strict[(2, 3)] == 4         # capped by what the relay received
    assert strict.links[1].delivered >= model.content_size


def test_strict_causality_holds_at_every_slot():
    # Independent per-slot re-derivation: with constant table rates the
    # relay's cumulative forwarded bits never exceed its cumulative received
    # bits, and the emulation reproduces the traced slot counts.
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(510.0, 1), (505.0, 1), (500.0, 1)])
    model = _table(config, vehicles, {1: 2, 2: 2, 3: 2},
                   {(1, 2): 5, (2, 3): 2})
    links = [(1, 2), (2, 3)]
    pairing = run_pairing(model, links, 0, 1, strict_causality=True)
    m = {(l.tx, l.rx): l.slots for l in pairing.links}
    r1, r2 = model.rate_free(1, 2), model.rate_free(2, 3)
    dt, d = model.slot_duration, model.content_size
    received = forwarded = 0.0
    m1 = m2 = 0
    for _ in range(pairing.duration):
        if received < d:
            received += r1 * dt
            m1 += 1
        if forwarded < d:
            forwarded += min(r2 * dt, received - forwarded)
            m2 += 1
        assert forwarded <= received * (1 + 1e-12)
    assert (m1, m2) == (m[(1, 2)], m[(2, 3)])
    assert forwarded >= d


def test_strict_pairing_stops_once_past_the_horizon():
    # A 5000-slot link with 100 slots left before the horizon: a strict
    # span never runs past the slots left, so the pairing stops one slot
    # past the budget instead of walking the link to completion.
    config = default_config(vehicle_count=2, horizon=1000)
    vehicles = vehicles_at(config, [(510.0, 1), (500.0, 1)])
    model = _table(config, vehicles, {1: 2, 2: 2}, {(1, 2): 5000})
    pairing = run_pairing(model, [(1, 2)], start_slot=900, index=1,
                          strict_causality=True)
    assert pairing.duration == 101
    assert pairing.links[0].delivered < model.content_size
    for strict in (False, True):
        sched = schedule_v2v(model, {1}, {2}, t_v2i=900, strict_causality=strict)
        assert sched.pairings == () and sched.unserved == (2,)


def _per_slot_strict(model, links, relay_flags, start_slot):
    """The strict-causality slot loop, one slot per iteration: the oracle
    that run_pairing's span advance must match float for float."""
    d_target, dt = model.content_size, model.slot_duration
    active = list(links)
    delivered = {l: 0.0 for l in links}
    m = {l: 0 for l in links}
    feeder_of = {}
    for l, flag in zip(links, relay_flags):
        if flag:
            feeds = [f for f in links if f[1] == l[0]]
            if feeds:
                feeder_of[l] = feeds[0]
    rates: dict = {}
    elapsed = 0
    while active and elapsed <= model.horizon - start_slot:
        if len(rates) != len(active):
            rates = dict(zip(active, model.link_rates(active)))
        for l in active:
            grain = rates[l] * dt * 1
            if l in feeder_of:
                grain = min(grain, max(0.0, delivered[feeder_of[l]] - delivered[l]))
            delivered[l] += grain
            m[l] += 1
        elapsed += 1
        active = [l for l in active if delivered[l] < d_target]
    return m, delivered


def _chain_pairing(chains, horizon, crowded):
    """Chain k is 3k+1 -> 3k+2 (first hop) and, when it has a relay slot
    count, 3k+2 -> 3k+3 (relay hop), in commit order."""
    config = default_config(vehicle_count=3 * len(chains), horizon=horizon)
    vehicles = [VehicleState(id=i, lane=1, entry_slot=0)
                for i in range(1, 3 * len(chains) + 1)]
    pairs, links, flags = {}, [], []
    for k, (first, relay) in enumerate(chains):
        a, b, c = 3 * k + 1, 3 * k + 2, 3 * k + 3
        pairs[frozenset((a, b))] = first
        links.append((a, b))
        flags.append(False)
        if relay is not None:
            pairs[frozenset((b, c))] = relay
            links.append((b, c))
            flags.append(True)
    table = CrowdedTableRateModel if crowded else TableRateModel
    model = table(config, vehicles, {i: 2 for i in range(1, 3 * len(chains) + 1)},
                  pairs, geometric_coverage=False)
    return model, links, flags


_SLOTS = st.integers(1, 3 * CHUNK)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chains=st.lists(  # relay slot count: none, any, or 0 for the feeder's
           st.tuples(_SLOTS, st.none() | _SLOTS | st.just(0)).map(
               lambda c: (c[0], c[0] if c[1] == 0 else c[1])),
           min_size=1, max_size=4),
       start=st.integers(0, 50),
       budget=st.just(10 ** 6) | st.integers(1, 8 * CHUNK),
       crowded=st.booleans())
@example(chains=[(3000, 1000)], start=0, budget=10 ** 6, crowded=False)  # faster relay
@example(chains=[(1000, 3000)], start=0, budget=10 ** 6, crowded=False)  # feeder done first
@example(chains=[(2500, 2500), (900, None)], start=0, budget=10 ** 6,
         crowded=False)                                                 # equal rates
@example(chains=[(3 * CHUNK, 2 * CHUNK), (CHUNK + 7, 3 * CHUNK)],
         start=0, budget=10 ** 6, crowded=True)                         # spans > CHUNK
@example(chains=[(5000, 4000)], start=900, budget=100, crowded=False)   # horizon cut
def test_strict_span_advance_matches_per_slot_loop(chains, start, budget, crowded):
    """Random chains on table rates, against the per-slot loop: relays
    faster than, slower than and equal to their feeder, feeders that finish
    first, links longer than a chunk, and a horizon (start + budget) that
    cuts the pairing short."""
    model, links, flags = _chain_pairing(chains, start + budget, crowded)
    pairing = run_pairing(model, links, start, 1, strict_causality=True)
    m, delivered = _per_slot_strict(model, links, flags, start)
    assert [(l.tx, l.rx) for l in pairing.links] == links
    assert [l.relay_hop for l in pairing.links] == flags
    assert [l.slots for l in pairing.links] == [m[l] for l in links]
    assert [l.delivered for l in pairing.links] == [delivered[l] for l in links]
    assert all(type(l.delivered) is float for l in pairing.links)
    assert pairing.duration == max(m.values())


def _per_slot_relaxed(model, links, start_slot):
    """The relaxed slot loop, one slot per iteration: between changes of
    the active set every link gains rate * dt * k after k slots, and the
    span ends at the first slot k by which some link's missing bits over
    rate * dt are at most k. The oracle that run_pairing's one ceil and one
    min must match, float for float."""
    d_target, dt = model.content_size, model.slot_duration
    active = list(links)
    delivered = {l: 0.0 for l in links}
    m = {l: 0 for l in links}
    rates: dict = {}
    elapsed = 0
    while active and elapsed <= model.horizon - start_slot:
        if len(rates) != len(active):
            rates = dict(zip(active, model.link_rates(active)))
        k = 1
        while all((d_target - delivered[l]) / (rates[l] * dt) > k for l in active):
            k += 1
        for l in active:
            delivered[l] += rates[l] * dt * k
            m[l] += k
        elapsed += k
        active = [l for l in active if delivered[l] < d_target]
    return m, delivered


@settings(max_examples=60, deadline=None, derandomize=True)
@given(chains=st.lists(  # relay slot count: none, any, or 0 for the feeder's
           st.tuples(_SLOTS, st.none() | _SLOTS | st.just(0)).map(
               lambda c: (c[0], c[0] if c[1] == 0 else c[1])),
           min_size=1, max_size=4),
       start=st.integers(0, 50),
       budget=st.just(10 ** 6) | st.integers(1, 8 * CHUNK),
       crowded=st.booleans())
@example(chains=[(3000, 1000)], start=0, budget=10 ** 6, crowded=False)  # faster relay
@example(chains=[(2500, 2500), (900, None)], start=0, budget=10 ** 6,
         crowded=True)                                                  # equal rates
@example(chains=[(5000, 4000), (300, 200)], start=900, budget=100,
         crowded=False)                                                 # horizon cut
def test_relaxed_span_advance_matches_per_slot_loop(chains, start, budget, crowded):
    """Random chains on table rates, relaxed, against the per-slot loop:
    relay hops run at their own rate, and a horizon (start + budget) stops
    the pairing at the first span that starts past it."""
    model, links, flags = _chain_pairing(chains, start + budget, crowded)
    pairing = run_pairing(model, links, start, 1)
    m, delivered = _per_slot_relaxed(model, links, start)
    assert [(l.tx, l.rx) for l in pairing.links] == links
    assert [l.relay_hop for l in pairing.links] == flags
    assert [l.slots for l in pairing.links] == [m[l] for l in links]
    assert [l.delivered for l in pairing.links] == [delivered[l] for l in links]
    assert all(type(l.delivered) is float for l in pairing.links)
    assert pairing.duration == max(m.values())


def test_relay_listed_before_its_feeder_is_refused():
    """build_pairing commits a relay hop right after its feeder; a link list
    out of that order is refused, not simulated, in either mode."""
    model, links, _ = _chain_pairing([(60, 25), (40, 90)], 10 ** 6, True)
    for strict in (False, True):
        for out_of_order in (links[::-1], [links[1], links[0]]):
            with pytest.raises(ValueError, match="listed before its feeder"):
                run_pairing(model, out_of_order, 0, 1, strict_causality=strict)
        assert run_pairing(model, links, 0, 1, strict_causality=strict).duration > 0


def _step_loop(x, g, feed):
    """A relay hop's backlog stepped one slot at a time: the oracle that
    _cap must match float for float."""
    path = [x]
    for f in feed.tolist():
        x += min(g, max(0.0, f - x))
        path.append(x)
    return path


def _feeder(g, start, stretches, n):
    """A feeder's backlog after each of n slots. A stretch is (slots, bits
    per slot as factors of g taken in turn, ulps each grain is moved by);
    the last grain is held to the end."""
    grains = []
    for slots, factors, ulps in stretches:
        pattern = []
        for factor in factors:
            grain = factor * g
            for _ in range(abs(ulps)):
                grain = float(np.nextafter(grain, math.copysign(math.inf, ulps)))
            pattern.append(grain)
        grains += (pattern * slots)[:slots]
    grains += grains[-1:] * (n - len(grains))
    return np.add.accumulate([start] + grains[:n])[1:]


_FACTOR = st.just(0.0) | st.just(1.0) | st.floats(0.0, 3.0)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(g=st.floats(1e3, 1e7), start=st.floats(0.0, 3e9),
       n=st.integers(1, CHUNK),
       stretches=st.lists(st.tuples(st.integers(1, CHUNK),
                                    st.lists(_FACTOR, min_size=1, max_size=6),
                                    st.integers(-3, 3)), min_size=1, max_size=5),
       chain=st.none() | st.tuples(st.floats(0.0, 1.0), _FACTOR),
       frac=st.floats(0.0, 1.0))
@example(g=1234567.891, start=2.5e9, n=CHUNK, stretches=[(CHUNK, [1.0], -3)],
         chain=None, frac=1.0)                      # a hair slower, capped start
@example(g=1234567.891, start=1e9, n=CHUNK,
         stretches=[(700, [1.0], 3), (900, [1.0], -1), (CHUNK, [1.0], 2)],
         chain=None, frac=0.999999)                 # within 3 ulps either way
@example(g=1e6, start=1e8, n=2000, stretches=[(300, [0.0], 0), (CHUNK, [3.0], 0)],
         chain=None, frac=0.999)                    # stalls, then pulls ahead
@example(g=1e6, start=1e8, n=CHUNK, stretches=[(CHUNK, [0.3, 2.9, 0.0], 0)],
         chain=(0.5, 0.7), frac=1.0)                # three-hop chain, jumpy feed
def test_cap_matches_step_loop(g, start, n, stretches, chain, frac):
    """A relay hop's capped span against the slot loop, on nondecreasing
    feeds: held constant, moving exactly g or within a few ulps of it,
    jumping up to 3g a slot, or the backlog of another relay hop."""
    feed = _feeder(g, start, stretches, n)
    if chain is not None:
        first_frac, factor = chain
        feed = np.array(_step_loop(first_frac * feed[0], factor * g, feed)[1:])
    x = frac * float(feed[0])
    path = np.full(n + 1, g)
    path[0] = x
    np.add.accumulate(path, out=path)
    _cap(path, g, feed)
    assert path.tolist() == _step_loop(x, g, feed)


def test_schedule_v2v_empty_receivers():
    config, vehicles, model = six_vehicle_instance()
    sched = schedule_v2v(model, {1, 3}, set(), t_v2i=5)
    assert sched.pairings == ()
    assert sched.t_v2v == 0
    assert sched.unserved == ()


def test_schedule_v2v_reports_stranded_vehicles():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(560.0, 1), (510.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    sched = schedule_v2v(model, {3}, {1, 2}, t_v2i=100)
    assert 1 in sched.unserved          # 50 m from everyone
    assert all(l.rx != 1 for p in sched.pairings for l in p.links)


def test_schedule_v2v_receivers_source_later_pairings():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(520.0, 1), (510.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    # 3 holds content; 2 is 10 m away, 1 another 10 m on. The collinear
    # full-duplex chain is infeasible, so content hops across two pairings.
    sched = schedule_v2v(model, {3}, {1, 2}, t_v2i=0)
    assert len(sched.pairings) == 2
    assert [(l.tx, l.rx) for l in sched.pairings[0].links] == [(3, 2)]
    assert [(l.tx, l.rx) for l in sched.pairings[1].links] == [(2, 1)]
    assert sched.unserved == ()
    assert sched.t_v2v == sum(p.duration for p in sched.pairings)


def test_schedule_v2v_respects_horizon_budget():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(520.0, 1), (510.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    full = schedule_v2v(model, {3}, {1, 2}, t_v2i=0)
    needed = full.t_v2v
    model2 = PhysicalRateModel(
        default_config(vehicle_count=3, horizon=needed - 10), vehicles)
    clipped = schedule_v2v(model2, {3}, {1, 2}, t_v2i=0)
    assert clipped.unserved != ()
