import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from v2xcast.harness import run_scenario
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.v2i import (GrantLoop, Others, evaluate_candidates, min_utility,
                         select_v2i_paths, two_hop_estimate)
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import default_config, six_vehicle_instance, vehicles_at
from test_golden import canonical, stock_config


@settings(max_examples=100, deadline=None, derandomize=True)
@given(members=st.sets(st.integers(0, 6)), skip=st.integers(0, 6),
       later=st.integers(0, 6))
def test_others_is_the_set_less_one_vehicle(members, skip, later):
    """Others(members, skip) answers membership and emptiness as the copy
    members - {skip} does, and follows later changes to members."""
    others = Others(members, skip)
    for _ in range(2):
        copy = members - {skip}
        assert bool(others) == bool(copy)
        assert [v for v in range(-1, 8) if v in others] == sorted(copy)
        members ^= {later}


def test_two_hop_single_candidate_uses_single_link():
    config = default_config(vehicle_count=2)
    vehicles = vehicles_at(config, [(510.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    est = two_hop_estimate(model, 2, 0, [1])
    assert est.first_hop == 1 and est.second_hop is None
    assert est.chain_slots == model.link_slots_free(2, 1)


def test_two_hop_equidistant_tie_prefers_lower_id():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(506.0, 1), (500.0, 1), (494.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    est = two_hop_estimate(model, 2, 0, [1, 3])  # 1 and 3 both 6 m away
    assert est.first_hop == 1


def test_two_hop_no_neighbor_in_range_gets_horizon_sentinel():
    config = default_config(vehicle_count=2)
    vehicles = vehicles_at(config, [(600.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    est = two_hop_estimate(model, 2, 0, [1])
    assert est.first_hop is None
    assert est.chain_slots == model.horizon
    assert two_hop_estimate(model, 2, 0, []).chain_slots == 0


def test_two_hop_rsi_infeasible_chain_falls_back_to_first_hop():
    # Collinear 10 m + 10 m chain: the relay's receive SINR under the
    # full-duplex penalty (~86) sits below the 100 threshold.
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(520.0, 1), (510.0, 1), (500.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    est = two_hop_estimate(model, 3, 0, [1, 2])
    assert est.first_hop == 2
    assert est.second_hop is None
    assert est.chain_slots == model.link_slots_free(3, 2)


def test_two_hop_cross_lane_chain_is_feasible():
    # Short first hop (6 m, same lane) plus a cross-lane second hop whose
    # lateral offset pushes the head interferer into the sidelobe.
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(503.0, 1), (500.0, 3), (497.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    est = two_hop_estimate(model, 1, 0, [2, 3])
    assert est.first_hop == 3 and est.second_hop == 2
    chain = [(1, 3), (3, 2)]
    assert all(s >= 100.0 for s in model.link_sinrs(chain))
    import math
    rates = model.link_rates(chain)
    dt = model.slot_duration
    expected = max(math.ceil(3e9 / (r * dt)) for r in rates)
    assert est.chain_slots == expected


def test_select_on_reference_instance():
    config, vehicles, model = six_vehicle_instance()
    sel = select_v2i_paths(model)
    assert [g.vehicle for g in sel.grants] == [3, 1]
    assert [g.n_slots for g in sel.grants] == [2, 3]
    assert sel.t_v2i == 5
    assert set(sel.v_a) == {1, 3}
    assert set(sel.v_b) == {2, 4, 5, 6}
    chains = {c.vehicle: (c.first_hop, c.second_hop) for c in sel.chains}
    assert chains == {3: (5, 6), 1: (2, 4)}
    assert not sel.incomplete


def test_select_single_vehicle():
    config = default_config(vehicle_count=1)
    vehicles = vehicles_at(config, [(0.0, 3)])
    model = PhysicalRateModel(config, vehicles)
    sel = select_v2i_paths(model)
    assert len(sel.grants) == 1
    assert sel.v_b == ()
    assert sel.t_v2i == sel.grants[0].n_slots
    assert sel.t_v2i == model.slots_to_download(1, sel.grants[0].start_slot)


def test_select_three_clustered_vehicles_need_one_grant():
    config = default_config(vehicle_count=3)
    vehicles = vehicles_at(config, [(503.0, 1), (500.0, 3), (497.0, 1)])
    model = PhysicalRateModel(config, vehicles)
    sel = select_v2i_paths(model)
    assert len(sel.grants) == 1
    covered = {sel.grants[0].vehicle}
    covered.update(x for c in sel.chains for x in (c.first_hop, c.second_hop)
                   if x is not None)
    assert covered == {1, 2, 3}


def test_granted_vehicle_minimizes_utility_at_its_clock():
    config, vehicles, model = six_vehicle_instance()
    sel = select_v2i_paths(model)
    v_b = set(model.ids)
    covered = set()
    for grant, chain in zip(sel.grants, sel.chains):
        pool = v_b - covered
        evals = evaluate_candidates(model, GrantLoop(model, v_b, pool,
                                                     grant.start_slot))
        best = min(e.utility for e in evals)
        winner_eval = next(e for e in evals if e.vehicle == grant.vehicle)
        assert winner_eval.utility == best
        covered |= {grant.vehicle}
        covered.update(x for x in (chain.first_hop, chain.second_hop) if x is not None)
        v_b.discard(grant.vehicle)


def test_select_is_deterministic():
    _, _, model_a = six_vehicle_instance()
    _, _, model_b = six_vehicle_instance()
    assert select_v2i_paths(model_a) == select_v2i_paths(model_b)


def test_literal_termination_grants_until_last_vehicle():
    config, vehicles, model = six_vehicle_instance()
    sel = select_v2i_paths(model, termination="literal")
    assert [g.vehicle for g in sel.grants] == [3, 1, 2, 6]
    assert sel.t_v2i == 9
    assert 6 not in sel.v_b


def test_literal_termination_waits_for_the_last_vehicle_to_enter():
    """Vehicle 1 enters last but has the lowest id: the literal rule must
    grant it, not stop once the highest id, 3, is granted."""
    config = default_config(vehicle_count=3)
    model = PhysicalRateModel(config, [VehicleState(1, 1, 9000),
                                       VehicleState(2, 1, 0),
                                       VehicleState(3, 2, 3000)])
    assert GrantLoop(model, set(), set()).order == [2, 3, 1]
    sel = select_v2i_paths(model, termination="literal")
    assert [g.vehicle for g in sel.grants] == [2, 3, 1]
    assert sel.v_b == () and not sel.incomplete
    assert [g.vehicle for g in select_v2i_paths(model).grants] == [2]


def pool_checking_pick(model, vehicles, termination):
    """min_utility, checking at every call that the loop hands it the pool
    of the termination rule written out from scratch: every id less the
    granted ones and, under coverage, less those their chains claimed; and
    that the rule has not yet stopped the loop. Returns the pick and a
    function telling whether the rule would stop it now."""
    ids, granted, claimed = set(model.ids), set(), set()

    last_in = max(vehicles, key=lambda v: (v.entry_slot, v.id)).id

    def done():
        if termination == "coverage":
            return not ids - granted - claimed
        return last_in in granted

    def pick(model, loop):
        assert not done()
        assert loop.v_b == ids - granted
        if termination == "coverage":
            assert loop.pool == ids - granted - claimed
        else:
            assert loop.pool == loop.v_b
        winner = min_utility(model, loop)
        if winner is not None:
            granted.add(winner.vehicle)
            claimed.update({winner.first_hop, winner.second_hop} - {None})
        return winner
    return pick, done


def pool_cases():
    """(model, vehicles) pairs."""
    _, vehicles, model = six_vehicle_instance()
    yield model, vehicles
    config = stock_config()
    for seed in range(1, 6):
        vehicles = spawn_vehicles(config, seed)
        yield PhysicalRateModel(config, vehicles), vehicles


@pytest.mark.parametrize("termination", ["coverage", "literal"])
def test_pick_sees_the_pool_of_its_termination_rule(termination):
    for model, vehicles in pool_cases():
        pick, done = pool_checking_pick(model, vehicles, termination)
        sel = select_v2i_paths(model, termination, pick=pick)
        assert sel.incomplete or done()
        assert sel == select_v2i_paths(model, termination)


def test_unknown_termination_rejected():
    _, _, model = six_vehicle_instance()
    with pytest.raises(ValueError, match="termination"):
        select_v2i_paths(model, termination="whenever")


def test_grant_count_bounds_with_full_chains():
    config, vehicles, model = six_vehicle_instance()
    sel = select_v2i_paths(model)
    n = len(model.ids)
    assert -(-n // 3) <= len(sel.grants) <= n


def test_uncoverable_vehicle_flags_incomplete():
    # One vehicle per road end; the trailing one never enters coverage
    # within the horizon.
    config = default_config(vehicle_count=2, horizon=200_000)
    vehicles = [VehicleState(1, 3, 0), VehicleState(2, 3, 10_000_000)]
    model = PhysicalRateModel(config, vehicles)
    sel = select_v2i_paths(model)
    assert sel.incomplete
    assert 2 in sel.v_b


def idle_jumps(monkeypatch):
    """The slot of every idle jump made from now on; the last search of an
    incomplete loop finds none and is not a jump."""
    jumps, next_opening = [], GrantLoop.next_opening

    def counted(loop):
        nxt = next_opening(loop)
        if nxt is not None:
            jumps.append(nxt)
        return nxt
    monkeypatch.setattr(GrantLoop, "next_opening", counted)
    return jumps


@pytest.mark.parametrize("scheme", ["proposed", "random"])
def test_idle_jumps_skip_windows_nobody_can_finish(monkeypatch, scheme):
    """At 1,000 Gbit nobody can finish inside a window. The idle clock must
    jump from window opening to window opening, at most once per vehicle,
    not walk each open window one slot at a time."""
    jumps = idle_jumps(monkeypatch)
    result, report, audit = run_scenario(stock_config(content_gbit=1000), 1,
                                         scheme, with_audit=True)
    assert 0 < len(jumps) <= 100 and jumps == sorted(set(jumps))
    assert report.total_slots == 0 and report.unserved_count == 100
    assert audit.ok, str(audit)


# sha256 of test_golden.canonical at 60 Gbit, seed 1, computed by the idle
# loop that walked each open window one slot at a time.
IDLE_WALK_DIGESTS = {
    "proposed": "857b872482756cdb38fd90ac1b29788ef3f33e4e069339cc58f8dca668d84f20",
    "random": "dcd619ff2c493f0d9d563e36cf796d3816f7da1d2a386412df8eea331e8927d8",
}


@pytest.mark.parametrize("scheme", sorted(IDLE_WALK_DIGESTS))
def test_idle_jumps_leave_the_schedule_of_the_slot_walk(scheme):
    result, report, _ = run_scenario(stock_config(content_gbit=60), 1, scheme)
    assert hashlib.sha256(canonical(result, report).encode()).hexdigest() == \
        IDLE_WALK_DIGESTS[scheme]
