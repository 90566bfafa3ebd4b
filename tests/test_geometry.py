import math
import random

import pytest

from v2xcast.vehicles import VehicleState
from instances import default_config
from reference import (Point2D, alignment_angle, coverage_window, distance,
                       distance_to_rsu, position, rsu_point)


def test_position_basic_arithmetic():
    config = default_config()
    v = VehicleState(id=1, lane=3, entry_slot=0)
    p = position(v, 10_000, config)
    assert p.x == pytest.approx(20.0)   # 1e4 slots * 1e-4 s * 20 m/s
    assert p.y == pytest.approx(10.0)   # lane 3 center
    assert position(v, 0, config).x == 0.0


def test_position_midpoint_offset():
    config = default_config()
    v = VehicleState(id=1, lane=1, entry_slot=5)
    slot_m = config.road.slot_duration * config.road.speed
    assert position(v, 5, config, midpoint=True).x == pytest.approx(0.5 * slot_m)


def test_position_before_entry_is_an_error():
    config = default_config()
    v = VehicleState(id=1, lane=1, entry_slot=100)
    with pytest.raises(ValueError, match="before entry"):
        position(v, 99, config)


def test_distance_to_rsu_abreast_and_upstream():
    config = default_config()
    v = VehicleState(id=1, lane=1, entry_slot=0)  # lane 1: 2 m offset
    slots_to_rsu = round(500.0 / (config.road.slot_duration * config.road.speed))
    assert distance_to_rsu(v, slots_to_rsu, config) == pytest.approx(2.0)
    slots_100m_short = round(400.0 / (config.road.slot_duration * config.road.speed))
    assert distance_to_rsu(v, slots_100m_short, config) == pytest.approx(
        math.hypot(100.0, 2.0))


def test_distance_well_defined_beyond_road_end():
    config = default_config()
    v = VehicleState(id=1, lane=1, entry_slot=0)
    far = round(2500.0 / (config.road.slot_duration * config.road.speed))
    assert distance_to_rsu(v, far, config) == pytest.approx(math.hypot(2000.0, 2.0))


def test_coverage_window_duration_matches_closed_form():
    config = default_config()
    v = VehicleState(id=1, lane=3, entry_slot=0)  # d_lr = 10 m
    t_in, t_out = coverage_window(v, config)
    duration_s = (t_out - t_in + 1) * config.road.slot_duration
    closed_form = 2 * math.sqrt(200.0 ** 2 - 10.0 ** 2) / 20.0  # 19.975 s
    assert abs(duration_s - closed_form) <= config.road.slot_duration * 1.001
    assert closed_form == pytest.approx(19.975, abs=1e-3)


def test_coverage_window_random_triples_match_closed_form():
    from v2xcast.params import RoadConfig, ScenarioConfig
    from instances import default_radio
    rng = random.Random(13)
    radio = default_radio(rsu_range=450.0)
    for _ in range(1000):
        radius = rng.uniform(20.0, 400.0)
        d_lr = rng.uniform(0.1, radius * 0.99)
        speed = rng.uniform(5.0, 40.0)
        road = RoadConfig(speed=speed, lane_width=2 * d_lr, lane_count=1,
                          road_length=5000.0, rsu_longitudinal=2500.0)
        config = ScenarioConfig(radio=radio, road=road)
        v = VehicleState(id=1, lane=1, entry_slot=0)
        win = coverage_window(v, config, radius=radius)
        assert win is not None
        t_in, t_out = win
        duration_s = (t_out - t_in + 1) * config.road.slot_duration
        closed_form = 2 * math.sqrt(radius ** 2 - d_lr ** 2) / speed
        assert abs(duration_s - closed_form) <= config.road.slot_duration * 1.001


def test_tangent_lane_has_empty_window():
    config = default_config()
    v = VehicleState(id=1, lane=3, entry_slot=0)
    assert coverage_window(v, config, radius=10.0) is None  # d_lr == radius


def test_doubling_speed_halves_the_window():
    slow = default_config(speed=20.0)
    fast = default_config(speed=40.0)
    v = VehicleState(id=1, lane=3, entry_slot=0)
    s_in, s_out = coverage_window(v, slow)
    f_in, f_out = coverage_window(v, fast)
    dt = slow.road.slot_duration
    assert abs((s_out - s_in + 1) * dt - 2 * (f_out - f_in + 1) * dt) <= 2 * dt + 1e-9


def test_alignment_angle_reference_cases():
    tx = Point2D(0.0, 0.0)
    target = Point2D(10.0, 0.0)
    assert alignment_angle(tx, target, target) == pytest.approx(0.0)
    assert alignment_angle(tx, target, Point2D(-5.0, 0.0)) == pytest.approx(math.pi)
    assert alignment_angle(tx, target, Point2D(0.0, 3.0)) == pytest.approx(math.pi / 2)
    assert alignment_angle(tx, target, Point2D(20.0, 0.0)) == pytest.approx(0.0)


def test_alignment_angle_rejects_degenerate_points():
    tx = Point2D(0.0, 0.0)
    with pytest.raises(ValueError):
        alignment_angle(tx, Point2D(1.0, 0.0), tx)
    with pytest.raises(ValueError):
        alignment_angle(tx, tx, Point2D(1.0, 0.0))


def test_alignment_angle_rigid_motion_invariant():
    rng = random.Random(17)
    for _ in range(200):
        pts = [Point2D(rng.uniform(-50, 50), rng.uniform(-50, 50)) for _ in range(3)]
        if distance(pts[0], pts[1]) < 1e-6 or distance(pts[0], pts[2]) < 1e-6:
            continue
        base = alignment_angle(*pts)
        ang = rng.uniform(0, 2 * math.pi)
        dx, dy = rng.uniform(-100, 100), rng.uniform(-100, 100)
        c, s = math.cos(ang), math.sin(ang)
        moved = [Point2D(c * p.x - s * p.y + dx, s * p.x + c * p.y + dy) for p in pts]
        assert alignment_angle(*moved) == pytest.approx(base, abs=1e-9)


def test_distance_symmetric_and_stationary():
    config = default_config()
    a = VehicleState(id=1, lane=2, entry_slot=0)
    b = VehicleState(id=2, lane=4, entry_slot=321)
    for t in (400, 5000, 123_456):
        pa, pb = position(a, t, config), position(b, t, config)
        assert distance(pa, pb) == distance(pb, pa)
    d1 = distance(position(a, 400, config), position(b, 400, config))
    d2 = distance(position(a, 99_000, config), position(b, 99_000, config))
    assert abs(d1 - d2) < 1e-9


def test_rsu_sits_at_the_road_edge_by_default():
    config = default_config()
    assert rsu_point(config) == Point2D(500.0, -0.0)
