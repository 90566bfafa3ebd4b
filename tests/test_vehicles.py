import numpy as np
import pytest

from v2xcast.params import ConfigError
from v2xcast.vehicles import spawn_vehicles
from instances import default_config


def test_spawn_is_deterministic():
    config = default_config()
    a = spawn_vehicles(config, seed=1)
    b = spawn_vehicles(config, seed=1)
    assert a == b
    c = spawn_vehicles(config, seed=2)
    assert a != c


def test_ids_follow_entry_order():
    config = default_config()
    vehicles = spawn_vehicles(config, seed=3)
    assert [v.id for v in vehicles] == list(range(1, 101))
    entries = [v.entry_slot for v in vehicles]
    assert entries == sorted(entries)


def test_degenerate_rate_puts_everyone_at_slot_zero():
    config = default_config(arrival_rate=1e9)
    vehicles = spawn_vehicles(config, seed=1)
    assert all(v.entry_slot == 0 for v in vehicles)


def test_mean_interarrival_matches_rate():
    # Law of large numbers: 1e5 draws at 2 vehicles/s -> mean gap 0.5 s +-2%.
    config = default_config(vehicle_count=100_000, arrival_rate=2.0)
    vehicles = spawn_vehicles(config, seed=11)
    last = vehicles[-1].entry_slot * config.road.slot_duration
    mean_gap = last / len(vehicles)
    assert abs(mean_gap - 0.5) < 0.01


def test_lanes_cover_the_road():
    config = default_config(vehicle_count=500)
    vehicles = spawn_vehicles(config, seed=5)
    lanes = {v.lane for v in vehicles}
    assert lanes == {1, 2, 3, 4, 5}


def test_same_slot_ties_sorted_by_lane():
    config = default_config(arrival_rate=1e9, vehicle_count=50)
    vehicles = spawn_vehicles(config, seed=9)
    lanes = [v.lane for v in vehicles]
    assert lanes == sorted(lanes)


def test_interarrival_quantization_rounds_half_up():
    config = default_config(vehicle_count=4, arrival_rate=2.0)
    vehicles = spawn_vehicles(config, seed=21)
    rng = np.random.default_rng(21)
    gaps = rng.exponential(0.5, 4)
    expected = np.floor(np.cumsum(gaps) / config.road.slot_duration + 0.5).astype(int)
    assert sorted(v.entry_slot for v in vehicles) == sorted(expected.tolist())


def test_arrival_slots_past_int64_are_a_config_error():
    """An entry slot int64 cannot hold is a ConfigError naming the config
    keys behind it, not a wrapped-around slot: one vehicle whose arrival
    falls on slot 2**62 is kept, and on slot 2**63 refused."""
    gap = np.random.default_rng(1).exponential(0.5, 1)[0]
    fits = default_config(vehicle_count=1, slot_duration=gap / 2.0 ** 62)
    assert spawn_vehicles(fits, seed=1)[0].entry_slot == 2 ** 62
    for slot_duration in (gap / 2.0 ** 63, 1e-20):
        config = default_config(vehicle_count=1, slot_duration=slot_duration)
        with pytest.raises(ConfigError, match="slot_ms .* arrival_rate_per_s"):
            spawn_vehicles(config, seed=1)
