import dataclasses
import math

import pytest

from v2xcast.params import (SPEED_OF_LIGHT, ConfigError, config_from_raw,
                            from_db, parse_config_text, to_db, validate)
from instances import default_config, default_radio

RAW_DEFAULT = {
    "carrier_frequency_hz": 28e9, "pt_dbm": 30.0, "pv_dbm": 20.0,
    "bandwidth_hz": 800e6, "n0_dbm_per_mhz": -134.0, "pathloss_exp": 2.0,
    "mui_factor": 1.0, "si_cancel_exp": 8.0, "sinr_threshold_db": 20.0,
    "beamwidth_deg": 30.0, "sidelobe_gain": 0.1, "rsu_range_m": 200.0,
    "v2v_range_m": 20.0, "lane_count": 5, "lane_width_m": 4.0,
    "road_length_m": 2000.0, "rsu_longitudinal_m": 500.0, "rsu_lateral_m": 0.0,
    "speed_mps": 20.0, "arrival_rate_per_s": 2.0, "vehicle_count": 100,
    "content_gbit": 3.0, "slot_ms": 0.1, "horizon_slots": 1_000_000, "seed": 1,
}


def test_stock_parameters_are_valid():
    config = config_from_raw(dict(RAW_DEFAULT))
    assert config.radio.tx_power_rsu == pytest.approx(1.0)          # 30 dBm
    assert config.radio.tx_power_vehicle == pytest.approx(0.1)      # 20 dBm
    assert config.radio.si_cancel == pytest.approx(1e-8)
    assert config.radio.sinr_threshold == pytest.approx(100.0)      # 20 dB
    assert config.radio.beamwidth == pytest.approx(math.pi / 6)
    assert config.road.content_size == pytest.approx(3e9)
    assert config.road.slot_duration == pytest.approx(1e-4)


def test_noise_floor_matches_load_formula():
    config = config_from_raw(dict(RAW_DEFAULT))
    # 10^((n0_dbm_per_mhz + 10 log10(W/1e6) - 30)/10) watts
    expected = 10 ** ((-134 + 10 * math.log10(800e6 / 1e6) - 30) / 10)
    assert config.radio.noise_floor_w == pytest.approx(expected, rel=1e-12)
    assert config.radio.noise_floor_w == pytest.approx(3.1849e-14, rel=1e-3)


def test_path_constant_derived_from_carrier():
    rp = default_radio()
    lam = SPEED_OF_LIGHT / rp.carrier_frequency
    assert rp.path_constant == pytest.approx((lam / (4 * math.pi)) ** 2, rel=1e-12)


def test_vehicle_range_must_be_below_rsu_range():
    config = default_config()
    bad = dataclasses.replace(config, radio=default_radio(v2v_range=200.0))
    with pytest.raises(ConfigError, match="R < R_r violated"):
        validate(bad)


def test_negative_si_cancel_rejected():
    config = default_config()
    bad = dataclasses.replace(config, radio=default_radio(si_cancel=-1.0))
    with pytest.raises(ConfigError, match="si_cancel must be >= 0"):
        validate(bad)


def test_lane_beyond_rsu_range_rejected():
    # Lane 5 center sits 18 m off the edge; a 17 m RSU range cannot serve it.
    raw = dict(RAW_DEFAULT)
    raw["rsu_range_m"] = 17.0
    raw["v2v_range_m"] = 10.0
    with pytest.raises(ConfigError, match="out of RSU range"):
        config_from_raw(raw)


@pytest.mark.parametrize("key,value,msg", [
    ("pathloss_exp", 2.0, None),  # sanity row: valid
    ("mui_factor", 1.5, "mui_factor"),
    ("sidelobe_gain", 1.0, "sidelobe_gain"),
    ("beamwidth_deg", 360.0, "beamwidth"),
    ("speed_mps", 0.0, "speed"),
    ("content_gbit", 0.0, "content_size"),
    ("horizon_slots", 0, "horizon"),
    ("pathloss_exp", 0.0, "pathloss_exponent must be > 0"),
    ("pathloss_exp", math.nan, "pathloss_exponent must be finite"),
    ("content_gbit", math.inf, "content_size must be finite"),
    ("carrier_frequency_hz", math.inf, "carrier_frequency must be finite"),
])
def test_invariant_violations_name_the_field(key, value, msg):
    raw = dict(RAW_DEFAULT)
    raw[key] = value
    if msg is None:
        config_from_raw(raw)
        return
    with pytest.raises(ConfigError, match=msg):
        config_from_raw(raw)


def test_db_round_trip_is_identity():
    import random
    rng = random.Random(7)
    for _ in range(200):
        x = 10 ** rng.uniform(-20, 20)
        assert from_db(to_db(x)) == pytest.approx(x, rel=1e-12)


def test_parse_rejects_unknown_and_missing_keys():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus_key=1")
    text = "\n".join(f"{k}={v}" for k, v in RAW_DEFAULT.items() if k != "seed")
    with pytest.raises(ConfigError, match="missing keys: seed"):
        parse_config_text(text)


def test_parse_rejects_duplicates_and_bad_values():
    good = "\n".join(f"{k}={v}" for k, v in RAW_DEFAULT.items())
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text(good + "\nseed=2")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text(good.replace("speed_mps=20.0", "speed_mps=fast"))


def test_parse_allows_comments_and_blank_lines():
    text = "# header\n\n" + "\n".join(f"{k}={v}" for k, v in RAW_DEFAULT.items())
    raw = parse_config_text(text)
    assert raw["vehicle_count"] == 100


def test_config_hash_stable_and_sensitive():
    a = config_from_raw(dict(RAW_DEFAULT))
    b = config_from_raw(dict(RAW_DEFAULT))
    assert a.config_hash() == b.config_hash()
    raw = dict(RAW_DEFAULT)
    raw["content_gbit"] = 2.0
    c = config_from_raw(raw)
    assert c.config_hash() != a.config_hash()


def test_lane_offsets_for_stock_road():
    config = default_config()
    assert [config.lane_offset(l) for l in range(1, 6)] == [2.0, 6.0, 10.0, 14.0, 18.0]
