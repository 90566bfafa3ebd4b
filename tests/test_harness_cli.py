import subprocess
import sys
from pathlib import Path

import pytest

from v2xcast.harness import (SIMULATE_COLUMNS, fmt, run_scenario, sweep,
                             sweep_to_csv)
from v2xcast.params import ConfigError, load_config
from instances import default_config

CONFIG_PATH = Path(__file__).parent.parent / "configs" / "default.cfg"


def small_raw(**overrides):
    from v2xcast.params import parse_config_text
    raw = parse_config_text(CONFIG_PATH.read_text())
    raw.update({"vehicle_count": 20, "horizon_slots": 1_000_000})
    raw.update(overrides)
    return raw


def test_bundled_config_loads():
    config = load_config(CONFIG_PATH)
    assert config.road.vehicle_count == 100
    assert config.radio.sinr_threshold == pytest.approx(100.0)


def test_fmt_nine_significant_digits():
    assert fmt(3.0e9) == "3e+09"
    assert fmt(12345.678901234) == "12345.6789"
    assert fmt(1.2345678949e10) == "1.23456789e+10"
    assert fmt(7) == "7"
    assert fmt("proposed") == "proposed"


def test_run_scenario_deterministic_reports():
    config = default_config(vehicle_count=25)
    a = run_scenario(config, 3, "proposed")[1]
    b = run_scenario(config, 3, "proposed")[1]
    assert a == b


def test_sweep_rows_shape_and_order():
    raw = small_raw()
    rows = sweep(raw, "vehicle_count", [10, 20], ["proposed", "noncoop"],
                 replicas=2, base_seed=100)
    assert len(rows) == 8
    # Nested loop order: value, then scheme, then replica.
    heads = [(r[0], r[1], r[2], r[3], r[4]) for r in rows]
    assert heads[0] == ("vehicle_count", 10, "proposed", 0, 100)
    assert heads[1] == ("vehicle_count", 10, "proposed", 1, 101)
    assert heads[2] == ("vehicle_count", 10, "noncoop", 0, 100)
    assert heads[4] == ("vehicle_count", 20, "proposed", 0, 100)


def test_sweep_rejects_unknown_axis_listing_keys():
    with pytest.raises(ConfigError, match="valid keys.*carrier_frequency_hz"):
        sweep(small_raw(), "warp_factor", [1], ["proposed"], 1, 0)
    with pytest.raises(ConfigError, match="unknown scheme"):
        sweep(small_raw(), "vehicle_count", [5], ["greedy"], 1, 0)
    # Replica seeds would override the swept value and make it a no-op.
    with pytest.raises(ConfigError, match="cannot sweep over seed"):
        sweep(small_raw(), "seed", [1, 2], ["proposed"], 1, 0)


def test_sweep_csv_deterministic():
    raw = small_raw(vehicle_count=15)
    kwargs = dict(axis="arrival_rate_per_s", values=[1.0, 2.0],
                  schemes=["proposed"], replicas=2, base_seed=7)
    a = sweep_to_csv(raw, **kwargs)
    b = sweep_to_csv(raw, **kwargs)
    assert a == b
    header = a.splitlines()[0]
    assert header == "axis,value,scheme,replica,seed,total_slots,t_v2i,t_v2v,throughput_bps,energy_j,unserved"
    assert len(a.splitlines()) == 5


def _write_small_config(tmp_path, **overrides):
    raw = small_raw(**overrides)
    text = "\n".join(f"{k}={v}" for k, v in raw.items())
    path = tmp_path / "small.cfg"
    path.write_text(text, encoding="utf-8")
    return path


def _cli(*args):
    return subprocess.run([sys.executable, "-m", "v2xcast.cli", *args],
                          capture_output=True, text=True)


def test_cli_simulate_emits_csv_row(tmp_path):
    cfg = _write_small_config(tmp_path)
    proc = _cli("simulate", "--config", str(cfg), "--scheme", "proposed",
                "--seed", "5", "--audit")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == ",".join(SIMULATE_COLUMNS)
    cells = lines[1].split(",")
    assert cells[0] == "proposed"
    assert cells[1] == "5"
    assert int(cells[2]) == int(cells[3]) + int(cells[4])


def test_cli_rejects_bad_config(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("vehicle_count=10\n", encoding="utf-8")
    proc = _cli("simulate", "--config", str(path), "--scheme", "proposed",
                "--seed", "1")
    assert proc.returncode == 1
    assert "missing keys" in proc.stderr


def test_cli_sweep_writes_file(tmp_path):
    cfg = _write_small_config(tmp_path, vehicle_count=12)
    out = tmp_path / "out.csv"
    proc = _cli("sweep", "--config", str(cfg), "--axis", "content_gbit",
                "--values", "1,2", "--schemes", "proposed,fcfs",
                "--replicas", "1", "--base-seed", "4", "--out", str(out))
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    assert lines[1].startswith("content_gbit,1,proposed,0,4,")


def test_cli_sweep_rejects_seed_axis(tmp_path):
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out.csv"
    proc = _cli("sweep", "--config", str(cfg), "--axis", "seed",
                "--values", "1,2", "--schemes", "proposed",
                "--replicas", "1", "--base-seed", "4", "--out", str(out))
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: cannot sweep over seed")
    assert len(proc.stderr.splitlines()) == 1
    assert not out.exists()


def test_cli_rejects_zero_pathloss_exponent_in_one_line(tmp_path):
    cfg = _write_small_config(tmp_path, pathloss_exp=0.0)
    proc = _cli("simulate", "--config", str(cfg), "--scheme", "proposed",
                "--seed", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: pathloss_exponent must be > 0")
    assert len(proc.stderr.splitlines()) == 1


def test_cli_nobody_served_exits_zero(tmp_path):
    cfg = _write_small_config(tmp_path, vehicle_count=100, horizon_slots=1)
    proc = _cli("simulate", "--config", str(cfg), "--scheme", "proposed",
                "--seed", "1")
    assert proc.returncode == 0, proc.stderr
    header, row = proc.stdout.splitlines()
    assert dict(zip(header.split(","), row.split(",")))["unserved"] == "100"


def test_cli_rate_mode_and_termination_flags(tmp_path):
    cfg = _write_small_config(tmp_path, vehicle_count=10)
    a = _cli("simulate", "--config", str(cfg), "--scheme", "proposed",
             "--seed", "2", "--rate-mode", "quadrature")
    b = _cli("simulate", "--config", str(cfg), "--scheme", "proposed",
             "--seed", "2", "--v2i-termination", "literal")
    assert a.returncode == 0 and b.returncode == 0
    assert a.stdout != "" and b.stdout != ""
