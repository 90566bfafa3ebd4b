import io
import math
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from v2xcast import cli
from v2xcast.baselines import SCHEMES
from v2xcast.harness import (SIMULATE_COLUMNS, fmt, run_scenario, sweep,
                             sweep_to_csv)
from v2xcast.params import ConfigError, load_config
from instances import child_env, default_config

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
                          capture_output=True, text=True, env=child_env())


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


def test_cli_rejects_threshold_with_zero_link_rate_in_one_line(tmp_path):
    # -200 dB clears log2's rounding: a link could pass the SINR gate while
    # its rate is 0, which used to surface as a starvation traceback.
    cfg = _write_small_config(tmp_path, pv_dbm=-205.0, sinr_threshold_db=-200.0,
                              vehicle_count=40)
    proc = _cli("simulate", "--config", str(cfg), "--scheme", "random",
                "--seed", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: sinr_threshold 1e-20 gives a zero link rate")
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


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("key, value", [("speed_mps", 1e-13), ("pathloss_exp", 0.01)])
def test_cli_stock_config_at_an_edge_value_audits_clean(tmp_path, key, value, scheme):
    """configs/default.cfg with one valid edge value runs every scheme to a
    clean audit and exit 0. At 1e-13 m/s a window's first slot, about
    3e19, is past the int64 range, so no vehicle is ever served; at a
    path-loss exponent of 0.01 the QoS radius overflows a float, so the
    RSU range alone bounds the windows."""
    cfg = _write_small_config(tmp_path, vehicle_count=100, **{key: value})
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(["simulate", "--config", str(cfg), "--scheme", scheme,
                         "--seed", "1", "--audit"])
    assert (code, err.getvalue()) == (0, "")
    row = dict(zip(*(line.split(",") for line in out.getvalue().splitlines())))
    assert (row["unserved"] == "100") == (key == "speed_mps")


def test_audited_runs_do_not_import_numpy_ma():
    """Every scheme in both rate modes, audited, in a fresh interpreter,
    leaves numpy.ma unimported. Some numpy calls (np.unique among them)
    import it on first use, which adds 1.2 MB or more to the peak
    resident memory for code no run needs."""
    code = (
        "import sys\n"
        "from v2xcast.baselines import SCHEMES\n"
        "from v2xcast.harness import run_scenario\n"
        "from v2xcast.params import load_config\n"
        f"config = load_config({str(CONFIG_PATH)!r})\n"
        "for mode in ('midpoint', 'quadrature'):\n"
        "    for scheme in SCHEMES:\n"
        "        assert run_scenario(config, 1, scheme, rate_mode=mode,\n"
        "                            with_audit=True)[2].ok\n"
        "print('numpy.ma' in sys.modules)\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_cli_speed_whose_step_underflows_fails_in_one_line(tmp_path):
    """speed_mps=1e-320 on the stock config passes every per-key check, but
    times a 0.1 ms slot it rounds to 0 m per slot, which would put every
    vehicle at one point and every window edge at a division by zero."""
    cfg = _write_small_config(tmp_path, vehicle_count=100, speed_mps=1e-320)
    proc = _cli("simulate", "--config", str(cfg), "--scheme", "serial-tdma",
                "--seed", "1", "--audit")
    assert proc.returncode == 1
    assert proc.stderr == ("error: speed_mps 9.99989e-321 and slot_ms 0.1 give a "
                           "step of 0 m per slot: slot_duration * speed rounds to 0\n")


def test_cli_arrival_slots_past_int64_fail_in_one_line(tmp_path):
    """slot_ms=1e-16 on the stock config puts arrival slots past the int64
    range: a configuration error naming slot_ms and arrival_rate_per_s,
    not a vehicle entering at a negative slot."""
    cfg = _write_small_config(tmp_path, vehicle_count=100, slot_ms=1e-16)
    proc = _cli("simulate", "--config", str(cfg), "--scheme", "serial-tdma",
                "--seed", "1", "--audit")
    assert proc.returncode == 1
    assert proc.stderr == ("error: arrival slots past the int64 range: slot_ms 1e-16 "
                           "too short for arrival_rate_per_s 2\n")


FLOAT_KEYS = [k for k, v in small_raw().items() if isinstance(v, float)]
EXTREMES = [1e10, -1e10, 1e308, -1e308, 0.0, -1.0, math.inf, math.nan]


@settings(max_examples=50, deadline=None, derandomize=True)
@given(key=st.sampled_from(FLOAT_KEYS), value=st.sampled_from(EXTREMES))
def test_cli_extreme_float_value_runs_or_fails_in_one_line(key, value):
    # Integer keys stay stock: a huge vehicle_count or horizon_slots is
    # valid and would allocate without bound.
    raw = small_raw(vehicle_count=10, **{key: value})
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "extreme.cfg"
        path.write_text("\n".join(f"{k}={v}" for k, v in raw.items()),
                        encoding="utf-8")
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(["simulate", "--config", str(path),
                             "--scheme", "serial-tdma", "--seed", "1"])
    lines = err.getvalue().splitlines()
    assert code == 0 or (code == 1 and len(lines) == 1
                         and lines[0].startswith("error:")), (code, lines)



def test_cli_sweep_value_of_the_wrong_type_names_its_key(tmp_path):
    """A sweep value is parsed by the config file's per-key rule, so both
    name the key the value was meant for."""
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out.csv"
    proc = _cli("sweep", "--config", str(cfg), "--axis", "lane_count",
                "--values", "3,2.5", "--schemes", "proposed",
                "--replicas", "1", "--base-seed", "1", "--out", str(out))
    assert (proc.returncode, proc.stderr) == (1, "error: bad value for lane_count: '2.5'\n")
    assert not out.exists()
    bad = tmp_path / "bad.cfg"
    bad.write_text(cfg.read_text().replace("lane_count=5", "lane_count=2.5"),
                   encoding="utf-8")
    proc = _cli("simulate", "--config", str(bad), "--scheme", "proposed", "--seed", "1")
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: line ")
    assert proc.stderr.endswith(": bad value for lane_count: '2.5'\n")


@pytest.mark.parametrize("flag, value, message", [
    ("--replicas", "-2", "error: replicas must be >= 1, got -2"),
    ("--values", ",", "error: values is empty"),
    ("--schemes", ",", "error: schemes is empty"),
])
def test_cli_sweep_with_nothing_to_run_fails_in_one_line(tmp_path, flag, value, message):
    """A sweep that would run nothing is a configuration error naming the
    argument, not a header-only CSV."""
    cfg = _write_small_config(tmp_path)
    out = tmp_path / "out.csv"
    args = {"--config": str(cfg), "--axis": "content_gbit", "--values": "1",
            "--schemes": "proposed", "--replicas": "1", "--base-seed": "1",
            "--out": str(out)}
    args[flag] = value
    proc = _cli("sweep", *(x for kv in args.items() for x in kv))
    assert proc.returncode == 1
    assert proc.stderr.startswith(message) and len(proc.stderr.splitlines()) == 1
    assert not out.exists()
