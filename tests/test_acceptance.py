"""Acceptance suite: the nine exit criteria, one test each, one printed
verdict line each. Run with `pytest tests/test_acceptance.py -v -s`.

Full-scale checks use the stock config (100 vehicles, 2 veh/s, 3 Gbit);
determinism checks use a reduced population to keep subprocess runs quick.
"""

import math
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from v2xcast.audit import audit
from v2xcast.baselines import run_scheme, schedule_proposed
from v2xcast.metrics import build_report
from v2xcast.params import from_db, parse_config_text, to_db
from v2xcast.radio import antenna_gain
from v2xcast.ratemodel import PhysicalRateModel
from v2xcast.vehicles import VehicleState, spawn_vehicles
from instances import (TableRateModel, child_env, default_config,
                       six_vehicle_instance)
from oracle import optimal_total_slots

CONFIG_PATH = Path(__file__).parent.parent / "configs" / "default.cfg"
TREND_SEEDS = range(1, 21)


def verdict(n, ok, text):
    print(f"\n[criterion {n}] {'PASS' if ok else 'FAIL'}: {text}")
    assert ok, text


@pytest.fixture(scope="module")
def trend_runs():
    """MetricsReports for seeds 1..20 of the schemes the trend gates compare."""
    config = default_config()
    out = {}
    for seed in TREND_SEEDS:
        vehicles = spawn_vehicles(config, seed)
        per = {}
        for scheme in ("proposed", "fcfs", "random", "noncoop"):
            model = PhysicalRateModel(config, vehicles)
            per[scheme] = build_report(run_scheme(scheme, model, seed), config)
        out[seed] = per
    return out


def test_criterion_1_closed_form_radio_checks():
    t0 = time.time()
    phi, g = math.radians(30.0), 0.1
    main = antenna_gain(0.0, phi, g)
    ok = abs(main - 10.9) < 1e-12
    ok &= abs(main - (0.9 * (2 * math.pi / phi) + 0.1)) < 1e-12
    rng = random.Random(1)
    for _ in range(500):
        p = rng.uniform(1e-3, 2 * math.pi - 1e-3)
        s = rng.uniform(1e-6, 1 - 1e-6)
        ok &= abs(p * antenna_gain(0.0, p, s) + (2 * math.pi - p) * s
                  - 2 * math.pi) < 1e-12
        x = 10 ** rng.uniform(-15, 15)
        ok &= abs(from_db(to_db(x)) - x) <= 1e-12 * x
    elapsed = time.time() - t0
    verdict(1, ok and elapsed < 1.0,
            f"mainlobe 10.9 exact, normalization and dB round-trip at 1e-12 "
            f"({elapsed:.2f}s)")


def test_criterion_2_rate_mode_agreement():
    t0 = time.time()
    config = default_config()
    step = config.road.slot_duration * config.road.speed
    worst = 0.0
    for lane in range(1, 6):
        vehicles = [VehicleState(1, lane, 0)]
        d_lr = config.lane_offset(lane)
        half = math.sqrt(config.radio.rsu_range ** 2 - d_lr ** 2)
        lo = (config.road.rsu_longitudinal - half) / step
        hi = (config.road.rsu_longitudinal + half) / step
        # Slots whose full extent lies inside coverage.
        first, last = math.ceil(lo) + 1, math.floor(hi) - 2
        mid = PhysicalRateModel(config, vehicles, "midpoint")
        quad = PhysicalRateModel(config, vehicles, "quadrature")
        count = last - first + 1
        r_mid = mid.v2i_rates(1, first, count)
        r_quad = quad.v2i_rates(1, first, count)
        rel = np.max(np.abs(r_mid - r_quad) / r_mid)
        worst = max(worst, float(rel))
    elapsed = time.time() - t0
    verdict(2, worst < 1e-6 and elapsed < 10.0,
            f"midpoint vs 8-panel quadrature, all 5 lanes, every interior "
            f"slot: worst rel diff {worst:.2e} ({elapsed:.2f}s)")


def test_criterion_3_reference_instance_replay():
    t0 = time.time()
    config, vehicles, model = six_vehicle_instance()
    prop = run_scheme("proposed", model, seed=0)
    total = prop.selection.t_v2i + prop.v2v.t_v2v
    ok = total == 9 and prop.selection.t_v2i == 5 and prop.v2v.t_v2v == 4
    ok &= len(prop.v2v.pairings) == 1 and len(prop.v2v.pairings[0].links) == 4
    ok &= {(l.tx, l.rx) for l in prop.v2v.pairings[0].links} == {
        (1, 2), (2, 4), (3, 5), (5, 6)}
    tdma = run_scheme("serial-tdma", model, seed=0)
    ok &= tdma.selection.t_v2i == 16
    elapsed = time.time() - t0
    verdict(3, ok and elapsed < 1.0,
            f"six-vehicle replay: proposed 9 slots (5+4, one 4-link pairing), "
            f"serial reference 16 ({elapsed:.2f}s)")


def test_criterion_4_constraint_audit_100_seeds():
    t0 = time.time()
    config = default_config()
    violations = []
    for seed in range(1, 101):
        vehicles = spawn_vehicles(config, seed)
        for scheme in ("proposed", "fcfs", "random", "noncoop", "serial-tdma"):
            model = PhysicalRateModel(config, vehicles)
            result = run_scheme(scheme, model, seed)
            report = audit(result, config, vehicles)
            if not report.ok:
                violations.append((seed, scheme, report.failures()))
    # Injected faults must be caught.
    import dataclasses
    cfg6, veh6, model6 = six_vehicle_instance()
    res6 = run_scheme("proposed", model6, seed=0)
    bad_grant = dataclasses.replace(res6.selection.grants[0], start_slot=-400_000)
    sel = dataclasses.replace(res6.selection,
                              grants=(bad_grant,) + res6.selection.grants[1:])
    caught_cov = not audit(dataclasses.replace(res6, selection=sel),
                           cfg6, veh6, model=model6).ok
    from v2xcast.v2v import LinkSchedule, Pairing
    dup = Pairing(2, 9, (LinkSchedule(1, 4, False, 6, 3.1e9),), 6)
    v2v = dataclasses.replace(res6.v2v, pairings=res6.v2v.pairings + (dup,),
                              t_v2v=res6.v2v.t_v2v + 6)
    caught_src = not audit(dataclasses.replace(res6, v2v=v2v),
                           cfg6, veh6, model=model6).ok
    elapsed = time.time() - t0
    verdict(4, not violations and caught_cov and caught_src,
            f"100 seeds x 5 schemes audit-clean, injected faults caught "
            f"({elapsed:.1f}s); violations: {violations[:3]}")


def test_criterion_5_slot_ordering_and_bands(trend_runs):
    wins = sum(r["proposed"].total_slots < r["fcfs"].total_slots and
               r["proposed"].total_slots < r["random"].total_slots
               for r in trend_runs.values())
    reductions = [1 - r["proposed"].total_slots / r["fcfs"].total_slots
                  for r in trend_runs.values()]
    gains = [r["proposed"].throughput_bps / r["fcfs"].throughput_bps - 1
             for r in trend_runs.values()]
    red_lo, red_hi = min(reductions), max(reductions)
    gain_lo, gain_hi = min(gains), max(gains)
    in_red_band = 0.25 <= red_lo and red_hi <= 0.55
    in_gain_band = 0.40 <= gain_lo and gain_hi <= 0.75
    print(f"\n[criterion 5] advisory: slot reduction vs fcfs "
          f"{red_lo:.1%}..{red_hi:.1%} (band 25-55%: "
          f"{'in' if in_red_band else 'out'}); throughput gain "
          f"{gain_lo:.1%}..{gain_hi:.1%} (band 40-75%: "
          f"{'in' if in_gain_band else 'out'})")
    verdict(5, wins >= 18,
            f"proposed strictly fastest in {wins}/20 seeds (gate >=18)")


def test_criterion_6_noncooperative_incompleteness(trend_runs):
    unserved = [r["noncoop"].unserved_count for r in trend_runs.values()]
    verdict(6, all(u > 0 for u in unserved),
            f"noncoop leaves unserved vehicles in every seed "
            f"(min {min(unserved)}, max {max(unserved)})")


def test_criterion_7_energy_ordering(trend_runs):
    fcfs_max = sum(
        r["fcfs"].energy_j > r["proposed"].energy_j and
        r["fcfs"].energy_j > r["random"].energy_j
        for r in trend_runs.values())
    prop_over_rand = sum(r["proposed"].energy_j > r["random"].energy_j
                         for r in trend_runs.values())
    verdict(7, fcfs_max >= 18 and prop_over_rand >= 11,
            f"fcfs costliest in {fcfs_max}/20 (gate >=18); proposed above "
            f"random in {prop_over_rand}/20 (gate majority)")


def test_criterion_8_small_instance_oracle():
    t0 = time.time()
    rng = random.Random(20240)
    ratios, skipped = [], 0
    ok = True
    for _ in range(200):
        n = rng.randint(4, 6)
        v2i = {i: rng.randint(2, 6) for i in range(1, n + 1)}
        pairs = {}
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                if rng.random() < 0.6:
                    pairs[frozenset((i, j))] = rng.randint(2, 6)
        opt = optimal_total_slots(n, v2i, pairs)
        config = default_config(vehicle_count=n)
        vehicles = [VehicleState(i, 1, 0) for i in range(1, n + 1)]
        model = TableRateModel(config, vehicles, v2i, pairs,
                               geometric_coverage=False)
        res = schedule_proposed(model, seed=0)
        if res.unserved:
            skipped += 1
            continue
        total = res.selection.t_v2i + res.v2v.t_v2v
        ok &= total >= opt
        ratios.append(total / opt)
    elapsed = time.time() - t0
    verdict(8, ok and elapsed < 120.0,
            f"greedy >= exhaustive optimum on {len(ratios)} instances "
            f"({skipped} partial), ratio mean {np.mean(ratios):.3f} "
            f"max {max(ratios):.3f} ({elapsed:.1f}s)")


def test_criterion_9_cli_determinism(tmp_path):
    t0 = time.time()
    raw = parse_config_text(CONFIG_PATH.read_text())
    raw["vehicle_count"] = 25
    cfg = tmp_path / "det.cfg"
    cfg.write_text("\n".join(f"{k}={v}" for k, v in raw.items()),
                   encoding="utf-8")
    ok = True
    for scheme in ("proposed", "fcfs", "random", "noncoop", "serial-tdma"):
        for mode in ("midpoint", "quadrature"):
            outs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "v2xcast.cli", "simulate",
                     "--config", str(cfg), "--scheme", scheme, "--seed", "9",
                     "--rate-mode", mode],
                    capture_output=True, env=child_env())
                assert proc.returncode == 0, proc.stderr
                outs.append(proc.stdout)
            ok &= outs[0] == outs[1] and len(outs[0]) > 0
    elapsed = time.time() - t0
    verdict(9, ok,
            f"byte-identical CSV across process restarts, every scheme, both "
            f"rate modes ({elapsed:.1f}s)")
