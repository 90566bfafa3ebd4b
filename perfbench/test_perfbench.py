"""Self-tests of the benchmark. Run from the repo root: python3 -m pytest perfbench"""

import ast
import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import tracing
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
harness = run.import_v2xcast()

from v2xcast.params import load_config  # noqa: E402


def small(name: str, samples: int = 1):
    return dataclasses.replace(WORKLOADS[name], fixed_samples=samples)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_config_validates(name):
    config = load_config(WORKLOADS[name].config_path)
    assert config.road.vehicle_count >= 1


def test_stock_config_is_the_bundled_default():
    frozen = load_config(WORKLOADS["stock-matrix"].config_path)
    assert frozen == load_config(run.ROOT / "configs" / "default.cfg")


def test_traced_and_untraced_passes_hash_identically():
    workload = small("stock-matrix", samples=2)
    untraced, traced, tracer = run.paired_passes(harness, workload, seed=7)
    assert not untraced.failures and not traced.failures
    assert len(untraced.rows) == 10
    assert run.csv_sha256(harness, untraced.rows) == run.csv_sha256(harness, traced.rows)
    assert tracer.counts["ratemodel.link_sinrs_calls"] > 0


def test_traced_counts_repeat_for_a_seed():
    workload = small("quad-strict")

    def counts():
        return run.paired_passes(harness, workload, seed=5)[2].counts

    first = counts()
    assert first["v2v.pairings"] > 0 and first["ratemodel.v2i_rates_slots"] > 0
    assert counts() == first


def test_tracer_restores_every_patched_name():
    from v2xcast import baselines, ratemodel, v2v
    before = (harness.run_scenario, harness.audit, baselines.conflict,
              v2v.schedule_v2v, ratemodel.PhysicalRateModel.link_sinrs)
    with tracing.Tracer().installed():
        assert harness.run_scenario is not before[0]
    after = (harness.run_scenario, harness.audit, baselines.conflict,
             v2v.schedule_v2v, ratemodel.PhysicalRateModel.link_sinrs)
    assert after == before


def test_self_times_do_not_double_count_nested_spans():
    _, _, tracer = run.paired_passes(harness, small("stock-matrix"), seed=3)
    name_id, start, end, parent = tracer.arrays()
    audit_id = tracer.names.index("audit.audit")
    self_t, under_audit = tracing.self_times(name_id, start, end, parent, audit_id)
    roots = parent < 0
    assert self_t.min() >= -1e-9
    assert self_t.sum() == pytest.approx((end[roots] - start[roots]).sum(), rel=1e-9)
    # Spans under an audit: the audit itself and the rate-model calls it makes.
    audited = {tracer.names[i] for i in name_id[under_audit]}
    assert "audit.audit" in audited and "ratemodel.build" in audited
    assert not audited & {"harness.run", "vehicles.spawn", "v2i.select"}


@pytest.mark.parametrize("name", ["ladder-400", "rsu-1600"])
def test_population_rungs_serve_everyone(name):
    workload = WORKLOADS[name]
    config = load_config(workload.config_path)
    scenario = next(workload.scenario_seeds(1))
    for scheme in workload.schemes:
        _, report, _ = harness.run_scenario(config, scenario, scheme, **workload.flags)
        assert report.unserved_count == 0


def test_scenario_seeds_repeat_per_seed_and_differ_across_seeds():
    w = WORKLOADS["stock-matrix"]
    take = lambda seed: [s for s, _ in zip(w.scenario_seeds(seed), range(50))]  # noqa: E731
    assert take(4) == take(4)
    assert take(4) != take(5)
    assert len(set(take(4))) == 50


def test_probe_imports_nothing_from_v2xcast():
    tree = ast.parse((HERE / "probe.py").read_text())
    imported = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                for a in n.names]
    imported += [n.module for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)]
    assert not [m for m in imported if m and m.split(".")[0] == "v2xcast"]
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import probe; probe.probe(); "
            "print(sorted(m for m in sys.modules if m.startswith('v2xcast')))")
    out = subprocess.run([sys.executable, "-c", code, str(HERE)],
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_missing_source_tree_is_refused(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", tmp_path / "src")
    with pytest.raises(run.SetupError):
        run.import_v2xcast()


@pytest.mark.parametrize("trace", [0, 1])
def test_last_line_reports_exactly_the_declared_metrics(trace, capsys):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    assert run.main(["--workload", "stock-matrix", "--seed", "2",
                     "--seconds", "0.5", "--trace", str(trace)]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert {k: v["unit"] for k, v in last["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared}


def test_benchmark_alone_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "out"))
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "ladder-400",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert out.returncode != 0
    assert out.stdout == ""
