"""v2xcast benchmark: audited runs in a closed loop, end to end or traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload stock-matrix --seed 1 --seconds 20 --trace 0

One process runs one workload as a closed loop: the next audited run starts
when the previous one has finished and been checked. --seed draws the
scenario seeds. The last line of stdout is a JSON object with the keys
correct, attempted, failed and metrics; the line before it, starting with
"# record", holds the host record, csv_sha256 and the raw timings.

--trace 0 reports the end-to-end metrics (runs_per_s, peak_rss_mb, setup_s).
--trace 1 runs each of the workload's fixed samples untraced and then traced
and reports the per-layer metrics (see tracing.py and README.md).
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

from probe import PROBE_REF_S, ProbeSampler  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 9
# The reference start for setup_s: a fresh interpreter that imports numpy.
# SETUP_REF_S fixes the units of the scaled figure, like PROBE_REF_S, and
# must never change.
REFERENCE_START = [sys.executable, "-c", "import numpy; print('ready', flush=True)"]
SETUP_REF_S = 0.15


# glibc's mmap threshold adapts to the sizes of freed blocks, so whether a
# large array got a fresh mapping or reused heap memory depended on the
# process's allocation history: peak_rss_mb on rsu-1600 read 220 MB in some
# sets of runs and 237 MB in others (and one process read 217 MB after its
# first run, 234 MB after its second). With the threshold fixed, every block
# of MMAP_THRESHOLD bytes or more is mapped afresh and unmapped on free, so
# the peak follows the program's live arrays.
M_MMAP_THRESHOLD = -3  # mallopt parameter, from glibc's <malloc.h>
MMAP_THRESHOLD = 4 * 2**20


def fix_mmap_threshold() -> bool:
    """Fix the C library's mmap threshold; False where it has no mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    return mallopt is not None and mallopt(M_MMAP_THRESHOLD, MMAP_THRESHOLD) == 1


class SetupError(RuntimeError):
    pass


def import_v2xcast():
    """Import v2xcast from this checkout's src/, never from elsewhere."""
    if not (SRC / "v2xcast" / "__init__.py").is_file():
        raise SetupError(f"no v2xcast package under {SRC}")
    sys.path.insert(0, str(SRC))
    import v2xcast
    from v2xcast import harness
    if Path(v2xcast.__file__).resolve().parent != (SRC / "v2xcast").resolve():
        raise SetupError(f"imported v2xcast from {v2xcast.__file__}, not {SRC}")
    return harness


def _time_start(cmd: list[str]) -> float:
    """Wall time from starting `cmd` until it prints its "ready" line."""
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - t0
        child.stdout.read()
        code = child.wait()
    if code != 0 or line.strip() != "ready":
        raise SetupError(f"set-up child {cmd[1:]} exited with {code}")
    return elapsed


def measure_setup_s(config_path: Path) -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_REPEATS fresh interpreters, each timed from its
    start until it has imported v2xcast and validated the config.

    Returns (scaled, raw). Each raw time is scaled by SETUP_REF_S over the
    mean of the reference starts (an interpreter that imports numpy and
    nothing of v2xcast) run just before and just after it, which cancels the
    host's drift the way the probe does for runs_per_s.
    """
    full = [sys.executable, str(HERE / "ready.py"), str(SRC), str(config_path)]
    refs = [_time_start(REFERENCE_START)]
    raw = []
    for _ in range(SETUP_REPEATS):
        raw.append(_time_start(full))
        refs.append(_time_start(REFERENCE_START))
    scaled = [t * SETUP_REF_S / ((a + b) / 2)
              for t, a, b in zip(raw, refs, refs[1:])]
    return scaled, raw


def run_one(harness, config, seed: int, scheme: str, flags: dict):
    """One audited run. Returns (csv_row, None) or (None, failure reason)."""
    try:
        _, report, audit_report = harness.run_scenario(
            config, seed, scheme, with_audit=True, **flags)
    except Exception as exc:  # a raising run is a failed run, not a crash
        return None, f"{scheme} seed {seed}: {type(exc).__name__}: {exc}"
    if not audit_report.ok:
        return None, f"{scheme} seed {seed}: audit failed: {audit_report.failures()}"
    row = harness.report_row(report)
    if any(isinstance(c, float) and not math.isfinite(c) for c in row):
        return None, f"{scheme} seed {seed}: non-finite cell in {row}"
    return row, None


class Tally:
    """Rows, failures and sample times of a series of samples."""

    def __init__(self):
        self.rows: list[tuple] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.samples: list[tuple[int, float, float]] = []  # (runs, work_s, probe_s)

    def run_sample(self, harness, config, workload, seed: int, sampler) -> None:
        results = []
        t = sampler.begin()
        for scheme in workload.schemes:
            results.append(run_one(harness, config, seed, scheme, workload.flags))
        work_s, probe_s = sampler.end(t)
        self.samples.append((len(results), work_s, probe_s))
        self.attempted += len(results)
        for row, failure in results:
            if failure is None:
                self.rows.append(row)
            else:
                self.failures.append(failure)

    def runs_per_s(self) -> float:
        """Runs per probe-scaled second: each sample's work time is scaled by
        PROBE_REF_S / (mean probe time across the sample)."""
        runs = sum(n for n, _, _ in self.samples)
        scaled = sum(w * PROBE_REF_S / p for _, w, p in self.samples)
        return runs / scaled

    def wall_runs_per_s(self) -> float:
        return sum(n for n, _, _ in self.samples) / sum(w for _, w, _ in self.samples)

    def probe_s(self) -> float:
        return statistics.median(p for _, _, p in self.samples)


def csv_sha256(harness, rows) -> str:
    out = io.StringIO()
    harness.write_csv(harness.SIMULATE_COLUMNS, rows, out)
    return hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()


def blas_record() -> dict:
    import numpy as np
    info = {"name": None, "threads": None}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"] = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError):
        pass
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        if os.environ.get(var):
            info["threads"] = int(os.environ[var])
            break
    else:
        info["threads"] = os.cpu_count()  # OpenBLAS's default cap
    return info


def host_record() -> dict:
    import numpy as np
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas_record()}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def closed_loop(harness, config, workload, seed: int, seconds: float) -> Tally:
    """Samples over fresh scenario seeds, one after another, until `seconds`
    of wall time have passed and at least the workload's fixed samples ran."""
    tally = Tally()
    seeds = workload.scenario_seeds(seed)
    with ProbeSampler() as sampler:
        t0 = time.perf_counter()
        while (len(tally.samples) < workload.fixed_samples
               or time.perf_counter() - t0 < seconds):
            tally.run_sample(harness, config, workload, next(seeds), sampler)
    return tally


def paired_passes(harness, workload, seed: int):
    """The workload's fixed samples, each run untraced and then at once
    traced. Returns the untraced and traced tallies and the tracer, which
    also traced one load of the workload's config."""
    import tracing
    from v2xcast import params
    tracer = tracing.Tracer()
    with tracer.installed():
        config = params.load_config(workload.config_path)
    untraced, traced = Tally(), Tally()
    seeds = workload.scenario_seeds(seed)
    for _ in range(workload.fixed_samples):
        scenario = next(seeds)
        with ProbeSampler() as sampler:
            untraced.run_sample(harness, config, workload, scenario, sampler)
        # No interval probes in a traced sample: they would land inside spans.
        with ProbeSampler(0.0) as sampler, tracer.installed():
            traced.run_sample(harness, config, workload, scenario, sampler)
    return untraced, traced, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    mmap_threshold_fixed = fix_mmap_threshold()

    try:
        harness = import_v2xcast()
        from v2xcast.params import load_config
        config = load_config(workload.config_path)
        setup, setup_raw = measure_setup_s(workload.config_path)
    except (SetupError, OSError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {"workload": workload.name, "seed": args.seed, "trace": args.trace,
              "host": host_record(), "mmap_threshold_fixed": mmap_threshold_fixed,
              "setup_s": setup,
              "host.setup_raw_s": statistics.median(setup_raw)}
    fixed_runs = workload.fixed_samples * len(workload.schemes)
    if args.trace:
        import tracing
        untraced, traced, tracer = paired_passes(harness, workload, args.seed)
        tracer.write(tracing.OUT_DIR / f"{workload.name}-seed{args.seed}.npz")
        metrics = {name: metric(value, unit) for name, (value, unit)
                   in tracing.layer_metrics(tracer, untraced, traced).items()}
        metrics["ratemodel.build_alloc_mb"] = metric(tracing.build_alloc_mb(
            config, next(workload.scenario_seeds(args.seed)),
            workload.flags.get("rate_mode", "midpoint")), "MB")
        metrics["micro.link_sinrs_50_us"] = metric(tracing.micro_link_sinrs_us(
            WORKLOADS["ladder-400"].config_path), "us")
        tallies = (untraced, traced)
        hashes = [csv_sha256(harness, t.rows) for t in tallies]
    else:
        tally = closed_loop(harness, config, workload, args.seed, args.seconds)
        metrics = {
            "runs_per_s": metric(tally.runs_per_s(), "1/s"),
            "peak_rss_mb": metric(
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "setup_s": metric(statistics.median(setup), "s"),
        }
        tallies = (tally,)
        hashes = [csv_sha256(harness, tally.rows[:fixed_runs])]

    first = tallies[0]
    record.update({
        "csv_sha256": hashes[0],
        "fixed_runs": fixed_runs,
        "samples": [[n, round(w, 6), round(p, 6)] for n, w, p in first.samples],
        "host.probe_s": first.probe_s(),
        "host.wall_runs_per_s": first.wall_runs_per_s(),
        "failures": [f for t in tallies for f in t.failures][:20],
    })
    attempted = sum(t.attempted for t in tallies)
    failed = sum(len(t.failures) for t in tallies)
    correct = failed == 0 and len(set(hashes)) == 1
    print("# record " + json.dumps(record, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
