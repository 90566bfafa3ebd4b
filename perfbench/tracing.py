"""Traced runs: spans and counts around the public entry points of v2xcast.

Nothing under src/ changes. Inside `Tracer.installed()`, the tracer
wraps each module's public functions and the rate model's methods, in the
defining module and in every module that imported the name (harness,
baselines and audit import spawn_vehicles, select_v2i_paths, conflict,
audit and PhysicalRateModel by name), and restores them afterwards.

A span records name, start, end and parent; spans stay in memory and are
written to perfbench/out/ when the traced run ends. A span's self time is its
duration minus the time its child spans cover, so rate-model calls nested in
link_rates, set_feasible or the audit are counted once, where they run.
Self times are reported in seconds per traced audited run.
"""

from __future__ import annotations

import contextlib
import importlib
import time
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path

import numpy as np

OUT_DIR = Path(__file__).resolve().parent / "out"

SCHEME_FUNCS = {"proposed": "schedule_proposed", "fcfs": "schedule_fcfs",
                "random": "schedule_random", "noncoop": "schedule_noncoop",
                "serial-tdma": "schedule_serial_tdma"}

# Self times reported per layer: metric name -> span names summed.
SELF_TIMES = {
    "ratemodel.link_sinrs_s": ("ratemodel.link_sinrs",),
    "ratemodel.v2i_rates_s": ("ratemodel.v2i_rates",),
    "ratemodel.build_s": ("ratemodel.build",),
    "ratemodel.other_s": ("ratemodel.link_rates", "ratemodel.set_feasible",
                          "ratemodel.slots_to_download"),
    **{f"baselines.schedule_s.{s}": (f"baselines.schedule.{s}",)
       for s in SCHEME_FUNCS},
    "v2i.select_s": ("v2i.select",),
    "v2v.build_pairing_s": ("v2v.build_pairing",),
    "v2v.run_pairing_s": ("v2v.run_pairing",),
    "audit.audit_s": ("audit.audit",),
    "vehicles.spawn_s": ("vehicles.spawn",),
    "metrics.report_s": ("metrics.report",),
    "harness.other_s": ("harness.run",),
}

COUNTS = ("ratemodel.link_sinrs_calls", "ratemodel.link_sinrs_terms",
          "ratemodel.v2i_rates_calls", "ratemodel.v2i_rates_slots",
          "ratemodel.rsu_distance_calls", "v2i.grants", "v2i.candidate_evals",
          "v2v.conflict_calls", "v2v.committed_links", "v2v.pairings",
          "v2v.links")


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack = [-1]
        self.counts: Counter = Counter()
        self._saved: list[tuple[object, str, object]] = []

    # ---- recording ----

    def span(self, name: str, fn, count=None):
        """Wrap fn in a span; count(counts, args, kwargs, result) runs after."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        nid = self._ids[name]
        name_id, start, end, parent, stack = (
            self.name_id, self.start, self.end, self.parent, self._stack)
        counts, clock = self.counts, time.perf_counter

        def traced(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def counted(self, fn, count):
        """Wrap fn without a span, for calls too cheap to time."""
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(counts, args, kwargs, result)
            return result

        counted.__wrapped__ = fn
        return counted

    # ---- patching ----

    def _patch(self, wrapped, *targets) -> None:
        for obj, attr in targets:
            self._saved.append((obj, attr, getattr(obj, attr)))
            setattr(obj, attr, wrapped)

    def install(self) -> None:
        # The package re-exports functions under some module names (audit),
        # so modules are taken from the import system, not package attributes.
        (audit, baselines, harness, metrics, params, ratemodel, v2i, v2v,
         vehicles) = (importlib.import_module(f"v2xcast.{m}") for m in (
             "audit", "baselines", "harness", "metrics", "params", "ratemodel",
             "v2i", "v2v", "vehicles"))
        model = ratemodel.PhysicalRateModel
        P = self._patch

        P(self.span("params.load", params.load_config), (params, "load_config"))
        P(self.span("harness.run", harness.run_scenario), (harness, "run_scenario"))
        P(self.span("vehicles.spawn", vehicles.spawn_vehicles),
          (vehicles, "spawn_vehicles"), (harness, "spawn_vehicles"))
        P(self.span("metrics.report", metrics.build_report),
          (metrics, "build_report"), (harness, "build_report"))
        P(self.span("audit.audit", audit.audit), (audit, "audit"), (harness, "audit"))

        # Methods patched on the class reach every instance, however the
        # class was imported.
        P(self.span("ratemodel.build", model.__init__), (model, "__init__"))

        def sinr_count(c, args, kwargs, result):
            c["ratemodel.link_sinrs_calls"] += 1
            c["ratemodel.link_sinrs_terms"] += len(args[1]) ** 2

        def rates_count(c, args, kwargs, result):
            c["ratemodel.v2i_rates_calls"] += 1
            c["ratemodel.v2i_rates_slots"] += len(result)

        P(self.span("ratemodel.link_sinrs", model.link_sinrs, sinr_count),
          (model, "link_sinrs"))
        P(self.span("ratemodel.link_rates", model.link_rates), (model, "link_rates"))
        P(self.span("ratemodel.set_feasible", model.set_feasible),
          (model, "set_feasible"))
        P(self.span("ratemodel.v2i_rates", model.v2i_rates, rates_count),
          (model, "v2i_rates"))
        P(self.span("ratemodel.slots_to_download", model.slots_to_download),
          (model, "slots_to_download"))
        P(self.counted(model.rsu_distance, _calls("ratemodel.rsu_distance_calls")),
          (model, "rsu_distance"))

        for scheme, func in SCHEME_FUNCS.items():
            P(self.span(f"baselines.schedule.{scheme}", getattr(baselines, func)),
              (baselines, func))

        def grants_count(c, args, kwargs, result):
            c["v2i.grants"] += len(result.grants)

        def evals_count(c, args, kwargs, result):
            c["v2i.candidate_evals"] += len(result)

        P(self.span("v2i.select", v2i.select_v2i_paths, grants_count),
          (v2i, "select_v2i_paths"), (baselines, "select_v2i_paths"))
        P(self.counted(v2i.evaluate_candidates, evals_count),
          (v2i, "evaluate_candidates"))

        def pairing_count(c, args, kwargs, result):
            c["v2v.committed_links"] += len(result[0])

        def run_count(c, args, kwargs, result):
            c["v2v.pairings"] += 1
            c["v2v.links"] += len(result.links)

        schedule_v2v = v2v.schedule_v2v
        build_span = lambda builder: self.span(  # noqa: E731
            "v2v.build_pairing", builder, pairing_count)

        def traced_schedule_v2v(*args, pairing_builder=v2v.build_pairing, **kwargs):
            # The default builder is bound at definition time, so the span
            # goes around whichever builder the scheme passes in.
            return schedule_v2v(*args, pairing_builder=build_span(pairing_builder),
                                **kwargs)

        P(traced_schedule_v2v, (v2v, "schedule_v2v"), (baselines, "schedule_v2v"))
        P(self.span("v2v.run_pairing", v2v.run_pairing, run_count),
          (v2v, "run_pairing"))
        P(self.counted(v2v.conflict, _calls("v2v.conflict_calls")),
          (v2v, "conflict"), (baselines, "conflict"))

    def uninstall(self) -> None:
        while self._saved:
            obj, attr, original = self._saved.pop()
            setattr(obj, attr, original)

    @contextlib.contextmanager
    def installed(self):
        """Trace the entry points for the length of the with block."""
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # ---- analysis ----

    def arrays(self):
        name_id = np.frombuffer(self.name_id, dtype=np.uint16).copy()
        start = np.frombuffer(self.start, dtype=np.float64).copy()
        end = np.frombuffer(self.end, dtype=np.float64).copy()
        parent = np.frombuffer(self.parent, dtype=np.int32).copy()
        return name_id, start, end, parent

    def write(self, path: Path) -> None:
        name_id, start, end, parent = self.arrays()
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name_id=name_id,
                            start=start, end=end, parent=parent)


def _calls(key: str):
    def count(counts, args, kwargs, result):
        counts[key] += 1
    return count


def self_times(name_id, start, end, parent, audit_id: int):
    """Per span: self time, and whether an audit span is among its ancestors."""
    dur = end - start
    nested = parent >= 0
    covered = np.bincount(parent[nested], weights=dur[nested], minlength=len(dur))
    under = name_id == audit_id
    while True:  # spread the flag down the tree, one level per round
        grown = under | (nested & under[np.maximum(parent, 0)])
        if np.array_equal(grown, under):
            return dur - covered, under
        under = grown


def layer_metrics(tracer: Tracer, untraced, traced) -> dict:
    """Per-layer metrics, name -> (value, unit), given the tracer and the
    tallies of the same fixed samples run untraced and traced."""
    ids = {name: i for i, name in enumerate(tracer.names)}
    name_id, start, end, parent = tracer.arrays()
    self_t, under_audit = self_times(name_id, start, end, parent,
                                     ids.get("audit.audit", -1))
    by_name = np.bincount(name_id, weights=self_t, minlength=len(ids))
    runs = name_id == ids["harness.run"]
    run_s = end[runs] - start[runs]

    def per_run(seconds: float):
        return float(seconds) / len(run_s), "s"

    out = {name: per_run(sum(by_name[ids[s]] for s in spans if s in ids))
           for name, spans in SELF_TIMES.items()}
    model_ids = [i for name, i in ids.items() if name.startswith("ratemodel.")]
    out["audit.ratemodel_s"] = per_run(
        self_t[under_audit & np.isin(name_id, model_ids)].sum())
    load = name_id == ids["params.load"]
    out["params.load_s"] = float((end[load] - start[load]).sum()), "s"
    c = tracer.counts
    out.update((key, (c[key], "count")) for key in COUNTS)
    out["v2i.grant_yield"] = _ratio(c["v2i.grants"], c["v2i.candidate_evals"]), "ratio"
    out["v2v.commit_yield"] = (_ratio(c["v2v.committed_links"], c["v2v.conflict_calls"]),
                               "ratio")
    out["harness.run_s.p50"] = float(np.percentile(run_s, 50)), "s"
    out["harness.run_s.p90"] = float(np.percentile(run_s, 90)), "s"
    # Wall rates, not probe-scaled ones: a traced sample has only one probe
    # (interval probes would land inside spans), too few to scale it by.
    # Each traced sample runs right after its untraced twin, so the host's
    # drift between them stays small.
    out["trace.overhead_pct"] = (
        100.0 * (untraced.wall_runs_per_s() / traced.wall_runs_per_s() - 1.0), "%")
    out["host.probe_s"] = untraced.probe_s(), "s"
    out["host.wall_runs_per_s"] = untraced.wall_runs_per_s(), "1/s"
    return out


def _ratio(num: int, den: int) -> float:
    return num / den if den else 0.0


def build_alloc_mb(config, seed: int, rate_mode: str) -> float:
    """Peak bytes traced by tracemalloc while one PhysicalRateModel is built
    for the given scenario, in MB. Run untraced: tracemalloc would inflate
    the build's self time."""
    from v2xcast.ratemodel import PhysicalRateModel
    from v2xcast.vehicles import spawn_vehicles
    vehicles = spawn_vehicles(config, seed)
    tracemalloc.start()
    try:
        PhysicalRateModel(config, vehicles, rate_mode=rate_mode)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2**20


# The micro-benchmark input is fixed, so that its figure compares across
# runs whatever --seed is: scenario seed 1 of the ladder-400 config.
MICRO_SCENARIO_SEED = 1
MICRO_LINKS = 50
MICRO_REPEATS = 2000


def micro_link_sinrs_us(config_path) -> float:
    """Fastest wall time of one link_sinrs call on the first 50 links of the
    largest pairing of a ladder-400 schedule, in microseconds.

    The fastest of MICRO_REPEATS calls, as timeit advises: on a drifting
    host the median of 200 calls moved by up to 1.8x between repeats in one
    process while their minimum stayed within 2%, but across processes even
    the minimum of 200 calls (0.15 s in all) read 699 to 1188 us, as a slow
    phase of the host can outlast them. 2000 calls span about 1.4 s."""
    from v2xcast.baselines import run_scheme
    from v2xcast.params import load_config
    from v2xcast.ratemodel import PhysicalRateModel
    from v2xcast.vehicles import spawn_vehicles
    config = load_config(config_path)
    model = PhysicalRateModel(config, spawn_vehicles(config, MICRO_SCENARIO_SEED))
    result = run_scheme("proposed", model, MICRO_SCENARIO_SEED)
    largest = max(result.v2v.pairings, key=lambda p: len(p.links))
    links = [(l.tx, l.rx) for l in largest.links[:MICRO_LINKS]]
    if len(links) < MICRO_LINKS:
        raise RuntimeError(f"largest pairing has only {len(links)} links")
    times = []
    for _ in range(MICRO_REPEATS):
        t0 = time.perf_counter()
        model.link_sinrs(links)
        times.append(time.perf_counter() - t0)
    return min(times) * 1e6
