"""The benchmark's tracer (perfbench/tracing.py) wraps v2xcast entry points
by module attribute name. A refactor that drops or renames one of them
breaks the traced benchmark run; this catches it in the tier-1 suite."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import tracing  # noqa: E402

from v2xcast.baselines import SCHEMES  # noqa: E402
from instances import default_config  # noqa: E402


def test_tracer_wraps_every_scheme_and_restores_names():
    harness = importlib.import_module("v2xcast.harness")
    config = default_config(vehicle_count=10)
    tracer = tracing.Tracer()
    with tracer.installed():
        patched = list(tracer._saved)
        for scheme in SCHEMES:
            _, _, report = harness.run_scenario(config, 1, scheme, with_audit=True)
            assert report.ok, str(report)
    assert patched
    for obj, attr, original in patched:
        assert getattr(obj, attr) is original, f"{obj}.{attr} not restored"
    # A span name is listed once wrapped, called or not: read the spans
    # recorded off name_id.
    spans = {tracer.names[i] for i in tracer.name_id}
    assert {f"baselines.schedule.{s}" for s in SCHEMES} <= spans
    assert {"harness.run", "v2i.select", "ratemodel.build", "audit.audit"} <= spans
    assert tracer.counts["v2i.grants"] > 0
    # The benchmark's candidate count and download span read these two
    # names: the default picker must call v2i.evaluate_candidates through
    # the module, and the grant loop must ask the model's
    # slots_to_download attribute.
    assert tracer.counts["v2i.candidate_evals"] > 0
    assert "ratemodel.slots_to_download" in spans
