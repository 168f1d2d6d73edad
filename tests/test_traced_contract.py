"""The benchmark's traced per-layer metrics stay computable on this program.

``perfbench/spans.py`` wraps the program's functions by the names their
callers look up, and ``BENCHMARK.json`` lists the per-layer metrics a traced
run reports.  A metric whose functions are renamed or bypassed is silently
left out of the run's result, so this reads both files, changes neither,
and checks that one traced ``run_experiment`` and one traced
``compare_experiment`` yield every listed metric, each finite.  It also
checks that the targets the tracer cannot find are exactly the ones known
to be gone, so that a function renamed away from its span fails here.
"""

import importlib.util
import json
import math
from pathlib import Path

import pytest

from rodwave import experiments

ROOT = Path(__file__).resolve().parents[1]

# Per-layer metrics that perfbench/run.py adds from its own probes, outside
# the spans: set-up, artifact size and tracing overhead.
ADDED_BY_RUN = (
    "cli.import_s",
    "cli.import.scipy_s",
    "initial_data.build_s",
    "experiments.io.bytes",
    "experiments.io.files",
    "trace.overhead_frac",
)

# Targets of perfbench/spans.py that name functions the program no longer
# has; the benchmark's own smoke test fails on them until spans.py drops them.
GONE = [
    "rodwave.experiments.step_adaptive_rk",
    "rodwave.stepping._euler_step",
    "rodwave.stepping.state_midpoint",
    "rodwave.stepping.apply_tangent",
    "rodwave.stepping._FIELDS[g1]",
    "rodwave.stepping._FIELDS[g2]",
    "rodwave.stepping.evaluate_source_terms",
]

TINY = {
    "name": "traced",
    "initial_data": {"kind": "peakon", "c": 1.0, "x0": 0.0},
    "gamma": 1.0,
    "grid": {"dxi": 0.25, "r": 5.0},
    "stepper": {"dt": 0.1, "scheme": "strang"},
    "t_final": 0.2,
    "output_stride": 1,
}


def load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", ROOT / "perfbench" / "spans.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def traced_names():
    per_layer = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    run_py = (ROOT / "perfbench" / "run.py").read_text()
    for name in ADDED_BY_RUN:
        assert name in run_py, f"{name} is no longer added by run.py"
    return [m["name"] for m in per_layer if m["name"] not in ADDED_BY_RUN]


@pytest.mark.parametrize("entry", ["run_experiment", "compare_experiment"])
def test_traced_call_yields_every_per_layer_metric(entry, tmp_path):
    spans = load_spans()
    path = tmp_path / "traced.json"
    path.write_text(json.dumps(TINY))
    cfg = experiments.resolve_config(str(path))
    tracer = spans.Tracer()
    tracer.call_id = 0
    tracer.install()
    try:
        getattr(experiments, entry)(cfg, tmp_path / "out", quiet=True)
    finally:
        tracer.uninstall()
    assert sorted(tracer.missing) == sorted(GONE)
    metrics = tracer.call_metrics(0)
    names = traced_names()
    assert [n for n in names if n not in metrics] == []
    assert [n for n in names if not math.isfinite(metrics[n])] == []
    assert metrics["source_terms.fast.calls"] > 0
