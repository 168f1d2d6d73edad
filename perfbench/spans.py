"""Spans around the calls into each rodwave layer, installed from outside.

The program is not edited: each wrapper replaces a function at the name its
caller looks up (``rodwave.stepping.evaluate_source_terms`` is bound by name
inside ``stepping``, so that is the name patched).  A span records its name,
start, end, parent span and the id of the driver call it belongs to.  Spans
stay in memory and are written out once, at the end of the run.

Layers are named after the modules: ``experiments``, ``initial_data``,
``stepping``, ``source_terms``, ``dynamics``, ``state`` and ``observables``
(``cli`` is measured at import time, outside the driver calls).  A target
that no longer exists is listed in ``Tracer.missing`` and the metrics built
from it are left out instead of failing the run.
"""

from __future__ import annotations

import csv
import importlib
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path


# Counter hooks run after every call, with result None when it raised.
def _fast_cells(args, result):
    return {"fast_cells": args[0].n_cells}


def _substep(args, result):
    return {"fp_iters": sum(result[1].fp_iterations)} if result else {}


def _rk(args, result):
    if result is None:
        return {}
    return {"rk_accepted": result[1].accepted, "rk_rejected": result[1].rejected}


# (span name, module, attribute path, counter hook).  An attribute path of
# the form "TABLE[key]" patches one entry of a module-level dict.
TARGETS = (
    ("experiments.run_experiment", "rodwave.experiments", "run_experiment", None),
    ("experiments.compare_experiment", "rodwave.experiments", "compare_experiment", None),
    ("experiments.io.write_graph_csv", "rodwave.experiments", "write_graph_csv", None),
    ("experiments.io.write_diagnostics_csv", "rodwave.experiments", "write_diagnostics_csv", None),
    ("experiments.io.write_manifest", "rodwave.experiments", "_write_manifest", None),
    ("initial_data.build", "rodwave.experiments", "build_initial_state", None),
    ("stepping.evolve", "rodwave.experiments", "evolve", None),
    ("stepping.adaptive_rk", "rodwave.experiments", "step_adaptive_rk", _rk),
    ("stepping.adaptive_rk", "rodwave.stepping", "step_adaptive_rk", _rk),
    ("stepping.midpoint_substep", "rodwave.stepping", "midpoint_substep", _substep),
    ("stepping.euler_step", "rodwave.stepping", "_euler_step", None),
    ("source_terms.evaluate", "rodwave.stepping", "evaluate_source_terms", None),
    ("source_terms.fast", "rodwave.source_terms", "source_terms_fast", _fast_cells),
    ("source_terms.direct", "rodwave.source_terms", "source_terms_direct", None),
    ("dynamics.state_midpoint", "rodwave.stepping", "state_midpoint", None),
    ("dynamics.apply_tangent", "rodwave.stepping", "apply_tangent", None),
    ("dynamics.vector_field_full", "rodwave.stepping", "vector_field_full", None),
    ("dynamics.vector_field_g1", "rodwave.stepping", "_FIELDS[g1]", None),
    ("dynamics.vector_field_g2", "rodwave.stepping", "_FIELDS[g2]", None),
    ("state.distance_f", "rodwave.stepping", "distance_f", None),
    ("state.replace", "rodwave.state", "LagrangianState.replace", None),
    ("observables.diagnostics", "rodwave.observables", "DiagnosticsRecorder.__call__", None),
    ("observables.sup_graph_error", "rodwave.experiments", "sup_graph_error", None),
)


def _resolve(module: str, path: str):
    """Return (container, key, is_item, current value) or None if missing."""
    owner = importlib.import_module(module)
    if path.endswith("]"):
        table, key = path[:-1].split("[")
        mapping = getattr(owner, table, None)
        if not isinstance(mapping, dict) or key not in mapping:
            return None
        return mapping, key, True, mapping[key]
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    if attr not in vars(owner):
        return None
    return owner, attr, False, vars(owner)[attr]


class Tracer:
    """Owns the span list and the patches; one per traced run."""

    def __init__(self):
        # span: [name, start, end, parent index, call id, raised]
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.missing: list[str] = []
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, name, fn, hook):
        spans, stack, counts, tracer = self.spans, self._stack, self.counts, self

        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, tracer.call_id, False]
            spans.append(span)
            stack.append(idx)
            result = None
            span[1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                span[5] = True
                raise
            finally:
                span[2] = time.perf_counter()
                stack.pop()
                if hook is not None:
                    counts[tracer.call_id].update(hook(args, result))

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        """Patch every target that exists; remember the missing ones."""
        self.missing = []
        for name, module, path, hook in TARGETS:
            found = _resolve(module, path)
            if found is None:
                self.missing.append(f"{module}.{path}")
                continue
            owner, key, is_item, fn = found
            wrapped = self._wrap(name, fn, hook)
            if is_item:
                owner[key] = wrapped
            else:
                setattr(owner, key, wrapped)
            self._patches.append((owner, key, is_item, fn))

    def uninstall(self) -> None:
        for owner, key, is_item, fn in reversed(self._patches):
            if is_item:
                owner[key] = fn
            else:
                setattr(owner, key, fn)
        self._patches.clear()

    def write(self, path: Path) -> None:
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "start", "end", "parent", "call", "raised"))
            for k, (name, start, end, parent, call, raised) in enumerate(self.spans):
                out.writerow((k, name, repr(start), repr(end), parent, call, int(raised)))

    def call_metrics(self, call_id: int) -> dict:
        """Per-layer metrics of one traced driver call."""
        spans = [(k, s) for k, s in enumerate(self.spans) if s[4] == call_id]
        names = {k: s[0] for k, s in spans}
        child = Counter()
        for k, s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]

        def n_calls(prefix):
            return sum(1 for _, s in spans if s[0].startswith(prefix))

        def busy(prefix):
            # inclusive time of the outermost spans under this prefix
            return sum(
                s[2] - s[1] for _, s in spans
                if s[0].startswith(prefix)
                and not names.get(s[3], "").startswith(prefix)
            )

        def self_time(prefix):
            return sum(s[2] - s[1] - child[k] for k, s in spans if s[0].startswith(prefix))

        counts = self.counts[call_id]
        m = {}
        if self._patched("source_terms.fast"):
            calls = n_calls("source_terms.fast")
            raised = sum(1 for _, s in spans if s[0] == "source_terms.fast" and s[5])
            m["source_terms.fast.calls"] = calls
            m["source_terms.fast.raised"] = raised
            m["source_terms.fast.busy_s"] = busy("source_terms.fast")
            if calls:
                m["source_terms.fast.us_per_cell"] = (
                    1e6 * m["source_terms.fast.busy_s"] / counts["fast_cells"]
                )
                m["source_terms.useful_ratio"] = (calls - raised) / calls
        if self._patched("source_terms.direct"):
            m["source_terms.direct.calls"] = n_calls("source_terms.direct")
            m["source_terms.direct.busy_s"] = busy("source_terms.direct")
        if self._patched("stepping.midpoint_substep"):
            substeps = n_calls("stepping.midpoint_substep")
            m["stepping.substeps"] = substeps
            m["stepping.fp_iters"] = counts["fp_iters"]
            if substeps:
                m["stepping.fp_iters_per_substep"] = counts["fp_iters"] / substeps
        if self._patched("stepping."):
            m["stepping.self_s"] = self_time("stepping.")
        if self._patched("stepping.adaptive_rk"):
            m["stepping.rk.accepted"] = counts["rk_accepted"]
            m["stepping.rk.rejected"] = counts["rk_rejected"]
        if self._patched("dynamics."):
            m["dynamics.calls"] = n_calls("dynamics.")
            m["dynamics.busy_s"] = busy("dynamics.")
        if self._patched("state.distance_f"):
            m["state.distance_f.calls"] = n_calls("state.distance_f")
        if self._patched("state."):
            m["state.busy_s"] = busy("state.")
        if self._patched("observables."):
            m["observables.busy_s"] = busy("observables.")
        if self._patched("experiments.io."):
            m["experiments.io.busy_s"] = busy("experiments.io.")
        return m

    def _patched(self, prefix: str) -> bool:
        return any(
            name.startswith(prefix) and f"{module}.{path}" not in self.missing
            for name, module, path, _ in TARGETS
        )


def median_metrics(per_call: list[dict]) -> tuple[dict, bool]:
    """Median of each timing over the traced calls, and the counts.

    Counts (the integer metrics) must repeat exactly from call to call; the
    second value says whether they did.
    """
    first = per_call[0]
    merged, repeat = {}, True
    for key, value in first.items():
        values = [m.get(key) for m in per_call]
        if isinstance(value, int):
            merged[key] = value
            repeat = repeat and all(v == value for v in values)
        else:
            merged[key] = statistics.median(values)
    return merged, repeat
