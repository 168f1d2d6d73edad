"""Smoke test of the benchmark itself, on tiny grids (outside tier-1).

    PYTHONPATH=src python -m pytest perfbench/test_smoke.py -q

Runs every workload through the traced worker path and one full ``run.py``
invocation, and checks the output against the metric names in
``BENCHMARK.json``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def test_spec_lists_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_worker_on_tiny_grid(workload, tmp_path, capsys):
    gen = workloads.generate(workload, seed=3, out_dir=tmp_path, tiny=True)
    worker.main(["--driver", gen["driver"], "--config", gen["config"],
                 "--strang-order", gen["strang_order"], "--work", str(tmp_path),
                 "--seconds", "0", "--trace", "1"])
    res = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    assert res["failed"] == 0, res["failures"]
    assert res["attempted"] == 3 + 2 * worker.MIN_SAMPLES
    assert res["missing"] == []
    assert res["counts_repeat"]
    assert set(res["checks"]) >= {"inv_drift", "kernel_rel_err", "strang_order",
                                  "deterministic"}
    layers = res["layers"]
    from_run_py = {"experiments.io.bytes", "experiments.io.files",
                   "initial_data.build_s", "cli.import_s", "cli.import.scipy_s",
                   "trace.overhead_frac"}
    assert set(layers) | from_run_py == set(PER_LAYER)
    if workload == "compare_smooth":
        # Euler and DP45 evaluate the kernel outside the midpoint iteration
        assert layers["stepping.fp_iters"] < layers["source_terms.fast.calls"]
    else:
        assert layers["stepping.fp_iters"] == layers["source_terms.fast.calls"]
    if workload == "collision":
        assert layers["source_terms.direct.calls"] > 0
        assert layers["source_terms.direct.calls"] == layers["source_terms.fast.raised"]
    else:
        assert layers["source_terms.direct.calls"] == 0
    if workload == "compare_smooth":
        assert layers["stepping.rk.accepted"] > 0
        assert res["checks"]["strang_error"] < res["checks"]["euler_error"]
    else:
        assert layers["stepping.rk.accepted"] == 0
    assert (tmp_path / "spans.csv").is_file()


def test_units_match_spec():
    for name, unit in PER_LAYER.items():
        assert run.unit_of(name) == unit, name


def run_py(cwd: Path, *args) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_py_prints_end_to_end_metrics():
    proc = run_py(ROOT, "--workload", "collision", "--seed", "5", "--seconds", "0",
                  "--trace", "0", "--tiny")
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_run_py_fails_without_source_tree(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = run_py(tmp_path, "--workload", "peakon", "--seed", "1", "--seconds", "1",
                  "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
