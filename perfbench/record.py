"""Append a labelled baseline entry to perfbench/baseline.json.

    python3 perfbench/record.py --label seed

For every workload: one end-to-end run on the default seed, and one traced
run on the default seed and on a held-out seed.  The entry holds the machine,
whether numba is active, the x0 each seed generates, the end-to-end metrics
and the exact counts (kernel evaluations, fallback evaluations, fixed-point
iterations), which must repeat bit for bit on the same commit.
"""

from __future__ import annotations

import argparse
import datetime
import importlib.metadata
import importlib.util
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

DEFAULT_SEED = 1
HELD_OUT_SEED = 7
COUNTS = (
    "source_terms.fast.calls", "source_terms.direct.calls", "stepping.fp_iters",
    "stepping.substeps", "stepping.rk.accepted", "stepping.rk.rejected",
)


def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "scipy": importlib.metadata.version("scipy"),
        "numba_active": importlib.util.find_spec("numba") is not None,
    }


def bench(workload: str, seed: int, trace: int, seconds: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, check=True, timeout=600,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"]:
        raise SystemExit(f"{workload} seed {seed} failed its checks:\n{proc.stdout}")
    return {k: v["value"] for k, v in out["metrics"].items()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--seconds", type=int, default=25)
    args = ap.parse_args()

    entry = {"label": args.label,
             "date": datetime.date.today().isoformat(),
             "machine": machine(),
             "run_seconds": args.seconds,
             "workloads": {}}
    for name in workloads.WORKLOADS:
        scratch = HERE.parent / ".bench_build" / "perfbench" / "record"
        per = {"x0": {}, "counts": {}}
        for seed in (DEFAULT_SEED, HELD_OUT_SEED):
            per["x0"][str(seed)] = workloads.generate(name, seed, scratch)["x0"]
            layers = bench(name, seed, 1, args.seconds)
            per["counts"][str(seed)] = {k: layers[k] for k in COUNTS if k in layers}
            if seed == DEFAULT_SEED:
                per["per_layer"] = layers
        per["end_to_end"] = bench(name, DEFAULT_SEED, 0, args.seconds)
        entry["workloads"][name] = per
        print(name, json.dumps(per["end_to_end"]), flush=True)

    path = HERE / "baseline.json"
    history = json.loads(path.read_text()) if path.is_file() else {"entries": []}
    history["entries"].append(entry)
    path.write_text(json.dumps(history, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
