"""rodwave benchmark: one workload, end-to-end or traced, one JSON line out.

    python3 perfbench/run.py --workload peakon --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; nothing needs installing beyond the
program's own dependencies (``src`` is put on ``PYTHONPATH``).  Workloads are
``peakon``, ``collision`` and ``compare_smooth`` (see ``workloads.py``).

``--trace 0`` measures the end-to-end metrics with no instrumentation:

    wall_s            median over the run of one driver call's wall time in a
                      warm process, scaled to reference host speed
    cell_steps_per_s  sum(cells x steps) over the call's evolves / wall_s
    setup_s           median wall time of a fresh interpreter that imports
                      rodwave, resolves the config and builds the initial
                      state (time until the first step could start), scaled
                      the same way
    peak_rss_mb       peak resident memory of the worker process

Host scaling: each timed call and each set-up probe is bracketed by a fixed
pure-Python calibration loop (``calibrate.py``) and reported as
``wall * REFERENCE_S / mean(calibration before, after)``.  On a host whose
shared cores slow down by 2x for minutes at a time this keeps two runs of the
same code comparable; the raw median, the tail percentile and the sample
count are printed in the report lines above the JSON.

``--trace 1`` alternates untraced and traced driver calls and reports the
per-layer metrics from spans recorded around the calls into each layer,
plus ``trace.overhead_frac`` (traced against untraced wall time) and the
import/build split of set-up (``python -X importtime``).

Every driver call is checked (invariant drift, byte-identical CSVs, Strang
more accurate than Euler on ``compare_smooth``); one Strang dt-sweep and a
fast-vs-direct kernel comparison run per invocation.  The last line printed
is ``{"correct", "attempted", "failed", "metrics"}``; the lines before it are
a human-readable report.  Exits non-zero without a result when the source
tree is missing or a worker crashes.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import REFERENCE_S, calibrate, scaled  # noqa: E402

ROOT = HERE.parent
SETUP_PROBES = 3
IMPORTTIME_PROBES = 3
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 30


def child_env() -> dict:
    """One single-threaded worker at a time: pin every BLAS pool to 1 thread."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{' '.join(cmd[:3])} ... exited with {proc.returncode}")
    return proc


def scipy_import_s(importtime_log: str) -> float:
    """Cumulative import time of the outermost scipy modules, in seconds."""
    entries = []
    for line in importtime_log.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cumulative, package = line.split("|")
        name = package.strip()
        if name == "scipy" or name.startswith("scipy."):
            depth = len(package) - len(package.lstrip())
            entries.append((depth, int(cumulative)))
    if not entries:
        return 0.0
    top = min(d for d, _ in entries)
    return sum(us for d, us in entries if d == top) / 1e6


def setup_probes(config: str, trace: bool) -> dict:
    """Fresh interpreters: import rodwave, resolve the config, build state 0."""
    probe = [sys.executable]
    if trace:
        probe += ["-X", "importtime"]
    probe += [str(HERE / "setup_probe.py"), config]
    walls, raw, imports, builds, scipy = [], [], [], [], []
    for _ in range(IMPORTTIME_PROBES if trace else SETUP_PROBES):
        before = calibrate()
        start = time.perf_counter()
        proc = run_child(probe, PROBE_TIMEOUT_S)
        raw.append(time.perf_counter() - start)
        walls.append(scaled(raw[-1], before, calibrate()))
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        imports.append(out["import_s"])
        builds.append(out["build_s"])
        if trace:
            scipy.append(scipy_import_s(proc.stderr))
    result = {"setup_s": statistics.median(walls),
              "setup_raw_s": statistics.median(raw),
              "cli.import_s": statistics.median(imports),
              "initial_data.build_s": statistics.median(builds)}
    if trace:
        result["cli.import.scipy_s"] = statistics.median(scipy)
    return result


def tail(samples: list[float]) -> str:
    """Highest percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return f"n/a (needs 11 samples, have {n})"
    k = n - 11
    return f"p{100.0 * (k + 1) / n:.0f}={sorted(samples)[k]:.4f}s"


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="rodwave benchmark")
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true",
                    help="tiny grids, for the benchmark's own smoke test")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "rodwave" / "__init__.py").is_file():
        print(f"error: no rodwave source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_build" / "perfbench" / args.workload
    gen = workloads.generate(args.workload, args.seed, work, tiny=args.tiny)
    # Byte-compile once so every set-up probe reads the same cached bytecode.
    run_child([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")], PROBE_TIMEOUT_S)

    setup = setup_probes(gen["config"], bool(args.trace))
    proc = run_child(
        [sys.executable, str(HERE / "worker.py"), "--driver", gen["driver"],
         "--config", gen["config"], "--strang-order", gen["strang_order"],
         "--work", str(work), "--seconds", str(args.seconds), "--trace", str(args.trace)],
        WORKER_TIMEOUT_S,
    )
    (work / "worker.json").write_text(proc.stdout)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    if not res["walls"]:
        print("error: every driver call failed", file=sys.stderr)
        for line in res["failures"]:
            print("  " + line, file=sys.stderr)
        return 1

    walls = res["walls"]
    wall = statistics.median(scaled(w, *c) for w, c in zip(walls, res["cals"]))
    checks = res["checks"]
    failed_frac = res["failed"] / res["attempted"]
    print(f"workload {args.workload} seed {args.seed} driver {gen['driver']} "
          f"x0 {gen['x0']!r}")
    print(f"  raw wall median {statistics.median(walls):.4f}s  tail {tail(walls)}  "
          f"samples {len(walls)}; raw setup median {setup['setup_raw_s']:.4f}s")
    print(f"  host calibration median "
          f"{statistics.median(c for pair in res['cals'] for c in pair):.4f}s "
          f"(reference {REFERENCE_S}s)")
    print(f"  failed_frac {failed_frac:.4f} ({res['failed']} of {res['attempted']} calls)")
    for name, value in sorted(checks.items()):
        print(f"  check.{name} {value}")
    for line in res["failures"]:
        print(f"  FAILED {line}")

    if args.trace:
        layers = dict(res["layers"])
        layers.update({k: v for k, v in setup.items() if k not in ("setup_s", "setup_raw_s")})
        layers["experiments.io.bytes"] = res["io"]["bytes"]
        layers["experiments.io.files"] = res["io"]["files"]
        traced = statistics.median(res["traced_walls"])
        layers["trace.overhead_frac"] = traced / statistics.median(walls) - 1.0
        if not res["counts_repeat"]:
            print("  WARNING counts differ between traced calls")
        for name in res["missing"]:
            print(f"  absent: {name} (its metrics are left out)")
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in sorted(layers.items())}
    else:
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cell_steps_per_s": {"value": res["cell_steps"] / wall, "unit": "1/s"},
            "setup_s": {"value": setup["setup_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        }
    for name, m in metrics.items():
        print(f"  {name} = {m['value']} {m['unit']}")
    correct = res["failed"] == 0 and res.get("counts_repeat", True)
    print(json.dumps({
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_cell"):
        return "us"
    if name.endswith("bytes"):
        return "B"
    if name.endswith(("_frac", "_ratio", "_per_substep")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
