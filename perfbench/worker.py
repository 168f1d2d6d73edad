"""Benchmark worker: times one workload's driver calls in a warm interpreter.

``run.py`` starts this as a fresh, single-threaded process and reads the
JSON object it prints as its last line.  Only public drivers are called:
``resolve_config``, ``run_experiment``/``compare_experiment`` and
``converge_experiment`` (without ``jobs``).

Order of work, none of it inside a timed region except the driver calls:

1. the Strang-order sweep (one ``converge_experiment`` call);
2. one untimed warm-up driver call that also samples kernel inputs and
   fixes the reference digest of the CSV artifacts;
3. timed driver calls until ``--seconds`` have passed (at least two), each
   bracketed by a host-speed calibration; with ``--trace 1`` each untraced
   call is followed by a traced one;
4. the fast-vs-direct kernel comparison on the sampled inputs.

Every driver call, and the kernel comparison, counts as attempted; it counts
as failed when it raises a ``RodwaveError`` or one of its checks fails.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import resource
import shutil
import sys
import time
from pathlib import Path

from calibrate import calibrate
from spans import Tracer, median_metrics

# Invariant drift gate.  The unshifted peakon_c1 run drifts 1.16e-11 at the
# commit that defined the benchmark and sub-cell shifts of x0 reach 2.3e-11;
# a conservation bug (e.g. lagged source terms) shows up at 1e-4 or above.
DRIFT_LIMIT = 5e-11
ORDER_RANGE = (1.8, 2.2)      # fitted Strang dt-slope
KERNEL_RTOL = 1e-12           # max |fast - direct| / max |direct P|
KERNEL_STRIDE = 200           # keep every 200th kernel input of the warm-up
KERNEL_SAMPLES = 8
CONSERVATIVE = ("lie_trotter", "strang")
FIXED_STEP_SCHEMES = ("lie_trotter", "strang", "explicit_euler")
MIN_SAMPLES = 2


def n_steps(t_final: float, dt: float) -> int:
    """Number of steps the time loop takes (a short last step counts)."""
    n_full = int(math.floor(t_final / dt + 1e-9))
    rem = t_final - n_full * dt
    return n_full + (1 if rem > 1e-9 * max(1.0, t_final) else 0)


def cell_steps(config: dict, driver: str) -> int:
    """Sum of cells x time steps over every evolve the driver call makes."""
    dxi, r = config["grid"]["dxi"], config["grid"]["r"]
    cells = 2 * max(1, int(round(r / dxi)))
    dt, t_final = config["stepper"]["dt"], config["t_final"]
    if driver == "run":
        return cells * n_steps(t_final, dt)
    schemes = config.get("schemes", ("lie_trotter", "strang", "explicit_euler", "adaptive_rk"))
    fixed = sum(1 for s in schemes if s in FIXED_STEP_SCHEMES)
    ref_dt = dt * config.get("reference_dt_factor", 0.1)
    return cells * (n_steps(t_final, ref_dt) + fixed * n_steps(t_final, dt))


def csv_digest(run_dir: Path) -> dict:
    """sha256 of every CSV artifact (the manifest carries wall time and rev)."""
    return {
        str(p.relative_to(run_dir)): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(run_dir.rglob("*.csv"))
    }


def artifact_size(run_dir: Path) -> tuple[int, int]:
    files = [p for p in run_dir.rglob("*") if p.is_file()]
    return len(files), sum(p.stat().st_size for p in files)


def output_checks(driver: str, run_dir: Path, checks: dict) -> list[str]:
    """Invariant drift (and, for compare, Strang beating Euler) from the CSVs."""
    failures = []
    if driver == "run":
        with open(run_dir / "diagnostics.csv") as fh:
            drift = max(float(row["max_inv_drift"]) for row in csv.DictReader(fh))
    else:
        with open(run_dir / "summary.csv") as fh:
            rows = {row["scheme"]: row for row in csv.DictReader(fh)}
        drift = max(float(rows[s]["max_inv_drift"]) for s in CONSERVATIVE if s in rows)
        strang = float(rows["strang"]["graph_error_vs_ref"])
        euler = float(rows["explicit_euler"]["graph_error_vs_ref"])
        checks["strang_error"] = strang
        checks["euler_error"] = euler
        if not strang < euler:
            failures.append(f"strang error {strang:.3e} not below euler {euler:.3e}")
    checks["inv_drift"] = max(checks.get("inv_drift", 0.0), drift)
    if not drift <= DRIFT_LIMIT:
        failures.append(f"invariant drift {drift:.3e} > {DRIFT_LIMIT:.0e}")
    return failures


def kernel_check(source_terms, states: list, checks: dict) -> list[str]:
    """Fast O(N) kernel against the direct O(N^2) sum on monotone states."""
    if not states:
        return ["no kernel inputs were sampled"]
    step = max(1, len(states) // KERNEL_SAMPLES)
    worst = 0.0
    for state in states[::step][:KERNEL_SAMPLES]:
        fast = source_terms.source_terms_fast(state)
        direct = source_terms.source_terms_direct(state)
        scale = float(max(abs(direct.P).max(), 1e-300))
        err = max(abs(fast.P - direct.P).max(), abs(fast.Q - direct.Q).max()) / scale
        worst = max(worst, float(err))
    checks["kernel_rel_err"] = worst
    if not worst <= KERNEL_RTOL:
        return [f"fast vs direct kernel rel. error {worst:.3e} > {KERNEL_RTOL:.0e}"]
    return []


class Sampler:
    """Keeps every KERNEL_STRIDE-th state the fast kernel accepted."""

    def __init__(self, source_terms):
        self.module = source_terms
        self.original = source_terms.source_terms_fast
        self.states: list = []
        self.calls = 0

    def __enter__(self):
        def sampled(state):
            terms = self.original(state)
            if self.calls % KERNEL_STRIDE == 0:
                self.states.append(state)
            self.calls += 1
            return terms

        self.module.source_terms_fast = sampled
        return self

    def __exit__(self, *exc):
        self.module.source_terms_fast = self.original
        return False


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--driver", choices=("run", "compare"), required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--strang-order", required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    from rodwave import experiments, source_terms
    from rodwave.errors import RodwaveError

    work = Path(args.work)
    config = json.loads(Path(args.config).read_text())
    cfg = experiments.resolve_config(args.config)
    driver = "run_experiment" if args.driver == "run" else "compare_experiment"
    run_dir = work / "run"
    checks: dict = {"deterministic": True}
    failures: list[str] = []
    attempted = failed = 0

    def attempt(label, fn):
        """Run one driver call and its checks; returns fn's result or None."""
        nonlocal attempted, failed
        attempted += 1
        try:
            result, problems = fn()
        except RodwaveError as err:
            result, problems = None, [f"{type(err).__name__}: {err}"]
        if problems:
            failed += 1
            failures.extend(f"{label}: {p}" for p in problems)
        return result

    def order_sweep():
        report = experiments.converge_experiment(
            experiments.resolve_config(args.strang_order), work / "strang_order", quiet=True
        )
        slope = report["dt_sweep"]["slope"]
        checks["strang_order"] = slope
        lo, hi = ORDER_RANGE
        return slope, ([] if lo <= slope <= hi else [f"Strang dt-slope {slope:.4f}"])

    def driver_call():
        shutil.rmtree(run_dir, ignore_errors=True)
        start = time.perf_counter()
        getattr(experiments, driver)(cfg, run_dir, quiet=True)
        wall = time.perf_counter() - start
        problems = output_checks(args.driver, run_dir, checks)
        if csv_digest(run_dir) != reference_digest:
            checks["deterministic"] = False
            problems.append("CSV artifacts differ from the warm-up call")
        return wall, problems

    sampler = Sampler(source_terms)

    def warmup_call():
        with sampler:
            getattr(experiments, driver)(cfg, run_dir, quiet=True)
        return csv_digest(run_dir), output_checks(args.driver, run_dir, checks)

    attempt("strang_order", order_sweep)
    shutil.rmtree(run_dir, ignore_errors=True)
    reference_digest = attempt("warmup", warmup_call)

    tracer = Tracer() if args.trace else None
    walls: list[float] = []
    # calibrations taken right before and right after each untraced call
    cals: list[tuple[float, float]] = []
    traced_walls: list[float] = []
    per_call: list[dict] = []
    start = time.perf_counter()
    while len(walls) < MIN_SAMPLES or time.perf_counter() - start < args.seconds:
        before = calibrate()
        wall = attempt(f"call {attempted}", driver_call)
        if wall is not None:
            walls.append(wall)
            cals.append((before, calibrate()))
        if tracer is not None:
            tracer.call_id = len(traced_walls)
            tracer.install()
            try:
                wall = attempt(f"traced call {attempted}", driver_call)
            finally:
                tracer.uninstall()
            if wall is not None:
                traced_walls.append(wall)
                per_call.append(tracer.call_metrics(tracer.call_id))
        if attempted > 3 * MIN_SAMPLES and not walls:
            break

    # Read the high-water mark before the O(N^2) kernel check allocates.
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempt("kernel_agree", lambda: (None, kernel_check(source_terms, sampler.states, checks)))
    files, size = artifact_size(run_dir)
    result = {
        "walls": walls,
        "cals": cals,
        "cell_steps": cell_steps(config, args.driver),
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checks": checks,
        "io": {"files": files, "bytes": size},
    }
    if tracer is not None:
        tracer.write(work / "spans.csv")
        layers, repeat = median_metrics(per_call) if per_call else ({}, False)
        result.update(
            traced_walls=traced_walls, layers=layers, counts_repeat=repeat,
            missing=tracer.missing,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
