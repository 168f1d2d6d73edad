"""Experiment definitions, drivers and artifact persistence.

An experiment is a JSON-compatible config (nested sections for grid and
stepper) naming an initial condition, a material constant, resolutions and a
final time.  Runs are deterministic: identical configs produce byte-identical
CSV artifacts, and every run writes a manifest that can be fed back to
reproduce it.
"""

from __future__ import annotations

import csv
import json
import math
import subprocess
import time
import warnings
from dataclasses import dataclass, field, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from .errors import RodwaveError
from .initial_data import (
    EulerianProfile,
    FineGrid,
    TravelingWaveSpec,
    build_from_spec,
    eulerian_to_lagrangian,
    project_to_grid,
)
from .observables import (
    DiagnosticsRecorder,
    convergence_order,
    exact_peakon_error,
    sup_graph_error,
)
from .state import GridSpec, LagrangianState, Parameters, distance_f, invariants
from .stepping import SCHEMES, StepperConfig, evolve

DEFAULT_SCHEMES = ("lie_trotter", "strang", "explicit_euler", "adaptive_rk")

GRAPH_COLUMNS = ("xi", "y", "U", "q", "w", "h", "I")
DIAG_COLUMNS = ("t", "total_energy", "min_q", "min_h", "max_inv_drift", "fp_iters_max")


@dataclass(frozen=True)
class ExperimentConfig:
    name: str
    initial_data: dict
    gamma: float
    dxi: float
    r: float
    dt: float
    t_final: float
    scheme: str = "strang"
    output_stride: int = 1
    schemes: tuple[str, ...] = DEFAULT_SCHEMES
    m_ref: int = 16
    fp_tol: float = 1e-12
    fp_max_iter: int = 50
    rk_rel_tol: float = 1e-6
    rk_abs_tol: float = 1e-9
    reference_dt_factor: float = 0.1
    sweep: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self):
        for s in (self.scheme,) + tuple(self.schemes):
            if s not in SCHEMES:
                raise ValueError(f"unknown scheme {s!r}")
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if self.initial_data.get("kind") == "profile_file":
            path = Path(self.initial_data.get("path", ""))
            if not path.is_file():
                raise ValueError(f"profile file not found: {path}")
        ratio = self.t_final / self.dt
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            warnings.warn(
                f"t_final={self.t_final} is not a multiple of dt={self.dt}; "
                "the last step will be shortened",
                stacklevel=2,
            )

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "description": self.description,
            "initial_data": dict(self.initial_data),
            "gamma": self.gamma,
            "grid": {"dxi": self.dxi, "r": self.r},
            "stepper": {
                "dt": self.dt,
                "scheme": self.scheme,
                "fp_tol": self.fp_tol,
                "fp_max_iter": self.fp_max_iter,
                "rk_rel_tol": self.rk_rel_tol,
                "rk_abs_tol": self.rk_abs_tol,
            },
            "t_final": self.t_final,
            "output_stride": self.output_stride,
            "schemes": list(self.schemes),
            "m_ref": self.m_ref,
            "reference_dt_factor": self.reference_dt_factor,
            "sweep": dict(self.sweep),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        grid = d.get("grid", {})
        stepper = d.get("stepper", {})
        return cls(
            name=d["name"],
            description=d.get("description", ""),
            initial_data=dict(d["initial_data"]),
            gamma=float(d["gamma"]),
            dxi=float(grid["dxi"]),
            r=float(grid["r"]),
            dt=float(stepper["dt"]),
            scheme=stepper.get("scheme", "strang"),
            fp_tol=float(stepper.get("fp_tol", 1e-12)),
            fp_max_iter=int(stepper.get("fp_max_iter", 50)),
            rk_rel_tol=float(stepper.get("rk_rel_tol", 1e-6)),
            rk_abs_tol=float(stepper.get("rk_abs_tol", 1e-9)),
            t_final=float(d["t_final"]),
            output_stride=int(d.get("output_stride", 1)),
            schemes=tuple(d.get("schemes", DEFAULT_SCHEMES)),
            m_ref=int(d.get("m_ref", 16)),
            reference_dt_factor=float(d.get("reference_dt_factor", 0.1)),
            sweep=dict(d.get("sweep", {})),
        )

    def grid_spec(self) -> GridSpec:
        return GridSpec.from_radius(self.dxi, self.r)

    def stepper_config(
        self, scheme: str | None = None, dt: float | None = None
    ) -> StepperConfig:
        return StepperConfig(
            dt=self.dt if dt is None else dt,
            scheme=self.scheme if scheme is None else scheme,
            fp_tol=self.fp_tol,
            fp_max_iter=self.fp_max_iter,
            rk_rel_tol=self.rk_rel_tol,
            rk_abs_tol=self.rk_abs_tol,
        )


def load_config(path) -> ExperimentConfig:
    """Read a config file, or a run manifest (its resolved config is reused)."""
    with open(path) as fh:
        d = json.load(fh)
    if "config" in d and "name" not in d:
        d = d["config"]
    return ExperimentConfig.from_dict(d)


def build_initial_state(cfg: ExperimentConfig) -> LagrangianState:
    grid = cfg.grid_spec()
    spec = dict(cfg.initial_data)
    kind = spec.pop("kind")
    fine = FineGrid(m_ref=cfg.m_ref)
    if kind == "profile_file":
        profile = EulerianProfile.from_file(spec.pop("path"))
        if spec:
            raise ValueError(f"unknown profile_file keys: {sorted(spec)}")
        data = eulerian_to_lagrangian(profile, fine, grid)
        return project_to_grid(data, grid, Parameters(cfg.gamma))
    if "blend" in spec and spec["blend"] is not None:
        spec["blend"] = tuple(spec["blend"])
    wave = TravelingWaveSpec(kind=kind, gamma=cfg.gamma, **spec)
    return build_from_spec(wave, grid, fine)


# ---------------------------------------------------------------------------
# Bundled experiments
# ---------------------------------------------------------------------------

BUNDLED: dict[str, dict] = {
    "smooth_gamma02": {
        "name": "smooth_gamma02",
        "description": "smooth traveling wave, gamma=0.2, c=M=1, T=7",
        "initial_data": {"kind": "smooth", "c": 1.0, "x0": 0.0},
        "gamma": 0.2,
        "grid": {"dxi": 0.25, "r": 25.0},
        "stepper": {"dt": 0.1, "scheme": "strang"},
        "t_final": 7.0,
        "output_stride": 10,
    },
    "peakon_c1": {
        "name": "peakon_c1",
        "description": "single peakon, c=1 (Camassa-Holm), T=5",
        "initial_data": {"kind": "peakon", "c": 1.0, "x0": 0.0},
        "gamma": 1.0,
        "grid": {"dxi": 0.05, "r": 25.0},
        "stepper": {"dt": 0.2, "scheme": "strang"},
        "t_final": 5.0,
        "output_stride": 5,
    },
    "cuspon_gamma5": {
        "name": "cuspon_gamma5",
        "description": "cusped traveling wave, gamma=5, c=M=1, T=6",
        "initial_data": {"kind": "cuspon", "c": 1.0, "x0": 0.0},
        "gamma": 5.0,
        "grid": {"dxi": 0.1, "r": 25.0},
        "stepper": {"dt": 0.1, "scheme": "strang"},
        "t_final": 6.0,
        "output_stride": 10,
    },
    "peakon_antipeakon_gamma5": {
        "name": "peakon_antipeakon_gamma5",
        "description": "peakon-antipeakon collision, gamma=5, T=2",
        "initial_data": {"kind": "peakon_antipeakon", "c": 1.0, "x0": 0.0, "separation": 1.0},
        "gamma": 5.0,
        "grid": {"dxi": 0.1, "r": 25.0},
        # loose comparator tolerances, matching a stock adaptive-solver setup
        "stepper": {"dt": 0.1, "scheme": "strang", "rk_rel_tol": 1e-3, "rk_abs_tol": 1e-6},
        "t_final": 2.0,
        "output_stride": 1,
    },
    "peakon_antipeakon_gamma1": {
        "name": "peakon_antipeakon_gamma1",
        "description": "peakon-antipeakon collision, gamma=1, T=8",
        "initial_data": {"kind": "peakon_antipeakon", "c": 1.0, "x0": 0.0, "separation": 1.0},
        "gamma": 1.0,
        "grid": {"dxi": 0.1, "r": 25.0},
        "stepper": {"dt": 0.1, "scheme": "strang"},
        "t_final": 8.0,
        "output_stride": 5,
    },
    "collision_smooth": {
        "name": "collision_smooth",
        "description": "colliding smooth waves, u0=-x*exp(-x^2/2), gamma=0.8, T=11",
        "initial_data": {"kind": "gaussian_derivative"},
        "gamma": 0.8,
        "grid": {"dxi": 0.25, "r": 25.0},
        "stepper": {"dt": 0.1, "scheme": "strang"},
        "t_final": 11.0,
        "output_stride": 2,
    },
}


def bundled_config(name: str) -> ExperimentConfig:
    if name not in BUNDLED:
        raise KeyError(f"no bundled experiment {name!r}; see list-experiments")
    return ExperimentConfig.from_dict(BUNDLED[name])


def resolve_config(name_or_path: str) -> ExperimentConfig:
    """Accept a bundled experiment name or a path to a config/manifest file."""
    if name_or_path in BUNDLED:
        return bundled_config(name_or_path)
    path = Path(name_or_path)
    if path.is_file():
        return load_config(path)
    raise RodwaveError(f"{name_or_path!r} is neither a bundled experiment nor a file")


# ---------------------------------------------------------------------------
# CSV / manifest IO
# ---------------------------------------------------------------------------


def _fmt(x) -> str:
    return repr(float(x))


def write_graph_csv(path: Path, state: LagrangianState) -> None:
    I = invariants(state)
    xi = state.grid.cells
    y = state.y
    q = state.q
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(GRAPH_COLUMNS)
        for k in range(state.n_cells):
            out.writerow(
                [
                    _fmt(xi[k]), _fmt(y[k]), _fmt(state.U[k]), _fmt(q[k]),
                    _fmt(state.w[k]), _fmt(state.h[k]), _fmt(I[k]),
                ]
            )


def write_diagnostics_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(DIAG_COLUMNS)
        for r in rows:
            out.writerow(
                [
                    _fmt(r.t), _fmt(r.total_energy), _fmt(r.min_q),
                    _fmt(r.min_h), _fmt(r.max_inv_drift), str(r.fp_iters_max),
                ]
            )


def _version_string() -> str:
    try:
        base = metadata.version("rodwave")
    except Exception:
        base = "0.1.0+local"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True, text=True, timeout=5,
        )
        rev = out.stdout.strip() if out.returncode == 0 else ""
    except Exception:
        rev = ""
    return f"rodwave {base}" + (f" ({rev})" if rev else "")


@dataclass
class RunArtifacts:
    run_dir: Path
    manifest: Path
    diagnostics: Path
    snapshots: list[Path]
    summary: Path | None = None


def _write_manifest(run_dir: Path, cfg: ExperimentConfig, wall: float, extra: dict) -> Path:
    manifest = {
        "config": cfg.to_dict(),
        "version": _version_string(),
        "wall_time_s": wall,
        **extra,
    }
    path = run_dir / "manifest.json"
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_experiment(
    cfg: ExperimentConfig, run_dir: Path, quiet: bool = False
) -> RunArtifacts:
    """Run one experiment, writing graph snapshots, diagnostics and a manifest."""
    run_dir = Path(run_dir)
    run_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    state0 = build_initial_state(cfg)
    recorder = DiagnosticsRecorder()
    snapshots: list[Path] = []
    snap_meta: list[tuple[int, float, str]] = []

    def snapshot(step, t, state, report):
        fname = f"graph_{len(snapshots):04d}.csv"
        write_graph_csv(run_dir / fname, state)
        snapshots.append(run_dir / fname)
        snap_meta.append((step, t, fname))

    _, reports = evolve(
        state0,
        cfg.t_final,
        cfg.stepper_config(),
        observers=(recorder, snapshot),
        observe_stride=cfg.output_stride,
    )
    diag_path = run_dir / "diagnostics.csv"
    write_diagnostics_csv(diag_path, recorder.rows)
    with open(run_dir / "snapshots.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("index", "step", "t", "file"))
        for k, (step, t, fname) in enumerate(snap_meta):
            out.writerow([str(k), str(step), _fmt(t), fname])
    wall = time.perf_counter() - t_start
    manifest = _write_manifest(
        run_dir, cfg, wall,
        {"artifacts": {"diagnostics": "diagnostics.csv",
                       "snapshots": [m[2] for m in snap_meta]}},
    )
    if not quiet:
        rows = recorder.rows
        print(
            f"[{cfg.name}] scheme={cfg.scheme} steps={len(reports)} "
            f"energy={rows[-1].total_energy:.6f} min_q={recorder.min_q_overall:.3e} "
            f"inv_drift={recorder.max_invariant_drift:.3e} wall={wall:.2f}s"
        )
    return RunArtifacts(run_dir, manifest, diag_path, snapshots)


def _run_one_scheme(cfg: ExperimentConfig, state0, scheme: str, scheme_dir: Path):
    """Evolve one scheme, recording every step, and return the final state,
    the recorder and the run's minima of q and h."""
    scheme_dir.mkdir(parents=True, exist_ok=True)
    recorder = DiagnosticsRecorder()
    state, reports = evolve(
        state0, cfg.t_final, cfg.stepper_config(scheme=scheme), observers=(recorder,)
    )
    write_diagnostics_csv(scheme_dir / "diagnostics.csv", recorder.rows)
    write_graph_csv(scheme_dir / "final_graph.csv", state)
    if scheme == "adaptive_rk":  # its internal accepted steps, t=0 excluded
        return state, recorder, min(r.min_q for r in reports), min(r.min_h for r in reports)
    return state, recorder, recorder.min_q_overall, recorder.min_h_overall


def compare_experiment(
    cfg: ExperimentConfig, out_dir: Path, quiet: bool = False
) -> RunArtifacts:
    """Run every scheme in cfg.schemes from identical initial data.

    The summary table reports the final graph distance to a fine reference
    (Strang at dt * reference_dt_factor), the invariant drift and the minima
    of q and h over the run (internal accepted steps for the adaptive
    comparator).
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    t_start = time.perf_counter()
    state0 = build_initial_state(cfg)
    ref_cfg = cfg.stepper_config(scheme="strang", dt=cfg.dt * cfg.reference_dt_factor)
    reference, _ = evolve(state0, cfg.t_final, ref_cfg)
    write_graph_csv(out_dir / "reference_graph.csv", reference)

    rows = []
    for scheme in cfg.schemes:
        state, recorder, min_q, min_h = _run_one_scheme(
            cfg, state0, scheme, out_dir / scheme
        )
        rows.append(
            {
                "scheme": scheme,
                "graph_error_vs_ref": sup_graph_error(state, reference),
                "max_inv_drift": recorder.max_invariant_drift,
                "min_q": min_q,
                "min_h": min_h,
            }
        )
        if not quiet:
            print(
                f"[{cfg.name}] {scheme:>14}: err={rows[-1]['graph_error_vs_ref']:.4e} "
                f"inv_drift={rows[-1]['max_inv_drift']:.3e} min_q={min_q:.3e} "
                f"min_h={min_h:.3e}"
            )

    summary = out_dir / "summary.csv"
    with open(summary, "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("scheme", "graph_error_vs_ref", "max_inv_drift", "min_q", "min_h"))
        for r in rows:
            out.writerow(
                [r["scheme"], _fmt(r["graph_error_vs_ref"]), _fmt(r["max_inv_drift"]),
                 _fmt(r["min_q"]), _fmt(r["min_h"])]
            )
    wall = time.perf_counter() - t_start
    manifest = _write_manifest(
        out_dir, cfg, wall,
        {"artifacts": {"summary": "summary.csv",
                       "schemes": list(cfg.schemes)}},
    )
    return RunArtifacts(out_dir, manifest, summary, [], summary=summary)


def _nearest_xi_error(coarse: LagrangianState, fine: LagrangianState) -> float:
    """Graph error between grids: match coarse cells into the fine grid by
    nearest xi (a harness convention for cross-grid comparisons)."""
    idx = np.clip(
        np.rint((coarse.grid.cells - fine.grid.cells[0]) / fine.grid.dxi).astype(int),
        0,
        fine.n_cells - 1,
    )
    return float(
        np.max(np.hypot(coarse.y - fine.y[idx], coarse.U - fine.U[idx]))
    )


def converge_experiment(
    cfg: ExperimentConfig,
    out_dir: Path,
    dt_list=None,
    dxi_list=None,
    quiet: bool = False,
) -> dict:
    """Error-vs-resolution sweeps with fitted log-log slopes.

    Time sweeps hold the grid fixed and compare final states (distance_f)
    against a small-step reference.  Space sweeps compare against the exact
    peakon when available, otherwise against the finest run via nearest-xi
    graph matching.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    dt_list = list(dt_list or cfg.sweep.get("dt", []))
    dxi_list = list(dxi_list or cfg.sweep.get("dxi", []))
    if not dt_list and not dxi_list:
        raise RodwaveError("converge needs a dt and/or dxi sweep")
    report: dict = {"name": cfg.name, "scheme": cfg.scheme}

    def final_state(dxi, dt, scheme):
        run_cfg = replace(cfg, dxi=dxi, dt=dt, scheme=scheme)
        state0 = build_initial_state(run_cfg)
        state, _ = evolve(state0, cfg.t_final, run_cfg.stepper_config())
        return state

    if dt_list:
        ref_dt = min(dt_list) * cfg.reference_dt_factor
        reference = final_state(cfg.dxi, ref_dt, "strang")
        finals = [final_state(cfg.dxi, d, cfg.scheme) for d in dt_list]
        errors = [distance_f(s, reference) for s in finals]
        report["dt_sweep"] = {
            "dt": dt_list,
            "error": errors,
            "slope": convergence_order(zip(dt_list, errors)),
            "reference_dt": ref_dt,
        }

    if dxi_list:
        peakon = (
            cfg.initial_data.get("kind") == "peakon" and cfg.gamma == 1.0
        )
        finals = [final_state(dxi, dxi / 4.0, cfg.scheme) for dxi in dxi_list]
        if peakon:
            c = float(cfg.initial_data.get("c", 1.0))
            x0 = float(cfg.initial_data.get("x0", 0.0))
            errors = [
                exact_peakon_error(s, cfg.t_final, c, x0) for s in finals
            ]
        else:
            fine_idx = int(np.argmin(dxi_list))
            errors = [
                _nearest_xi_error(s, finals[fine_idx]) if k != fine_idx else math.nan
                for k, s in enumerate(finals)
            ]
            # drop the self-comparison entry for the fit
        fit_pairs = [
            (d, e) for d, e in zip(dxi_list, errors) if not math.isnan(e)
        ]
        report["dxi_sweep"] = {
            "dxi": dxi_list,
            "dt": [dxi / 4.0 for dxi in dxi_list],
            "error": errors,
            "slope": convergence_order(fit_pairs),
            "against": "exact_peakon" if peakon else "finest_run",
        }

    with open(out_dir / "order_report.json", "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(out_dir / "errors.csv", "w", newline="") as fh:
        out = csv.writer(fh)
        out.writerow(("sweep", "resolution", "error"))
        for key, col in (("dt_sweep", "dt"), ("dxi_sweep", "dxi")):
            if key in report:
                for rres, err in zip(report[key][col], report[key]["error"]):
                    out.writerow([key, _fmt(rres), _fmt(err)])
    if not quiet:
        for key in ("dt_sweep", "dxi_sweep"):
            if key in report:
                print(f"[{cfg.name}] {key}: slope={report[key]['slope']:.3f}")
    return report


# ---------------------------------------------------------------------------
# Plot scripts (gnuplot)
# ---------------------------------------------------------------------------

_GP_PREAMBLE = 'set datafile separator comma\nset key autotitle columnhead\nset grid\n'


def emit_plots(artifacts_dir: Path) -> list[Path]:
    """Write gnuplot scripts next to an existing run/compare directory."""
    artifacts_dir = Path(artifacts_dir)
    manifest_path = artifacts_dir / "manifest.json"
    if not manifest_path.is_file():
        raise RodwaveError(f"no manifest.json in {artifacts_dir}")
    with open(manifest_path) as fh:
        manifest = json.load(fh)
    arts = manifest.get("artifacts", {})
    written: list[Path] = []

    if "schemes" in arts:  # compare layout
        lines = [_GP_PREAMBLE, 'set xlabel "x"\nset ylabel "u"\n']
        plots = ['"reference_graph.csv" using 2:3 with lines title "reference"']
        for scheme in arts["schemes"]:
            plots.append(f'"{scheme}/final_graph.csv" using 2:3 with points title "{scheme}"')
        lines.append("plot " + ", \\\n     ".join(plots) + "\n")
        path = artifacts_dir / "overlay.gp"
        path.write_text("".join(lines))
        written.append(path)

        lines = [_GP_PREAMBLE, 'set xlabel "x"\nset ylabel "h/q"\n']
        plots = [
            f'"{scheme}/final_graph.csv" using 2:($6/$4) with linespoints title "{scheme}"'
            for scheme in arts["schemes"]
        ]
        lines.append("plot " + ", \\\n     ".join(plots) + "\n")
        path = artifacts_dir / "energy_density.gp"
        path.write_text("".join(lines))
        written.append(path)
        return written

    snapshots = arts.get("snapshots", [])
    if not snapshots:
        raise RodwaveError(f"{artifacts_dir} has no graph snapshots to plot")

    lines = [_GP_PREAMBLE, 'set xlabel "x"\nset ylabel "u"\n']
    lines.append(
        f'plot "{snapshots[0]}" using 2:3 with lines title "t0", '
        f'"{snapshots[-1]}" using 2:3 with linespoints title "final"\n'
    )
    path = artifacts_dir / "overlay.gp"
    path.write_text("".join(lines))
    written.append(path)

    lines = [_GP_PREAMBLE, 'set xlabel "x"\nset ylabel "u + offset"\nunset key\n']
    offset = 0.5
    plots = [
        f'"{snap}" using 2:($3 + {k * offset}) with lines'
        for k, snap in enumerate(snapshots)
    ]
    lines.append("plot " + ", \\\n     ".join(plots) + "\n")
    path = artifacts_dir / "waterfall.gp"
    path.write_text("".join(lines))
    written.append(path)

    lines = [_GP_PREAMBLE, 'set xlabel "x"\nset ylabel "h/q"\n']
    lines.append(f'plot "{snapshots[-1]}" using 2:($6/$4) with linespoints title "final"\n')
    path = artifacts_dir / "energy_density.gp"
    path.write_text("".join(lines))
    written.append(path)
    return written
