"""Experiment definitions, drivers and artifact persistence.

An experiment is a JSON-compatible config (nested sections for grid and
stepper) naming an initial condition, a material constant, resolutions and a
final time.  Runs are deterministic: identical configs produce byte-identical
CSV artifacts, and every run writes a manifest that can be fed back to
reproduce it.
"""

from __future__ import annotations

import functools
import json
import math
import subprocess
import time
import warnings
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from importlib import metadata
from pathlib import Path

import numpy as np

from .errors import DegenerateFit, RodwaveError
from .initial_data import KINDS, FineGrid, TravelingWaveSpec, build_from_spec
from .observables import (
    DiagnosticsRecorder,
    DiagnosticsRow,
    convergence_order,
    exact_peakon_error,
    sup_graph_error,
)
from .state import GridSpec, LagrangianState, distance_f, invariants
from .stepping import SCHEMES, StepperConfig, evolve, richardson_reference

_GRID_KEYS = ("dxi", "r")
# what compare's manifest and converge's report name the reference by
_REFERENCE_METHOD = "richardson_strang"


def _int(value) -> int:
    """int(value), refusing to truncate: 2.0 is 2, but 1.7 is an error."""
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


_CASTS = {"float": ((int, float), float), "int": ((int, float), _int), "str": (str, str),
          "dict": (dict, dict), "tuple": ((list, tuple), tuple)}


def _cast(declared: str, value, where: str):
    """``value`` cast to ``declared``, a field's type as written, such as
    ``int`` or ``tuple[float, float] | None``; ValueError names ``where``.
    The value must have a JSON type that fits: a JSON 1 is 1.0 for a float,
    2.0 is 2 for an int, an array a tuple whose elements are cast one by one
    (``tuple[str, ...]`` takes any number of them); true is not a number,
    and a float must be finite."""
    if value is None and declared.endswith(" | None"):
        return None
    base, _, inner = declared.removesuffix(" | None").partition("[")
    json_types, cast = _CASTS[base]
    if isinstance(value, bool) or not isinstance(value, json_types):
        raise ValueError(f"{where}: expected {declared}, got {value!r}")
    if inner:
        items = inner.rstrip("]").split(", ")
        items = items[:1] * len(value) if items[-1] == "..." else items
        if len(items) != len(value):
            raise ValueError(f"{where}: expected {declared}, got {value!r}")
        return cast(_cast(item, v, where) for item, v in zip(items, value))
    try:
        value = cast(value)
    except (ValueError, OverflowError) as err:
        raise ValueError(f"{where}: {err}") from None
    if isinstance(value, float) and not math.isfinite(value):  # JSON's Infinity and NaN
        raise ValueError(f"{where}: {value!r} is not finite")
    return value


def _read_section(cls, section, where: str, only=None, **given) -> dict:
    """Keyword arguments for the dataclass ``cls`` from one JSON object, plus
    ``given``.  The keys must be fields (of ``only``, when given) not in
    ``given``, and must include each such field without a default, or
    ValueError names them.  Each value is cast to its field's type by
    ``_cast``."""
    if not isinstance(section, dict):
        raise ValueError(f"{where} must be a JSON object, got {section!r}")
    declared = {f.name: f for f in fields(cls)
                if f.name not in given and (only is None or f.name in only)}
    unknown = sorted(set(section) - set(declared))
    missing = [name for name, f in declared.items() if name not in section
               and f.default is MISSING and f.default_factory is MISSING]
    if unknown or missing:
        raise ValueError(f"{where}: unknown keys {unknown}, missing keys {missing}")
    kwargs = dict(given)
    for name, value in section.items():  # a type is a string: annotations are postponed
        kwargs[name] = _cast(declared[name].type, value, f"{where}.{name}")
    return kwargs


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment.  The fields are the JSON layout of a config file,
    whose ``"grid"`` object holds ``dxi`` and ``r``."""

    name: str
    initial_data: dict
    gamma: float
    dxi: float
    r: float
    stepper: StepperConfig
    t_final: float
    output_stride: int = 1
    schemes: tuple[str, ...] = SCHEMES
    m_ref: int = FineGrid.m_ref
    # step h of the order-4 reference of compare and converge, as a
    # multiple of dt (of the smallest swept dt); the reference extrapolates
    # Strang runs at h and h/2.  Manifests from when the reference was
    # Strang at dt/10 carry 0.1, and from when it was a triple jump of
    # Strang steps carry 0.5: replayed, they run Strang at dt/10 and dt/20,
    # or at dt/2 and dt/4, and extrapolate
    reference_dt_factor: float = 0.5
    sweep: dict = field(default_factory=dict)
    description: str = ""

    def __post_init__(self):
        """Reject a bad config before any run starts or any file is written,
        through the validators of the objects the run builds from it."""
        if not self.schemes:
            raise ValueError("schemes must name at least one scheme")
        for s in self.schemes:
            replace(self.stepper, scheme=s)
        unknown = sorted(set(self.sweep) - {"dt", "dxi"})
        if unknown:
            raise ValueError(f"sweep: unknown keys {unknown}; a sweep has dt and dxi")
        # each sweep entry goes through the validator of what it sets
        for v in _cast("tuple[float, ...]", self.sweep.get("dt", []), "sweep.dt"):
            replace(self.stepper, dt=v)
        for v in _cast("tuple[float, ...]", self.sweep.get("dxi", []), "sweep.dxi"):
            GridSpec.from_radius(v, self.r)
        self.grid_spec()
        FineGrid(m_ref=self.m_ref)
        self.wave_spec()
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if not 0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be >= 0 and finite, got {self.t_final}")
        if not 0 < self.reference_dt_factor < math.inf:
            raise ValueError(
                f"reference_dt_factor must be positive and finite, got {self.reference_dt_factor}")
        ratio = self.t_final / self.stepper.dt
        if not math.isfinite(ratio):
            raise ValueError(f"t_final / dt overflows: t_final={self.t_final}, dt={self.stepper.dt}")
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            warnings.warn(
                f"t_final={self.t_final} is not a multiple of dt={self.stepper.dt}; "
                "the last step will be shortened",
                stacklevel=2,
            )

    def to_dict(self) -> dict:
        d = asdict(self)
        d["grid"] = {key: d.pop(key) for key in _GRID_KEYS}
        d["schemes"] = list(self.schemes)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        if not isinstance(d, dict):
            raise ValueError(f"config must be a JSON object, got {d!r}")
        d = dict(d)
        grid = _read_section(cls, d.pop("grid", {}), "grid", only=_GRID_KEYS)
        stepper = StepperConfig(**_read_section(StepperConfig, d.pop("stepper", {}), "stepper"))
        return cls(**_read_section(cls, d, "config", stepper=stepper, **grid))

    def grid_spec(self) -> GridSpec:
        return GridSpec.from_radius(self.dxi, self.r)

    def wave_spec(self) -> TravelingWaveSpec:
        """The initial data as a spec.  The section holds ``kind`` and the
        keys ``KINDS[kind]`` names; any other key is a ValueError."""
        kind = self.initial_data.get("kind")
        only = ("kind", *KINDS[kind]) if isinstance(kind, str) and kind in KINDS else None
        return TravelingWaveSpec(**_read_section(
            TravelingWaveSpec, self.initial_data, "initial_data", only=only, gamma=self.gamma))


def load_config(path) -> ExperimentConfig:
    """Read a config file, or a run manifest (its resolved config is reused)."""
    with open(path) as fh:
        d = json.load(fh)
    if isinstance(d, dict) and "config" in d and "name" not in d:
        d = d["config"]
    return ExperimentConfig.from_dict(d)


def build_initial_state(cfg: ExperimentConfig) -> LagrangianState:
    return build_from_spec(cfg.wave_spec(), cfg.grid_spec(), FineGrid(m_ref=cfg.m_ref))


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


def _write_csv(path: Path, header, rows) -> None:
    """Write one CSV artifact, in the csv module's default dialect: fields
    joined by commas, each row ended by CRLF.  str() of a Python float is
    repr(), the shortest string that reads back to the same bits.  No
    header or string field here holds a comma, quote or line break, so none
    needs quoting."""
    lines = [",".join(map(str, row)) + "\r\n" for row in (header, *rows)]
    with open(path, "w", newline="") as fh:
        fh.write("".join(lines))


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_graph_csv(path: Path, state: LagrangianState) -> None:
    """One row per cell: the graph point (y, U) and its Lagrangian fields."""
    columns = {
        "xi": state.grid.cells, "y": state.y, "U": state.U, "q": state.q,
        "w": state.w, "h": state.h, "I": invariants(state),
    }
    _write_csv(path, list(columns), np.stack(list(columns.values())).T.tolist())


def write_diagnostics_csv(path: Path, rows) -> None:
    _write_csv(path, [f.name for f in fields(DiagnosticsRow)], map(astuple, rows))


@functools.cache
def _version_string() -> str:
    """Package version, plus the git revision of the checkout this module
    was loaded from (not of the caller's working directory).  Computed once
    per process: neither can change while the module is loaded."""
    try:
        base = metadata.version("rodwave")
    except Exception:
        base = "0.1.0+local"
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=Path(__file__).parent, capture_output=True, text=True, timeout=5,
        )
        rev = out.stdout.strip() if out.returncode == 0 else ""
    except Exception:
        rev = ""
    return f"rodwave {base}" + (f" ({rev})" if rev else "")


def _write_manifest(run_dir: Path, cfg: ExperimentConfig, wall: float, **entries) -> None:
    """The config that replays the run, the version and the wall time, plus
    ``entries``: the artifacts, and for compare the reference."""
    manifest = {
        "config": cfg.to_dict(),
        "version": _version_string(),
        "wall_time_s": wall,
        **entries,
    }
    _write_json(run_dir / "manifest.json", manifest)


# ---------------------------------------------------------------------------
# Drivers
# ---------------------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig, run_dir: Path, quiet: bool = False) -> Path:
    """Run one experiment, writing graph snapshots, diagnostics and a
    manifest into ``run_dir``, which is returned."""
    run_dir = Path(run_dir)
    t_start = time.perf_counter()
    state0 = build_initial_state(cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    recorder = DiagnosticsRecorder()
    snapshots: list[tuple[int, int, float, str]] = []  # index, step, t, file

    def snapshot(step, t, state, report):
        fname = f"graph_{len(snapshots):04d}.csv"
        write_graph_csv(run_dir / fname, state)
        snapshots.append((len(snapshots), step, t, fname))

    _, reports = evolve(
        state0,
        cfg.t_final,
        cfg.stepper,
        observers=(recorder, snapshot),
        observe_stride=cfg.output_stride,
    )
    write_diagnostics_csv(run_dir / "diagnostics.csv", recorder.rows)
    _write_csv(run_dir / "snapshots.csv", ("index", "step", "t", "file"), snapshots)
    wall = time.perf_counter() - t_start
    _write_manifest(run_dir, cfg, wall, artifacts={"diagnostics": "diagnostics.csv",
                                                   "snapshots": [s[3] for s in snapshots]})
    if not quiet:
        rows = recorder.rows
        print(
            f"[{cfg.name}] scheme={cfg.stepper.scheme} steps={len(reports)} "
            f"energy={rows[-1].total_energy:.6f} min_q={recorder.min_q_overall:.3e} "
            f"inv_drift={recorder.max_invariant_drift:.3e} wall={wall:.2f}s"
        )
    return run_dir


def _run_one_scheme(cfg: ExperimentConfig, state0, scheme: str, scheme_dir: Path):
    """Evolve one scheme, recording every step, and return the final state,
    the recorder and the minima of q and h over the run: over t=0, every
    step's end state and every internal state a step accepted."""
    scheme_dir.mkdir(parents=True, exist_ok=True)
    recorder = DiagnosticsRecorder()
    state, reports = evolve(
        state0, cfg.t_final, replace(cfg.stepper, scheme=scheme), observers=(recorder,)
    )
    write_diagnostics_csv(scheme_dir / "diagnostics.csv", recorder.rows)
    write_graph_csv(scheme_dir / "final_graph.csv", state)
    min_q = min([recorder.min_q_overall, *(r.min_q for r in reports)])
    min_h = min([recorder.min_h_overall, *(r.min_h for r in reports)])
    return state, recorder, min_q, min_h


def compare_experiment(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> Path:
    """Run every scheme in cfg.schemes from identical initial data, writing
    into ``out_dir``, which is returned.

    The summary table reports the final graph distance to a reference, the
    invariant drift and the minima of q and h over the run.  The reference
    is ``stepping.richardson_reference`` at h = dt * reference_dt_factor:
    Strang runs at h and h/2, extrapolated to order 4, which the manifest
    names under ``"reference"``.  It is not a scheme and gets no row.  Its
    graph is written to ``reference_graph.csv``, whose I column holds the
    invariants of the extrapolated state: they are not conserved.  The
    minima take in t=0 and every state a scheme accepted, the internal
    steps of the adaptive comparator included.
    """
    out_dir = Path(out_dir)
    t_start = time.perf_counter()
    state0 = build_initial_state(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    h = cfg.stepper.dt * cfg.reference_dt_factor
    reference = richardson_reference(state0, cfg.t_final, replace(cfg.stepper, dt=h))
    write_graph_csv(out_dir / "reference_graph.csv", reference)

    rows = []
    for scheme in cfg.schemes:
        state, recorder, min_q, min_h = _run_one_scheme(
            cfg, state0, scheme, out_dir / scheme
        )
        err = sup_graph_error(state, reference)
        drift = recorder.max_invariant_drift
        rows.append((scheme, err, drift, min_q, min_h))
        if not quiet:
            print(
                f"[{cfg.name}] {scheme:>14}: err={err:.4e} inv_drift={drift:.3e} "
                f"min_q={min_q:.3e} min_h={min_h:.3e}"
            )

    _write_csv(
        out_dir / "summary.csv",
        ("scheme", "graph_error_vs_ref", "max_inv_drift", "min_q", "min_h"),
        rows,
    )
    wall = time.perf_counter() - t_start
    _write_manifest(out_dir, cfg, wall,
                    artifacts={"summary": "summary.csv", "schemes": list(cfg.schemes)},
                    reference={"method": _REFERENCE_METHOD, "dt": [h, h / 2]})
    return out_dir


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
    against the reference of ``compare_experiment``, Strang runs at h and
    h/2 extrapolated to order 4, at h = min(dt) * reference_dt_factor
    (``reference_dt`` in the report).  Space sweeps compare against the
    exact peakon when available, otherwise against the finest run via
    nearest-xi graph matching.
    """
    out_dir = Path(out_dir)
    t_start = time.perf_counter()
    dt_list = list(dt_list or cfg.sweep.get("dt", []))
    dxi_list = list(dxi_list or cfg.sweep.get("dxi", []))
    if not dt_list and not dxi_list:
        raise RodwaveError("converge needs a dt and/or dxi sweep")
    # the sweep that runs, so that the manifest replays it
    cfg = replace(cfg, sweep={k: v for k, v in (("dt", dt_list), ("dxi", dxi_list)) if v})
    peakon = cfg.initial_data.get("kind") == "peakon"  # validated: gamma = 1, exact solution known
    # a fit needs 3 points; a space sweep against its finest run loses one
    for key, values, need in (("dt", dt_list, 3), ("dxi", dxi_list, 3 if peakon else 4)):
        if values and len(values) < need:
            raise DegenerateFit(f"a {key} sweep needs >= {need} values, got {len(values)}")
    report: dict = {"name": cfg.name, "scheme": cfg.stepper.scheme}

    def final_state(dxi, dt):
        """The final state of cfg's scheme at (dxi, dt)."""
        run_cfg = replace(cfg, dxi=dxi, stepper=replace(cfg.stepper, dt=dt))
        state0 = build_initial_state(run_cfg)
        state, _ = evolve(state0, cfg.t_final, run_cfg.stepper)
        return state

    if dt_list:
        ref_dt = min(dt_list) * cfg.reference_dt_factor
        reference = richardson_reference(
            build_initial_state(cfg), cfg.t_final, replace(cfg.stepper, dt=ref_dt))
        finals = [final_state(cfg.dxi, d) for d in dt_list]
        errors = [distance_f(s, reference) for s in finals]
        report["dt_sweep"] = {
            "dt": dt_list,
            "error": errors,
            "slope": convergence_order(zip(dt_list, errors)),
            "reference_dt": ref_dt,
            "reference": _REFERENCE_METHOD,
        }

    if dxi_list:
        finals = [final_state(dxi, dxi / 4.0) for dxi in dxi_list]
        if peakon:
            wave = cfg.wave_spec()
            errors = [
                exact_peakon_error(s, cfg.t_final, wave.c, wave.x0) for s in finals
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

    out_dir.mkdir(parents=True, exist_ok=True)
    _write_json(out_dir / "order_report.json", report)
    # float(): a sweep read from JSON may hold ints, written as 1.0, not 1
    _write_csv(
        out_dir / "errors.csv",
        ("sweep", "resolution", "error"),
        [
            (key, float(res), float(err))
            for key, col in (("dt_sweep", "dt"), ("dxi_sweep", "dxi")) if key in report
            for res, err in zip(report[key][col], report[key]["error"])
        ],
    )
    _write_manifest(out_dir, cfg, time.perf_counter() - t_start,
                    artifacts={"order_report": "order_report.json", "errors": "errors.csv"})
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

    def emit(name: str, labels: str, plots: list[str]) -> None:
        path = artifacts_dir / name
        path.write_text(_GP_PREAMBLE + labels + "plot " + ", \\\n     ".join(plots) + "\n")
        written.append(path)

    if "schemes" in arts:  # compare layout
        plots = ['"reference_graph.csv" using 2:3 with lines title "reference"']
        for scheme in arts["schemes"]:
            plots.append(f'"{scheme}/final_graph.csv" using 2:3 with points title "{scheme}"')
        emit("overlay.gp", 'set xlabel "x"\nset ylabel "u"\n', plots)
        plots = [
            f'"{scheme}/final_graph.csv" using 2:($6/$4) with linespoints title "{scheme}"'
            for scheme in arts["schemes"]
        ]
        emit("energy_density.gp", 'set xlabel "x"\nset ylabel "h/q"\n', plots)
        return written

    snapshots = arts.get("snapshots", [])
    if not snapshots:
        raise RodwaveError(f"{artifacts_dir} has no graph snapshots to plot")

    emit(
        "overlay.gp",
        'set xlabel "x"\nset ylabel "u"\n',
        [f'"{snapshots[0]}" using 2:3 with lines title "t0", '
         f'"{snapshots[-1]}" using 2:3 with linespoints title "final"'],
    )
    offset = 0.5
    plots = [
        f'"{snap}" using 2:($3 + {k * offset}) with lines'
        for k, snap in enumerate(snapshots)
    ]
    emit("waterfall.gp", 'set xlabel "x"\nset ylabel "u + offset"\nunset key\n', plots)
    emit(
        "energy_density.gp",
        'set xlabel "x"\nset ylabel "h/q"\n',
        [f'"{snapshots[-1]}" using 2:($6/$4) with linespoints title "final"'],
    )
    return written
