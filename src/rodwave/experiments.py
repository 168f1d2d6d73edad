"""Experiment definitions, drivers and artifact persistence.

An experiment is a JSON-compatible config (nested sections for grid and
stepper) naming an initial condition, a material constant, resolutions and a
final time.  Runs are deterministic: identical configs produce byte-identical
CSV artifacts, and every run writes a manifest that can be fed back to
reproduce it.

The drivers run part of their work on one lane (``_Lane``): a child forked
when the lane opens, which handles the items sent down its pipe in order
while the caller goes on, and which is joined before anything that names
its results is written.  ``run_experiment`` sends it the observed
states, each with the path of its graph, at most two not yet written at a
time (the lane's ``depth``): while two wait, the time loop writes the next
graph itself rather than wait for the child.  ``compare_experiment`` and
``converge_experiment`` send it the evolves at odd places of their list of
independent jobs (``_run_jobs``), while the caller runs those at even
places; that split is fixed, so the same process runs the same jobs on
every call.  On one CPU
(``os.sched_getaffinity``) nothing is forked, and the caller handles each
item as it sends it.  An item that raises does not stop the lane; after
the join, the first error in send order is raised, unless the caller
raised first.  So a run directory with a manifest holds every graph it
names, complete.  ``_Lane.__enter__`` is the package's only fork site:
fork is POSIX only, a caller with threads of its own should know that the
lane is a fork of it, and a Python (3.12 on) that warns of forking a
process with threads would warn there.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import os
import subprocess
import time
import warnings
from dataclasses import MISSING, asdict, astuple, dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from .errors import DegenerateFit, RodwaveError
from .initial_data import KINDS, TravelingWaveSpec, build_from_spec
from .observables import (
    EXACT_KINDS,
    DiagnosticsRecorder,
    DiagnosticsRow,
    convergence_order,
    exact_error,
    sup_graph_error,
)
from .state import GridSpec, LagrangianState, distance_f, invariants
from .stepping import (SCHEMES, StepperConfig, evolve, evolve_job, plan_steps,
                       reference_runs, richardson_extrapolate)

_GRID_KEYS = ("dxi", "r")
# the most steps one evolve of a run may take: more is a mistyped dt, and
# would not finish
MAX_STEPS = 10**7
# converge's dxi sweep runs each grid at dt = dxi / _DXI_PER_DT
_DXI_PER_DT = 4.0
# what compare's manifest and converge's report name the Richardson
# reference by; a closed form is named exact_<kind>
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
    whose ``"grid"`` object holds ``dxi`` and ``r``.  A config checks its
    own fields and warns of nothing: each driver checks the evolves it
    starts (``_preflight``)."""

    name: str
    initial_data: dict
    gamma: float
    dxi: float
    r: float
    stepper: StepperConfig
    t_final: float
    output_stride: int = 1
    schemes: tuple[str, ...] = SCHEMES
    # step h of the order-4 Richardson reference, as a multiple of dt (of
    # the smallest swept dt); the reference extrapolates Strang runs at h
    # and h/2.  It applies to converge's dt sweep, and to compare only on a
    # kind not in observables.EXACT_KINDS: compare measures the others
    # against their closed form.  Manifests from when the reference was
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
        repeated = sorted({s for s in self.schemes if self.schemes.count(s) > 1})
        if repeated:
            # each scheme writes its own subdirectory and summary row
            raise ValueError(f"schemes: {', '.join(repeated)} named more than once")
        unknown = sorted(set(self.sweep) - {"dt", "dxi"})
        if unknown:
            raise ValueError(f"sweep: unknown keys {unknown}; a sweep has dt and dxi")
        # each sweep entry goes through the validator of what it sets, and
        # appears once: a repeated dxi measures 0 against the finest run, and
        # a repeated dt counts one point twice in the fit
        for key, check in (("dt", lambda v: replace(self.stepper, dt=v)),
                           ("dxi", lambda v: GridSpec.from_radius(v, self.r))):
            values = _cast("tuple[float, ...]", self.sweep.get(key, []), f"sweep.{key}")
            for v in values:
                check(v)
            repeated = sorted({v for v in values if values.count(v) > 1})
            if repeated:
                raise ValueError(
                    f"sweep.{key}: {', '.join(map(repr, repeated))} named more than once")
        self.grid_spec()
        self.wave_spec()
        if self.output_stride < 1:
            raise ValueError(f"output_stride must be >= 1, got {self.output_stride}")
        if not 0 <= self.t_final < math.inf:
            raise ValueError(f"t_final must be >= 0 and finite, got {self.t_final}")
        if not 0 < self.reference_dt_factor < math.inf:
            raise ValueError(
                f"reference_dt_factor must be positive and finite, got {self.reference_dt_factor}")

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
        # manifests written while the projection's refinement was a key
        # carry its only value, 16; initial_data.eulerian_to_lagrangian owns it
        m_ref = d.pop("m_ref", 16)
        if m_ref != 16:
            raise ValueError(f"config.m_ref is not a setting, got {m_ref!r}: the "
                             "projection refines each cell 16 times")
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
    return build_from_spec(cfg.wave_spec(), cfg.grid_spec())


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


@functools.lru_cache(maxsize=16)
def _graph_template(grid: GridSpec) -> str:
    """The text of a graph CSV on ``grid`` with its fields left as ``%r``:
    the header, then one CRLF-ended line per cell, whose xi is written
    already.  ``%r`` of a Python float is its repr(), as in ``_write_csv``."""
    rows = "".join(f"{xi!r},%r,%r,%r,%r,%r,%r\r\n" for xi in grid.cells.tolist())
    return "xi,y,U,q,w,h,I\r\n" + rows


def write_graph_csv(path: Path, state: LagrangianState) -> None:
    """One row per cell: the graph point (y, U) and its Lagrangian fields,
    written as ``_graph_template(state.grid)`` filled cell by cell."""
    columns = np.stack((state.y, state.U, state.q, state.w, state.h, invariants(state)))
    text = _graph_template(state.grid) % tuple(columns.T.ravel().tolist())
    with open(path, "w", newline="") as fh:
        fh.write(text)


def _attempt(fn, *args):
    """fn(*args), or the exception it raised, which stands for its result."""
    try:
        return fn(*args)
    except Exception as err:
        return err


def _raise_first(results: list) -> list:
    """``results``, unless one of them is an exception: then the first."""
    for result in results:
        if isinstance(result, Exception):
            raise result
    return results


def _serve(handle, conn, parent_conn) -> None:
    """A lane's child: ``_attempt(handle, item)`` on each item from ``conn``
    until None, acknowledging each with an empty message once it is done,
    then send back the results and the seconds in ``handle``."""
    parent_conn.close()  # else the parent's death would not end conn.recv()
    results, busy = [], 0.0
    while (item := conn.recv()) is not None:
        start = time.perf_counter()
        results.append(_attempt(handle, item))
        busy += time.perf_counter() - start
        conn.send_bytes(b"")
    conn.send((results, busy))


_SENT = object()  # stands in ``_Lane.results`` for an item the child was sent


class _Lane:
    """A child forked when the ``with`` block starts (on one CPU, none) that
    calls ``handle`` on each item ``send`` passes it, in order, while the
    caller goes on.  ``depth`` bounds what waits: while ``depth`` items sent
    to the child are not yet done, ``send`` calls ``handle`` on the item in
    the caller instead, as it does every item once the child has died.
    With no ``depth``, the pipe's buffer bounds what waits: once it is full,
    ``send`` waits for the child.  Leaving the block joins the child, also
    when the block raised, and sets ``results``, one per item in send
    order, each a value or the exception ``handle`` raised.  A child that
    exits without replying gives each item it was sent a ``RodwaveError``
    naming ``what`` and its exit code.  ``busy_s`` is the time spent in
    ``handle`` by either process, and ``wait_s`` the caller's time in
    ``send``, its own calls of ``handle`` included, and in the join."""

    def __init__(self, handle, what: str, depth: int | None = None):
        self._handle, self._what, self._depth = handle, what, depth
        self._child = self._conn = None
        self._pending = 0  # items sent to the child and not yet acknowledged
        self.results, self.busy_s, self.wait_s = [], 0.0, 0.0

    def __enter__(self) -> "_Lane":
        # where there is no affinity mask (macOS), a process may use every CPU
        cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
        if (cpus or 1) > 1:
            import multiprocessing  # only a call that forks pays for importing it

            ctx = multiprocessing.get_context("fork")
            self._conn, child_conn = ctx.Pipe()
            self._child = ctx.Process(
                target=_serve, args=(self._handle, child_conn, self._conn), daemon=True)
            self._child.start()
            child_conn.close()
        return self

    def send(self, item) -> None:
        start = time.perf_counter()
        if self._conn is not None and not self._conn.closed:
            try:
                while self._pending and self._conn.poll():
                    self._conn.recv_bytes()
                    self._pending -= 1
            except (OSError, EOFError):  # the child is gone, and the join says how
                self._conn.close()
        # one CPU, a child that is gone, or depth items waiting: handle it here
        if self._conn is None or self._conn.closed or self._pending == self._depth:
            handled = time.perf_counter()
            self.results.append(_attempt(self._handle, item))
            self.busy_s += time.perf_counter() - handled
        else:
            self.results.append(_SENT)
            self._pending += 1
            try:
                self._conn.send(item)
            except OSError:  # the child is gone: send nothing more, and the join says how
                self._conn.close()
        self.wait_s += time.perf_counter() - start

    def __exit__(self, *exc) -> None:
        if self._child is None:
            return
        start = time.perf_counter()
        reply = None
        try:
            self._conn.send(None)
            for _ in range(self._pending):
                self._conn.recv_bytes()
            reply = self._conn.recv()
        except (OSError, EOFError):  # the child is gone, and its exit code says how
            pass
        finally:
            self._conn.close()
            self._child.join()
            self.wait_s += time.perf_counter() - start
        if reply is None:
            error = RodwaveError(f"{self._what} exited with code {self._child.exitcode}")
            reply = itertools.repeat(error), 0.0
        theirs, busy = reply
        theirs = iter(theirs)
        self.results = [next(theirs) if result is _SENT else result for result in self.results]
        self.busy_s += busy


def _run_jobs(jobs: list) -> list:
    """The results of ``jobs``, zero-argument callables, in list order.

    The caller runs the jobs at even indices, and a ``_Lane`` whose forked
    child inherits ``jobs`` runs those at odd indices, sent by index; their
    results must pickle.  On one CPU the caller runs them all, the odd ones
    first.  Once the lane is joined, the exception of the first job in list
    order that raised is raised; one from the child comes back pickled,
    without its traceback."""
    with _Lane(lambda k: jobs[k](), "a forked job lane") as lane:
        for k in range(1, len(jobs), 2):
            lane.send(k)
        mine = [_attempt(job) for job in jobs[::2]]
    results = [None] * len(jobs)
    results[::2], results[1::2] = mine, lane.results
    return _raise_first(results)


def write_diagnostics_csv(path: Path, rows) -> None:
    _write_csv(path, [f.name for f in fields(DiagnosticsRow)], map(astuple, rows))


@functools.cache
def _version_string() -> str:
    """Package version, plus the git revision of the checkout this module
    was loaded from (not of the caller's working directory).  Computed once
    per process: neither can change while the module is loaded."""
    from importlib import metadata  # slow to import, and only a manifest needs it

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
    ``entries``: the artifacts, the solver's reports, for compare the
    reference, and for run the graph writer's timings."""
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


def _preflight(t_final: float, dts, h: float | None = None) -> None:
    """Before a driver builds a state: refuse an evolve to t_final of more
    than ``MAX_STEPS`` steps at one of ``dts``, its runs' dts, or at h/2, the
    fine step of its reference at h; then warn, at the line that called the
    driver, of each of ``dts`` whose last step ``plan_steps`` shortens."""
    for dt in (*dts, *(() if h is None else (h / 2,))):
        steps = t_final / dt if dt else math.inf
        if steps > MAX_STEPS:
            raise ValueError(f"t_final={t_final} at dt={dt} takes {steps:.3g} steps, "
                             f"more than {MAX_STEPS}")
    for dt in dts:
        if plan_steps(t_final, dt)[1] is not None:
            warnings.warn(f"t_final={t_final} is not a multiple of dt={dt}; the last step "
                          "will be shortened", stacklevel=3)


def run_experiment(cfg: ExperimentConfig, run_dir: Path, quiet: bool = False) -> Path:
    """Run one experiment, writing graph snapshots, diagnostics and a
    manifest into ``run_dir``, which is returned.  Before it builds a
    state, ``_preflight`` refuses or warns of its run at ``stepper.dt``.

    The snapshots are written by the graph writer, a ``_Lane`` of depth 2
    (see the module docstring), while the time loop goes on; the loop
    writes a snapshot itself when two sent ones are not yet written.  Every
    snapshot is tried, and the writer is joined before the rest is
    written, also when the run fails: every snapshot taken before a failure
    is complete.  A snapshot that could not be written fails the run, with
    no manifest.  The manifest's ``timings`` give ``graph_writer_busy_s``,
    the seconds spent writing graphs in either process, and
    ``graph_writer_wait_s``, the time loop's time in ``send``, its own
    writes included, plus the join.  Its ``solver`` is the run's
    ``StepReport`` (``stepping.evolve``): ``fp_iterations``, the histogram's
    keys as strings, ``final_residual``, ``accepted``, ``rejected``, over
    t=0 and every accepted state ``min_q``, ``min_h`` and ``folded``, the
    count of those with y folded, and over t=0 and every step's end state
    ``max_inv_drift``, the largest invariant drift, which the printed line
    gives too."""
    run_dir = Path(run_dir)
    t_start = time.perf_counter()
    _preflight(cfg.t_final, [cfg.stepper.dt])
    state0 = build_initial_state(cfg)
    run_dir.mkdir(parents=True, exist_ok=True)
    recorder = DiagnosticsRecorder()
    snapshots: list[tuple[int, int, float, str]] = []  # index, step, t, file

    with _Lane(lambda item: write_graph_csv(*item), "the graph writer", depth=2) as writer:
        def snapshot(step, t, state, report):
            fname = f"graph_{len(snapshots):04d}.csv"
            writer.send((run_dir / fname, state))
            snapshots.append((len(snapshots), step, t, fname))

        _, report = evolve(
            state0,
            cfg.t_final,
            cfg.stepper,
            observers=(recorder, snapshot),
            observe_stride=cfg.output_stride,
        )
    _raise_first(writer.results)
    write_diagnostics_csv(run_dir / "diagnostics.csv", recorder.rows)
    _write_csv(run_dir / "snapshots.csv", ("index", "step", "t", "file"), snapshots)
    wall = time.perf_counter() - t_start
    _write_manifest(run_dir, cfg, wall,
                    artifacts={"diagnostics": "diagnostics.csv",
                               "snapshots": [s[3] for s in snapshots]},
                    timings={"graph_writer_busy_s": writer.busy_s,
                             "graph_writer_wait_s": writer.wait_s},
                    solver=asdict(report))
    if not quiet:
        rows = recorder.rows
        print(
            f"[{cfg.name}] scheme={cfg.stepper.scheme} steps={snapshots[-1][1]} "
            f"energy={rows[-1].total_energy:.6f} min_q={report.min_q:.3e} folded={report.folded} "
            f"inv_drift={report.max_inv_drift:.3e} wall={wall:.2f}s"
        )
    return run_dir


def _run_one_scheme(cfg: ExperimentConfig, state0, scheme: str, scheme_dir: Path):
    """Evolve one scheme, recording every step, and write its diagnostics
    and final graph into ``scheme_dir``.  Returns the final state's array
    and the run's ``StepReport``, as ``stepping.evolve_job`` does."""
    scheme_dir.mkdir(parents=True, exist_ok=True)
    recorder = DiagnosticsRecorder()
    state, report = evolve(
        state0, cfg.t_final, replace(cfg.stepper, scheme=scheme), observers=(recorder,)
    )
    write_diagnostics_csv(scheme_dir / "diagnostics.csv", recorder.rows)
    write_graph_csv(scheme_dir / "final_graph.csv", state)
    return state.x, report


def compare_experiment(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> Path:
    """Run every scheme in cfg.schemes from identical initial data, writing
    into ``out_dir``, which is returned.  Before it builds a state,
    ``_preflight`` refuses or warns of its runs at ``stepper.dt``, and at
    h when it runs the Richardson reference.

    The summary table reports each scheme's final error against a
    reference, the invariant drift and the minima of q and h over the run.
    The reference is not a scheme and gets no row; the manifest names it
    under ``"reference"``, and its graph is written to
    ``reference_graph.csv``.  It is one of two:

    * on a kind with a closed form (``observables.EXACT_KINDS``: smooth,
      peakon), the exact solution at t_final.  The error is
      ``observables.exact_error``, max_i |U_i - u(t_final, y_i)|, spatial
      error included; the graph is the kind's own initial data moved by
      c * t_final, on the same grid; the manifest's reference is
      ``{"method": "exact_<kind>", "t": t_final}``.  No reference run is
      taken.
    * on any other kind, ``stepping.richardson_reference`` at
      h = dt * reference_dt_factor: Strang runs at h and h/2, extrapolated
      to order 4, a time error only.  The error is the graph distance
      ``observables.sup_graph_error``; the graph's I column holds the
      invariants of the extrapolated state, which are not conserved; the
      manifest's reference holds its ``method``, its ``dt`` and the
      ``solver`` reports of its runs, in the order of ``dt``: the run at h,
      then the run at h/2.

    The minima take in t=0 and every state a scheme accepted, the internal
    steps of the adaptive comparator included; the drift takes in t=0 and
    each step's end state.  The manifest's ``solver`` maps each scheme to
    its run's report, as ``run_experiment``'s.

    The Richardson reference's two runs (``stepping.reference_runs``, the
    fine run first), when it is taken, and the schemes, in that order, are
    the jobs of ``_run_jobs``: the caller runs every other job from the
    first, the lane's forked child the rest, or the caller all of them on
    one CPU.  Each scheme writes its own subdirectory from whichever
    process runs it.
    The reference graph, the summary, the manifest and the per-scheme lines
    printed unless ``quiet`` come after every job has finished.  A failed
    job fails the call with the error of the first job in that order that
    raised, after both lanes are done, and leaves no reference graph, no
    summary and no manifest.
    """
    out_dir = Path(out_dir)
    t_start = time.perf_counter()
    spec = cfg.wave_spec()
    h = None if spec.kind in EXACT_KINDS else cfg.stepper.dt * cfg.reference_dt_factor
    _preflight(cfg.t_final, [cfg.stepper.dt], h)
    state0 = build_initial_state(cfg)
    out_dir.mkdir(parents=True, exist_ok=True)
    ref_jobs = [] if h is None else reference_runs(
        state0, cfg.t_final, replace(cfg.stepper, dt=h))
    results = _run_jobs([
        *ref_jobs,
        *(functools.partial(_run_one_scheme, cfg, state0, scheme, out_dir / scheme)
          for scheme in cfg.schemes)])
    finals = results[len(ref_jobs):]
    if h is None:
        moved = replace(spec, x0=spec.x0 + spec.c * cfg.t_final)
        reference = build_from_spec(moved, state0.grid)
        errors = [exact_error(state0.with_x(x), spec, cfg.t_final) for x, _ in finals]
        reference_entry = {"method": f"exact_{spec.kind}", "t": cfg.t_final}
    else:
        (fine_x, fine), (coarse_x, coarse) = results[:len(ref_jobs)]
        reference = richardson_extrapolate(state0, fine_x, coarse_x)
        errors = [sup_graph_error(state0.with_x(x), reference) for x, _ in finals]
        reference_entry = {"method": _REFERENCE_METHOD, "dt": [h, h / 2],
                           "solver": [asdict(coarse), asdict(fine)]}
    write_graph_csv(out_dir / "reference_graph.csv", reference)
    rows = [(scheme, err, r.max_inv_drift, r.min_q, r.min_h)
            for scheme, err, (_, r) in zip(cfg.schemes, errors, finals)]
    _write_csv(
        out_dir / "summary.csv",
        ("scheme", "graph_error_vs_ref", "max_inv_drift", "min_q", "min_h"),
        rows,
    )
    wall = time.perf_counter() - t_start
    _write_manifest(out_dir, cfg, wall,
                    artifacts={"summary": "summary.csv", "schemes": list(cfg.schemes)},
                    reference=reference_entry,
                    solver={scheme: asdict(r) for scheme, (_, r) in zip(cfg.schemes, finals)})
    if not quiet:
        for scheme, err, drift, min_q, min_h in rows:
            print(
                f"[{cfg.name}] {scheme:>14}: err={err:.4e} inv_drift={drift:.3e} "
                f"min_q={min_q:.3e} min_h={min_h:.3e}"
            )
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


def converge_experiment(cfg: ExperimentConfig, out_dir: Path, quiet: bool = False) -> dict:
    """Error-vs-resolution sweeps with fitted log-log slopes, over the
    resolutions of ``cfg.sweep``: its ``dt`` list, its ``dxi`` list, or both.

    Time sweeps hold the grid fixed and compare final states (distance_f)
    against ``stepping.richardson_reference``, Strang runs at h and h/2
    extrapolated to order 4, at h = min(dt) * reference_dt_factor
    (``reference_dt`` in the report), on every kind: a time sweep needs an
    error in time alone, on a fixed grid, which a closed form does not
    give.  Every run of a time sweep, and the reference, starts from one
    initial state.  Space sweeps build each grid's initial state and
    run it at dt = dxi / 4, and measure ``observables.exact_error`` on a
    kind with a closed form (``against``: ``exact_smooth`` or
    ``exact_peakon``), otherwise the distance to the finest run via
    nearest-xi graph matching (``finest_run``), which leaves one point
    fewer for the fit.  Before it builds a state, ``_preflight`` refuses or
    warns of its swept runs and h, not of the config's own dt, which no run
    takes.  The manifest's ``solver`` holds each run's ``StepReport``, as
    ``run_experiment``'s: under ``reference`` the reference's runs at h and
    h/2, and under ``dt_sweep`` and ``dxi_sweep`` one per swept run, in the
    order of the report's lists.

    The reference's two runs (``stepping.reference_runs``, with a dt
    sweep), then each swept run, in that order, are the jobs of
    ``_run_jobs``: the caller runs every other job from the first, the
    lane's forked child the rest.  Every artifact is written after every
    job has finished, so a failed job, whose error is that of the first job
    in that order that raised, leaves nothing on disk.
    """
    out_dir = Path(out_dir)
    t_start = time.perf_counter()
    dt_list = list(cfg.sweep.get("dt", []))
    dxi_list = list(cfg.sweep.get("dxi", []))
    if not dt_list and not dxi_list:
        raise RodwaveError("converge needs a dt and/or dxi sweep")
    spec = cfg.wave_spec()
    exact = spec.kind in EXACT_KINDS
    # a fit needs 3 points; a space sweep against its finest run loses one
    for key, values, need in (("dt", dt_list, 3), ("dxi", dxi_list, 3 if exact else 4)):
        if values and len(values) < need:
            raise DegenerateFit(f"a {key} sweep needs >= {need} values, got {len(values)}")
    report: dict = {"name": cfg.name, "scheme": cfg.stepper.scheme}
    ref_dt = min(dt_list) * cfg.reference_dt_factor if dt_list else None
    dxi_dts = [dxi / _DXI_PER_DT for dxi in dxi_list]
    _preflight(cfg.t_final, [*dt_list, *dxi_dts], ref_dt)

    # the start state and stepper of each run: the dt sweep's, then the dxi
    # sweep's, after the reference's two
    runs, ref_jobs = [], []
    if dt_list:
        state0 = build_initial_state(cfg)
        runs = [(state0, replace(cfg.stepper, dt=dt)) for dt in dt_list]
        ref_jobs = reference_runs(state0, cfg.t_final, replace(cfg.stepper, dt=ref_dt))
    runs += [(build_initial_state(replace(cfg, dxi=dxi)), replace(cfg.stepper, dt=dt))
             for dxi, dt in zip(dxi_list, dxi_dts)]

    results = _run_jobs([*ref_jobs, *(functools.partial(evolve_job, s0, cfg.t_final, stepper)
                                      for s0, stepper in runs)])
    ref_results, results = results[:len(ref_jobs)], results[len(ref_jobs):]
    finals = [s0.with_x(x) for (s0, _), (x, _) in zip(runs, results)]
    solver = {}

    if dt_list:
        (fine_x, fine), (coarse_x, coarse) = ref_results
        reference = richardson_extrapolate(state0, fine_x, coarse_x)
        errors = [distance_f(s, reference) for s in finals[:len(dt_list)]]
        report["dt_sweep"] = {
            "dt": dt_list,
            "error": errors,
            "slope": convergence_order(zip(dt_list, errors)),
            "reference_dt": ref_dt,
            "reference": _REFERENCE_METHOD,
        }
        solver["reference"] = [asdict(coarse), asdict(fine)]
        solver["dt_sweep"] = [asdict(r) for _, r in results[:len(dt_list)]]

    if dxi_list:
        finals = finals[len(dt_list):]
        if exact:
            errors = [exact_error(s, spec, cfg.t_final) for s in finals]
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
            "dt": dxi_dts,
            "error": errors,
            "slope": convergence_order(fit_pairs),
            "against": f"exact_{spec.kind}" if exact else "finest_run",
        }
        solver["dxi_sweep"] = [asdict(r) for _, r in results[len(dt_list):]]

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
                    artifacts={"order_report": "order_report.json", "errors": "errors.csv"},
                    solver=solver)
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
