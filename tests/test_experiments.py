import functools
import json
import math
import multiprocessing
import os
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rodwave as rw
from rodwave import cli, experiments, stepping
from rodwave.errors import FixedPointDiverged, PhysicalRangeWarning, RodwaveError

from helpers import serial_reference

# TINY's t_final is deliberately not a multiple of dt
pytestmark = pytest.mark.filterwarnings("ignore:t_final=.*not a multiple:UserWarning")

TINY = {
    "name": "tiny",
    "initial_data": {"kind": "peakon", "c": 1.0, "x0": 0.0},
    "gamma": 1.0,
    "grid": {"dxi": 0.25, "r": 5.0},
    "stepper": {"dt": 0.1, "scheme": "strang"},
    "t_final": 0.25,  # not a multiple of dt: the last of 3 steps is shortened
    "output_stride": 2,
    "sweep": {"dt": [0.1, 0.05, 0.025]},
}
# TINY's peakon has a closed form, which compare measures against; this
# kind has none, and compare measures it against the Richardson reference
PAIR = {"initial_data": {"kind": "peakon_antipeakon", "c": 1.0, "x0": 0.0, "separation": 1.0}}
# a smooth wave, the other kind with a closed form
SMOOTH = {"initial_data": {"kind": "smooth", "c": 1.0, "x0": 0.0}, "gamma": 0.2}


class Reached(Exception):
    """Raised by ``reach``, which a test patches in to stop a driver there."""


def reach(*args, **kwargs):
    raise Reached


def merged(base, changes):
    """``base`` with ``changes`` applied; a None value removes the key."""
    return {k: v for k, v in {**base, **changes}.items() if v is not None}


def write_config(tmp_path, **changes):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(merged(TINY, changes)))
    return str(path)


def run_cli(*argv):
    return cli.main(["--quiet", *argv])


def csv_bytes(run_dir):
    return {str(p.relative_to(run_dir)): p.read_bytes() for p in sorted(run_dir.rglob("*.csv"))}


def fp_substeps(reports):
    """The midpoint substeps of each manifest report: its fp-iteration
    histogram's sum."""
    return [sum(report["fp_iterations"].values()) for report in reports]


def converge_bytes(out_dir):
    """``csv_bytes`` of a converge directory, plus its order report."""
    return {**csv_bytes(out_dir), "order_report.json": (out_dir / "order_report.json").read_bytes()}


class TestRun:
    def test_two_runs_write_identical_csvs(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("run", "--config", config, "--out", str(tmp_path / "a")) == 0
        assert run_cli("run", "--config", config, "--out", str(tmp_path / "b")) == 0
        a = csv_bytes(tmp_path / "a" / "tiny")
        assert set(a) >= {"diagnostics.csv", "snapshots.csv", "graph_0000.csv"}
        assert a == csv_bytes(tmp_path / "b" / "tiny")

    def test_manifest_replays_run(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("run", "--config", config, "--out", str(tmp_path / "a")) == 0
        manifest = tmp_path / "a" / "tiny" / "manifest.json"
        # the run's report: three Strang steps of three substeps, no fold
        solver = json.loads(manifest.read_text())["solver"]
        assert sum(solver["fp_iterations"].values()) == 9 and solver["folded"] == 0
        assert run_cli("run", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        assert csv_bytes(tmp_path / "a" / "tiny") == csv_bytes(tmp_path / "b" / "tiny")

    def test_printed_step_count_includes_short_last_step(self, tmp_path, capsys):
        cfg = rw.load_config(write_config(tmp_path))
        rw.run_experiment(cfg, tmp_path / "run")
        assert "steps=3 " in capsys.readouterr().out

    def test_printed_minimum_is_over_every_step(self, tmp_path, capsys):
        # output_stride 5 observes 17 of the 81 states, whose least q is
        # 1.145e-02 and largest drift 2.864e-14; the extremes over every
        # step fall between them
        rw.run_experiment(rw.bundled_config("peakon_antipeakon_gamma1"), tmp_path / "run")
        out = capsys.readouterr().out
        assert "steps=80 " in out and " min_q=8.019e-04 folded=13 " in out
        assert " inv_drift=4.285e-14 " in out


class TestWriters:
    def test_graph_csv_reads_back_bit_for_bit(self, tmp_path):
        special = [0.1 + 0.2, -0.0, 1e-300, 5e-324, -2.5, 1.0]
        s = rw.LagrangianState.zero(rw.GridSpec(3, 0.1), rw.Parameters(1.0))
        s = s.replace(U=special, w=special[::-1], h=np.abs(special), zeta=special)
        path = tmp_path / "graph.csv"
        rw.experiments.write_graph_csv(path, s)
        header, *rows = path.read_text().splitlines()
        assert header == "xi,y,U,q,w,h,I"
        read = np.array([[float(v) for v in row.split(",")] for row in rows])
        expected = np.stack([s.grid.cells, s.y, s.U, s.q, s.w, s.h, rw.invariants(s)]).T
        assert np.array_equal(read.view(np.uint64), expected.view(np.uint64))

    def test_graph_template_formats_like_repr(self, tmp_path):
        # dxi = 0.1 gives xi values with long reprs, such as -0.30000000000000004
        special = [-0.0, 5e-324, 1e-300, 0.1 + 0.2, 1e16, 1e22, -2.5]
        grid = rw.GridSpec(7, 0.1)
        columns = np.array([np.roll(special * 2, k) for k in range(6)])
        text = experiments._graph_template(grid) % tuple(columns.T.ravel().tolist())
        header, *rows, end = text.split("\r\n")
        assert (header, end) == ("xi,y,U,q,w,h,I", "")
        oracle = [",".join(map(repr, row)) for row in zip(grid.cells.tolist(), *columns.tolist())]
        assert rows == oracle
        assert "-0.30000000000000004" in rows[4]
        # write_graph_csv writes the template filled with a state's fields
        s = rw.LagrangianState.zero(grid, rw.Parameters(1.0))
        s = s.replace(zeta=special * 2, U=special[::-1] * 2, w=columns[2], h=np.abs(columns[3]))
        columns = np.stack((s.y, s.U, s.q, s.w, s.h, rw.invariants(s)))
        text = experiments._graph_template(grid) % tuple(columns.T.ravel().tolist())
        path = tmp_path / "graph.csv"
        experiments.write_graph_csv(path, s)
        assert path.read_bytes() == text.encode() and text.count("\r\n") == 1 + grid.n_cells

    def test_integer_sweep_resolutions_are_written_as_floats(self, tmp_path):
        config = write_config(tmp_path, sweep={"dxi": [1, 0.5, 0.25]})
        assert run_cli("converge", "--config", config, "--out", str(tmp_path)) == 0
        out = tmp_path / "tiny_converge"
        rows = (out / "errors.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["dxi_sweep", "1.0"], ["dxi_sweep", "0.5"], ["dxi_sweep", "0.25"]]
        # the order report and the manifest's config write the same floats
        report = json.loads((out / "order_report.json").read_text())
        manifest = json.loads((out / "manifest.json").read_text())
        for dxis in (report["dxi_sweep"]["dxi"], manifest["config"]["sweep"]["dxi"]):
            assert dxis == [1.0, 0.5, 0.25] and all(type(d) is float for d in dxis)

    def test_the_package_version_is_the_project_version(self, monkeypatch):
        tomllib = pytest.importorskip("tomllib")
        with open(Path(rw.__file__).parents[2] / "pyproject.toml", "rb") as fh:
            assert rw.__version__ == tomllib.load(fh)["project"]["version"]
        # a checkout that is not installed names the same version
        from importlib import metadata

        def not_installed(name):
            raise metadata.PackageNotFoundError(name)

        monkeypatch.setattr(metadata, "version", not_installed)
        experiments._version_string.cache_clear()
        try:
            assert experiments._version_string().startswith(f"rodwave {rw.__version__}+local")
        finally:
            experiments._version_string.cache_clear()

    def test_version_names_the_package_checkout(self, tmp_path, monkeypatch):
        monkeypatch.chdir(Path(experiments.__file__).parent)
        experiments._version_string.cache_clear()
        here = experiments._version_string()
        monkeypatch.chdir(tmp_path)
        experiments._version_string.cache_clear()
        assert experiments._version_string() == here

    def test_version_is_read_once_per_process(self, tmp_path, monkeypatch):
        calls = []
        run = experiments.subprocess.run

        def counted(*args, **kwargs):
            calls.append(args)
            return run(*args, **kwargs)

        monkeypatch.setattr(experiments.subprocess, "run", counted)
        experiments._version_string.cache_clear()
        cfg = rw.load_config(write_config(tmp_path))
        rw.run_experiment(cfg, tmp_path / "a", quiet=True)
        rw.run_experiment(cfg, tmp_path / "b", quiet=True)
        assert len(calls) == 1


class TestGraphWriter:
    """``run_experiment`` writes its graphs on a lane: in a forked writer
    process, or on one CPU in the caller."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        # a forked writer unless a test says otherwise: on one CPU, the
        # writer that dies would end the test process itself
        set_cpus(monkeypatch, {0, 1})

    def failing_evolve(self, monkeypatch, at_step):
        """Make ``run_experiment``'s evolve raise FixedPointDiverged at step
        ``at_step``, after writing the graphs of the steps before it."""
        calls, real = [], stepping.step_strang

        def step(state, cfg, dt):
            calls.append(dt)
            if len(calls) == at_step:
                raise FixedPointDiverged(50, 1.0, 2.0, 1.0)
            return real(state, cfg, dt)

        monkeypatch.setattr(stepping, "step_strang", step)

    def observed_run(self, tmp_path, monkeypatch, graphs, **changes):
        """Run TINY with ``changes`` into ``tmp_path / "run"``, and check
        that it leaves no child and that its ``graphs`` graphs equal
        ``write_graph_csv`` of the states the run observed, byte for byte."""
        states = []

        def evolve(*args, observers, **kwargs):
            observers = (*observers, lambda j, t, s, r: states.append(s))
            return stepping.evolve(*args, observers=observers, **kwargs)

        monkeypatch.setattr(experiments, "evolve", evolve)
        run_dir = rw.run_experiment(rw.load_config(write_config(tmp_path, **changes)),
                                    tmp_path / "run", quiet=True)
        assert multiprocessing.active_children() == []
        assert len(states) == len(list(run_dir.glob("graph_*.csv"))) == graphs
        for k, state in enumerate(states):
            experiments.write_graph_csv(tmp_path / "inline.csv", state)
            assert (run_dir / f"graph_{k:04d}.csv").read_bytes() == (
                tmp_path / "inline.csv").read_bytes()
        return run_dir

    def test_graphs_equal_write_graph_csv_of_the_observed_states(self, tmp_path, monkeypatch):
        run_dir = self.observed_run(tmp_path, monkeypatch, graphs=3)
        timings = json.loads((run_dir / "manifest.json").read_text())["timings"]
        assert set(timings) == {"graph_writer_busy_s", "graph_writer_wait_s"}
        assert timings["graph_writer_busy_s"] > 0 and timings["graph_writer_wait_s"] > 0

    def test_the_caller_writes_the_graphs_a_busy_writer_has_not_taken(
            self, tmp_path, monkeypatch):
        log = log_writers(monkeypatch, tmp_path / "writers", child_delay=0.1)
        # 11 snapshots: the slowed child takes the first two, the caller the
        # ones sent while two are waiting
        self.observed_run(tmp_path, monkeypatch, graphs=11, output_stride=1, t_final=1.0)
        pids = [int(p.read_text()) for p in sorted(log.glob("graph_*.csv"))]
        assert len(pids) == 11
        assert pids[0] == pids[1] != os.getpid() and os.getpid() in pids

    def test_a_lane_keeps_send_order_across_both_processes(self):
        caller = os.getpid()

        def handle(k):
            if os.getpid() != caller:
                time.sleep(0.1)
            return pid_of(k)

        with experiments._Lane(handle, "a test lane", depth=2) as lane:
            for k in range(6):
                lane.send(k)
        assert [k for k, _ in lane.results] == list(range(6))
        pids = [pid for _, pid in lane.results]
        assert pids[0] == pids[1] != caller and caller in pids
        assert multiprocessing.active_children() == []

    def test_one_cpu_writes_the_same_graphs_in_the_caller(self, tmp_path, monkeypatch):
        set_cpus(monkeypatch, {0})
        no_fork(monkeypatch)
        self.test_graphs_equal_write_graph_csv_of_the_observed_states(tmp_path, monkeypatch)

    def test_a_failed_run_leaves_every_submitted_graph_complete(self, tmp_path, monkeypatch):
        cfg = rw.load_config(write_config(tmp_path, output_stride=1, t_final=0.5))
        whole = rw.run_experiment(cfg, tmp_path / "whole", quiet=True)
        self.failing_evolve(monkeypatch, at_step=3)
        with pytest.raises(FixedPointDiverged):
            rw.run_experiment(cfg, tmp_path / "failed", quiet=True)
        assert multiprocessing.active_children() == []
        failed = csv_bytes(tmp_path / "failed")
        assert set(failed) == {f"graph_{k:04d}.csv" for k in range(3)}
        assert failed == {name: (whole / name).read_bytes() for name in failed}

    @pytest.mark.parametrize("run_fails", [False, True])
    def test_a_writer_error_is_raised_unless_the_run_raised_first(
            self, tmp_path, monkeypatch, run_fails):
        cfg = rw.load_config(write_config(tmp_path, output_stride=1, t_final=0.5))
        run_dir = tmp_path / "run"
        (run_dir / "graph_0001.csv").mkdir(parents=True)
        if run_fails:
            self.failing_evolve(monkeypatch, at_step=3)
        with pytest.raises(FixedPointDiverged if run_fails else IsADirectoryError):
            rw.run_experiment(cfg, run_dir, quiet=True)
        assert multiprocessing.active_children() == []
        assert not (run_dir / "manifest.json").exists()

    @pytest.mark.parametrize("writer", ["child", "caller"])
    def test_an_unwritable_graph_fails_the_run_in_either_process(
            self, tmp_path, monkeypatch, writer):
        log = log_writers(monkeypatch, tmp_path / "writers", child_delay=0.1)
        if writer == "caller":
            # a lane that keeps no graph waiting: while the slowed child
            # writes graph 0, the caller writes graph 1
            lane = experiments._Lane
            monkeypatch.setattr(experiments, "_Lane",
                                lambda handle, what, depth: lane(handle, what, depth=1))
        cfg = rw.load_config(write_config(tmp_path, output_stride=1, t_final=0.5))
        run_dir = tmp_path / "run"
        (run_dir / "graph_0001.csv").mkdir(parents=True)
        with pytest.raises(IsADirectoryError):
            rw.run_experiment(cfg, run_dir, quiet=True)
        wrote_it = int((log / "graph_0001.csv").read_text())
        assert (wrote_it == os.getpid()) == (writer == "caller")
        assert multiprocessing.active_children() == []
        assert not (run_dir / "manifest.json").exists()

    def test_a_writer_that_dies_fails_the_run(self, tmp_path, monkeypatch):
        # the forked writer inherits the patched function
        in_child(monkeypatch, lambda *args: os._exit(3))
        # one snapshot, at t = 0: the writer dies after the run's last submit
        cfg = rw.load_config(write_config(tmp_path, t_final=0.0))
        with pytest.raises(RodwaveError, match="graph writer exited with code 3"):
            rw.run_experiment(cfg, tmp_path / "run", quiet=True)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "run" / "manifest.json").exists()

    def test_a_writer_that_dies_mid_run_fails_the_run(self, tmp_path, monkeypatch):
        # only the forked writer dies: the caller, which writes the graphs
        # the writer has not taken, is the test process itself
        in_child(monkeypatch, lambda *args: os._exit(3))
        # 11 snapshots: the run goes on sending after the writer has died
        cfg = rw.load_config(write_config(tmp_path, output_stride=1, t_final=1.0))
        with pytest.raises(RodwaveError, match="^the graph writer exited with code 3$"):
            rw.run_experiment(cfg, tmp_path / "run", quiet=True)
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "run" / "manifest.json").exists()


def in_child(monkeypatch, write_graph):
    """Patch ``write_graph_csv`` to call ``write_graph`` in any process but
    this one, and the real writer in this one."""
    real, caller = experiments.write_graph_csv, os.getpid()

    def patched(*args):
        return (real if os.getpid() == caller else write_graph)(*args)

    monkeypatch.setattr(experiments, "write_graph_csv", patched)


def log_writers(monkeypatch, log, child_delay):
    """Patch ``write_graph_csv`` to record, in a file of the new directory
    ``log`` named after its graph, the pid of the process that writes it,
    and to sleep ``child_delay`` seconds first in any process but this
    one.  Returns ``log``."""
    real, caller = experiments.write_graph_csv, os.getpid()
    log.mkdir()

    def write(path, state):
        if os.getpid() != caller:
            time.sleep(child_delay)
        (log / path.name).write_text(str(os.getpid()))
        real(path, state)

    monkeypatch.setattr(experiments, "write_graph_csv", write)
    return log


def pid_of(k):
    return k, os.getpid()


def set_cpus(monkeypatch, cpus):
    """Make ``os.sched_getaffinity`` report ``cpus``: on one CPU, run,
    compare and converge fork no lane."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(cpus))


@pytest.fixture
def two_cpus(monkeypatch):
    set_cpus(monkeypatch, {0, 1})


def no_fork(monkeypatch):
    """Make any attempt to fork a process fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("a process was forked on one CPU")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


class TestJobLanes:
    """``_run_jobs``: the caller runs the jobs at even indices, one forked
    child those at odd indices."""

    def test_results_in_list_order_from_both_lanes(self, two_cpus):
        (results,) = experiments._run_jobs([functools.partial(pid_of, k) for k in range(5)])
        assert [k for k, _ in results] == list(range(5))
        pids = [pid for _, pid in results]
        assert pids[::2] == [os.getpid()] * 3
        assert pids[1] == pids[3] != os.getpid()
        assert multiprocessing.active_children() == []

    def test_a_state_comes_back_from_the_child_read_only(self, two_cpus):
        state = rw.build_initial_state(rw.ExperimentConfig.from_dict(TINY))
        (results,) = experiments._run_jobs([lambda: (state, os.getpid())] * 2)
        (mine, caller), (theirs, child) = results
        assert caller == os.getpid() != child
        assert not theirs.x.flags.writeable and not theirs.y.flags.writeable
        assert theirs.x.tobytes() == mine.x.tobytes()

    def test_the_first_error_in_list_order_is_raised(self, two_cpus, tmp_path):
        marker = tmp_path / "job 3 raised"

        def job3():
            marker.touch()
            raise ValueError("job 3")

        def job0():
            deadline = time.monotonic() + 30  # raise only after job 3 has
            while not marker.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
            raise KeyError("job 0")

        with pytest.raises(KeyError, match="job 0"):
            experiments._run_jobs([job0, lambda: 1, lambda: 2, job3])
        assert marker.exists()
        # alone, the child's error comes back as itself
        with pytest.raises(ValueError, match="job 3"):
            experiments._run_jobs([lambda: 0, lambda: 1, lambda: 2, job3])
        assert multiprocessing.active_children() == []

    def test_a_caller_error_still_drains_and_joins_the_child(self, two_cpus, tmp_path):
        done = tmp_path / "child done"

        def slow():
            time.sleep(0.2)
            done.touch()

        def fail():
            raise KeyError("caller")

        with pytest.raises(KeyError, match="caller"):
            experiments._run_jobs([fail, slow])
        assert done.exists()
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_is_a_rodwave_error(self, two_cpus):
        with pytest.raises(RodwaveError, match="exited with code 3"):
            experiments._run_jobs([lambda: 0, lambda: os._exit(3), lambda: 2])
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("affinity", [True, False])
    def test_one_cpu_runs_every_job_on_the_caller(self, monkeypatch, affinity):
        if affinity:
            set_cpus(monkeypatch, {0})
        else:  # a platform without an affinity mask counts every CPU
            monkeypatch.delattr(os, "sched_getaffinity")
            monkeypatch.setattr(os, "cpu_count", lambda: 1)
        no_fork(monkeypatch)
        (results,) = experiments._run_jobs([functools.partial(pid_of, k) for k in range(5)])
        assert results == [(k, os.getpid()) for k in range(5)]
        assert multiprocessing.active_children() == []

    def test_a_scheme_that_diverges_in_the_child_fails_compare(
            self, two_cpus, tmp_path, monkeypatch):
        def evolve(state, t_final, cfg, *args, **kwargs):
            if cfg.scheme == "strang":  # job 3 of compare's list: the child's
                (tmp_path / "diverged").write_text(str(os.getpid()))
                raise FixedPointDiverged(50, 1.0, 2.0, 1.0)
            return stepping.evolve(state, t_final, cfg, *args, **kwargs)

        monkeypatch.setattr(experiments, "evolve", evolve)
        out = tmp_path / "out"
        with pytest.raises(FixedPointDiverged) as info:
            rw.compare_experiment(rw.load_config(write_config(tmp_path, **PAIR)), out,
                                  quiet=True)
        assert (info.value.iterations, info.value.residual) == (50, 1.0)
        assert int((tmp_path / "diverged").read_text()) != os.getpid()
        assert multiprocessing.active_children() == []
        # the schemes' subdirectories, and no summary, reference graph or manifest
        assert {p.name for p in out.iterdir()} == set(rw.SCHEMES)

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_compare_equals_a_serial_computation(self, tmp_path, monkeypatch, cpus):
        set_cpus(monkeypatch, cpus)
        cfg = rw.load_config(write_config(tmp_path, **PAIR))
        out = rw.compare_experiment(cfg, tmp_path / "lanes", quiet=True)
        assert multiprocessing.active_children() == []
        serial = tmp_path / "serial"
        serial.mkdir()
        state0 = rw.build_initial_state(cfg)
        reference = serial_reference(state0, cfg.t_final, cfg.stepper,
                                     cfg.stepper.dt * cfg.reference_dt_factor)
        experiments.write_graph_csv(serial / "reference_graph.csv", reference)
        rows = []
        for scheme in cfg.schemes:
            final, run = experiments._run_one_scheme(cfg, state0, scheme, serial / scheme)
            err = rw.sup_graph_error(final, reference)
            rows.append((scheme, err, run.max_inv_drift, run.min_q, run.min_h))
        experiments._write_csv(
            serial / "summary.csv",
            ("scheme", "graph_error_vs_ref", "max_inv_drift", "min_q", "min_h"), rows)
        assert len(csv_bytes(out)) == 2 + 2 * len(cfg.schemes)
        assert csv_bytes(out) == csv_bytes(serial)

    @pytest.mark.parametrize("kind", [{}, SMOOTH], ids=["peakon", "smooth"])
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_compare_against_the_closed_form_equals_a_serial_computation(
            self, tmp_path, monkeypatch, cpus, kind):
        set_cpus(monkeypatch, cpus)
        cfg = rw.load_config(write_config(tmp_path, **kind))
        out = rw.compare_experiment(cfg, tmp_path / "lanes", quiet=True)
        assert multiprocessing.active_children() == []
        serial = tmp_path / "serial"
        serial.mkdir()
        state0 = rw.build_initial_state(cfg)
        # the reference graph is the initial data built with its crest moved
        # by c * t_final
        spec = cfg.wave_spec()
        moved = {**cfg.initial_data, "x0": spec.x0 + spec.c * cfg.t_final}
        reference = rw.build_initial_state(replace(cfg, initial_data=moved))
        experiments.write_graph_csv(serial / "reference_graph.csv", reference)
        rows = []
        for scheme in cfg.schemes:
            final, run = experiments._run_one_scheme(cfg, state0, scheme, serial / scheme)
            err = rw.exact_error(final, spec, cfg.t_final)
            rows.append((scheme, err, run.max_inv_drift, run.min_q, run.min_h))
        experiments._write_csv(
            serial / "summary.csv",
            ("scheme", "graph_error_vs_ref", "max_inv_drift", "min_q", "min_h"), rows)
        assert len(csv_bytes(out)) == 2 + 2 * len(cfg.schemes)
        assert csv_bytes(out) == csv_bytes(serial)

    @pytest.mark.parametrize("kind, sweep", [
        ({}, {"dt": [0.1, 0.05, 0.025], "dxi": [1.0, 0.5, 0.25]}),
        # no closed form: the dxi sweep is measured against its finest run
        (PAIR, {"dxi": [1.0, 0.5, 0.25, 0.125]})], ids=["peakon", "pair"])
    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_converge_equals_a_serial_computation(self, tmp_path, monkeypatch, cpus, kind, sweep):
        set_cpus(monkeypatch, cpus)
        cfg = rw.load_config(write_config(tmp_path, sweep=sweep, **kind))
        rw.converge_experiment(cfg, tmp_path / "lanes", quiet=True)
        assert multiprocessing.active_children() == []
        expected = {"name": "tiny", "scheme": "strang"}
        if "dt" in sweep:
            dts = sweep["dt"]
            state0 = rw.build_initial_state(cfg)
            ref_dt = stepping.reference_step(cfg.t_final, min(dts) * cfg.reference_dt_factor)
            reference = serial_reference(state0, cfg.t_final, cfg.stepper, ref_dt)
            dt_errors = [
                rw.distance_f(rw.evolve(state0, cfg.t_final, replace(cfg.stepper, dt=dt))[0],
                              reference)
                for dt in dts]
            expected["dt_sweep"] = {"dt": dts, "error": dt_errors,
                                    "slope": rw.convergence_order(zip(dts, dt_errors)),
                                    "reference_dt": ref_dt, "reference": "richardson_strang"}
        dxis = sweep["dxi"]
        finals = [rw.evolve(rw.build_initial_state(replace(cfg, dxi=dxi)), cfg.t_final,
                            replace(cfg.stepper, dt=dxi / 4))[0]
                  for dxi in dxis]
        if kind:  # the finest run, last, has no error against itself
            errors = [rw.sup_graph_error(s, finals[-1]) for s in finals[:-1]]
            slope = rw.convergence_order(zip(dxis, errors))
            errors, against = [*errors, None], "finest_run"
        else:
            errors = [rw.exact_error(s, cfg.wave_spec(), cfg.t_final) for s in finals]
            slope, against = rw.convergence_order(zip(dxis, errors)), "exact_peakon"
        expected["dxi_sweep"] = {"dxi": dxis, "dt": [d / 4 for d in dxis], "error": errors,
                                 "slope": slope, "against": against}
        experiments._write_json(tmp_path / "serial.json", expected)
        report = (tmp_path / "lanes" / "order_report.json").read_bytes()
        assert report == (tmp_path / "serial.json").read_bytes()

        def refuse(token):
            raise ValueError(f"{token} is not JSON")

        json.loads(report, parse_constant=refuse)


class TestCompareConverge:
    def test_compare_writes_every_scheme(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("compare", "--config", config, "--out", str(tmp_path)) == 0
        out = tmp_path / "tiny_compare"
        rows = (out / "summary.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["scheme", *rw.SCHEMES]
        for scheme in rw.SCHEMES:
            assert (out / scheme / "diagnostics.csv").is_file()
            assert (out / scheme / "final_graph.csv").is_file()

    def test_summary_has_one_row_per_scheme(self, tmp_path):
        config = write_config(tmp_path, schemes=["explicit_euler", "strang"])
        assert run_cli("compare", "--config", config, "--out", str(tmp_path)) == 0
        out = tmp_path / "tiny_compare"
        rows = (out / "summary.csv").read_text().splitlines()
        # the reference writes its graph but is not a scheme and has no row
        assert [r.split(",")[0] for r in rows] == ["scheme", "explicit_euler", "strang"]
        assert (out / "reference_graph.csv").is_file()
        assert rw.SCHEMES == ("lie_trotter", "strang", "explicit_euler", "adaptive_rk")

    @pytest.mark.parametrize(
        "name", ["peakon_antipeakon_gamma1", "collision_smooth", "peakon_antipeakon_gamma5"])
    @pytest.mark.parametrize("scheme, dt_factor", [
        ("strang", 1.0), ("lie_trotter", 1.0),
        # the Richardson reference's fine run at h = dt
        ("strang", 0.5)])
    def test_positivity_across_the_collision(self, name, scheme, dt_factor):
        # each collision folds y: between t = 1 and t = 2.6 at gamma = 1
        # and 0.8, from t = 0.2 on at gamma = 5
        cfg = rw.bundled_config(name)
        dt = cfg.stepper.dt * dt_factor
        minima = []
        _, run = rw.evolve(
            rw.build_initial_state(cfg), 3.0, replace(cfg.stepper, scheme=scheme, dt=dt),
            observers=(lambda j, t, s, r: minima.append((s.q.min(), s.h.min())),))
        assert len(minima) == round(3.0 / dt) + 1 and run.folded > 0
        # the run's report holds every state it accepted
        minima.append((run.min_q, run.min_h))
        assert np.min(minima) >= 0.0

    def test_compare_manifest_replays_the_run(self, tmp_path):
        config = write_config(tmp_path, **PAIR)
        assert run_cli("compare", "--config", config, "--out", str(tmp_path / "a")) == 0
        manifest = tmp_path / "a" / "tiny_compare" / "manifest.json"
        reference = json.loads(manifest.read_text())["reference"]
        # the reports of the runs at h and h/2: the fine run takes two
        # Strang steps per coarse step
        assert fp_substeps(reference.pop("solver")) == [15, 30]
        assert reference == {"method": "richardson_strang", "dt": [0.05, 0.025]}
        # each scheme's report holds the minima its summary row gives
        solver = json.loads(manifest.read_text())["solver"]
        header, *rows = (tmp_path / "a" / "tiny_compare" / "summary.csv").read_text().split()
        for row in rows:
            row = dict(zip(header.split(","), row.split(",")))
            report = solver[row["scheme"]]
            assert (float(row["min_q"]), float(row["min_h"])) == (report["min_q"], report["min_h"])
        assert list(solver) == sorted(rw.SCHEMES) and solver["adaptive_rk"]["accepted"] >= 3
        assert run_cli("compare", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        a = csv_bytes(tmp_path / "a" / "tiny_compare")
        assert {"summary.csv", "reference_graph.csv", "strang/final_graph.csv",
                "adaptive_rk/diagnostics.csv"} <= set(a)
        assert a == csv_bytes(tmp_path / "b" / "tiny_compare")

    @pytest.mark.parametrize("kind", [{}, SMOOTH], ids=["peakon", "smooth"])
    def test_compare_names_the_closed_form_it_measures_against(self, tmp_path, kind):
        config = write_config(tmp_path, **kind)
        assert run_cli("compare", "--config", config, "--out", str(tmp_path / "a")) == 0
        manifest = tmp_path / "a" / "tiny_compare" / "manifest.json"
        name = rw.load_config(config).initial_data["kind"]
        assert json.loads(manifest.read_text())["reference"] == {
            "method": f"exact_{name}", "t": 0.25}
        assert run_cli("compare", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        assert csv_bytes(tmp_path / "a" / "tiny_compare") == csv_bytes(
            tmp_path / "b" / "tiny_compare")

    @pytest.mark.parametrize("kind", [{}, SMOOTH], ids=["peakon", "smooth"])
    def test_compare_against_a_closed_form_runs_no_reference(self, tmp_path, monkeypatch, kind):
        # on one CPU every evolve runs in this process, where the wrapper
        # counts it: only the schemes run, each at dt, none at h or h / 2
        set_cpus(monkeypatch, {0})
        taken, real = [], stepping.evolve

        def evolve(state, t_final, cfg, *args, **kwargs):
            taken.append((cfg.scheme, cfg.dt))
            return real(state, t_final, cfg, *args, **kwargs)

        for module in (experiments, stepping):
            monkeypatch.setattr(module, "evolve", evolve)
        cfg = rw.load_config(write_config(tmp_path, **kind))
        rw.compare_experiment(cfg, tmp_path / "out", quiet=True)
        assert sorted(taken) == sorted((scheme, 0.1) for scheme in rw.SCHEMES)
        # so a reference step that could not be taken does not refuse it
        rw.compare_experiment(replace(cfg, reference_dt_factor=1e-300), tmp_path / "out",
                              quiet=True)

    def test_a_reference_step_that_leaves_a_short_step_is_shortened(self, tmp_path):
        # h = 0.1 * 0.3 = 0.03 leaves 0.02 after 6 steps to t_final = 0.2:
        # the reference takes 7 steps of 0.2 / 7 and 14 of 0.1 / 7
        cfg = replace(rw.bundled_config("peakon_antipeakon_gamma5"), reference_dt_factor=0.3,
                      t_final=0.2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            warnings.simplefilter("ignore", PhysicalRangeWarning)
            rw.compare_experiment(cfg, tmp_path / "out", quiet=True)
        reference = json.loads((tmp_path / "out" / "manifest.json").read_text())["reference"]
        assert reference["dt"] == [0.2 / 7, 0.1 / 7]
        assert stepping.plan_steps(0.2, 0.2 / 7) == (7, None)
        assert stepping.plan_steps(0.2, 0.1 / 7) == (14, None)
        # three substeps per Strang step
        assert fp_substeps(reference["solver"]) == [21, 42]

    def test_strang_beats_euler_against_the_smooth_wave(self, tmp_path):
        config = write_config(tmp_path, **SMOOTH)
        assert run_cli("compare", "--config", config, "--out", str(tmp_path)) == 0
        header, *rows = (tmp_path / "tiny_compare" / "summary.csv").read_text().split()
        error = {row.split(",")[0]: float(row.split(",")[1]) for row in rows}
        assert error["strang"] < error["explicit_euler"] / 2

    def test_a_smooth_dxi_sweep_is_measured_against_the_closed_form(self, tmp_path):
        # three points fit, since none is spent as the reference
        dxis = [1.0, 0.5, 0.25]
        cfg = rw.load_config(write_config(tmp_path, **SMOOTH, sweep={"dxi": dxis}))
        report = rw.converge_experiment(cfg, tmp_path / "out", quiet=True)
        errors = [rw.exact_error(rw.evolve(rw.build_initial_state(replace(cfg, dxi=dxi)),
                                           cfg.t_final, replace(cfg.stepper, dt=dxi / 4))[0],
                                 cfg.wave_spec(), cfg.t_final)
                  for dxi in dxis]
        assert report["dxi_sweep"]["against"] == "exact_smooth"
        assert report["dxi_sweep"]["error"] == errors
        assert report["dxi_sweep"]["slope"] == rw.convergence_order(zip(dxis, errors))

    def test_adaptive_minima_include_initial_state(self, tmp_path):
        # the colliding waves' far cells hold h = 0 at t=0 (q = 1/(1 + e)
        # rounds to 1) and h > 1e-15 after the first step: only t=0 holds
        # the minimum
        collision = {"initial_data": {"kind": "gaussian_derivative"}, "gamma": 0.8,
                     "grid": {"dxi": 0.5, "r": 15.0}}
        config = write_config(tmp_path, **collision)
        assert run_cli("compare", "--config", config, "--out", str(tmp_path)) == 0
        rows = (tmp_path / "tiny_compare" / "summary.csv").read_text().splitlines()
        adaptive = dict(zip(rows[0].split(","), rows[-1].split(",")))
        assert adaptive["scheme"] == "adaptive_rk"
        h0 = rw.build_initial_state(rw.load_config(config)).h
        assert float(adaptive["min_h"]) <= h0.min()

    def test_converge_writes_order_report(self, tmp_path):
        config = write_config(tmp_path, t_final=0.2)
        assert run_cli("converge", "--config", config, "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "tiny_converge" / "order_report.json").read_text())
        assert report["dt_sweep"]["dt"] == TINY["sweep"]["dt"]
        assert 1.5 < report["dt_sweep"]["slope"] < 2.5
        assert report["dt_sweep"]["reference"] == "richardson_strang"

    def test_converge_manifest_replays_the_sweep(self, tmp_path):
        config = write_config(tmp_path, sweep=None)
        argv = ("converge", "--config", config, "--dxi-list", "1,0.5,0.25")
        assert run_cli(*argv, "--out", str(tmp_path / "a")) == 0
        manifest = tmp_path / "a" / "tiny_converge" / "manifest.json"
        assert json.loads(manifest.read_text())["config"]["sweep"] == {"dxi": [1.0, 0.5, 0.25]}
        # one report per swept run, in the report's order: dxi / 4 divides
        # t_final 0.25 in 1, 2 and 4 Strang steps
        solver = json.loads(manifest.read_text())["solver"]
        assert list(solver) == ["dxi_sweep"] and fp_substeps(solver["dxi_sweep"]) == [3, 6, 12]
        assert run_cli("converge", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        a = converge_bytes(tmp_path / "a" / "tiny_converge")
        assert set(a) == {"errors.csv", "order_report.json"}
        assert a == converge_bytes(tmp_path / "b" / "tiny_converge")

    def test_a_sweep_flag_overrides_its_key_of_the_config_sweep(self, tmp_path):
        config = write_config(tmp_path, sweep={"dt": [0.1, 0.05, 0.025], "dxi": [1.0, 0.5, 0.25]})
        argv = ("converge", "--config", config, "--dt-list", "0.125,0.0625,0.03125")
        assert run_cli(*argv, "--out", str(tmp_path / "a")) == 0
        out = tmp_path / "a" / "tiny_converge"
        report = json.loads((out / "order_report.json").read_text())
        assert report["dt_sweep"]["dt"] == [0.125, 0.0625, 0.03125]
        assert report["dxi_sweep"]["dxi"] == [1.0, 0.5, 0.25]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["sweep"] == {
            "dt": [0.125, 0.0625, 0.03125], "dxi": [1.0, 0.5, 0.25]}
        # the reference's runs at h = 0.015625 and h/2, then each swept run,
        # in the report's order
        solver = manifest["solver"]
        assert report["dt_sweep"]["reference_dt"] == 0.015625
        assert fp_substeps(solver["reference"]) == [48, 96]
        assert fp_substeps(solver["dt_sweep"]) == [6, 12, 24]
        assert fp_substeps(solver["dxi_sweep"]) == [3, 6, 12]
        argv = ("converge", "--config", str(out / "manifest.json"))
        assert run_cli(*argv, "--out", str(tmp_path / "b")) == 0
        assert converge_bytes(out) == converge_bytes(tmp_path / "b" / "tiny_converge")

    def test_a_dt_sweep_builds_one_start_state(self, tmp_path, monkeypatch):
        # one for the dt sweep and its reference, one per swept dxi
        built = []
        build = experiments.build_initial_state
        monkeypatch.setattr(experiments, "build_initial_state",
                            lambda cfg: built.append(cfg.dxi) or build(cfg))
        cfg = rw.load_config(write_config(
            tmp_path, sweep={"dt": [0.1, 0.05, 0.025], "dxi": [1.0, 0.5, 0.25]}))
        rw.converge_experiment(cfg, tmp_path / "out", quiet=True)
        assert built == [0.25, 1.0, 0.5, 0.25]

    def test_converge_warns_of_each_swept_run_with_a_short_last_step(self, tmp_path):
        # TINY's t_final 0.25 is a multiple of 0.05 and of each dxi / 4 but
        # 0.15 = 0.6 / 4, of 0.03 and of the config's dt 0.1
        cfg = rw.load_config(write_config(
            tmp_path, sweep={"dt": [0.1, 0.05, 0.03], "dxi": [0.6, 0.5, 0.25]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rw.converge_experiment(cfg, tmp_path / "out", quiet=True)
        assert {str(w.message) for w in caught} == {
            f"t_final=0.25 is not a multiple of dt={dt}; the last step will be shortened"
            for dt in (0.1, 0.03, 0.15)}

    def test_converge_warns_of_no_dt_that_no_run_takes(self, tmp_path):
        # the config's dt 0.1 does not divide t_final 0.25, but no converge
        # run takes it, and each dxi / 4 divides 0.25
        cfg = rw.load_config(write_config(tmp_path, sweep={"dxi": [0.5, 0.25, 0.125]}))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rw.converge_experiment(cfg, tmp_path / "out", quiet=True)
        assert [str(w.message) for w in caught] == []

    def test_a_dxi_sweep_is_bound_by_the_steps_its_runs_take(self, tmp_path, monkeypatch):
        # the finest run takes 25000 / 0.025 = 1e6 steps, within MAX_STEPS;
        # a reference at its dt, which converge does not run, would take 2e7
        # each run evolves to t = 0: its report is its start state's
        monkeypatch.setattr(experiments, "evolve",
                            lambda state, t_final, cfg: stepping.evolve(state, 0.0, cfg))
        cfg = rw.load_config(write_config(
            tmp_path, t_final=25000.0, reference_dt_factor=0.1, sweep={"dxi": [0.4, 0.2, 0.1]}))
        report = rw.converge_experiment(cfg, tmp_path / "out", quiet=True)
        assert report["dxi_sweep"]["dt"] == [0.1, 0.05, 0.025]

    def test_emit_plots_for_run_and_compare(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("run", "--config", config, "--out", str(tmp_path)) == 0
        assert run_cli("compare", "--config", config, "--out", str(tmp_path)) == 0
        assert run_cli("emit-plots", str(tmp_path / "tiny")) == 0
        assert run_cli("emit-plots", str(tmp_path / "tiny_compare")) == 0
        assert {p.name for p in (tmp_path / "tiny").glob("*.gp")} == {
            "overlay.gp", "waterfall.gp", "energy_density.gp"}
        assert {p.name for p in (tmp_path / "tiny_compare").glob("*.gp")} == {
            "overlay.gp", "energy_density.gp"}


class TestCli:
    def test_list_experiments_names_and_describes_each(self, capsys):
        assert cli.main(["list-experiments"]) == 0
        assert [line.split(None, 1) for line in capsys.readouterr().out.splitlines()] == [
            [name, d["description"]] for name, d in rw.BUNDLED.items()]

    def test_the_out_root_defaults_to_the_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / "env"))
        monkeypatch.chdir(tmp_path)
        assert run_cli("run", "--config", write_config(tmp_path)) == 0
        assert (tmp_path / "env" / "tiny" / "manifest.json").is_file()
        assert not (tmp_path / "rodwave_runs").exists()

    def test_emit_plots_prints_its_paths_unless_quiet(self, tmp_path, capsys):
        assert run_cli("run", "--config", write_config(tmp_path), "--out", str(tmp_path)) == 0
        run_dir = tmp_path / "tiny"
        assert cli.main(["emit-plots", str(run_dir)]) == 0
        assert capsys.readouterr().out.splitlines() == [
            str(run_dir / name) for name in ("overlay.gp", "waterfall.gp", "energy_density.gp")]
        assert run_cli("emit-plots", str(run_dir)) == 0
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("layout, message", [
        ("empty", "no manifest.json in {}"), ("converge", "{} has no graph snapshots to plot")])
    def test_emit_plots_refuses_a_directory_it_cannot_plot(
            self, tmp_path, capsys, layout, message):
        target = tmp_path / "empty"
        target.mkdir()
        if layout == "converge":
            config = write_config(tmp_path, sweep={"dxi": [0.5, 0.25, 0.125]})
            assert run_cli("converge", "--config", config, "--out", str(tmp_path)) == 0
            target = tmp_path / "tiny_converge"
        assert run_cli("emit-plots", str(target)) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "RodwaveError", "message": message.format(target)}
        assert list(target.glob("*.gp")) == []

    def test_converge_with_no_sweep_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert run_cli("converge", "--config", write_config(tmp_path, sweep={}),
                       "--out", str(out)) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "RodwaveError", "message": "converge needs a dt and/or dxi sweep"}
        assert not out.exists()

    def test_compare_prints_each_scheme_unless_quiet(self, tmp_path, capsys):
        config = write_config(tmp_path)
        assert cli.main(["compare", "--config", config, "--out", str(tmp_path / "a")]) == 0
        _, *rows = (tmp_path / "a" / "tiny_compare" / "summary.csv").read_text().splitlines()
        expected = []
        for row in rows:
            scheme, err, drift, min_q, min_h = row.split(",")
            expected.append(f"[tiny] {scheme:>14}: err={float(err):.4e} "
                            f"inv_drift={float(drift):.3e} min_q={float(min_q):.3e} "
                            f"min_h={float(min_h):.3e}")
        assert capsys.readouterr().out.splitlines() == expected and len(expected) == 4
        assert run_cli("compare", "--config", config, "--out", str(tmp_path / "b")) == 0
        assert capsys.readouterr().out == ""

    def test_converge_prints_each_slope_unless_quiet(self, tmp_path, capsys):
        config = write_config(tmp_path, sweep={"dt": [0.1, 0.05, 0.025],
                                               "dxi": [0.5, 0.25, 0.125]})
        assert cli.main(["converge", "--config", config, "--out", str(tmp_path / "a")]) == 0
        report = json.loads((tmp_path / "a" / "tiny_converge" / "order_report.json").read_text())
        assert capsys.readouterr().out.splitlines() == [
            f"[tiny] {key}: slope={report[key]['slope']:.3f}" for key in ("dt_sweep", "dxi_sweep")]
        assert run_cli("converge", "--config", config, "--out", str(tmp_path / "b")) == 0
        assert capsys.readouterr().out == ""


class TestErrors:
    @pytest.mark.parametrize(
        "argv, changes",
        [
            (["run", "--config", "no_such_experiment"], None),
            (["run", "--scheme", "leapfrog"], {}),
            (["run"], {"output_stride": 0}),
            (["compare", "--scheme", "strang,leapfrog"], {}),
            (["run"], {"stepper": {"dt": 0}}),
            (["run"], {"grid": {"dxi": 0, "r": 5.0}}),
            (["run"], {"initial_data": {"kind": "peakon", "c": 1.0, "M": 2.0}}),
            (["run"], {"t_final": -1.0}),
            (["converge"], {"sweep": {"dt": [0.1, 0.05]}}),
            (["converge"], {"initial_data": {"kind": "peakon_antipeakon"},
                            "sweep": {"dxi": [0.5, 0.25, 0.125]}}),
            (["run"], {"stepper": {"dt": 0.1, "fp_tolerance": 1e-3}}),
            (["run"], {"gamma": None}),
            (["run"], {"initial_data": {"kind": "profile_file", "path": "bad_profile.txt"}}),
            (["run"], [1, 2]),
            (["run"], 5),
            (["run"], {"output_stride": 1.7}),
            (["run"], {"m_ref": 2.5}),
            (["run"], {"stepper": {"dt": 0.1, "fp_max_iter": 7.9}}),
            (["run", "--scheme", "explicit_euler,adaptive_rk"], {}),
            (["converge", "--scheme", "strang,lie_trotter"], {}),
            (["compare", "--scheme", ","], {}),
            (["compare"], {"schemes": []}),
            (["run"], {"name": 5}),
            (["run"], {"gamma": True}),
            (["run"], {"initial_data": {"kind": "peakon", "c": "1.5", "x0": 0.0}}),
            (["run"], {"stepper": {"dt": "0.1"}}),
            (["converge"], {"sweep": {"dt": [0.1, 0.05, 0.025], "dxii": [0.5, 0.25, 0.125]}}),
            (["run"], {"initial_data": {"kind": "gaussian_derivative", "x0": 3.0}}),
            (["run"], {"initial_data": {"kind": "peakon", "c": 1.0, "x0": 0.0, "separation": 9.0}}),
            (["converge"], {"sweep": {"dt": "abc"}}),
            (["converge"], {"sweep": {"dt": [0.1, "x", 0.05]}}),
            (["converge"], {"sweep": {"dxi": [0.5, 0.25, True, 0.125]}}),
            (["converge"], {"sweep": {"dxi": [0.5, -0.25, 0.125]}}),
            (["run"], {"gamma": 5.0, "initial_data": {"kind": "cuspon", "blend": [0.05, "x"]}}),
            (["run"], {"gamma": 5.0, "initial_data": {"kind": "cuspon", "blend": [0.05]}}),
            # compare's reference is not a scheme
            (["compare", "--scheme", "triple_jump"], {}),
            (["run"], {"stepper": {"dt": 0.1, "scheme": "_triple_jump"}}),
            (["run"], {"stepper": {"dt": 0.1, "scheme": "_two_halves"}}),
            (["compare", "--scheme", "richardson_strang"], {}),
            # non-finite and out-of-range numbers
            (["run"], {"stepper": {"dt": float("inf")}}),
            (["run"], {"t_final": float("inf")}),
            (["compare"], {"reference_dt_factor": 0}),
            (["compare"], {"reference_dt_factor": -1}),
            (["compare"], {"reference_dt_factor": float("nan")}),
            (["converge", "--dt-list", "0.1,inf,0.05"], {}),
            (["run"], {"grid": {"dxi": 0.25, "r": float("inf")}}),
            (["run"], {"stepper": {"dt": 1e-320}, "t_final": 1e10}),
            # step counts past MAX_STEPS
            (["run"], {"stepper": {"dt": 1e-300}}),
            (["converge"], {"sweep": {"dt": [0.1, 1e-300, 0.05]}}),
            (["compare"], {"reference_dt_factor": 1e-300, **PAIR}),
            (["compare", "--scheme", "strang,strang"], {}),
            # a sweep that repeats a value
            (["converge"], {"sweep": {"dxi": [1.0, 0.5, 0.25, 0.25]}}),
            (["converge", "--dt-list", "0.1,0.05,0.1"], {}),
        ],
    )
    def test_json_error_report_and_exit_code(
        self, tmp_path, capsys, monkeypatch, argv, changes
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a rejected input reached the time loop")

        # every evolve the drivers start: run's, the schemes' and converge's
        # sweeps in experiments, the reference's two runs in stepping
        for module in (experiments, stepping):
            monkeypatch.setattr(module, "evolve", no_run)
        monkeypatch.chdir(tmp_path)
        # exists, so the config is accepted, but fails to parse at its line 3
        Path("bad_profile.txt").write_text("x u\n0 0\nfoo bar\n1 1\n2 0\n")
        if isinstance(changes, dict):
            argv = [*argv, "--config", write_config(tmp_path, **{"t_final": 0.2, **changes})]
        elif changes is not None:  # a whole config file that is not an object
            Path("top.json").write_text(json.dumps(changes))
            argv = [*argv, "--config", "top.json"]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err)
        assert set(report) == {"error", "message"}
        assert not out.exists()  # rejected before any artifact is written

    @pytest.mark.parametrize(
        "changes",
        [{"output_stride": 0}, {"output_stride": -1},
         {"stepper": {"dt": 0.2, "scheme": "leapfrog"}},
         {"schemes": ["strang", "rk4"]}, {"m_ref": 0},
         {"initial_data": {"kind": "peakon", "c": 1.0, "m": 0.0}},
         {"output_strid": 3}, {"grid": {"dxi": 0.05, "r": 25.0, "n_half": 500}},
         {"stepper": {"dt": 0.2, "fp_tolerance": 1e-3}},
         {"initial_data": {"kind": "peakon", "c": 1.0, "x_0": 0.0}},
         {"gamma": None}, {"stepper": {}}, {"output_stride": 1.7}, {"m_ref": 2.5},
         {"stepper": {"dt": 0.2, "fp_max_iter": 7.9}}, {"gamma": 10**400},
         {"name": 5}, {"gamma": True},
         {"initial_data": {"kind": "peakon", "c": "1.5", "x0": 0.0}},
         {"stepper": {"dt": "0.1"}}, {"schemes": "strang"}, {"schemes": []},
         {"output_stride": True}, {"sweep": {"dt": [0.2, 0.1, 0.05], "dxii": [0.1]}},
         {"initial_data": {"kind": "gaussian_derivative", "x0": 3.0}},
         {"initial_data": {"kind": "peakon", "c": 1.0, "x0": 0.0, "separation": 9.0}},
         {"gamma": 0.2, "initial_data": {"kind": "smooth", "c": 1.0, "blend": [0.1, 0.2]}},
         # this file exists, so c is the only fault
         {"initial_data": {"kind": "profile_file", "path": __file__, "c": 1.0}},
         {"initial_data": {"kind": "profile_file"}},
         {"sweep": {"dt": "abc"}}, {"sweep": {"dt": [0.1, "x", 0.05]}},
         {"sweep": {"dxi": [0.5, 0.25, True, 0.125]}}, {"sweep": {"dt": [0.1, -0.05, 0.025]}},
         {"gamma": 5.0, "initial_data": {"kind": "cuspon", "blend": [0.05, "x"]}},
         {"gamma": 5.0, "initial_data": {"kind": "cuspon", "blend": [0.05]}},
         {"schemes": ["strang", 5]}, {"t_final": float("nan")},
         {"grid": {"dxi": float("inf"), "r": 25.0}},
         {"initial_data": {"kind": "peakon", "c": 1.0, "x0": float("nan")}},
         {"grid": {"dxi": 0.25, "r": -25.0}}, {"grid": {"dxi": 0.25, "r": 0.0}},
         # a section that is not an object, and a peakon off gamma = 1
         {"stepper": 5}, {"gamma": 0.5}],
    )
    def test_config_validation(self, changes):
        with pytest.raises(ValueError):
            rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))

    def test_a_repeated_scheme_is_refused(self, tmp_path, capsys):
        # two runs of one scheme would share its directory and summary row
        changes = {"schemes": ["strang", "explicit_euler", "lie_trotter", "explicit_euler",
                               "strang"]}
        with pytest.raises(ValueError) as info:
            rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))
        assert str(info.value) == "schemes: explicit_euler, strang named more than once"
        out = tmp_path / "out"
        assert run_cli("compare", "--config", "peakon_c1", "--scheme", "strang,strang",
                       "--out", str(out)) == 1
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": "schemes: strang named more than once"}
        assert not out.exists()

    def test_a_repeated_sweep_value_is_refused(self, tmp_path):
        # a repeated dxi would measure 0 against the finest run, and a
        # repeated dt count one point twice in the fit
        with pytest.raises(ValueError, match=r"^sweep\.dt: 0\.1 named more than once$"):
            rw.ExperimentConfig.from_dict(merged(TINY, {"sweep": {"dt": [0.1, 0.05, 0.1]}}))
        # as when --dxi-list names it
        cfg = rw.bundled_config("smooth_gamma02")
        with pytest.raises(ValueError, match=r"^sweep\.dxi: 0\.25 named more than once$"):
            replace(cfg, sweep={"dxi": [1.0, 0.5, 0.25, 0.25]})

    @pytest.mark.parametrize("changes, dt", [
        ({"stepper": {"dt": 1e-300}}, 1e-300),
        ({"sweep": {"dt": [0.1, 1e-300, 0.05]}}, 1e-300),
        # the Richardson reference's fine steps, h / 2 with h = dt *
        # reference_dt_factor (of the least swept dt), taken on a kind with
        # no closed form, and bounded before reference_step shortens h:
        ({"reference_dt_factor": 1e-300, **PAIR}, 0.2 * 1e-300 / 2),
        # h underflows to 0,
        ({"reference_dt_factor": 5e-324, **PAIR}, 0.0),
        # or t_final / h overflows
        ({"reference_dt_factor": 1e-304, "t_final": 1e5, **PAIR}, 0.2 * 1e-304 / 2),
        ({"sweep": {"dxi": [0.5, 1e-300, 0.125]}}, 1e-300 / 4)])
    def test_step_count_is_bounded(self, tmp_path, monkeypatch, changes, dt):
        # the config builds; each driver that takes the dt refuses it before
        # it builds a state
        monkeypatch.setattr(experiments, "build_initial_state", reach)
        cfg = rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))
        drivers = {"stepper": (rw.run_experiment, rw.compare_experiment),
                   "sweep": (rw.converge_experiment,),
                   "reference_dt_factor": (rw.compare_experiment, rw.converge_experiment),
                   }[next(iter(changes))]
        if "reference_dt_factor" in changes:  # converge's h: at the least swept dt, 0.2
            cfg = replace(cfg, sweep={"dt": [0.8, 0.4, 0.2]})
        steps = cfg.t_final / dt if dt else math.inf
        for driver in drivers:
            with pytest.raises(ValueError) as info:
                driver(cfg, tmp_path / "out", quiet=True)
            assert str(info.value) == (f"t_final={cfg.t_final} at dt={dt} takes {steps:.3g} "
                                       f"steps, more than {experiments.MAX_STEPS}")
            assert not (tmp_path / "out").exists()

    def test_run_warns_of_the_short_last_step_that_plan_steps_takes(self, tmp_path, monkeypatch):
        monkeypatch.setattr(experiments, "evolve", reach)
        # below t_final = 1 a ratio test of t_final / dt would warn here too,
        # of a last step of 5e-10 that plan_steps does not take
        changes = {"stepper": {"dt": 1e-3}, "t_final": 0.1000000005}
        assert stepping.plan_steps(0.1000000005, 1e-3) == (100, None)
        cfg = rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))
        with warnings.catch_warnings(), pytest.raises(Reached):
            warnings.simplefilter("error")
            rw.run_experiment(cfg, tmp_path / "a", quiet=True)
        n_full, last = stepping.plan_steps(0.10000005, 1e-3)
        assert n_full == 100 and last == pytest.approx(5e-8, rel=1e-6)
        with pytest.warns(UserWarning, match="^t_final=0.10000005 is not a multiple of "
                                             "dt=0.001; the last step will be shortened$"):
            with pytest.raises(Reached):
                rw.run_experiment(replace(cfg, t_final=0.10000005), tmp_path / "b", quiet=True)

    def test_step_count_up_to_the_bound_is_accepted(self, tmp_path, monkeypatch):
        # compare's Richardson reference takes its fine steps at h / 2, with
        # h = dt * reference_dt_factor; a driver that passes its checks
        # builds a state
        monkeypatch.setattr(experiments, "build_initial_state", reach)
        assert 2**23 <= experiments.MAX_STEPS < 2**24
        changes = {"t_final": 1.0, "stepper": {"dt": 2.0**-23}, "reference_dt_factor": 2.0}
        cfg = rw.ExperimentConfig.from_dict(
            merged(rw.BUNDLED["peakon_antipeakon_gamma1"], changes))
        with pytest.raises(Reached):  # 2**23 steps at h / 2 = dt
            rw.compare_experiment(cfg, tmp_path / "out", quiet=True)
        with pytest.raises(ValueError) as info:  # the reference would take 2**24 steps
            rw.compare_experiment(replace(cfg, reference_dt_factor=1.0), tmp_path / "out",
                                  quiet=True)
        assert str(info.value) == (f"t_final=1.0 at dt={2.0**-24} takes {2**24:.3g} steps, "
                                   f"more than {experiments.MAX_STEPS}")

    @pytest.mark.parametrize("argv, warned", [
        (["converge"], 0), (["converge", "--dxi-list", "0.5,0.25,0.125"], 0),
        (["run"], 1), (["run", "--scheme", "strang"], 1),
        (["compare", "--scheme", "strang,explicit_euler"], 1)])
    def test_a_call_warns_once_of_each_dt_its_runs_take(self, tmp_path, argv, warned):
        # TINY's dt 0.1 does not divide t_final 0.25, which converge's dxi /
        # 4 do; a flag's edit of the config warns of nothing
        config = write_config(tmp_path, sweep={"dxi": [0.5, 0.25, 0.125]})
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert run_cli(*argv, "--config", config, "--out", str(tmp_path / "out")) == 0
        assert [str(w.message) for w in caught] == warned * [
            "t_final=0.25 is not a multiple of dt=0.1; the last step will be shortened"]
        # at the line that called the driver
        assert all(w.filename == cli.__file__ for w in caught)

    def test_only_the_driver_that_takes_a_dt_bounds_its_steps(
            self, tmp_path, capsys, monkeypatch):
        # run takes the config's dt, not the swept dxi's 1e-300 / 4
        config = write_config(tmp_path, sweep={"dxi": [0.5, 1e-300, 0.125]})
        assert run_cli("run", "--config", config, "--out", str(tmp_path / "run")) == 0
        monkeypatch.setattr(experiments, "build_initial_state", reach)
        out = tmp_path / "converge"
        assert run_cli("converge", "--config", config, "--out", str(out)) == 1
        dt = 1e-300 / 4
        assert json.loads(capsys.readouterr().err) == {
            "error": "ValueError", "message": f"t_final=0.25 at dt={dt} takes {0.25 / dt:.3g} "
                                              f"steps, more than {experiments.MAX_STEPS}"}
        assert not out.exists()

    def test_a_config_is_built_without_a_warning(self):
        # TINY's t_final 0.25 is not a multiple of its dt 0.1
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            cfg = rw.ExperimentConfig.from_dict(TINY)
            replace(cfg, sweep={"dxi": [0.5, 0.25, 0.125]})
            assert rw.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("changes", [
        {"t_final": float("inf")}, {"t_final": float("nan")}, {"reference_dt_factor": 0.0},
        {"reference_dt_factor": -1.0}, {"reference_dt_factor": float("nan")},
        {"reference_dt_factor": float("inf")}])
    def test_range_checks_hold_outside_json(self, changes):
        # the checks of the dataclass itself, which a config built in Python
        # meets without passing through the JSON reader
        with pytest.raises(ValueError):
            replace(rw.bundled_config("peakon_c1"), **changes)

    def test_an_unknown_bundled_name_points_to_list_experiments(self):
        with pytest.raises(KeyError, match="nope.*list-experiments"):
            rw.bundled_config("nope")

    def test_a_config_file_that_is_not_json_is_refused(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        out = tmp_path / "out"
        assert run_cli("run", "--config", str(path), "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err)
        assert set(report) == {"error", "message"} and report["error"] == "JSONDecodeError"
        assert not out.exists()

    def test_a_null_blend_is_the_default_blend(self, tmp_path):
        cuspon = {"kind": "cuspon", "c": 1.0, "x0": 0.0}
        plain = rw.ExperimentConfig.from_dict(merged(TINY, {"gamma": 5.0, "initial_data": cuspon}))
        config = write_config(tmp_path, gamma=5.0, initial_data={**cuspon, "blend": None})
        null = rw.load_config(config)
        assert null.wave_spec().blend is None
        a, b = rw.build_initial_state(plain), rw.build_initial_state(null)
        assert a.x.tobytes() == b.x.tobytes()
        assert (a.zeta_minus, a.zeta_plus, a.H_plus) == (b.zeta_minus, b.zeta_plus, b.H_plus)
        # its manifest writes the null, and replays the run
        assert run_cli("run", "--config", config, "--out", str(tmp_path / "a")) == 0
        manifest = tmp_path / "a" / "tiny" / "manifest.json"
        assert json.loads(manifest.read_text())["config"]["initial_data"]["blend"] is None
        assert run_cli("run", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        assert csv_bytes(tmp_path / "a" / "tiny") == csv_bytes(tmp_path / "b" / "tiny")

    def test_blend_pair_is_read_as_floats(self):
        changes = {"gamma": 5.0, "initial_data": {"kind": "cuspon", "blend": [0.05, 0.25]}}
        cfg = rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))
        assert cfg.wave_spec().blend == (0.05, 0.25)

    def test_integral_float_is_accepted_for_an_int_field(self):
        changes = {"output_stride": 2.0, "stepper": {"dt": 0.2, "fp_max_iter": 7.0}}
        cfg = rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))
        assert (cfg.output_stride, cfg.stepper.fp_max_iter) == (2, 7)
        assert type(cfg.output_stride) is int and type(cfg.stepper.fp_max_iter) is int

    @pytest.mark.parametrize("name", sorted(rw.BUNDLED))
    def test_bundled_config_round_trips(self, name):
        cfg = rw.bundled_config(name)
        assert rw.ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    @pytest.mark.parametrize("rows, named", [
        ("-1 0.5\n0 nan\n1 0.5", "line 4"),
        ("-1 0.5\n0 inf\n1 0.5", "line 4"),
        ("-1 0.5\n0 1\n0 0.9\n1 0.5", "x = 0.0"),
    ])
    def test_a_bad_profile_file_is_refused_before_the_run(self, tmp_path, capsys, rows, named):
        # a non-finite or repeated x reached the solver, which diverged on
        # NaN after writing a graph of NaNs
        path = tmp_path / "profile.txt"
        path.write_text(f"x u\n-2 0\n{rows}\n2 0\n")
        out = tmp_path / "out"
        config = write_config(tmp_path, gamma=0.8, initial_data={
            "kind": "profile_file", "path": str(path)})
        assert run_cli("run", "--config", config, "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ValueError"
        assert str(path) in report["message"] and named in report["message"]
        assert not out.exists()

    def test_a_manifest_that_names_the_refinement_replays(self, tmp_path, capsys):
        # the config of a manifest written while the projection's refinement
        # was the key m_ref, whose every manifest holds 16
        config = {
            "description": "", "gamma": 0.8, "grid": {"dxi": 0.25, "r": 10.0},
            "initial_data": {"kind": "gaussian_derivative"}, "m_ref": 16, "name": "gauss",
            "output_stride": 1, "reference_dt_factor": 0.5,
            "schemes": ["lie_trotter", "strang", "explicit_euler", "adaptive_rk"],
            "stepper": {"dt": 0.1, "fp_max_iter": 50, "fp_tol": 1e-08, "rk_abs_tol": 1e-09,
                        "rk_rel_tol": 1e-06, "scheme": "strang"},
            "sweep": {}, "t_final": 0.3}
        runs = {}
        for name, m_ref in (("old", 16), ("new", None), ("other", 8)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"config": merged(config, {"m_ref": m_ref})}))
            runs[name] = run_cli("run", "--config", str(path), "--out", str(tmp_path / name))
        assert (runs["old"], runs["new"]) == (0, 0)
        assert csv_bytes(tmp_path / "old" / "gauss") == csv_bytes(tmp_path / "new" / "gauss")
        # any other refinement is refused, not run at 16
        assert runs["other"] == 1
        report = json.loads(capsys.readouterr().err)
        assert report["error"] == "ValueError" and "m_ref" in report["message"]
        assert not (tmp_path / "other").exists()

    def test_profile_file_config_round_trips(self, tmp_path):
        path = tmp_path / "profile.txt"
        path.write_text("x u\n-1 0\n0 0.5\n1 0\n")
        changes = {"initial_data": {"kind": "profile_file", "path": str(path)}}
        cfg = rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))
        assert cfg.wave_spec().path == str(path)
        assert rw.ExperimentConfig.from_dict(cfg.to_dict()) == cfg


def test_import_loads_no_scipy():
    code = "import sys, rodwave; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_import_loads_no_writer_or_metadata_modules():
    # each is imported where it is used: multiprocessing by a lane that
    # forks, importlib.metadata by the first manifest
    code = ("import sys, rodwave; "
            "print([m for m in ('multiprocessing', 'importlib.metadata') if m in sys.modules])")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"


def test_python_m_rodwave_lists_every_bundled_experiment():
    # a source checkout on PYTHONPATH has no rodwave script
    src = str(Path(rw.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-m", "rodwave", "list-experiments"],
                         capture_output=True, text=True, check=True, env=env)
    assert [line.split()[0] for line in out.stdout.splitlines()] == list(rw.BUNDLED)
