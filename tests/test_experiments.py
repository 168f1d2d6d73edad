import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import rodwave as rw
from rodwave import cli, experiments, stepping

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
        assert run_cli("run", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        assert csv_bytes(tmp_path / "a" / "tiny") == csv_bytes(tmp_path / "b" / "tiny")

    def test_printed_step_count_includes_short_last_step(self, tmp_path, capsys):
        cfg = rw.load_config(write_config(tmp_path))
        rw.run_experiment(cfg, tmp_path / "run")
        assert "steps=3 " in capsys.readouterr().out


class TestWriters:
    def test_graph_csv_reads_back_bit_for_bit(self, tmp_path):
        special = [0.1 + 0.2, -0.0, 1e-300, 5e-324, -2.5, 1.0]
        s = rw.LagrangianState.zero(rw.GridSpec.from_cells(3, 0.1), rw.Parameters(1.0))
        s = s.replace(U=special, w=special[::-1], h=np.abs(special), zeta=special)
        path = tmp_path / "graph.csv"
        rw.experiments.write_graph_csv(path, s)
        header, *rows = path.read_text().splitlines()
        assert header == "xi,y,U,q,w,h,I"
        read = np.array([[float(v) for v in row.split(",")] for row in rows])
        expected = np.stack([s.grid.cells, s.y, s.U, s.q, s.w, s.h, rw.invariants(s)]).T
        assert np.array_equal(read.view(np.uint64), expected.view(np.uint64))

    def test_integer_sweep_resolutions_are_written_as_floats(self, tmp_path):
        config = write_config(tmp_path, sweep={"dxi": [1, 0.5, 0.25]})
        assert run_cli("converge", "--config", config, "--out", str(tmp_path)) == 0
        rows = (tmp_path / "tiny_converge" / "errors.csv").read_text().splitlines()
        assert [r.split(",")[:2] for r in rows[1:]] == [
            ["dxi_sweep", "1.0"], ["dxi_sweep", "0.5"], ["dxi_sweep", "0.25"]]

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

    @pytest.mark.parametrize("name", ["peakon_antipeakon_gamma1", "collision_smooth"])
    @pytest.mark.parametrize(
        "step", [stepping.step_strang, stepping.step_lie_trotter, stepping._step_two_halves])
    def test_positivity_across_the_collision(self, name, step):
        # both collisions fold y between t = 1 and t = 2.6
        cfg = rw.bundled_config(name)
        minima = []
        _, reports = rw.evolve(
            rw.build_initial_state(cfg), 3.0, cfg.stepper, _step=step,
            observers=lambda j, t, s, r: minima.append((s.q.min(), s.h.min())))
        assert len(minima) == 31 and any(r.folded for r in reports)
        # the reports hold the states between two halves of a step too
        minima += [(r.min_q, r.min_h) for r in reports]
        assert np.min(minima) >= 0.0

    def test_compare_manifest_replays_the_run(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("compare", "--config", config, "--out", str(tmp_path / "a")) == 0
        manifest = tmp_path / "a" / "tiny_compare" / "manifest.json"
        assert json.loads(manifest.read_text())["reference"] == {
            "method": "richardson_strang", "dt": [0.05, 0.025]}
        assert run_cli("compare", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        a = csv_bytes(tmp_path / "a" / "tiny_compare")
        assert {"summary.csv", "reference_graph.csv", "strang/final_graph.csv",
                "adaptive_rk/diagnostics.csv"} <= set(a)
        assert a == csv_bytes(tmp_path / "b" / "tiny_compare")

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
        assert run_cli("converge", "--config", str(manifest), "--out", str(tmp_path / "b")) == 0
        a = csv_bytes(tmp_path / "a" / "tiny_converge")
        assert set(a) == {"errors.csv"}
        assert a == csv_bytes(tmp_path / "b" / "tiny_converge")

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
        ],
    )
    def test_json_error_report_and_exit_code(
        self, tmp_path, capsys, monkeypatch, argv, changes
    ):
        def no_run(*args, **kwargs):
            raise AssertionError("a rejected input reached the time loop")

        monkeypatch.setattr(experiments, "evolve", no_run)
        monkeypatch.setattr(experiments, "richardson_reference", no_run)
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
         {"initial_data": {"kind": "peakon", "c": 1.0, "x0": float("nan")}}],
    )
    def test_config_validation(self, changes):
        with pytest.raises(ValueError):
            rw.ExperimentConfig.from_dict(merged(rw.BUNDLED["peakon_c1"], changes))

    @pytest.mark.parametrize("changes", [
        {"t_final": float("inf")}, {"t_final": float("nan")}, {"reference_dt_factor": 0.0},
        {"reference_dt_factor": -1.0}, {"reference_dt_factor": float("nan")},
        {"reference_dt_factor": float("inf")}])
    def test_range_checks_hold_outside_json(self, changes):
        # the checks of the dataclass itself, which a config built in Python
        # meets without passing through the JSON reader
        with pytest.raises(ValueError):
            replace(rw.bundled_config("peakon_c1"), **changes)

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
