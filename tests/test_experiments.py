import json
import subprocess
import sys

import pytest

import rodwave as rw
from rodwave import cli

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


def write_config(tmp_path, **changes):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps({**TINY, **changes}))
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


class TestCompareConverge:
    def test_compare_writes_every_scheme(self, tmp_path):
        config = write_config(tmp_path)
        assert run_cli("compare", "--config", config, "--out", str(tmp_path)) == 0
        out = tmp_path / "tiny_compare"
        rows = (out / "summary.csv").read_text().splitlines()
        assert [r.split(",")[0] for r in rows] == ["scheme", *rw.experiments.DEFAULT_SCHEMES]
        for scheme in rw.experiments.DEFAULT_SCHEMES:
            assert (out / scheme / "diagnostics.csv").is_file()
            assert (out / scheme / "final_graph.csv").is_file()

    def test_converge_writes_order_report(self, tmp_path):
        config = write_config(tmp_path, t_final=0.2)
        assert run_cli("converge", "--config", config, "--out", str(tmp_path)) == 0
        report = json.loads((tmp_path / "tiny_converge" / "order_report.json").read_text())
        assert report["dt_sweep"]["dt"] == TINY["sweep"]["dt"]
        assert 1.5 < report["dt_sweep"]["slope"] < 2.5

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
        ],
    )
    def test_json_error_report_and_exit_code(self, tmp_path, capsys, argv, changes):
        if changes is not None:
            argv = [*argv, "--config", write_config(tmp_path, t_final=0.2, **changes)]
        out = tmp_path / "out"
        assert run_cli(*argv, "--out", str(out)) == 1
        report = json.loads(capsys.readouterr().err)
        assert set(report) == {"error", "message"}
        assert not out.exists()  # rejected before any artifact is written

    @pytest.mark.parametrize(
        "changes",
        [{"output_stride": 0}, {"output_stride": -1}, {"scheme": "leapfrog"},
         {"schemes": ("strang", "rk4")}],
    )
    def test_config_validation(self, changes):
        base = rw.bundled_config("peakon_c1")
        with pytest.raises(ValueError):
            rw.ExperimentConfig(**{**vars(base), **changes})


def test_import_loads_no_scipy():
    code = "import sys, rodwave; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
