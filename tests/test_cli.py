"""CLI behaviors: subcommands, exit codes, file outputs, SVG plots."""

import argparse
import builtins
import importlib
import math
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratiogan
from ratiogan.catalogue import catalogue_lookup, catalogue_names
from ratiogan.cli import UsageError, build_parser, main
from ratiogan.svgplot import emit_svg_lineplot
from ratiogan.training import METRIC_COLUMNS, metrics_from_text

TINY_TRAIN = """
[loss]
name = {loss}

[train]
total_generator_iters = 12
eval_every = 6
eval_batch = 64
batch_size = 8
seed = 3

[density.target]
kind = gaussian
mean = 4.0
cov = 1.0

[density.origin]
kind = gaussian
mean = 0.0
cov = 1.0
"""

THREE_D_TRAIN = """
[loss]
name = MSE

[train]
total_generator_iters = 20
eval_every = 10
eval_batch = 64
batch_size = 8
seed = 3

[density.target]
kind = gaussian
mean = 4.0 0.0 -1.0
cov = 1.0

[density.origin]
kind = gaussian
mean = 0.0 0.0 0.0
cov = 1.0
"""


def run_cli(tmp_path, *args):
    return main(["--out", str(tmp_path / "out"), *args])


def blas_threads_after_import(**env):
    """OPENBLAS_NUM_THREADS in a fresh interpreter after ``import ratiogan``,
    started with the BLAS thread variables given and no others."""
    clean = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    clean["PYTHONPATH"] = str(Path(ratiogan.__file__).parents[1])
    code = "import os, ratiogan; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
    done = subprocess.run(
        [sys.executable, "-c", code], env={**clean, **env}, capture_output=True, text=True, check=True, timeout=60
    )
    return done.stdout.strip()


class TestBlasThreadDefault:
    def test_one_thread_when_unset(self):
        assert blas_threads_after_import() == "1"

    def test_caller_count_kept(self):
        assert blas_threads_after_import(OPENBLAS_NUM_THREADS="2") == "2"

    def test_openmp_count_respected(self):
        assert blas_threads_after_import(OMP_NUM_THREADS="2") == "None"


def modules_loaded_after(code):
    """The names in sys.modules of a fresh interpreter after it runs code."""
    env = {**os.environ, "PYTHONPATH": str(Path(ratiogan.__file__).parents[1])}
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(' '.join(sys.modules))"],
        env=env, capture_output=True, text=True, check=True, timeout=60,
    )
    return set(done.stdout.splitlines()[-1].split())


TRAINING_STACK = ("ratiogan.training", "ratiogan.nets", "ratiogan.metrics", "ratiogan.svgplot")


class TestImports:
    """A process loads only the modules of the command it runs."""

    def test_cli_import_loads_no_command_module(self):
        loaded = modules_loaded_after("import ratiogan.cli")
        unwanted = (*TRAINING_STACK, "ratiogan.grid_solver", "ratiogan.verify", "concurrent.futures")
        assert [m for m in unwanted if m in loaded] == []

    def test_verify_loads_no_training_stack(self, tmp_path):
        loaded = modules_loaded_after(
            f"from ratiogan.cli import main; main(['--out', {str(tmp_path)!r}, 'verify', '--loss', 'MSE'])"
        )
        assert "ratiogan.verify" in loaded
        assert [m for m in TRAINING_STACK if m in loaded] == []

    def test_solve_grid_loads_no_training_stack_or_masked_arrays(self, tmp_path):
        loaded = modules_loaded_after(
            f"from ratiogan.cli import main; "
            f"main(['--out', {str(tmp_path)!r}, 'solve-grid', '--loss', 'MSE', '--max-iters', '5'])"
        )
        assert "ratiogan.grid_solver" in loaded
        assert [m for m in (*TRAINING_STACK, "numpy.ma") if m in loaded] == []

    def test_every_exported_name_resolves(self):
        """Each name in a module's __all__ exists, so ``from ratiogan.<module> import *`` works."""
        names = ["ratiogan"] + [f"ratiogan.{m.name}" for m in pkgutil.iter_modules(ratiogan.__path__)
                                if m.name != "__main__"]
        exported = [importlib.import_module(name) for name in names]
        exported = [module for module in exported if hasattr(module, "__all__")]
        assert len(exported) == 11
        for module in exported:
            namespace = {}
            exec(f"from {module.__name__} import *", namespace)
            assert set(module.__all__) <= set(namespace), module.__name__


class TestLossesCommand:
    def test_lists_thirteen_rows(self, tmp_path, capsys):
        assert run_cli(tmp_path, "losses") == 0
        out = capsys.readouterr().out
        body = [l for l in out.splitlines()[1:] if l.strip()]
        assert len(body) == 13

    def test_subclass_filter(self, tmp_path, capsys):
        assert run_cli(tmp_path, "losses", "--filter", "subclass=B") == 0
        out = capsys.readouterr().out
        names = [l.split()[0] for l in out.splitlines()[1:] if l.strip()]
        assert names == ["B1a", "B1b", "Exponential", "B2"]

    def test_invertible_filter(self, tmp_path, capsys):
        assert run_cli(tmp_path, "losses", "--filter", "invertible=false") == 0
        out = capsys.readouterr().out
        names = [l.split()[0] for l in out.splitlines()[1:] if l.strip()]
        assert names == ["Hinge", "Wasserstein"]

    def test_range_filter(self, tmp_path, capsys):
        assert run_cli(tmp_path, "losses", "--filter", "range=[0,1]") == 0
        out = capsys.readouterr().out
        names = [l.split()[0] for l in out.splitlines()[1:] if l.strip()]
        assert names == ["CrossEntropy", "C2"]

    def test_notes_follow_their_rows(self, tmp_path, capsys):
        assert run_cli(tmp_path, "losses", "--filter", "subclass=C", "--notes") == 0
        lines = capsys.readouterr().out.splitlines()[1:]
        assert [l.split()[0] for l in lines[::2]] == ["CrossEntropy", "C2"]
        assert [l.split()[0] for l in lines[1::2]] == ["note:", "note:"]
        assert lines[3].endswith("note: " + catalogue_lookup("C2").derivation_note)

    def test_package_runs_as_a_module(self, tmp_path, capsys):
        """``python -m ratiogan losses`` is the ``ratiogan losses`` command."""
        env = {**os.environ, "PYTHONPATH": str(Path(ratiogan.__file__).parents[1])}
        done = subprocess.run([sys.executable, "-m", "ratiogan", "losses"], env=env, cwd=tmp_path,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0 and done.stderr == ""
        assert run_cli(tmp_path, "losses") == 0
        assert done.stdout == capsys.readouterr().out

    def test_unknown_filter_key(self, tmp_path, capsys):
        assert run_cli(tmp_path, "losses", "--filter", "color=red") == 2

    @pytest.mark.parametrize("spec", ["subclass", "invertible=maybe", "invertible", "color=red"])
    def test_bad_filter_is_one_line_usage_error(self, tmp_path, capsys, spec):
        assert run_cli(tmp_path, "losses", "--filter", spec) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"losses: bad --filter {spec!r}; use subclass=, invertible=true|false, range=\n"
        )


class TestVerifyCommand:
    def test_single_loss_passes(self, tmp_path, capsys):
        assert run_cli(tmp_path, "verify", "--loss", "MSE") == 0
        assert (tmp_path / "out" / "verify_report.txt").exists()
        assert (tmp_path / "out" / "verify_report.jsonl").exists()
        assert not list((tmp_path / "out").glob("*.incomplete"))

    def test_limit_loss_skips_cleanly(self, tmp_path, capsys):
        assert run_cli(tmp_path, "verify", "--loss", "Hinge") == 0
        out = capsys.readouterr().out
        assert "SKIP" in out

    def test_unknown_selector_is_usage_error(self, tmp_path, capsys):
        assert run_cli(tmp_path, "verify", "--loss", "nosuch") == 2
        assert capsys.readouterr().err == (
            f"verify: unknown loss 'nosuch'; valid names: {', '.join(catalogue_names())}, or all\n"
        )

    def test_all_ignores_case_like_loss_names(self, tmp_path, capsys):
        assert run_cli(tmp_path / "lower", "verify", "--loss", "all") == 0
        lower = capsys.readouterr().out
        assert run_cli(tmp_path / "upper", "verify", "--loss", "ALL") == 0
        assert capsys.readouterr().out == lower
        for name in ("verify_report.txt", "verify_report.jsonl"):
            upper = (tmp_path / "upper" / "out" / name).read_bytes()
            assert upper == (tmp_path / "lower" / "out" / name).read_bytes()

    @pytest.mark.parametrize("selector,name", [("mse,MSE", "MSE"), ("B1b, MSE ,b1B", "B1b")])
    def test_repeated_loss_is_usage_error(self, tmp_path, capsys, selector, name):
        """A loss named twice, in any case, is refused, not checked twice."""
        assert run_cli(tmp_path, "verify", "--loss", selector) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"verify: --loss {selector!r} names {name} more than once\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("flag", ["--argmax-tol", "--minimizer-tol", "--value-tol", "--deriv-tol"])
    def test_tolerance_flags_are_gone(self, tmp_path, capsys, flag):
        """The standard is fixed: a tolerance flag is an unknown argument, and nothing is checked or written."""
        with pytest.raises(SystemExit) as exited:
            run_cli(tmp_path, "verify", "--loss", "MSE", flag, "1e-6")
        assert exited.value.code == 2
        assert f"unrecognized arguments: {flag} 1e-6" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_stdout_is_the_written_table(self, tmp_path, capsys):
        assert run_cli(tmp_path, "verify", "--loss", "MSE,Hinge") == 0
        out = capsys.readouterr().out
        table = (tmp_path / "out" / "verify_report.txt").read_text()
        assert out == table + "checked 2 losses; all checks passed or skipped\n"


class TestSolveGridCommand:
    def test_uniform_solve(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--uniform", "--log-every", "25")
        assert rc == 0
        out = capsys.readouterr().out
        assert "linf(r - 1)" in out
        linf = float(out.split("linf(r - 1) =")[1].split()[0])
        assert linf <= 1e-3
        trace = (tmp_path / "out" / "solve_trace.tsv").read_text()
        assert trace.splitlines()[0].startswith("iteration\t")

    def test_summary_lines(self, tmp_path, capsys):
        """The printed value is the saddle value under the raw psi; the
        trace's objective column is the psi-normalized cost, another number."""
        rc = run_cli(tmp_path, "solve-grid", "--loss", "C2", "--n-points", "3", "--window", "-1", "1",
                     "--max-iters", "3")
        assert rc == 1
        assert capsys.readouterr().out == (
            "loss=C2 n=3 iterations=3\n"
            "linf(r - 1) = 1.321e+00\n"
            "minmax value = 0.3761595841595639\n"
            "converged   = no (tol 1e-10 not met)\n"
        )
        last = (tmp_path / "out" / "solve_trace.tsv").read_text().splitlines()[-1].split("\t")
        assert last[:2] == ["3", "-0.12384041584043605"]

    def test_unit_start_builds_no_generator(self, tmp_path, capsys, monkeypatch):
        """--init ones draws nothing, so it never loads numpy.random."""
        def refused(*args, **kwargs):
            raise AssertionError("default_rng called")

        monkeypatch.setattr(np.random, "default_rng", refused)
        assert run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--init", "ones", "--max-iters", "3") == 0
        assert (tmp_path / "out" / "solve_field.tsv").exists()

    def test_unconverged_solve_exits_one_with_files(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--uniform", "--max-iters", "5")
        assert rc == 1
        assert "converged   = no" in capsys.readouterr().out
        trace = (tmp_path / "out" / "solve_trace.tsv").read_text().splitlines()
        assert trace[-1].split("\t")[0] == "5"
        assert (tmp_path / "out" / "solve_field.tsv").exists()
        assert not list((tmp_path / "out").glob("*.incomplete"))

    def test_diverged_solve_is_one_line(self, tmp_path, capsys, monkeypatch):
        import ratiogan.grid_solver as grid_solver
        from ratiogan.grid_solver import SolverDiverged, SolveTrace

        def diverge(*args, **kwargs):
            raise SolverDiverged("objective increased for 50 consecutive iterations", SolveTrace())

        monkeypatch.setattr(grid_solver, "solve_minmax_grid", diverge)
        assert run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--uniform") == 1
        err = capsys.readouterr().err
        assert err == "solve-grid: objective increased for 50 consecutive iterations\n"
        assert not (tmp_path / "out").exists()

    def test_limit_loss_rejected(self, tmp_path, capsys):
        assert run_cli(tmp_path, "solve-grid", "--loss", "Wasserstein", "--uniform") == 2
        assert "invertible" in capsys.readouterr().err

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--config", str(missing)) == 2
        assert capsys.readouterr().err == f"solve-grid: [Errno 2] No such file or directory: '{missing}'\n"
        assert not (tmp_path / "out").exists()

    def test_narrow_density_is_usage_error(self, tmp_path, capsys):
        """A ring too thin for the 64-point grid is reported, not raised."""
        cfg = tmp_path / "ring.cfg"
        cfg.write_text("[density.target]\nkind = ring\nsigma = 0.02\n")
        assert run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "window captures only 0.028 of the density mass" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()


    def test_3d_density_is_usage_error(self, tmp_path, capsys):
        """A 3-D target has a density, but the grid is 1-D or 2-D: exit 2 before anything is staged."""
        cfg = tmp_path / "three.cfg"
        cfg.write_text(THREE_D_TRAIN)
        assert run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--config", str(cfg)) == 2
        assert capsys.readouterr().err == "solve-grid: grids are 1-D or 2-D only, not 3-D\n"
        assert not (tmp_path / "out").exists()

    def test_short_window_warns_in_one_line(self, tmp_path, capsys):
        """discretize's low-coverage warning reaches stderr as one solve-grid line, not a raw warning."""
        rc = run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--window", "-2.5", "2.5", "--max-iters", "5")
        assert rc == 1  # five iterations do not converge
        out, err = capsys.readouterr()
        assert err == "solve-grid: window captures 0.9889 < 0.99 of the density mass\n"
        assert "converged   = no" in out
        assert (tmp_path / "out" / "solve_field.tsv").exists()


class TestTrainCommand:
    def test_run_produces_artifacts(self, tmp_path, capsys):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        assert run_cli(tmp_path, "train", "--config", str(cfg)) == 0
        rundir = tmp_path / "out" / "tiny"
        for name in ("config.cfg", "metrics.tsv", "gen_final.json", "disc_final.json", "samples_final.csv"):
            assert (rundir / name).exists(), name
        plots = {p.name for p in (rundir / "plots").iterdir()}
        assert {"likelihood_ratio.svg", "objectives.svg", "distances.svg", "penalty.svg"} <= plots
        assert not list(rundir.rglob("*.incomplete"))

    def test_ratio_plot_has_reference_line(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        run_cli(tmp_path, "train", "--config", str(cfg))
        svg = (tmp_path / "out" / "tiny" / "plots" / "likelihood_ratio.svg").read_text()
        assert "stroke-dasharray" in svg  # the unit-ratio guide
        assert svg.count("<polyline") == 2

    def test_limit_loss_run_omits_ratio_plot(self, tmp_path):
        cfg = tmp_path / "wass.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="Wasserstein"))
        assert run_cli(tmp_path, "train", "--config", str(cfg)) == 0
        plots = {p.name for p in (tmp_path / "out" / "wass" / "plots").iterdir()}
        assert "likelihood_ratio.svg" not in plots

    def test_invalid_config_refused_before_work(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("[loss]\nname = MSE\n")
        assert run_cli(tmp_path, "train", "--config", str(cfg)) == 2
        err = capsys.readouterr().err
        assert "density.target" in err and "density.origin" in err
        assert not (tmp_path / "out" / "bad").exists() or not list(
            (tmp_path / "out" / "bad").iterdir()
        )

    def test_rectifier_with_penalty_refused_before_work(self, tmp_path, capsys):
        cfg = tmp_path / "relu.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        rc = run_cli(
            tmp_path, "train", "--config", str(cfg), "--set", "discriminator.hidden=relu"
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "gradient penalty" in err and "Traceback" not in err
        assert not (tmp_path / "out" / "relu").exists()

    BAD_SAMPLE_FILES = {"x\n1.0\n2.0\n": "non-numeric field at line 1", None: "No such file",
                        "1.0\nnan\n2.0\n": "non-finite field at line 2"}

    @pytest.mark.parametrize("content", list(BAD_SAMPLE_FILES))
    def test_bad_sample_file_refused_before_staging(self, tmp_path, capsys, content):
        """A header line, a missing path or a NaN row fails with exit 2 and stages nothing."""
        data = tmp_path / "target.csv"
        if content is not None:
            data.write_text(content)
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        overrides = ["--set", "density.target.kind=file", "--set", f"density.target.path={data}"]
        assert run_cli(tmp_path, "train", "--config", str(cfg), *overrides) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err and err.count("\n") == 1
        assert self.BAD_SAMPLE_FILES[content] in err
        assert not (tmp_path / "out" / "csv").exists()

    def test_sample_file_is_read_once(self, tmp_path, monkeypatch):
        data = tmp_path / "target.csv"
        data.write_text("".join(f"{v!r}\n" for v in (3.5, 4.0, 4.5, 5.0)))
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        reads, real_open = [], builtins.open

        def counting_open(file, *args, **kwargs):
            if str(file) == str(data):
                reads.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        overrides = ["--set", "density.target.kind=file", "--set", f"density.target.path={data}"]
        assert run_cli(tmp_path, "train", "--config", str(cfg), *overrides) == 0
        assert len(reads) == 1
        assert (tmp_path / "out" / "csv" / "metrics.tsv").exists()

    def test_abort_prints_no_numpy_warnings(self, tmp_path):
        """The abort message is the run's only report of its non-finite step."""
        env = {**os.environ, "PYTHONPATH": str(Path(ratiogan.__file__).parents[1])}
        args = ["--out", str(tmp_path / "out"), "train", "--preset", "shift1d-B1a", "--set", "train.learning_rate=10"]
        done = subprocess.run(
            [sys.executable, "-m", "ratiogan.cli", *args], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 1
        assert done.stderr == ""
        assert done.stdout == (
            "shift1d-B1a: aborted (non-finite discriminator objective at iteration 1); last-good checkpoint kept\n"
        )

    @pytest.mark.parametrize("preset,rate,column,plots", [
        ("shift1d-MSE", "1e100", "disc_objective", ["likelihood_ratio.svg", "penalty.svg"]),
        ("shift1d-B2", "1e20", "lr_real_mean", ["distances.svg", "objectives.svg", "penalty.svg"]),
    ], ids=["nan-objective", "ratio-overflow"])
    def test_non_finite_eval_aborts(self, tmp_path, capsys, preset, rate, column, plots):
        """A non-finite eval value ends the run as a step abort does: one line,
        exit 1, the nets of that eval, its record kept, a plot for every column
        pair with a finite value, and nothing left staged."""
        settings = (f"train.learning_rate={rate}", "train.critic_iters=1", "train.eval_every=1",
                    "train.total_generator_iters=3", "train.eval_batch=256", "train.checkpoint_every=1")
        args = ["train", "--preset", preset, *(a for setting in settings for a in ("--set", setting))]
        assert run_cli(tmp_path, *args) == 1
        assert capsys.readouterr() == (
            f"{preset}: aborted (non-finite {column} at iteration 1); last-good checkpoint kept\n", "")
        run = tmp_path / "out" / preset
        assert not list(run.rglob("*.incomplete"))
        records = metrics_from_text((run / "metrics.tsv").read_text())
        assert [r.generator_iteration for r in records] == [1]
        assert not math.isfinite(getattr(records[0], column))
        assert sorted(p.name for p in (run / "plots").iterdir()) == plots
        for net in ("gen", "disc"):
            assert (run / f"{net}_final.json").read_text() == (run / f"{net}_iter1.json").read_text()

    def test_3d_run_trains_and_echoes(self, tmp_path, capsys):
        """A 3-D target and origin train to finite metrics; the echoed config re-parses equal."""
        from ratiogan.config import train_config_from_text

        cfg = tmp_path / "three.cfg"
        cfg.write_text(THREE_D_TRAIN)
        assert run_cli(tmp_path, "train", "--config", str(cfg)) == 0
        header, *rows = (tmp_path / "out" / "three" / "metrics.tsv").read_text().splitlines()
        assert [row.split("\t")[0] for row in rows] == ["10", "20"]
        assert all(np.isfinite(float(v)) for row in rows for v in row.split("\t"))
        assert np.loadtxt(tmp_path / "out" / "three" / "samples_final.csv", delimiter=",", ndmin=2).shape[1] == 3
        echo = tmp_path / "echo.cfg"
        assert run_cli(tmp_path, "train", "--config", str(cfg), "--echo-config", str(echo)) == 0
        assert train_config_from_text(echo.read_text()) == train_config_from_text(THREE_D_TRAIN)

    def test_missing_config_is_usage_error(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        assert run_cli(tmp_path, "train", "--config", str(missing)) == 2
        assert capsys.readouterr().err == f"train: [Errno 2] No such file or directory: '{missing}'\n"
        assert not (tmp_path / "out").exists()

    def test_rectifier_without_penalty_runs(self, tmp_path):
        cfg = tmp_path / "relu.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        overrides = ["--set", "discriminator.hidden=relu", "--set", "train.lambda=0"]
        assert run_cli(tmp_path, "train", "--config", str(cfg), *overrides) == 0
        assert (tmp_path / "out" / "relu" / "metrics.tsv").exists()

    def test_override_applies(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        echo = tmp_path / "echo.cfg"
        assert (
            run_cli(
                tmp_path,
                "train",
                "--config",
                str(cfg),
                "--set",
                "train.lambda=0.25",
                "--echo-config",
                str(echo),
            )
            == 0
        )
        assert "lambda = 0.25" in echo.read_text()

    def test_lambda_sweep_expands_to_four_runs(self, tmp_path, capsys):
        from ratiogan.cli import _preset_text

        runs = _preset_text("lambda-sweep")
        assert [name for name, _ in runs] == [
            "lambda-sweep/lam0.01",
            "lambda-sweep/lam0.1",
            "lambda-sweep/lam1",
            "lambda-sweep/lam10",
        ]
        lams = []
        from ratiogan.config import train_config_from_text

        for _, text in runs:
            lams.append(train_config_from_text(text).lam)
        assert lams == [0.01, 0.1, 1.0, 10.0]

    def test_sweep_jobs_match_one_process(self, tmp_path, capsys):
        """Each run of a --jobs sweep writes the files it writes launched alone."""
        tiny = ["--set", "train.total_generator_iters=2", "--set", "train.eval_every=1",
                "--set", "train.eval_batch=16"]
        outputs = []
        for jobs in ("1", "2"):
            out = tmp_path / f"jobs{jobs}"
            assert main(["--out", str(out), "train", "--preset", "lambda-sweep", *tiny, "--jobs", jobs]) == 0
            outputs.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert len([p for p in outputs[0] if p.name == "metrics.tsv"]) == 4
        assert outputs[1] == outputs[0]

    def test_unknown_preset(self, tmp_path, capsys):
        assert run_cli(tmp_path, "train", "--preset", "nope") == 2

    def test_shift_preset_resolves_loss_names(self):
        from ratiogan.cli import _preset_text
        from ratiogan.config import train_config_from_text

        (name, text), = _preset_text("shift1d-mse")
        assert train_config_from_text(text).loss_name == "MSE"


class TestConfigErrors:
    NO_TARGET = "[loss]\nname = MSE\n"
    NEGATIVE_COV = "[density.target]\nkind = gaussian\nmean = 0.0\ncov = -1.0\n"
    NO_HEADER = "kind = gaussian\n"
    NO_MEAN = TINY_TRAIN.format(loss="MSE").replace("mean = 4.0\n", "")
    SHIFT = ["train", "--preset", "shift1d-MSE", "--set"]
    SHORT = ["--set", "train.total_generator_iters=2"]  # keeps a run that is wrongly accepted short
    GARGET = TINY_TRAIN.format(loss="MSE") + "\n[density.garget]\nkind = gaussian\nmean = 4.0\n"

    @pytest.mark.parametrize(
        "config,args,message",
        [
            (NO_TARGET, ["solve-grid", "--loss", "MSE"], "missing [density.target] section"),
            (NEGATIVE_COV, ["solve-grid", "--loss", "MSE"], "covariance must be positive definite"),
            (NO_HEADER, ["solve-grid", "--loss", "MSE"], "no section headers"),
            (NO_HEADER, ["train"], "no section headers"),
            (TINY_TRAIN.format(loss="Nope"), ["train"], "unknown loss 'Nope'"),
            (None, SHIFT + ["foo"], "is not of the form section.key=value"),
            (None, SHIFT + ["train.foo=1", "--echo-config", "ECHO"], "unknown [train] key 'foo'"),
            (None, SHIFT + ["discriminator.hidden=swish"], "discriminator: unknown activation 'swish'"),
            (None, SHIFT + ["generator.hidden_widths=0"], "generator: layer widths must be >= 1"),
            (None, SHIFT + ["train.eval_batch=1"], "eval_batch must be >= 2"),
            (NO_MEAN, ["train"], "[density.target] kind = gaussian needs a 'mean' key"),
            (NO_MEAN, ["solve-grid", "--loss", "MSE"], "[density.target] kind = gaussian needs a 'mean' key"),
            (None, SHIFT + ["density.target.kind=uniform"], "[density.target] kind = uniform needs a 'low' key"),
            (None, SHIFT + ["density.origin.kind=uniform", "--set", "density.origin.low=0"],
             "[density.origin] kind = uniform needs a 'high' key"),
            (None, SHIFT + ["density.target.kind=mixture"], "[density.target] kind = mixture needs a 'components' key"),
            (None, SHIFT + ["density.target.kind=file"], "[density.target] kind = file needs a 'path' key"),
            (None, SHIFT + ["train.beta2=1"], "beta2 must be in [0, 1)"),
            (None, SHIFT + ["train.beta1=1.5"], "beta1 must be in [0, 1)"),
            (None, SHIFT + ["train.learning_rate=-1"], "learning_rate must be positive"),
            (None, SHIFT + ["train.learning_rate=0"], "learning_rate must be positive"),
            (None, ["solve-grid", "--loss", "MSE", "--log-every", "0"], "solve-grid: --log-every must be >= 1"),
            (None, ["solve-grid", "--loss", "MSE", "--uniform", "--n-points", "0"],
             "solve-grid: --n-points must be >= 2"),
            (None, ["solve-grid", "--loss", "MSE", "--uniform", "--window", "1", "1"],
             "solve-grid: --window 1 1 must be two finite numbers, low first, with low < high"),
            (None, ["verify", "--loss", ","], "verify: --loss ',' names no loss"),
            (None, ["solve-grid", "--loss", "MSE", "--max-iters", "0"], "solve-grid: --max-iters must be >= 1"),
            (None, ["solve-grid", "--loss", "MSE", "--max-iters", "-3"], "solve-grid: --max-iters must be >= 1"),
            (None, ["solve-grid", "--loss", "MSE", "--tol", "-1"], "solve-grid: --tol must be >= 0"),
            (None, ["solve-grid", "--loss", "MSE", "--tol", "nan"], "solve-grid: --tol must be >= 0"),
            (None, ["train", "--preset", "shift1d-MSE", "--jobs", "0"], "train: --jobs must be >= 1"),
            (None, SHIFT + ["train.seed=-1"], "seed must be >= 0"),
            (None, SHIFT + ["train.lambda=nan"], "lambda must be nonnegative and finite"),
            (None, SHIFT + ["train.lambda=inf"], "lambda must be nonnegative and finite"),
            (None, SHIFT + ["train.learning_rate=inf"], "learning_rate must be positive and finite"),
            (None, SHIFT + ["train.checkpoint_every=-5"], "checkpoint_every must be >= 0"),
            (None, ["train", "--preset", "ring2d-MSE", "--set", "density.target.sigmma=0.5"],
             "unknown [density.target] key 'sigmma'"),
            (TINY_TRAIN.format(loss="MSE").replace("cov = 1.0\n", "cov = 1.0\nmodse = 8\n", 1),
             ["solve-grid", "--loss", "MSE"], "unknown [density.target] key 'modse'"),
            (None, ["solve-grid", "--loss", "MSE", "--uniform", "--window", "0", "nan"],
             "solve-grid: --window 0 nan must be two finite numbers, low first"),
            (None, ["solve-grid", "--loss", "MSE", "--uniform", "--window", "4", "-4"],
             "solve-grid: --window 4 -4 must be two finite numbers, low first"),
            (None, ["solve-grid", "--loss", "MSE", "--window", "0", "inf"],
             "solve-grid: --window 0 inf must be two finite numbers, low first"),
            (None, ["solve-grid", "--loss", "MSE", "--window", "1", "1"],
             "solve-grid: --window 1 1 must be two finite numbers, low first, with low < high"),
            (TINY_TRAIN.format(loss="MSE"), ["solve-grid", "--loss", "MSE", "--uniform"],
             "solve-grid: --uniform ignores the density of --config"),
            (None, SHIFT + ["density.target.mean=nan"], "shift1d-MSE: gaussian mean and covariance must be finite"),
            (None, SHIFT + ["density.origin.cov=inf"], "shift1d-MSE: gaussian mean and covariance must be finite"),
            (None, ["train", "--preset", "ring2d-MSE", "--set", "density.target.radius=inf"],
             "ring2d-MSE: radius must be finite"),
            (None, ["train", "--preset", "ring2d-MSE", "--set", "density.target.sigma=nan"],
             "ring2d-MSE: sigma must be positive and finite"),
            (None, SHIFT + ["density.origin.kind=uniform", "--set", "density.origin.low=0", "--set",
                            "density.origin.high=inf"], "shift1d-MSE: box corners must be finite"),
            (TINY_TRAIN.format(loss="MSE").replace("mean = 4.0", "mean = inf"), ["solve-grid", "--loss", "MSE"],
             "solve-grid: gaussian mean and covariance must be finite"),
            (None, ["solve-grid", "--loss", "MSE", "--init-seed", "-1"], "solve-grid: --init-seed must be >= 0"),
            (None, SHIFT + ["trian.lambda=0", *SHORT], "shift1d-MSE: invalid configuration: unknown section [trian]"),
            (GARGET, ["train"], "run: invalid configuration: unknown section [density.garget]"),
            (GARGET, ["solve-grid", "--loss", "MSE"], "solve-grid: unknown section [density.garget]"),
            (None, SHIFT + ["loss.nmae=B2", *SHORT], "shift1d-MSE: invalid configuration: unknown [loss] key 'nmae'"),
            (None, ["train", "--preset", "lambda-sweep", "--set", "train.lambda=1.0", *SHORT],
             "lambda-sweep: each run sets its own train.lambda; drop the train.lambda override"),
            (None, ["solve-grid", "--loss", "MSE", "--tol", "inf", "--max-iters", "3"],
             "solve-grid: --tol must be >= 0 and finite"),
            (TINY_TRAIN.format(loss="Nope"), ["train", "--preset", "shift1d-MSE", "--echo-config", "ECHO"],
             "train: --preset ignores --config; give one of them"),
        ],
        ids=["solve-no-target", "solve-negative-cov", "solve-no-header", "train-no-header",
             "train-unknown-loss", "train-bad-override", "echo-unknown-key", "train-unknown-hidden-unit",
             "train-zero-width", "train-eval-batch-one", "train-missing-mean", "solve-missing-mean",
             "train-missing-low", "train-missing-high", "train-missing-components", "train-missing-path",
             "train-beta2-one", "train-beta1-above-one", "train-negative-learning-rate",
             "train-zero-learning-rate", "solve-log-every-zero", "solve-uniform-no-points",
             "solve-uniform-empty-window", "verify-no-loss-names", "solve-max-iters-zero",
             "solve-max-iters-negative", "solve-negative-tol", "solve-nan-tol", "train-jobs-zero",
             "train-negative-seed", "train-nan-lambda", "train-inf-lambda", "train-inf-learning-rate",
             "train-negative-checkpoint-every", "train-misspelt-density-key", "solve-misspelt-density-key",
             "solve-uniform-nan-window", "solve-uniform-reversed-window", "solve-inf-window", "solve-empty-window",
             "solve-uniform-with-config", "train-nan-target-mean", "train-inf-origin-cov", "train-inf-ring-radius",
             "train-nan-ring-sigma", "train-inf-uniform-high", "solve-inf-mean", "solve-negative-init-seed",
             "train-misspelt-section", "train-misspelt-density-section", "solve-misspelt-density-section",
             "train-misspelt-loss-key", "sweep-lambda-override", "solve-inf-tol", "train-preset-with-config"],
    )
    def test_one_line_usage_error_and_nothing_written(self, tmp_path, capsys, config, args, message):
        echo = tmp_path / "echo.cfg"
        args = [str(echo) if a == "ECHO" else a for a in args]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            args += ["--config", str(cfg)]
        assert run_cli(tmp_path, *args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.endswith("\n") and "Traceback" not in err
        assert message in err
        assert not (tmp_path / "out").exists()
        assert not echo.exists()

    @pytest.mark.parametrize("args", [
        ["verify"], ["solve-grid", "--loss", "MSE"], ["train", "--preset", "shift1d-MSE"],
        ["report", "--metrics", "nope.tsv"],
    ], ids=["verify", "solve-grid", "train", "report"])
    def test_output_root_that_cannot_be_a_directory(self, tmp_path, capsys, args):
        """Refused in main before the command runs (report's missing metrics
        file is not even looked at), and nothing is created."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        for root in (blocker, blocker / "sub"):
            assert main(["--out", str(root), *args]) == 2
            message = f"{args[0]}: cannot make output root {root}: {blocker} is not a directory\n"
            assert capsys.readouterr() == ("", message)
        assert list(tmp_path.iterdir()) == [blocker]

    def test_commands_raise_usage_error(self, tmp_path, capsys):
        """Each command raises bad input as a UsageError; only main prints it and returns 2."""
        for argv in (["losses", "--filter", "color=red"], ["verify", "--loss", "nosuch"],
                     ["solve-grid", "--loss", "Hinge"], ["train", "--preset", "nope"],
                     ["report", "--metrics", str(tmp_path / "nope.tsv")]):
            args = build_parser().parse_args(["--out", str(tmp_path / "out"), *argv])
            with pytest.raises(UsageError):
                args.fn(args)
        assert capsys.readouterr() == ("", "")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("target,message", [
        (".", "train: [Errno 21] Is a directory: '{}'"),
        ("missing/x.cfg", "train: [Errno 2] No such file or directory: '{}'"),
    ], ids=["directory", "missing-parent"])
    def test_echo_config_path_that_cannot_be_written(self, tmp_path, capsys, target, message):
        """One usage line; neither the echo file, its directory nor the output root is made."""
        echo = tmp_path / target
        assert run_cli(tmp_path, "train", "--preset", "shift1d-MSE", "--echo-config", str(echo)) == 2
        assert capsys.readouterr() == ("", message.format(echo) + "\n")
        assert list(tmp_path.iterdir()) == []

    def test_echo_config_refuses_a_multi_run_preset(self, tmp_path, capsys):
        echo = tmp_path / "echo.cfg"
        assert run_cli(tmp_path, "train", "--preset", "lambda-sweep", "--echo-config", str(echo)) == 2
        assert capsys.readouterr().err == "train: --echo-config takes one run; lambda-sweep has 4\n"
        assert not echo.exists()

    @pytest.mark.parametrize("args,message", [
        (["solve-grid", "--loss", "Hinge"], "solve-grid: ideal solver requires invertible omega; Hinge has none"),
        (["solve-grid", "--loss", "MSE", "--config", "FILE_TARGET"],
         "solve-grid: needs an analytic density, not a sample file"),
        (["train"], "train: needs --config or --preset"),
    ], ids=["solve-limit-loss", "solve-file-target", "train-no-run"])
    def test_message_names_its_command(self, tmp_path, capsys, monkeypatch, args, message):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "samples.csv").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "file.cfg").write_text("[density.target]\nkind = file\npath = samples.csv\n")
        args = [str(tmp_path / "file.cfg") if a == "FILE_TARGET" else a for a in args]
        assert run_cli(tmp_path, *args) == 2
        assert capsys.readouterr() == ("", message + "\n")
        assert not (tmp_path / "out").exists()

    def test_one_row_sample_file_target_has_no_mmd_bandwidth(self, tmp_path, capsys, monkeypatch):
        """Every pair of a one-row target is at distance 0, so the run's MMD
        kernel would have no width: refused before anything is staged."""
        self._refused(tmp_path, capsys, monkeypatch, "4.0\n", "0.0")

    def test_target_too_narrow_for_a_kernel_refused(self, tmp_path, capsys, monkeypatch):
        """Rows i * 1e-160 have a median pair distance near 1.4e-159, whose
        1/(2 bandwidth^2) overflows to inf: refused as a zero distance is,
        not trained and aborted on a NaN mmd."""
        rows = "".join(f"{i * 1e-160!r}\n" for i in range(50))
        self._refused(tmp_path, capsys, monkeypatch, rows, "1.39999926510834e-159")

    @staticmethod
    def _refused(tmp_path, capsys, monkeypatch, rows, bandwidth):
        monkeypatch.chdir(tmp_path)
        (tmp_path / "target.csv").write_text(rows)
        gaussian_target = "kind = gaussian\nmean = 4.0\ncov = 1.0\n"
        config = TINY_TRAIN.format(loss="MSE").replace(gaussian_target, "kind = file\npath = target.csv\n", 1)
        (tmp_path / "run.cfg").write_text(config)
        assert run_cli(tmp_path, "train", "--config", str(tmp_path / "run.cfg")) == 2
        message = (f"run: the MMD bandwidth, the target's median pair distance, is {bandwidth}; "
                   "1/(2 bandwidth^2) must be finite and > 0")
        assert capsys.readouterr() == ("", message + "\n")
        assert not (tmp_path / "out").exists()


class TestReportCommand:
    def test_rerenders_plots_identically(self, tmp_path):
        cfg = tmp_path / "tiny.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        run_cli(tmp_path, "train", "--config", str(cfg))
        rundir = tmp_path / "out" / "tiny"
        rc = main(
            [
                "--out",
                str(tmp_path / "re"),
                "report",
                "--metrics",
                str(rundir / "metrics.tsv"),
            ]
        )
        assert rc == 0
        a = (rundir / "plots" / "objectives.svg").read_bytes()
        b = (tmp_path / "re" / "plots" / "objectives.svg").read_bytes()
        assert a == b

    def test_rerenders_an_aborted_runs_plots(self, tmp_path, capsys):
        """An aborted run's metrics re-render to the plots train wrote, byte
        for byte: both leave out a plot with no finite value."""
        settings = ("train.learning_rate=1e100", "train.critic_iters=1", "train.eval_every=1",
                    "train.total_generator_iters=3", "train.eval_batch=256")
        args = ["train", "--preset", "shift1d-MSE", *(a for setting in settings for a in ("--set", setting))]
        assert run_cli(tmp_path, *args) == 1
        run = tmp_path / "out" / "shift1d-MSE"
        assert main(["--out", str(tmp_path / "re"), "report", "--metrics", str(run / "metrics.tsv")]) == 0
        written = {p.name: p.read_bytes() for p in (run / "plots").iterdir()}
        assert sorted(written) == ["likelihood_ratio.svg", "penalty.svg"]
        assert {p.name: p.read_bytes() for p in (tmp_path / "re" / "plots").iterdir()} == written

    def test_one_record_spans_a_unit_iteration_axis(self, tmp_path, capsys):
        metrics = tmp_path / "one.tsv"
        row = "\t".join(["5"] + ["1.0"] * (len(METRIC_COLUMNS) - 1))
        metrics.write_text("\t".join(METRIC_COLUMNS) + "\n" + row + "\n")
        assert run_cli(tmp_path, "report", "--metrics", str(metrics)) == 0
        assert capsys.readouterr().out == f"re-rendered plots for 1 records into {tmp_path / 'out' / 'plots'}\n"
        plots = sorted(p.name for p in (tmp_path / "out" / "plots").iterdir())
        assert plots == ["distances.svg", "likelihood_ratio.svg", "objectives.svg", "penalty.svg"]
        svg = (tmp_path / "out" / "plots" / "penalty.svg").read_text()
        assert ">5<" in svg and ">6<" in svg  # the x ticks of [5, 6]

    def test_constant_large_column_gets_a_span(self, tmp_path, capsys):
        """A penalty of 1e17 on every row absorbs no fixed widening: the y
        span is widened relative to the value, and every plot is written."""
        metrics = tmp_path / "large.tsv"
        rows = ["\t".join([str(it)] + ["1e17" if col == "penalty" else "1.0" for col in METRIC_COLUMNS[1:]])
                for it in (1, 2)]
        metrics.write_text("\n".join(["\t".join(METRIC_COLUMNS), *rows]) + "\n")
        assert run_cli(tmp_path, "report", "--metrics", str(metrics)) == 0
        plots = sorted(p.name for p in (tmp_path / "out" / "plots").iterdir())
        assert plots == ["distances.svg", "likelihood_ratio.svg", "objectives.svg", "penalty.svg"]
        assert ">1e+17<" in (tmp_path / "out" / "plots" / "penalty.svg").read_text()

    @pytest.mark.parametrize("values", [("1.7e308", "1.7e308"), ("-1.7e308", "1.7e308")], ids=["constant", "both-signs"])
    def test_extreme_column_plots(self, tmp_path, values):
        """Near the largest float, no widened or padded y span overflows."""
        metrics = tmp_path / "extreme.tsv"
        rows = ["\t".join([str(it)] + [value if col == "penalty" else "1.0" for col in METRIC_COLUMNS[1:]])
                for it, value in zip((1, 2), values)]
        metrics.write_text("\n".join(["\t".join(METRIC_COLUMNS), *rows]) + "\n")
        assert run_cli(tmp_path, "report", "--metrics", str(metrics)) == 0
        plots = sorted(p.name for p in (tmp_path / "out" / "plots").iterdir())
        assert plots == ["distances.svg", "likelihood_ratio.svg", "objectives.svg", "penalty.svg"]
        assert ">1e+308<" in (tmp_path / "out" / "plots" / "penalty.svg").read_text()

    def test_missing_metrics_file(self, tmp_path, capsys):
        empty = tmp_path / "empty.tsv"
        empty.write_text("")
        wrong = tmp_path / "wrong.tsv"
        wrong.write_text("iteration\tloss\n1\t0.5\n")
        header = "\t".join(METRIC_COLUMNS)
        header_only = tmp_path / "header.tsv"
        header_only.write_text(header + "\n")
        all_nan = tmp_path / "nan.tsv"
        all_nan.write_text(header + "\n5" + "\tnan" * (len(METRIC_COLUMNS) - 1) + "\n")
        partly_empty = tmp_path / "partly.tsv"  # lr_* cells empty in row 1 only
        rows = ["\t".join([str(it)] + ["" if it == 1 and col.startswith("lr_") else "1.0"
                                      for col in METRIC_COLUMNS[1:]]) for it in (1, 2)]
        partly_empty.write_text("\n".join([header, *rows]) + "\n")
        for path, message in (
            ("nope.tsv", "report: metrics file nope.tsv does not exist"),
            (empty, "report: empty metrics file"),
            (wrong, "report: unexpected metrics columns: ('iteration', 'loss')"),
            (header_only, "report: no metric records to plot"),
            (all_nan, f"report: {all_nan} has no finite value to plot"),
            (partly_empty, "report: empty lr_real_mean or lr_gen_mean cells on some rows but not on all"),
        ):
            assert run_cli(tmp_path, "report", "--metrics", str(path)) == 2
            err = capsys.readouterr().err
            assert err == message + "\n"
            assert not (tmp_path / "out").exists()


class TestHelp:
    def test_every_option_has_help(self):
        """Each option of the top-level parser and of every subcommand says
        what it does in --help."""
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        missing = [
            f"{name} {action.option_strings[-1]}"
            for name, p in [("ratiogan", parser), *subparsers.choices.items()]
            for action in p._actions
            if action.option_strings and action.option_strings != ["-h", "--help"] and not action.help
        ]
        assert missing == []


class TestOptionSurface:
    """Every option of the CLI, by command: adding or removing one is an edit here."""

    OPTIONS = {
        "ratiogan": ["--out"],
        "losses": ["--filter", "--notes"],
        "verify": ["--loss"],
        "solve-grid": ["--loss", "--config", "--uniform", "--n-points", "--window", "--init", "--init-seed",
                       "--max-iters", "--tol", "--log-every"],
        "train": ["--config", "--preset", "--set", "--echo-config", "--jobs"],
        "report": ["--metrics"],
    }

    def test_each_command_has_exactly_its_options(self):
        parser = build_parser()
        (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        surface = {
            name: [s for action in p._actions for s in action.option_strings if s not in ("-h", "--help")]
            for name, p in [("ratiogan", parser), *subparsers.choices.items()]
        }
        assert surface == self.OPTIONS


class TestOutputRootEnv:
    def test_env_var_selects_root(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("RATIOGAN_OUT", str(tmp_path / "env_out"))
        assert main(["verify", "--loss", "MSE"]) == 0
        assert (tmp_path / "env_out" / "verify_report.txt").exists()


class TestSvgPlot:
    def test_single_series_polyline(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_svg_lineplot([("s", [0.0, 1.0], [0.0, 1.0])], path)
        svg = path.read_text()
        assert svg.count("<polyline") == 1
        assert "<svg" in svg and "</svg>" in svg

    def test_deterministic_bytes(self, tmp_path):
        series = [("a", [0, 1, 2], [0.5, 0.2, 0.9]), ("b", [0, 1, 2], [1.0, 1.1, 0.7])]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        emit_svg_lineplot(series, p1, title="t", reference_y=1.0)
        emit_svg_lineplot(series, p2, title="t", reference_y=1.0)
        assert p1.read_bytes() == p2.read_bytes()

    def test_span_below_the_values_resolution_ends(self, tmp_path):
        """At 1e17 a tick step of 5 is below one unit in the last place: the
        ticks are counted, not stepped until they pass the top."""
        path = tmp_path / "p.svg"
        emit_svg_lineplot([("s", [1, 2], [1e17, 1e17 + 16])], path)
        assert path.read_text().count("text-anchor=\"end\"") <= 6  # y tick labels

    def test_empty_series_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no series"):
            emit_svg_lineplot([], tmp_path / "x.svg")

    def test_legend_and_axes_present(self, tmp_path):
        path = tmp_path / "p.svg"
        emit_svg_lineplot(
            [("alpha", [0, 10], [2.0, 4.0])], path, x_label="iter", y_label="val"
        )
        svg = path.read_text()
        assert "alpha" in svg and "iter" in svg and "val" in svg
        assert "<text" in svg
