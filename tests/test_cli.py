"""CLI behaviors: subcommands, exit codes, file outputs, SVG plots."""

import builtins
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ratiogan
from ratiogan.cli import main
from ratiogan.svgplot import emit_svg_lineplot
from ratiogan.training import METRIC_COLUMNS

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
        assert "valid names" in capsys.readouterr().err


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

    def test_unconverged_solve_exits_one_with_files(self, tmp_path, capsys):
        rc = run_cli(tmp_path, "solve-grid", "--loss", "MSE", "--uniform", "--max-iters", "5")
        assert rc == 1
        assert "converged   = no" in capsys.readouterr().out
        trace = (tmp_path / "out" / "solve_trace.tsv").read_text().splitlines()
        assert trace[-1].split("\t")[0] == "5"
        assert (tmp_path / "out" / "solve_field.tsv").exists()
        assert not list((tmp_path / "out").glob("*.incomplete"))

    def test_diverged_solve_is_one_line(self, tmp_path, capsys, monkeypatch):
        import ratiogan.cli as cli
        from ratiogan.grid_solver import SolverDiverged, SolveTrace

        def diverge(*args, **kwargs):
            raise SolverDiverged("objective increased for 50 consecutive iterations", SolveTrace())

        monkeypatch.setattr(cli, "solve_minmax_grid", diverge)
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

    @pytest.mark.parametrize("content", ["x\n1.0\n2.0\n", None])
    def test_bad_sample_file_refused_before_staging(self, tmp_path, capsys, content):
        """A header line or a missing path fails with exit 2 and stages nothing."""
        data = tmp_path / "target.csv"
        if content is not None:
            data.write_text(content)
        cfg = tmp_path / "csv.cfg"
        cfg.write_text(TINY_TRAIN.format(loss="MSE"))
        overrides = ["--set", "density.target.kind=file", "--set", f"density.target.path={data}"]
        assert run_cli(tmp_path, "train", "--config", str(cfg), *overrides) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert ("non-numeric field at line 1" if content else "No such file") in err
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
             "solve-grid: support points must be distinct"),
            (None, ["verify", "--loss", ","], "--loss ',' names no loss"),
            (None, ["solve-grid", "--loss", "MSE", "--max-iters", "0"], "solve-grid: --max-iters must be >= 1"),
            (None, ["solve-grid", "--loss", "MSE", "--max-iters", "-3"], "solve-grid: --max-iters must be >= 1"),
            (None, ["solve-grid", "--loss", "MSE", "--tol", "-1"], "solve-grid: --tol must be >= 0"),
            (None, ["solve-grid", "--loss", "MSE", "--tol", "nan"], "solve-grid: --tol must be >= 0"),
            (None, ["verify", "--loss", "MSE", "--value-tol", "-1"], "verify: --value-tol must be >= 0"),
            (None, ["verify", "--loss", "MSE", "--deriv-tol", "nan"], "verify: --deriv-tol must be >= 0"),
            (None, ["verify", "--loss", "MSE", "--argmax-tol", "-1"], "verify: --argmax-tol must be >= 0"),
            (None, ["verify", "--loss", "MSE", "--minimizer-tol", "nan"], "verify: --minimizer-tol must be >= 0"),
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
            (None, ["solve-grid", "--loss", "MSE", "--window", "1", "1"], "solve-grid: window must have positive length"),
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
        ],
        ids=["solve-no-target", "solve-negative-cov", "solve-no-header", "train-no-header",
             "train-unknown-loss", "train-bad-override", "echo-unknown-key", "train-unknown-hidden-unit",
             "train-zero-width", "train-eval-batch-one", "train-missing-mean", "solve-missing-mean",
             "train-missing-low", "train-missing-high", "train-missing-components", "train-missing-path",
             "train-beta2-one", "train-beta1-above-one", "train-negative-learning-rate",
             "train-zero-learning-rate", "solve-log-every-zero", "solve-uniform-no-points",
             "solve-uniform-empty-window", "verify-no-loss-names", "solve-max-iters-zero",
             "solve-max-iters-negative", "solve-negative-tol", "solve-nan-tol", "verify-negative-value-tol",
             "verify-nan-deriv-tol", "verify-negative-argmax-tol", "verify-nan-minimizer-tol", "train-jobs-zero",
             "train-negative-seed", "train-nan-lambda", "train-inf-lambda", "train-inf-learning-rate",
             "train-negative-checkpoint-every", "train-misspelt-density-key", "solve-misspelt-density-key",
             "solve-uniform-nan-window", "solve-uniform-reversed-window", "solve-inf-window", "solve-empty-window",
             "solve-uniform-with-config", "train-nan-target-mean", "train-inf-origin-cov", "train-inf-ring-radius",
             "train-nan-ring-sigma", "train-inf-uniform-high", "solve-inf-mean", "solve-negative-init-seed"],
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

    def test_echo_config_refuses_a_multi_run_preset(self, tmp_path, capsys):
        echo = tmp_path / "echo.cfg"
        assert run_cli(tmp_path, "train", "--preset", "lambda-sweep", "--echo-config", str(echo)) == 2
        assert capsys.readouterr().err == "--echo-config takes one run; lambda-sweep has 4\n"
        assert not echo.exists()


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
            ("nope.tsv", "metrics file nope.tsv does not exist"),
            (empty, "report: empty metrics file"),
            (wrong, "report: unexpected metrics columns: ('iteration', 'loss')"),
            (header_only, "report: no metric records to plot"),
            (all_nan, "report: no finite lr_real_mean or lr_gen_mean value to plot"),
            (partly_empty, "report: empty lr_real_mean or lr_gen_mean cells on some rows but not on all"),
        ):
            assert run_cli(tmp_path, "report", "--metrics", str(path)) == 2
            err = capsys.readouterr().err
            assert err == message + "\n"
            assert not (tmp_path / "out").exists()


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
