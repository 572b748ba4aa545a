"""Command-line entry point.

Subcommands: ``losses`` (catalogue table), ``verify`` (certification
sweep), ``solve-grid`` (ideal min-max on a discrete support), ``train``
(adversarial run with metrics, checkpoints, samples, and SVG plots),
``report`` (re-render plots from an existing metrics file).

Exit codes: 0 success, 1 check or run failure (including a solve that
stops short of its tolerance), 2 usage error.  Output files are staged
with an ``.incomplete`` suffix and renamed only when the command
finishes, so a failed run never leaves files that look complete.  The
output root comes from ``--out`` or the RATIOGAN_OUT environment
variable (default ``./out``).

A training run uses up to two Python threads (trainer and eval) and one
BLAS thread: ``import ratiogan`` sets OPENBLAS_NUM_THREADS=1 unless it or
OMP_NUM_THREADS is set already; set either to choose another count.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import configparser
import math
import os
import sys
from pathlib import Path

import numpy as np

from .catalogue import catalogue_lookup, catalogue_names, iter_catalogue
from .config import (
    apply_overrides,
    density_from_section,
    parse_config_text,
    train_config_from_text,
    train_config_to_text,
)
from .densities import gaussian, sample
from .grid_solver import (
    SolverDiverged,
    discretize,
    feasible_from,
    field_to_text,
    minmax_value,
    solve_minmax_grid,
    trace_to_text,
)
from .nets import forward, net_to_json
from .svgplot import emit_svg_lineplot
from .training import TrainConfig, metrics_from_text, metrics_to_text, train
from .verify import (
    check_corollary_value,
    check_derivatives,
    check_theorem1,
    reports_to_text,
    write_reports,
)

ENV_OUT = "RATIOGAN_OUT"

# What a bad config file, override, sample file or loss name raises.
CONFIG_ERRORS = (ValueError, KeyError, OSError, configparser.Error)

# Least value of each numeric flag, by argparse dest; a smaller value or NaN is a usage error.
FLAG_MINIMA = {"n_points": 2, "log_every": 1, "max_iters": 1, "jobs": 1, "tol": 0,
               "argmax_tol": 0, "minimizer_tol": 0, "value_tol": 0, "deriv_tol": 0}


def _usage_error(prefix: str, exc: Exception) -> int:
    """Print a rejected input as one line on stderr; the usage-error exit code."""
    print(f"{prefix}: {' '.join(str(exc).split())}", file=sys.stderr)
    return 2


class OutputStager:
    """Write files under temporary names; commit renames them in place."""

    def __init__(self, root: Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._staged = []

    def stage(self, relpath: str) -> Path:
        final = self.root / relpath
        final.parent.mkdir(parents=True, exist_ok=True)
        tmp = final.with_name(final.name + ".incomplete")
        self._staged.append((tmp, final))
        return tmp

    def commit(self):
        for tmp, final in self._staged:
            if tmp.exists():
                os.replace(tmp, final)
        self._staged = []


def _output_root(args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(os.environ.get(ENV_OUT, "out"))


# ---------------------------------------------------------------------------
# losses


def cmd_losses(args) -> int:
    rows = []
    for entry in iter_catalogue():
        loss = entry.loss
        rows.append(
            {
                "name": loss.name,
                "subclass": entry.subclass,
                "row": entry.table_row,
                "range": loss.range.label,
                "omega": loss.omega.description,
                "invertible": "yes" if loss.ratio_invertible else "no",
                "note": entry.derivation_note,
            }
        )
    if args.filter:
        key, _, value = args.filter.partition("=")
        key = key.strip().lower()
        value = value.strip().lower()
        if key == "subclass":
            rows = [r for r in rows if r["subclass"].lower() == value]
        elif key == "invertible":
            want = value in ("true", "yes", "1")
            rows = [r for r in rows if (r["invertible"] == "yes") == want]
        elif key == "range":
            rows = [r for r in rows if r["range"].lower() == value]
        else:
            print(f"unknown filter key {key!r}; use subclass=, invertible=, range=", file=sys.stderr)
            return 2
    name_w = max(len(r["name"]) for r in rows) if rows else 4
    print(f"{'name':<{name_w}}  sub  {'J':<7} {'omega':<22} inv  forms")
    for r in rows:
        print(
            f"{r['name']:<{name_w}}  {r['subclass']:<3}  {r['range']:<7} "
            f"{r['omega']:<22} {r['invertible']:<4} {r['row']}"
        )
        if args.notes:
            print(f"{'':{name_w}}  note: {r['note']}")
    return 0


# ---------------------------------------------------------------------------
# verify


def _select_losses(selector: str):
    if selector == "all":
        return [entry.loss for entry in iter_catalogue()]
    names = [s.strip() for s in selector.split(",") if s.strip()]
    if not names:
        raise ValueError(f"--loss {selector!r} names no loss")
    return [catalogue_lookup(n).loss for n in names]


def cmd_verify(args) -> int:
    try:
        losses = _select_losses(args.loss)
    except (KeyError, ValueError) as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    reports = []
    for loss in losses:
        reports.append(
            check_theorem1(
                loss,
                tol=args.argmax_tol,
                minimizer_tol=args.minimizer_tol,
                value_tol=args.value_tol,
                deriv_tol=args.deriv_tol,
            )
        )
        reports.append(check_corollary_value(loss, tol=args.value_tol))
        if loss.phi is not None and loss.psi is not None:
            reports.append(check_derivatives(loss, tol=args.deriv_tol))
    stager = OutputStager(_output_root(args))
    write_reports(reports, stager.stage("verify_report.txt"), stager.stage("verify_report.jsonl"))
    stager.commit()
    print(reports_to_text(reports), end="")
    failed = [r for r in reports if not r.passed]
    print(f"checked {len(losses)} losses; {'FAIL' if failed else 'all checks passed or skipped'}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# solve-grid


def cmd_solve_grid(args) -> int:
    if args.uniform and args.config:
        print("solve-grid: --uniform ignores the density of --config; give one of them", file=sys.stderr)
        return 2
    lo, hi = args.window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo <= hi):
        print(f"solve-grid: --window {lo:g} {hi:g} must be two finite numbers, low first", file=sys.stderr)
        return 2
    try:
        entry = catalogue_lookup(args.loss)
    except KeyError as exc:
        print(exc.args[0], file=sys.stderr)
        return 2
    loss = entry.loss
    if not loss.ratio_invertible:
        print(f"ideal solver requires invertible omega; {loss.name} has none", file=sys.stderr)
        return 2

    if args.config:
        try:
            parser = parse_config_text(args.config_text)
            if not parser.has_section("density.target"):
                raise ValueError("missing [density.target] section")
            density = density_from_section(parser["density.target"])
        except CONFIG_ERRORS as exc:
            return _usage_error("solve-grid", exc)
    else:
        density = gaussian([0.0], [[1.0]])
    if density.kind == "file":
        print("solve-grid needs an analytic density, not a sample file", file=sys.stderr)
        return 2

    try:
        if args.uniform:
            from .grid_solver import DiscreteDensity

            f = DiscreteDensity(
                support=np.linspace(lo, hi, args.n_points),
                mass=np.full(args.n_points, 1.0 / args.n_points),
            )
        else:
            window = (lo, hi) if density.dim == 1 else ((lo, hi),) * 2
            f = discretize(density, args.n_points, window)
    except ValueError as exc:
        return _usage_error("solve-grid", exc)

    rng = np.random.default_rng(args.init_seed)
    if args.init == "ones":
        from .grid_solver import RatioField

        r0 = RatioField(np.ones(len(f)))
    else:
        r0 = feasible_from(np.abs(rng.standard_normal(len(f))), f)

    try:
        r_star, trace = solve_minmax_grid(
            loss, f, r0, max_iters=args.max_iters, tol=args.tol, log_every=args.log_every
        )
    except SolverDiverged as exc:
        print(f"solve-grid: {exc}", file=sys.stderr)
        return 1
    linf = float(np.abs(r_star.values - 1.0).max())
    objective = minmax_value(loss, r_star, f)

    stager = OutputStager(_output_root(args))
    stager.stage("solve_trace.tsv").write_text(trace_to_text(trace))
    stager.stage("solve_field.tsv").write_text(field_to_text(f, r_star))
    stager.commit()
    print(f"loss={loss.name} n={len(f)} iterations={trace.iterations[-1]}")
    print(f"linf(r - 1) = {linf:.3e}")
    print(f"objective   = {objective!r}")
    print(f"converged   = {'yes' if trace.converged else f'no (tol {args.tol:g} not met)'}")
    return 0 if trace.converged else 1


# ---------------------------------------------------------------------------
# train


SHIFT1D_PRESET = """
[loss]
name = {loss}

[train]
seed = 20260811

[density.target]
kind = gaussian
mean = 4.0
cov = 1.0

[density.origin]
kind = gaussian
mean = 0.0
cov = 1.0
"""

RING2D_PRESET = """
[loss]
name = {loss}

[train]
seed = 20260811
total_generator_iters = 30000

[density.target]
kind = ring
modes = 8
radius = 2.0
sigma = 0.02

[density.origin]
kind = gaussian
mean = 0.0 0.0
cov = 1.0 1.0
"""


def _preset_text(preset: str) -> list:
    """Expand a preset into (run_name, config_text) pairs."""
    if preset.startswith("shift1d-"):
        loss = _canonical_loss_name(preset[len("shift1d-"):])
        return [(preset, SHIFT1D_PRESET.format(loss=loss))]
    if preset.startswith("ring2d-"):
        loss = _canonical_loss_name(preset[len("ring2d-"):])
        return [(preset, RING2D_PRESET.format(loss=loss))]
    if preset == "lambda-sweep":
        base = SHIFT1D_PRESET.format(loss="MSE")
        runs = []
        for lam in (0.01, 0.1, 1.0, 10.0):
            text = apply_overrides(base, [f"train.lambda={lam!r}"])
            runs.append((f"lambda-sweep/lam{lam:g}", text))
        return runs
    raise KeyError(
        f"unknown preset {preset!r}; presets: shift1d-<loss>, ring2d-<loss>, lambda-sweep"
    )


def _canonical_loss_name(name: str) -> str:
    return catalogue_lookup(name).loss.name


# (file, title, y label, plotted metric columns, reference line) of each plot
METRIC_PLOTS = (
    ("likelihood_ratio.svg", "discriminator-implied likelihood ratio", "ratio",
     ("lr_real_mean", "lr_gen_mean"), 1.0),
    ("objectives.svg", "objectives", "value", ("disc_objective", "gen_objective"), None),
    ("distances.svg", "two-sample distances to target", "distance", ("mmd", "swd"), None),
    ("penalty.svg", "gradient penalty", "penalty", ("penalty",), None),
)


def _metric_plots(records) -> list:
    """(file, series, title, y label, reference line) of each plot the records
    fill; a plot whose columns are all empty (no ratio readback) is left out.
    Raises ValueError when there is no record or a plot has no finite value."""
    if not records:
        raise ValueError("no metric records to plot")
    iters = [r.generator_iteration for r in records]
    plots = []
    for file, title, y_label, columns, reference_y in METRIC_PLOTS:
        series = [(col, iters, [getattr(r, col) for r in records]) for col in columns]
        values = [v for _, _, ys in series for v in ys if v is not None]
        if not values:
            continue
        if not any(map(math.isfinite, values)):
            raise ValueError(f"no finite {' or '.join(columns)} value to plot")
        plots.append((file, series, title, y_label, reference_y))
    return plots


def _plot_metrics(plots, stager):
    for file, series, title, y_label, reference_y in plots:
        emit_svg_lineplot(series, stager.stage("plots/" + file), title=title,
                          x_label="generator iteration", y_label=y_label, reference_y=reference_y)


def _checked_config(text: str, overrides) -> TrainConfig:
    """One run's config with the overrides applied, checked as far as
    possible without training: raises CONFIG_ERRORS."""
    config = train_config_from_text(apply_overrides(text, overrides))
    config.validate()
    try:
        catalogue_lookup(config.loss_name)
    except KeyError as exc:
        raise ValueError(exc.args[0]) from None
    return config


def _run_one_training(run_name: str, config: TrainConfig, root: Path) -> int:
    stager = OutputStager(root / run_name)
    stager.stage("config.cfg").write_text(train_config_to_text(config))
    result = train(config)

    stager.stage("metrics.tsv").write_text(metrics_to_text(result.records))
    stager.stage("gen_final.json").write_text(net_to_json(result.generator, result.gen_state))
    stager.stage("disc_final.json").write_text(net_to_json(result.discriminator, result.disc_state))
    for iteration, gen_json, disc_json in result.checkpoints or []:
        stager.stage(f"gen_iter{iteration}.json").write_text(gen_json)
        stager.stage(f"disc_iter{iteration}.json").write_text(disc_json)

    z = sample(config.h_spec, config.eval_batch, config.seeds[4])
    y, _ = forward(result.generator, z)
    lines = [",".join(repr(float(v)) for v in row) for row in y]
    stager.stage("samples_final.csv").write_text("\n".join(lines) + "\n")

    if result.records:
        _plot_metrics(_metric_plots(result.records), stager)
    stager.commit()

    if result.aborted:
        print(f"{run_name}: aborted ({result.abort_reason}); last-good checkpoint kept")
        return 1
    final = result.records[-1] if result.records else None
    if final is not None and final.lr_real_mean is not None:
        print(
            f"{run_name}: done; final lr_real_mean={final.lr_real_mean:.3f} "
            f"swd={final.swd:.3f} mmd={final.mmd:.4f}"
        )
    elif final is not None:
        print(f"{run_name}: done; final swd={final.swd:.3f} mmd={final.mmd:.4f}")
    else:
        print(f"{run_name}: done")
    return 0


def cmd_train(args) -> int:
    if args.preset:
        try:
            runs = _preset_text(args.preset)
        except KeyError as exc:
            print(exc.args[0], file=sys.stderr)
            return 2
    elif args.config:
        runs = [(Path(args.config).stem, args.config_text)]
    else:
        print("train needs --config or --preset", file=sys.stderr)
        return 2

    if args.echo_config and len(runs) > 1:
        print(f"--echo-config takes one run; {args.preset} has {len(runs)}", file=sys.stderr)
        return 2

    # every run is checked before anything is echoed, staged or trained
    names, configs = [name for name, _ in runs], []
    for name, text in runs:
        try:
            configs.append(_checked_config(text, args.set or []))
        except CONFIG_ERRORS as exc:
            return _usage_error(name, exc)

    if args.echo_config:
        Path(args.echo_config).write_text(train_config_to_text(configs[0]))
        print(f"effective config for {names[0]} written to {args.echo_config}")
        return 0

    roots = [_output_root(args)] * len(configs)
    if args.jobs > 1 and len(configs) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs) as pool:
            return max(pool.map(_run_one_training, names, configs, roots))
    return max(map(_run_one_training, names, configs, roots))


# ---------------------------------------------------------------------------
# report


def cmd_report(args) -> int:
    path = Path(args.metrics)
    if not path.exists():
        print(f"metrics file {path} does not exist", file=sys.stderr)
        return 2
    try:
        records = metrics_from_text(path.read_text())
        plots = _metric_plots(records)
    except (ValueError, OSError) as exc:
        return _usage_error("report", exc)
    stager = OutputStager(_output_root(args))
    _plot_metrics(plots, stager)
    stager.commit()
    print(f"re-rendered plots for {len(records)} records into {stager.root / 'plots'}")
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ratiogan",
        description="likelihood-ratio GAN losses: catalogue, certification, solving, training",
    )
    parser.add_argument("--out", help=f"output root (default ${ENV_OUT} or ./out)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("losses", help="list the loss catalogue")
    p.add_argument("--filter", help="subclass=A|B|C|D, invertible=true|false, range=R|[0,1]|...")
    p.add_argument("--notes", action="store_true", help="print derivation notes")
    p.set_defaults(fn=cmd_losses)

    p = sub.add_parser("verify", help="numerically certify the optimality identities")
    p.add_argument("--loss", default="all", help="'all' or comma-separated catalogue names")
    p.add_argument("--argmax-tol", type=float, default=1e-4)
    p.add_argument("--minimizer-tol", type=float, default=1e-3)
    p.add_argument("--value-tol", type=float, default=1e-6)
    p.add_argument("--deriv-tol", type=float, default=1e-5)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve-grid", help="ideal min-max solve on a discrete support")
    p.add_argument("--loss", required=True)
    p.add_argument("--config", help="config file providing [density.target]")
    p.add_argument("--uniform", action="store_true", help="uniform masses on the window")
    p.add_argument("--n-points", type=int, default=64)
    p.add_argument("--window", type=float, nargs=2, default=(-4.0, 4.0))
    p.add_argument("--init", choices=("random", "ones"), default="random")
    p.add_argument("--init-seed", type=int, default=0)
    p.add_argument("--max-iters", type=int, default=20000)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--log-every", type=int, default=1)
    p.set_defaults(fn=cmd_solve_grid)

    p = sub.add_parser("train", help="adversarial training run(s)")
    p.add_argument("--config", help="config file")
    p.add_argument("--preset", help="shift1d-<loss>, ring2d-<loss>, lambda-sweep")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE", help="override a config value")
    p.add_argument("--echo-config", metavar="PATH", help="write the effective config and exit")
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs for sweeps, one process each; a run "
                   "uses up to two Python threads and one BLAS thread (set OPENBLAS_NUM_THREADS to change)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("report", help="re-render plots from a metrics file")
    p.add_argument("--metrics", required=True)
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    for dest, least in FLAG_MINIMA.items():
        if not getattr(args, dest, least) >= least:
            print(f"{args.command}: --{dest.replace('_', '-')} must be >= {least}", file=sys.stderr)
            return 2
    if getattr(args, "config", None):
        try:
            args.config_text = Path(args.config).read_text()
        except OSError as exc:
            print(f"{args.command}: {exc}", file=sys.stderr)
            return 2
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
