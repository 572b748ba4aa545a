"""Command-line entry point.

Subcommands: ``losses`` (catalogue table), ``verify`` (certification
sweep), ``solve-grid`` (ideal min-max on a discrete support), ``train``
(adversarial run with metrics, checkpoints, samples, and SVG plots),
``report`` (re-render plots from an existing metrics file).

Exit codes: 0 success, 1 check or run failure (including a solve that
stops short of its tolerance, a diverged solve and an aborted run), 2
usage error.  Input the user must correct is rejected where it is
checked, by raising UsageError, before any file is staged; only ``main``
prints it, as one line on stderr, and returns 2.  Output files are staged
with an ``.incomplete`` suffix and renamed only when the command
finishes, so a failed run never leaves files that look complete.  The
output root comes from ``--out`` or the RATIOGAN_OUT environment
variable (default ``./out``); ``main`` refuses one that cannot be a directory.

A training run uses up to two Python threads (trainer and eval) and one
BLAS thread: ``import ratiogan`` sets OPENBLAS_NUM_THREADS=1 unless it or
OMP_NUM_THREADS is set already; set either to choose another count.

``import ratiogan.cli`` loads numpy, the loss catalogue, ``config`` (its
SECTIONS name the ``--set`` sections in the help) and ``densities``, and
no other module of the package.  The rest is imported at the top of the
function that runs it: a command, or a helper that ``report`` or a
``--jobs`` worker process runs as well.  So ``verify`` and ``solve-grid``
never load the trainer, the networks or the plotting code.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import math
import os
import sys
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .catalogue import catalogue_lookup, iter_catalogue
from .config import (
    SECTIONS,
    apply_overrides,
    density_from_section,
    parse_config_text,
    train_config_from_text,
    train_config_to_text,
    unknown_sections,
)
from .densities import gaussian

if TYPE_CHECKING:
    from .training import TrainConfig

ENV_OUT = "RATIOGAN_OUT"

# What a bad config file, override, sample file, metrics file, loss or preset name raises.
CONFIG_ERRORS = (ValueError, KeyError, OSError, configparser.Error)

# Least value of each numeric flag, by argparse dest; a smaller value, NaN or +inf is a usage error.
FLAG_MINIMA = {"n_points": 2, "log_every": 1, "max_iters": 1, "jobs": 1, "init_seed": 0, "tol": 0}


class UsageError(Exception):
    """Input the user must correct; main prints it as one line and returns 2."""


@contextlib.contextmanager
def _rejected_as_usage(prefix: str):
    """Raise a CONFIG_ERRORS exception from the block as a UsageError, after
    the prefix (the command or run name); a KeyError gives its message,
    without the quotes str() adds."""
    try:
        yield
    except CONFIG_ERRORS as exc:
        message = exc.args[0] if isinstance(exc, KeyError) else str(exc)
        raise UsageError(f"{prefix}: {message}") from None


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
        key, equals, value = args.filter.partition("=")
        key = key.strip().lower()
        value = value.strip().lower()
        truth = {"true": "yes", "yes": "yes", "1": "yes", "false": "no", "no": "no", "0": "no"}
        if key == "subclass" and equals:
            rows = [r for r in rows if r["subclass"].lower() == value]
        elif key == "invertible" and value in truth:
            rows = [r for r in rows if r["invertible"] == truth[value]]
        elif key == "range" and equals:
            rows = [r for r in rows if r["range"].lower() == value]
        else:
            raise UsageError(f"losses: bad --filter {args.filter!r}; use subclass=, invertible=true|false, range=")
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
    if selector.lower() == "all":  # as loss names, without regard to case
        return [entry.loss for entry in iter_catalogue()]
    names = [s.strip() for s in selector.split(",") if s.strip()]
    if not names:
        raise ValueError(f"--loss {selector!r} names no loss")
    try:
        losses = [catalogue_lookup(n).loss for n in names]
    except KeyError as exc:
        raise ValueError(f"{exc.args[0]}, or all") from None
    canonical = [loss.name for loss in losses]  # the lookup ignores case, so "mse" repeats "MSE"
    repeated = [name for i, name in enumerate(canonical) if name in canonical[:i]]
    if repeated:
        raise ValueError(f"--loss {selector!r} names {repeated[0]} more than once")
    return losses


def cmd_verify(args) -> int:
    from .verify import certify, write_reports

    with _rejected_as_usage("verify"):
        losses = _select_losses(args.loss)
    reports = [report for loss in losses for report in certify(loss)]
    stager = OutputStager(_output_root(args))
    text = write_reports(reports, stager.stage("verify_report.txt"), stager.stage("verify_report.jsonl"))
    stager.commit()
    print(text, end="")
    failed = [r for r in reports if not r.passed]
    print(f"checked {len(losses)} losses; {'FAIL' if failed else 'all checks passed or skipped'}")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# solve-grid


def cmd_solve_grid(args) -> int:
    from .grid_solver import (
        FULL_COVERAGE,
        DiscreteDensity,
        RatioField,
        SolverDiverged,
        discretize,
        feasible_from,
        field_to_text,
        minmax_value,
        solve_minmax_grid,
        write_trace,
    )

    if args.uniform and args.config:
        raise UsageError("solve-grid: --uniform ignores the density of --config; give one of them")
    lo, hi = args.window
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise UsageError(f"solve-grid: --window {lo:g} {hi:g} must be two finite numbers, low first, with low < high")
    with _rejected_as_usage("solve-grid"):
        loss = catalogue_lookup(args.loss).loss
    if not loss.ratio_invertible:
        raise UsageError(f"solve-grid: ideal solver requires invertible omega; {loss.name} has none")

    if args.config:
        with _rejected_as_usage("solve-grid"):
            parser = parse_config_text(args.config_text)
            problems = unknown_sections(parser)
            if not parser.has_section("density.target"):
                problems.append("missing [density.target] section")
            if problems:
                raise ValueError("; ".join(problems))
            density = density_from_section(parser["density.target"])
    else:
        density = gaussian([0.0], [[1.0]])
    if density.kind == "file":
        raise UsageError("solve-grid: needs an analytic density, not a sample file")

    with _rejected_as_usage("solve-grid"):
        if args.uniform:
            f = DiscreteDensity(
                support=np.linspace(lo, hi, args.n_points),
                mass=np.full(args.n_points, 1.0 / args.n_points),
            )
        else:
            f = discretize(density, args.n_points, lo, hi)
    if f.coverage < FULL_COVERAGE:  # a short window's coverage, as one line
        print(f"solve-grid: window captures {f.coverage:.4f} < {FULL_COVERAGE} of the density mass", file=sys.stderr)

    if args.init == "ones":
        r0 = RatioField(np.ones(len(f)))
    else:
        rng = np.random.default_rng(args.init_seed)
        r0 = feasible_from(np.abs(rng.standard_normal(len(f))), f)

    try:
        r_star, trace = solve_minmax_grid(
            loss, f, r0, max_iters=args.max_iters, tol=args.tol, log_every=args.log_every
        )
    except SolverDiverged as exc:
        print(f"solve-grid: {exc}", file=sys.stderr)
        return 1
    linf = float(np.abs(r_star.values - 1.0).max())
    value = minmax_value(loss, r_star, f)  # the saddle value: raw psi, not the trace's normalized cost

    stager = OutputStager(_output_root(args))
    write_trace(trace, stager.stage("solve_trace.tsv"))
    stager.stage("solve_field.tsv").write_text(field_to_text(f, r_star))
    stager.commit()
    print(f"loss={loss.name} n={len(f)} iterations={trace.iterations[-1]}")
    print(f"linf(r - 1) = {linf:.3e}")
    print(f"minmax value = {value!r}")
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


SWEEP_LAMBDAS = (0.01, 0.1, 1.0, 10.0)  # one lambda-sweep run each


def _preset_text(preset: str) -> list:
    """Expand a preset into (run_name, config_text) pairs."""
    for prefix, template in (("shift1d-", SHIFT1D_PRESET), ("ring2d-", RING2D_PRESET)):
        if preset.startswith(prefix):
            return [(preset, template.format(loss=catalogue_lookup(preset[len(prefix):]).loss.name))]
    if preset == "lambda-sweep":
        base = SHIFT1D_PRESET.format(loss="MSE")
        runs = []
        for lam in SWEEP_LAMBDAS:
            text = apply_overrides(base, [f"train.lambda={lam!r}"])
            runs.append((f"lambda-sweep/lam{lam:g}", text))
        return runs
    raise KeyError(
        f"unknown preset {preset!r}; presets: shift1d-<loss>, ring2d-<loss>, lambda-sweep"
    )


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
    fill; a plot whose columns are all empty (no ratio readback) or hold no
    finite value (an aborted run's) is left out.  Raises ValueError when there
    is no record or a plot has both empty and filled cells."""
    if not records:
        raise ValueError("no metric records to plot")
    iters = [r.generator_iteration for r in records]
    plots = []
    for file, title, y_label, columns, reference_y in METRIC_PLOTS:
        series = [(col, iters, [getattr(r, col) for r in records]) for col in columns]
        cells = [v for _, _, ys in series for v in ys]
        values = [v for v in cells if v is not None]
        if values and len(values) < len(cells):
            raise ValueError(f"empty {' or '.join(columns)} cells on some rows but not on all")
        if any(map(math.isfinite, values)):
            plots.append((file, series, title, y_label, reference_y))
    return plots


def _plot_metrics(plots, stager):
    from .svgplot import emit_svg_lineplot

    for file, series, title, y_label, reference_y in plots:
        emit_svg_lineplot(series, stager.stage("plots/" + file), title=title,
                          x_label="generator iteration", y_label=y_label, reference_y=reference_y)


def _checked_config(text: str, overrides) -> TrainConfig:
    """One run's config with the overrides applied, checked as far as
    possible without training: raises CONFIG_ERRORS."""
    config = train_config_from_text(apply_overrides(text, overrides))
    catalogue_lookup(config.loss_name)
    return config


def _run_one_training(run_name: str, config: TrainConfig, root: Path) -> int:
    # a --jobs worker process runs this without cmd_train, so it imports its own modules
    from .nets import net_to_json
    from .training import final_samples, metrics_to_text, train

    stager = OutputStager(root / run_name)
    stager.stage("config.cfg").write_text(train_config_to_text(config))
    result = train(config)

    stager.stage("metrics.tsv").write_text(metrics_to_text(result.records))
    stager.stage("gen_final.json").write_text(net_to_json(result.generator, result.gen_state))
    stager.stage("disc_final.json").write_text(net_to_json(result.discriminator, result.disc_state))
    for iteration, gen_json, disc_json in result.checkpoints:
        stager.stage(f"gen_iter{iteration}.json").write_text(gen_json)
        stager.stage(f"disc_iter{iteration}.json").write_text(disc_json)

    lines = [",".join(repr(float(v)) for v in row) for row in final_samples(config, result.generator)]
    stager.stage("samples_final.csv").write_text("\n".join(lines) + "\n")

    if result.records:
        _plot_metrics(_metric_plots(result.records), stager)
    stager.commit()

    if result.aborted:
        print(f"{run_name}: aborted ({result.abort_reason}); last-good checkpoint kept")
        return 1
    final = result.records[-1]  # a finished run evaluates at its last iteration
    ratio = "" if final.lr_real_mean is None else f"lr_real_mean={final.lr_real_mean:.3f} "
    print(f"{run_name}: done; final {ratio}swd={final.swd:.3f} mmd={final.mmd:.4f}")
    return 0


def cmd_train(args) -> int:
    import concurrent.futures

    if args.preset and args.config:
        raise UsageError("train: --preset ignores --config; give one of them")
    if args.preset:
        with _rejected_as_usage("train"):
            runs = _preset_text(args.preset)
    elif args.config:
        runs = [(Path(args.config).stem, args.config_text)]
    else:
        raise UsageError("train: needs --config or --preset")

    if args.echo_config and len(runs) > 1:
        raise UsageError(f"train: --echo-config takes one run; {args.preset} has {len(runs)}")

    # every run is checked before anything is echoed, staged or trained
    names, configs = [name for name, _ in runs], []
    for name, text in runs:
        with _rejected_as_usage(name):
            configs.append(_checked_config(text, args.set or []))
    if args.preset == "lambda-sweep" and tuple(c.lam for c in configs) != SWEEP_LAMBDAS:
        raise UsageError("lambda-sweep: each run sets its own train.lambda; drop the train.lambda override")

    if args.echo_config:
        with _rejected_as_usage("train"):  # a directory, or under a missing one
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
    from .training import metrics_from_text

    path = Path(args.metrics)
    if not path.exists():
        raise UsageError(f"report: metrics file {path} does not exist")
    with _rejected_as_usage("report"):
        records = metrics_from_text(path.read_text())
        plots = _metric_plots(records)
    if not plots:
        raise UsageError(f"report: {path} has no finite value to plot")
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
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("solve-grid", help="ideal min-max solve on a discrete support")
    p.add_argument("--loss", required=True, help="catalogue name of a loss with invertible omega")
    p.add_argument("--config", help="config file providing [density.target]")
    p.add_argument("--uniform", action="store_true", help="uniform masses on the window")
    p.add_argument("--n-points", type=int, default=64, help="grid nodes per axis (default 64)")
    p.add_argument("--window", type=float, nargs=2, default=(-4.0, 4.0), metavar=("LOW", "HIGH"),
                   help="grid window on each axis (default -4 4)")
    p.add_argument("--init", choices=("random", "ones"), default="random",
                   help="start from |N(0,1)| values rescaled to mean one, or from the unit field (default random)")
    p.add_argument("--init-seed", type=int, default=0, help="seed of the random start (default 0)")
    p.add_argument("--max-iters", type=int, default=20000, help="iteration cap (default 20000)")
    p.add_argument("--tol", type=float, default=1e-10,
                   help="converged once an accepted step moves r by less than this (default 1e-10)")
    p.add_argument("--log-every", type=int, default=1, metavar="K",
                   help="solve_trace.tsv gets iteration 0, every K-th iteration, "
                   "the converged iteration and the last one (default 1)")
    p.set_defaults(fn=cmd_solve_grid)

    p = sub.add_parser("train", help="adversarial training run(s)")
    p.add_argument("--config", help="config file")
    p.add_argument("--preset", help="shift1d-<loss>, ring2d-<loss>, lambda-sweep")
    p.add_argument("--set", action="append", metavar="SECTION.KEY=VALUE",
                   help=f"override a config value; sections: {', '.join(SECTIONS)}")
    p.add_argument("--echo-config", metavar="PATH", help="write the effective config and exit")
    p.add_argument("--jobs", type=int, default=1, help="concurrent runs for sweeps, one process each; a run "
                   "uses up to two Python threads and one BLAS thread (set OPENBLAS_NUM_THREADS to change)")
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("report", help="re-render plots from a metrics file")
    p.add_argument("--metrics", required=True, help="metrics.tsv of a train run")
    p.set_defaults(fn=cmd_report)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        for dest, least in FLAG_MINIMA.items():
            if not least <= getattr(args, dest, least) < math.inf:
                raise UsageError(f"{args.command}: --{dest.replace('_', '-')} must be >= {least} and finite")
        root = _output_root(args)  # checked before a command that writes it runs: it, or its nearest existing parent
        existing = next(path for path in (root, *root.parents) if path.exists())
        if args.command != "losses" and not getattr(args, "echo_config", None) and not existing.is_dir():
            raise UsageError(f"{args.command}: cannot make output root {root}: {existing} is not a directory")
        if getattr(args, "config", None):
            with _rejected_as_usage(args.command):
                args.config_text = Path(args.config).read_text()
        return args.fn(args)
    except UsageError as exc:
        print(" ".join(str(exc).split()), file=sys.stderr)
        return 2
    except BrokenPipeError:
        return 1


if __name__ == "__main__":
    sys.exit(main())
