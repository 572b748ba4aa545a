"""One workload in one fresh process: closed-loop rounds of ratiogan CLI commands.

Run by run.py with ``src`` on PYTHONPATH.  A round is the workload's
command sequence; each command is one call of ``ratiogan.cli.main`` with
its stdout captured.  The next round starts when the previous one has
returned, until at least three rounds have run and another would pass
the time budget.  Round k runs at seed + 1000 k; round 0 at seed 0 uses
the preset train seed and the CLI's default solver init seed, so its
outputs are what users get.  With ``--trace 1`` rounds come in pairs,
one untraced and one traced, in alternating order; the pair gives the
tracing overhead and the byte-for-byte comparison of their outputs.
Prints one JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import re
import resource
import shutil
import signal
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

PRESET_SEED = 20260811  # train.seed of the shift1d/ring2d presets
SOLVE_TOL = 1e-6  # a solve passes when its final max|r - 1| is at most this
# one loss per output range: MSE [0,inf), B1b R with psi -> -inf, C2 [0,1]
SOLVE_LOSSES = ("MSE", "B1b", "C2")
WORKLOADS = ("train-shift1d-gp", "train-ring2d-evaldense", "certify-solve")
# Round k runs at seed + k * stride, so the median round is not set by one
# input: at some init seeds solve-grid --loss B1b reaches r = 0, its
# iterate turns NaN and the solve runs for minutes.
ROUND_SEED_STRIDE = 1000
# Rounds run before the time budget may end the loop: the median needs three.
MIN_ROUNDS = 3
# A command still running after this long is stopped and counts as failed:
# several times its usual cost, so load from other processes does not trip it.
COMMAND_LIMIT_S = {"train": 40.0, "verify": 20.0, "solve": 10.0}
# A failed command of these kinds makes the run incorrect.  solve-grid does not
# converge at CLI defaults, so its failures are counted in `failed` only.
MUST_PASS = ("train", "verify")


class CommandTimeout(BaseException):
    """Raised from SIGALRM; a BaseException so no handler in the program swallows it."""


def _time_out(signum, frame):
    raise CommandTimeout


@dataclass(frozen=True)
class Command:
    kind: str  # selects the output check
    argv: list
    run_name: str = ""  # train: the run directory under --out
    iters: int = 0  # train: generator iterations


def workload_commands(name: str, seed: int, tiny: bool) -> list:
    """The command sequence of one round; ``tiny`` shrinks it for smoke tests."""
    train_seed = f"train.seed={PRESET_SEED + seed}"
    eval_batch = f"train.eval_batch={64 if tiny else 2048}"
    if name == "train-shift1d-gp":
        iters = 4 if tiny else 500  # the preset evaluates every 500 generator iterations
        argv = ["train", "--preset", "shift1d-MSE", "--set", "train.lambda=10.0",
                "--set", f"train.total_generator_iters={iters}", "--set", eval_batch,
                "--set", train_seed]
        return [Command("train", argv, "shift1d-MSE", iters)]
    if name == "train-ring2d-evaldense":
        iters = 4 if tiny else 200
        argv = ["train", "--preset", "ring2d-B2", "--set", "train.lambda=0.0",
                "--set", f"train.total_generator_iters={iters}",
                "--set", f"train.eval_every={2 if tiny else 50}", "--set", eval_batch,
                "--set", train_seed]
        return [Command("train", argv, "ring2d-B2", iters)]
    if name == "certify-solve":
        commands = [Command("verify", ["verify", "--loss", "all"])]
        for loss in SOLVE_LOSSES:
            argv = ["solve-grid", "--loss", loss, "--init-seed", str(seed)]
            if tiny:
                argv += ["--max-iters", "20"]
            commands.append(Command("solve", argv))
        return commands
    raise KeyError(f"unknown workload {name!r}; workloads: {', '.join(WORKLOADS)}")


# ---------------------------------------------------------------------------
# output checks: (failed reason or None, quality values, bytes compared across rounds)


def _cell_value(cell: str):
    return None if cell == "" else float(cell)


def check_train(out: Path, cmd: Command, code: int):
    path = out / cmd.run_name / "metrics.tsv"
    if not path.exists():
        return f"exit {code}, no metrics.tsv", {}, b""
    data = path.read_bytes()
    lines = [ln for ln in data.decode().splitlines() if ln.strip()]
    header = lines[0].split("\t")
    rows = [dict(zip(header, ln.split("\t"))) for ln in lines[1:]]
    quality = {}
    if rows:
        last = rows[-1]
        quality["final_swd"] = _cell_value(last["swd"])
        lr = _cell_value(last["lr_real_mean"])
        if lr is not None:
            quality["ratio_err"] = abs(lr - 1.0)
    if code != 0:
        return f"exit {code}", quality, data
    if not rows:
        return "no metrics records", quality, data
    for row in rows:
        for column, cell in row.items():
            value = _cell_value(cell)
            if value is not None and not math.isfinite(value):
                return f"non-finite {column} at iteration {row['generator_iteration']}", quality, data
    return None, quality, data


def check_verify(out: Path, cmd: Command, code: int):
    path = out / "verify_report.jsonl"
    if not path.exists():
        return f"exit {code}, no verify_report.jsonl", {}, b""
    data = path.read_bytes()
    records = [json.loads(ln) for ln in data.decode().splitlines() if ln.strip()]
    # sign-limit losses get a single skip record, which has no 'passed' field
    bad = [r for r in records if "skipped" not in r and r.get("passed") is not True]
    if code != 0:
        return f"exit {code}", {}, data
    if not records or bad:
        return f"{len(bad)} of {len(records)} records not passed", {}, data
    return None, {}, data


_NUMPY_REPR = re.compile(r"np\.float64\((.*)\)")


def check_solve(out: Path, cmd: Command, code: int):
    path = out / "solve_field.tsv"
    if not path.exists():
        return f"exit {code}, no solve_field.tsv", {}, b""
    data = path.read_bytes()
    cells = [ln.split("\t")[2] for ln in data.decode().splitlines()[1:] if ln.strip()]
    # a cell written as 'np.float64(x)' is malformed, but x still gives the metric
    malformed = [c for c in cells if _NUMPY_REPR.fullmatch(c)]
    ratios = [float(_NUMPY_REPR.sub(r"\1", c)) for c in cells]
    linf = max(abs(r - 1.0) for r in ratios)
    quality = {"max_linf": linf}
    reasons = []
    if code != 0:
        reasons.append(f"exit {code}")
    if not linf <= SOLVE_TOL:
        reasons.append(f"final max|r - 1| = {linf:.3e} > {SOLVE_TOL:g}")
    if malformed:
        reasons.append(f"{len(malformed)} ratio cells written as {malformed[0]!r}")
    return "; ".join(reasons) or None, quality, data


CHECKS = {"train": check_train, "verify": check_verify, "solve": check_solve}


# ---------------------------------------------------------------------------


def run_round(cli, commands: list, out: Path) -> dict:
    """Run one command sequence; every command is checked from its output files.

    The round's wall time is the sum of its commands' times.  A command
    stopped at its time limit counts at the limit, so a solve that runs
    away still shows in wall_s.
    """
    result = {"wall_s": 0.0, "attempted": 0, "failed": [], "timeouts": 0, "quality": {}, "outputs": []}
    for index, cmd in enumerate(commands):
        cmd_out = out / f"c{index}"
        sink = io.StringIO()
        limit = COMMAND_LIMIT_S[cmd.kind]
        timed_out = False
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, limit)
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(["--out", str(cmd_out), *cmd.argv])
        except CommandTimeout:
            timed_out = True
            code = f"timed out after {limit:g} s"
        except Exception as exc:  # a crash is a failed operation, not a benchmark error
            code = f"raised {type(exc).__name__}: {exc}"
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        result["wall_s"] += limit if timed_out else time.perf_counter() - t0
        result["timeouts"] += timed_out
        result["attempted"] += 1
        if isinstance(code, str):
            result["failed"].append((cmd.kind, f"{' '.join(cmd.argv)}: {code}"))
            result["outputs"].append(b"")
            continue
        reason, quality, data = CHECKS[cmd.kind](cmd_out, cmd, code)
        if reason is not None:
            result["failed"].append((cmd.kind, f"{' '.join(cmd.argv)}: {reason}"))
        for key, value in quality.items():
            if value is not None:
                result["quality"][key] = max(value, result["quality"].get(key, value))
        result["outputs"].append(data)
    shutil.rmtree(out, ignore_errors=True)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--out", required=True, help="scratch directory for command outputs")
    ap.add_argument("--layers", required=True, help="layers.json for the traced run")
    args = ap.parse_args(argv)

    import ratiogan.cli as cli

    from tracer import Tracer

    signal.signal(signal.SIGALRM, _time_out)
    tracer = Tracer(json.loads(Path(args.layers).read_text())["layers"]) if args.trace else None
    out = Path(args.out)

    plain, traced, layer_values, overheads, problems, loop_s = [], [], [], [], [], []
    deadline = time.perf_counter() + args.seconds
    while True:
        t0 = time.perf_counter()
        k = len(plain)
        commands = workload_commands(args.workload, args.seed + ROUND_SEED_STRIDE * k, args.size == "tiny")
        if tracer is None:
            plain.append(run_round(cli, commands, out / f"r{k}"))
        else:
            # alternate which side runs first so warm-up favours neither
            for side in ("plain", "traced") if k % 2 == 0 else ("traced", "plain"):
                if side == "traced":
                    tracer.install()
                    try:
                        traced.append(run_round(cli, commands, out / f"t{k}"))
                    finally:
                        tracer.uninstall()
                    layer_values.append(tracer.metrics())
                else:
                    plain.append(run_round(cli, commands, out / f"p{k}"))
            overheads.append(traced[k]["wall_s"] / plain[k]["wall_s"] - 1.0)
            if traced[k]["outputs"] != plain[k]["outputs"]:
                problems.append(f"round {k}: traced and untraced outputs differ at the same seed")
        now = time.perf_counter()
        loop_s.append(now - t0)
        # MIN_ROUNDS yields past twice the budget, to keep the run bounded
        enough = len(plain) >= MIN_ROUNDS or now > deadline + args.seconds
        if enough and now + statistics.median(loop_s) > deadline:
            break

    rounds = plain + traced
    e2e = {
        "wall_s": statistics.median(r["wall_s"] for r in plain),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if commands[0].kind == "train":  # a train round is one train command
        e2e["ms_per_gen_iter"] = 1e3 * e2e["wall_s"] / commands[0].iters
    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(len(r["failed"]) for r in rounds)
    correct = not problems and not any(kind in MUST_PASS for r in rounds for kind, _ in r["failed"])
    e2e["failed_frac"] = failed / attempted
    e2e.update(plain[0]["quality"])  # round 0 runs at --seed itself

    per_layer = {}
    if tracer is not None:
        per_layer = {k: statistics.median(v[k] for v in layer_values) for k in layer_values[0]}
        per_layer["trace.overhead_frac"] = statistics.median(overheads)

    print(json.dumps({
        "rounds": len(plain),
        "round_s": [r["wall_s"] for r in plain],
        "attempted": attempted,
        "failed": failed,
        "correct": correct,
        "timeouts": sum(r["timeouts"] for r in rounds),
        "failures": sorted({message for r in rounds for _, message in r["failed"]}),
        "problems": problems,
        # round 0 runs at --seed itself; a changed digest means changed fixed-seed results
        "round0_sha256": [hashlib.sha256(data).hexdigest() for data in plain[0]["outputs"]],
        "e2e": e2e,
        "per_layer": per_layer,
        "absent": tracer.absent if tracer is not None else [],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
