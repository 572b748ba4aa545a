"""ratiogan benchmark: closed-loop CLI workloads, end to end or traced per layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from a checkout root that holds ``src/ratiogan``.  The workload runs
in a fresh worker process that calls ``ratiogan.cli.main`` in-process.
``setup_s`` is the median time for a fresh interpreter to import
``ratiogan.cli`` (which builds the loss catalogue), sampled before and
after the worker.  With ``--trace 0`` the result holds the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` a separate traced run
holds the per-layer metrics and the tracing overhead.  The line before
the result is a detail record: every measured end-to-end value with its
unit, failures, timeouts, digests of round 0's outputs, and provenance.
The last line is the result JSON.  ``correct`` is false when a train or
verify command fails its check, or when traced and untraced rounds at
the same seed write different outputs; solve-grid failures count in
``failed`` only.  Thread counts are recorded, never set.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from worker import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 4  # before the worker and again after it
WORKER_TIMEOUT_S = 170
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# units of the workload-specific values that are reported but not gated
DETAIL_UNITS = {
    "ms_per_gen_iter": "ms",
    "failed_frac": "frac",
    "max_linf": "1",
    "final_swd": "1",
    "ratio_err": "1",
}


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def measure_setup(env: dict) -> list:
    """Wall times of fresh interpreters importing ratiogan.cli."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls in sleeps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import ratiogan.cli"], env=env, cwd=ROOT, check=True)
        times.append(time.perf_counter() - t0)
    return times


def _git_commit():
    """HEAD of the checkout, or None when it is not a git work tree."""
    # the ceiling keeps git from finding a repository above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def provenance() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ratiogan benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0,
                    help="round k uses train.seed 20260811 + seed + 1000 k and solve-grid --init-seed seed + 1000 k")
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every command, for smoke tests only")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "ratiogan" / "cli.py").is_file():
        print(f"no ratiogan sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]

    # on SIGTERM, unwind: subprocess.run then kills the worker and the finally below cleans up
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    env = _env()
    load_before = os.getloadavg()
    # set-up samples on both sides of the worker see more than one moment of machine load
    setup_times = [] if args.trace else measure_setup(env)

    out = ROOT / ".perfbench_out" / f"{args.workload}-{os.getpid()}"
    try:
        done = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--size", args.size, "--out", str(out), "--layers", str(HERE / "layers.json")],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)
        if out.parent.exists() and not any(out.parent.iterdir()):
            out.parent.rmdir()
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        print(f"worker exited with {done.returncode}", file=sys.stderr)
        return 1
    worker = json.loads(done.stdout.strip().splitlines()[-1])

    e2e = dict(worker["e2e"])
    if not args.trace:
        e2e["setup_s"] = statistics.median(setup_times + measure_setup(env))
    measured = worker["per_layer"] if args.trace else e2e
    missing = [m["name"] for m in wanted if m["name"] not in measured]
    if missing:
        print(f"worker did not measure {missing}", file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in wanted}

    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | DETAIL_UNITS
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": worker["rounds"],
        "round_s": worker["round_s"],
        "end_to_end": {k: {"value": v, "unit": units[k]} for k, v in e2e.items()},
        "timeouts": worker["timeouts"],
        "failures": worker["failures"],
        "problems": worker["problems"],
        "round0_sha256": worker["round0_sha256"],
        "absent": worker["absent"],
        "provenance": provenance() | {"loadavg_before": load_before, "loadavg_after": os.getloadavg()},
    }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": worker["correct"],
        "attempted": worker["attempted"],
        "failed": worker["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
