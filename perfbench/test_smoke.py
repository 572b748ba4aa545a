"""Tiny-size smoke run of the benchmark, with no timing gates.

    python3 -m pytest perfbench -q

Checks that every metric is reported by name with its unit, for each
workload and both trace settings, and that the tracer is transparent.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

TRAIN_DETAIL = {"setup_s": "s", "wall_s": "s", "ms_per_gen_iter": "ms", "peak_rss_mb": "MB",
                "failed_frac": "frac", "final_swd": "1", "ratio_err": "1"}
DETAIL_UNITS = {
    "train-shift1d-gp": TRAIN_DETAIL,
    "train-ring2d-evaldense": TRAIN_DETAIL,
    "certify-solve": {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "failed_frac": "frac",
                      "max_linf": "1"},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
         "--seconds", "0.5", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def parse(done):
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return json.loads(lines[-2])["detail"], result


def units(metrics: dict) -> dict:
    return {name: m["unit"] for name, m in metrics.items()}


def test_workloads_match_worker():
    sys.path.insert(0, str(HERE))
    try:
        import worker
    finally:
        sys.path.remove(str(HERE))
    assert tuple(WORKLOADS) == worker.WORKLOADS
    assert set(DETAIL_UNITS) == set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = parse(run_bench(workload, 0))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert units(detail["end_to_end"]) == DETAIL_UNITS[workload]
    assert all(m["value"] > 0 for name, m in result["metrics"].items())
    assert len(detail["round0_sha256"]) == (4 if workload == "certify-solve" else 1)
    assert detail["timeouts"] == 0
    prov = detail["provenance"]
    assert {"nproc", "python", "numpy", "blas", "blas_threads_env", "git_commit",
            "loadavg_before", "loadavg_after"} <= set(prov)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric(workload):
    detail, result = parse(run_bench(workload, 1))
    assert units(result["metrics"]) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert detail["absent"] == []
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert values["cli.main.calls"] == (4 if workload == "certify-solve" else 1)
    if workload == "train-shift1d-gp":
        assert values["nets.weighted_norm_param_grads.calls"] > 0
    if workload == "train-ring2d-evaldense":
        assert values["nets.weighted_norm_param_grads.calls"] == 0
        assert values["training.gradient_penalty.calls"] == 0
    if workload == "certify-solve":
        assert values["training.train.calls"] == 0
        assert values["grid_solver.solve_minmax_grid.calls"] == 3
        assert values["grid_solver.project_feasible.calls_per_iter"] >= 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("certify-solve", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_tracer_is_transparent_and_patches_imported_names():
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    try:
        import ratiogan.cli as cli
        import ratiogan.nets as nets
        import ratiogan.training as training
        from tracer import Tracer
    finally:
        del sys.path[:2]
    original = nets.forward
    layers = {"nets": {"forward": {"rows": ["batch"]}, "gone": {}}, "training": {"train": {}}}
    tracer = Tracer(layers)
    tracer.install()
    try:
        assert nets.forward is not original
        assert training.forward is nets.forward and cli.forward is nets.forward
        net = nets.init_net(nets.NetSpec(widths=(2, 3, 1), hidden="tanh", squash=None, seed=0))
        batch = np.arange(10.0).reshape(5, 2)
        traced_out, _ = training.forward(net, batch)
        assert np.array_equal(traced_out, original(net, batch)[0])
        with pytest.raises(ValueError):
            cli.forward(net, np.zeros((4, 3)))
        values = tracer.metrics()
    finally:
        tracer.uninstall()
    assert nets.forward is original and training.forward is original and cli.forward is original
    assert tracer.absent == ["nets.gone"]
    assert values["nets.forward.calls"] == 2 and values["nets.forward.rows"] == 9
    assert values["nets.gone.calls"] == 0 and values["training.train.calls"] == 0
