"""Print every benchmark metric by name and unit, for each workload.

    python3 perfbench/summary.py [--seconds 25] [--seed 0]

For each workload this makes one untraced run (end-to-end metrics) and a
separate traced run (per-layer metrics and the tracing overhead), both
through run.py, and prints them as tables.  Exits 1 if any run fails or
reports incorrect output.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def run(workload: str, trace: int, args) -> tuple:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(trace)],
        cwd=HERE.parent, capture_output=True, text=True, timeout=200,
    )
    if done.returncode != 0:
        raise RuntimeError(f"{workload} --trace {trace} exited {done.returncode}:\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="run every workload and print its metrics")
    ap.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    gated = {m["name"] for m in spec["end_to_end"]}

    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        detail, result = run(workload, 0, args)
        ok &= result["correct"]
        print(f"== {workload}  seed={args.seed}  rounds={detail['rounds']}  "
              f"attempted={result['attempted']}  failed={result['failed']}  timeouts={detail['timeouts']}  "
              f"correct={result['correct']}")
        for name, m in detail["end_to_end"].items():
            print(f"  {name:<20} {m['value']:>14.6g} {m['unit']:<6} {'gated' if name in gated else ''}")
        for failure in detail["failures"]:
            print(f"  failed: {failure}")
        for problem in detail["problems"]:
            print(f"  problem: {problem}")

        detail, result = run(workload, 1, args)
        ok &= result["correct"]
        print(f"  -- traced run: rounds={detail['rounds']} correct={result['correct']}"
              + (f" absent={detail['absent']}" if detail["absent"] else ""))
        for name, m in result["metrics"].items():
            if m["value"] or name.endswith(".calls"):
                print(f"  {name:<48} {m['value']:>14.6g} {m['unit']}")
    prov = detail["provenance"]
    print(f"machine: nproc={prov['nproc']} python={prov['python']} numpy={prov['numpy']} "
          f"blas={prov['blas']['name']} {prov['blas']['version']} threads={prov['blas_threads_env']}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
