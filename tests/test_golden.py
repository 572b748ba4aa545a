"""Fixed-seed outputs of short CLI runs, pinned by sha256 digest.

tests/data/golden_digests.json holds the digests of the data files that
short training runs, ``verify --loss all`` and three capped ideal solves
write (one of them on a correlated 2-D Gaussian grid), with the numpy
version and BLAS library they were recorded under.
A change that is meant to keep every result bit for bit must leave them
as they are.  To record them again after a deliberate change:

    PYTHONPATH=src python tests/test_golden.py
"""

import hashlib
import json
from pathlib import Path

import numpy as np

from ratiogan.cli import main

GOLDEN = Path(__file__).parent / "data" / "golden_digests.json"

_SHORT = ["--set", "train.total_generator_iters=40", "--set", "train.eval_every=20", "--set", "train.eval_batch=256"]
COMMANDS = {
    "shift1d-MSE": ["train", "--preset", "shift1d-MSE", "--set", "train.lambda=10.0",
                    "--set", "train.checkpoint_every=20", *_SHORT],
    "ring2d-B2": ["train", "--preset", "ring2d-B2", "--set", "train.lambda=0.0", *_SHORT],
    "ring2d-C2": ["train", "--preset", "ring2d-C2", "--set", "train.lambda=10.0", *_SHORT],
    "verify": ["verify", "--loss", "all"],
    **{f"solve-{loss}": ["solve-grid", "--loss", loss, "--max-iters", "200"] for loss in ("MSE", "B1b", "C2")},
    "solve2d-MSE": ["solve-grid", "--loss", "MSE", "--config", "GAUSSIAN2D", "--n-points", "16", "--max-iters", "50"],
}
# the 2-D solve's target, written under the output root as gaussian2d.cfg
GAUSSIAN2D = "[density.target]\nkind = gaussian\nmean = 0.5 -0.25\ncov = 1.0 0.6; 0.6 1.5\n"
# result files only: not config.cfg, plots or the text report
DATA_FILES = ("metrics.tsv", "*.json", "samples_final.csv", "verify_report.jsonl", "solve_*.tsv")


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas.get('version', '')}".strip()}


def digests(out: Path) -> dict:
    """Run every command under out; sha256 of each data file, keyed command/relative path."""
    found = {}
    config = out / "gaussian2d.cfg"
    config.write_text(GAUSSIAN2D)
    for name, argv in COMMANDS.items():
        argv = [str(config) if a == "GAUSSIAN2D" else a for a in argv]
        main(["--out", str(out / name), *argv])  # a capped solve exits 1; its files still count
        for pattern in DATA_FILES:
            for path in (out / name).rglob(pattern):
                found[f"{name}/{path.relative_to(out / name).as_posix()}"] = hashlib.sha256(
                    path.read_bytes()
                ).hexdigest()
    return dict(sorted(found.items()))


def test_fixed_seed_outputs_match_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    got = digests(tmp_path)
    changed = sorted(k for k in golden["digests"].keys() | got.keys() if golden["digests"].get(k) != got.get(k))
    assert not changed, (
        f"{len(changed)} fixed-seed output digests changed: {changed}. Recorded under {golden['environment']}, "
        f"run under {environment()}. If the change is on purpose, list the changed digests in CHANGES.md "
        f"and record them again with `PYTHONPATH=src python tests/test_golden.py`."
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        record = {"environment": environment(), "digests": digests(Path(tmp))}
    GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    print(f"wrote {len(record['digests'])} digests to {GOLDEN}")
