#!/usr/bin/env python3
"""Print one sha256 line per run file of small runs of every method, so
two checkouts can be compared with `diff`.

For each task and novelty archive rate (0, 0.02 and 0.5) it runs
`sdbc run --method fit ns-ts ns-sd ns-sd+` with population 10, 5
generations, 2 trials, `max_steps` 40, `checkpoint_every` 2 and
`dump_population` true, in a temporary directory.  Each `.npz` array
gets its own line, over its dtype, shape and bytes; `timing.csv` (wall
clock) and `config.yaml` (which names the temporary directory) are
skipped.  Where `trajectory_digests.py` covers the simulator, this covers
the GA and the run record: selection, the archive, breeding, checkpoints,
population and feature dumps, best genomes and `generations.csv`.

    python3 scripts/run_file_digests.py > after.txt
    (cd ../parent && python3 scripts/run_file_digests.py) > before.txt
    diff before.txt after.txt

The digests are bit-level, so another NumPy build or CPU may move them.
"""

import contextlib
import hashlib
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdbc.cli import main as sdbc_main  # noqa: E402

TASKS = ("resource_sharing", "gate_escape", "predator_prey")
ARCHIVE_RATES = (0.0, 0.02, 0.5)
METHODS = ("fit", "ns-ts", "ns-sd", "ns-sd+")
SKIPPED = ("timing.csv", "config.yaml")


def config(task: str, rate: float) -> dict:
    return {
        "task": task,
        "seed": 5,
        "dump_population": True,
        "checkpoint_every": 2,
        "ga": {"population": 10, "generations": 5, "trials": 2},
        "novelty": {"archive_rate": rate},
        "task_params": {"max_steps": 40},
    }


def file_digests(root: Path):
    """(name, sha256) for every run file under `root`, one per npz array."""
    for path in sorted(p for p in root.rglob("*") if p.is_file()):
        if path.name in SKIPPED:
            continue
        rel = path.relative_to(root).as_posix()
        if path.suffix == ".npz":
            with np.load(path) as data:
                for name in data.files:
                    a = data[name]
                    head = f"{a.dtype.str} {a.shape} ".encode()
                    yield f"{rel}:{name}", hashlib.sha256(head + a.tobytes()).hexdigest()
        else:
            yield rel, hashlib.sha256(path.read_bytes()).hexdigest()


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for task in TASKS:
            for rate in ARCHIVE_RATES:
                work = Path(tmp) / f"{task}_{rate}"
                work.mkdir()
                cfg_path = work / "config.yaml"
                cfg_path.write_text(yaml.safe_dump(config(task, rate)))
                out = work / "out"
                argv = ["run", "--config", str(cfg_path), "--out", str(out),
                        "--method", *METHODS]
                with contextlib.redirect_stdout(sys.stderr):
                    if sdbc_main(argv) != 0:
                        raise SystemExit(f"{task} rate {rate}: sdbc run failed")
                for name, digest in file_digests(out):
                    print(task, rate, name, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
