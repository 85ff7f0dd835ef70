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
Then one `fit` run per task at the paper's shape (population 100 x 10
trials, 1 generation, the default `max_steps`) puts a batch large enough
to be split over the usable cores under the same comparison.  Last,
`--method fit ns-sd+ --runs 2` at the desk shape (population 50 x 10
trials, `max_steps` 150, 2 generations) runs four runs whose shared batch
splits; a checkout that runs them one at a time must print the same lines.
Each task's rate-0 batch is also put through `sdbc replay --out`, one
trajectory CSV per run's best genome (with predator_prey's `prey` rows),
and `sdbc analyze` over its four runs, and those files are digested too.

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


def paper_config(task: str) -> dict:
    return {"task": task, "seed": 5, "ga": {"population": 100, "generations": 1, "trials": 10}}


def group_config() -> dict:
    return {
        "task": "resource_sharing",
        "seed": 5,
        "dump_population": True,
        "ga": {"population": 50, "generations": 2, "trials": 10},
        "task_params": {"max_steps": 150},
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


def sdbc(argv: list[str]) -> None:
    """The `sdbc` command `argv`, its output sent to stderr."""
    with contextlib.redirect_stdout(sys.stderr):
        if sdbc_main(argv) != 0:
            raise SystemExit(f"sdbc {' '.join(argv)} failed")


def run(work: Path, cfg: dict, methods, runs: int = 1) -> Path:
    """The output directory of `sdbc run` over `cfg` with `methods`."""
    work.mkdir()
    cfg_path = work / "config.yaml"
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = work / "out"
    sdbc(["run", "--config", str(cfg_path), "--out", str(out), "--runs", str(runs),
          "--method", *methods])
    return out


def replay_and_analyze(out: Path, work: Path) -> Path:
    """A directory of `sdbc replay --out` of each run's best genome under
    `out` (replay/<method>_<run>.csv) and `sdbc analyze` of those runs
    (analysis/)."""
    derived = work / "derived"
    (derived / "replay").mkdir(parents=True)
    runs = sorted(path.parent for path in out.rglob("best_genome.txt"))
    for run_dir in runs:
        name = run_dir.relative_to(out).as_posix().replace("/", "_")
        sdbc(["replay", str(run_dir / "best_genome.txt"),
              "--out", str(derived / "replay" / f"{name}.csv")])
    sdbc(["analyze", *map(str, runs), "--out", str(derived / "analysis")])
    return derived


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        for task in TASKS:
            for rate in ARCHIVE_RATES:
                work = Path(tmp) / f"{task}_{rate}"
                out = run(work, config(task, rate), METHODS)
                for name, digest in file_digests(out):
                    print(task, rate, name, digest)
                if rate == 0.0:
                    for name, digest in file_digests(replay_and_analyze(out, work)):
                        print(task, rate, name, digest)
        for task in TASKS:
            out = run(Path(tmp) / f"{task}_paper", paper_config(task), ["fit"])
            for name, digest in file_digests(out):
                print(task, "paper", name, digest)
        out = run(Path(tmp) / "group", group_config(), ["fit", "ns-sd+"], runs=2)
        for name, digest in file_digests(out):
            print("resource_sharing", "group", name, digest)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
