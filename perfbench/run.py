"""Benchmark of whole sdbc evolution runs.

    python3 perfbench/run.py --workload sharing-paper --seed 1 --seconds 30 --trace 0

Run it from anywhere inside a checkout: the program is imported from the
checkout's src/ and from nowhere else, and the script fails without a
result when src/ is missing.  Every run is a fresh single process
(child.py) that drives `sdbc.cli.execute_run` with the workload's config
and the given seed.  Runs are repeated until --seconds is used up.

--trace 0 reports the end-to-end metrics of untraced runs.  --trace 1
alternates untraced and traced runs and reports the per-layer metrics of
the traced ones, plus the tracing overhead.  Every run's generations.csv
is checked (row count, finite fitness inside the task's range) and its
digest must match the other runs of its seed.  The report also gives, per
measurement, how many best genomes re-simulated alone missed their logged
trial fitness: a trial-independence check that the current program fails
at paper scale, so it is reported rather than counted as a failure.
The last line of standard output is the result object; the line before
it is a report with run metadata, digests, sample counts and failures.
README.md beside this file names the workloads and what each metric is for.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

PAPER_GA = {"population": 100, "trials": 10, "hidden_units": 8, "generations": 1}

# Paper-scale workloads time generation 0 of a fresh run: one paper-scale
# generation costs 4-8 s on a 2-vCPU 2.1 GHz Xeon, so longer runs would
# leave too few repetitions per measurement.  desk-sharing covers the
# multi-generation path (breeding, a growing archive, dumps and checkpoints).
WORKLOADS = {
    "sharing-paper": {"task": "resource_sharing", "ga": PAPER_GA},
    "gate-paper": {"task": "gate_escape", "ga": PAPER_GA},
    "pursuit-paper": {"task": "predator_prey", "ga": PAPER_GA},
    "desk-sharing": {
        "task": "resource_sharing",
        "dump_population": True,
        "checkpoint_every": 10,
        "ga": {"population": 50, "trials": 10, "hidden_units": 8, "generations": 12},
        "novelty": {"k": 15, "archive_rate": 0.1},
        "task_params": {
            "max_steps": 150,
            "start_energy": 20.0,
            "recharge": 3.0,
            "station_radius": 0.25,
        },
    },
}

FITNESS_MAX = {"resource_sharing": 1.0, "gate_escape": 1.0, "predator_prey": 2.0}
FITNESS_COLUMNS = ("best_fitness", "mean_fitness", "best_so_far")

CHILD_DEADLINE_S = 170.0  # no child outlives this, counted from the start

# layers timed in the trace, as span names; the *_self_s metric is kept only
# for spans that enclose other wrapped calls
TIMED_LAYERS = (
    "tasks.simulate", "tasks.sensors", "tasks.neighbor_sensor", "tasks.features",
    "simulation.collisions", "simulation.kinematics", "simulation.range_bearing",
    "evolution.evaluate", "evolution.controller", "evolution.breed", "evolution.trial_seeds",
    "characterisation.aggregate", "characterisation.standardise", "characterisation.mi",
    "novelty.score", "novelty.rank", "runio.write",
)
SELF_TIMED_LAYERS = ("evolution.generation", "evolution.evaluate", "tasks.simulate", "tasks.sensors")


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def experiment_config(workload: str, seed: int, population: int) -> dict:
    """Config of the `population`-th distinct run measured for `seed`.

    Each round of a measurement starts a fresh population, so one
    measurement averages over several and depends less on one draw.
    """
    cfg = json.loads(json.dumps(WORKLOADS[workload]))
    cfg.update(method="ns-sd+", seed=seed * 1000 + population)
    return cfg


class Run:
    """One child process and what the driver checked about it."""

    def __init__(self, mode: str, seed: int, launched: float) -> None:
        self.mode = mode
        self.seed = seed
        self.launched = launched
        self.problems: list[str] = []
        self.result: dict = {}
        self.digest: str | None = None
        self.done: dict = {}

    @property
    def setup_s(self) -> float:
        return self.result["generations"][0][0] - self.launched

    def generation_samples(self) -> list[tuple[float, int]]:
        """(seconds, useful trial-steps) per generation."""
        return [(end - start, steps) for start, end, steps in self.result["generations"]]


def check_generations(run: Run, run_dir: Path, cfg: dict) -> None:
    gen_path = run_dir / "generations.csv"
    if not (run_dir / "done.json").is_file() or not gen_path.is_file():
        run.problems.append("no done.json or generations.csv")
        return
    run.done = json.loads((run_dir / "done.json").read_text())
    data = gen_path.read_bytes()
    run.digest = hashlib.sha256(data).hexdigest()[:16]
    rows = list(csv.DictReader(data.decode().splitlines()))
    if len(rows) != cfg["ga"]["generations"]:
        run.problems.append(f"{len(rows)} generations logged, expected {cfg['ga']['generations']}")
    top = FITNESS_MAX[cfg["task"]]
    for row in rows:
        for col in FITNESS_COLUMNS:
            try:
                value = float(row[col])
            except (KeyError, TypeError, ValueError):
                value = math.nan
            if not (math.isfinite(value) and 0.0 <= value <= top):
                run.problems.append(f"generation {row['generation']}: {col} {row.get(col)!r} outside [0, {top}]")


def launch(mode: str, cfg: dict, spans_path: Path, timeout: float) -> Run:
    tmp = Path(tempfile.mkdtemp(prefix=f"{mode}-", dir=WORK))
    spec = {
        "mode": mode,
        "config": cfg,
        "src": str(SRC),
        "run_dir": str(tmp / "run"),
        "result": str(tmp / "result.json"),
        "spans": str(spans_path),
    }
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    run = Run(mode, cfg["seed"], now())
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout,
        )
        if proc.returncode != 0:
            last = proc.stderr.strip().splitlines()[-1:] or [""]
            run.problems.append(f"exit code {proc.returncode}: {last[0]}")
        else:
            run.result = json.loads((tmp / "result.json").read_text())
            if not run.result["generations"]:
                run.problems.append("never reached generation 0")
            elif mode != "probe":
                check_generations(run, tmp / "run", cfg)
    except subprocess.TimeoutExpired:
        run.problems.append(f"killed after {timeout:.0f} s")
    finally:
        shutil.rmtree(tmp)
    return run


def measure(workload: str, seed: int, seconds: float, trace: bool) -> list[Run]:
    """Launch rounds of runs until `seconds` are used.

    An untraced round is two set-up probes and one full run, so set-up is
    sampled across the whole measurement; the first two rounds share a
    population so that its digest is checked, later rounds take new ones.
    A traced round is one untraced and one traced run of a new population;
    their digests must agree and their difference is the tracing overhead.
    A round starts only while the longest round so far would still fit,
    once the minimum rounds are done.
    """
    spans_path = WORK / f"spans-{workload}.json"  # each traced run overwrites it
    start = now()

    def go(mode: str, population: int) -> Run:
        cfg = experiment_config(workload, seed, population)
        return launch(mode, cfg, spans_path, max(start + CHILD_DEADLINE_S - now(), 1.0))

    if trace:
        plan, min_rounds = ("run", "trace"), 1
    else:
        plan, min_rounds = ("probe", "probe", "run"), 2
        go("probe", 0)  # not counted: fills the bytecode and file caches
    runs: list[Run] = []
    longest = 0.0
    rounds = 0
    while rounds < min_rounds or now() - start + longest <= seconds:
        began = now()
        population = rounds if trace else max(rounds - 1, 0)
        runs += [go(mode, population) for mode in plan]
        longest = max(longest, now() - began)
        rounds += 1
    return runs


def check_digests(runs: list[Run]) -> dict[int, str]:
    """Fail every run whose digest differs from the first run of its seed."""
    first: dict[int, str] = {}
    for r in runs:
        if r.digest is None:
            continue
        expected = first.setdefault(r.seed, r.digest)
        if r.digest != expected:
            r.problems.append(f"seed {r.seed}: generations.csv digest {r.digest}, earlier {expected}")
    return first


def tail(samples: list[float]) -> dict:
    """Highest whole percentile with at least ten samples above it (nearest rank)."""
    n = len(samples)
    out: dict = {"samples": n, "median": statistics.median(samples)}
    if n > 10:
        p = math.floor(100.0 * (n - 10) / n)
        out[f"p{p}"] = sorted(samples)[max(math.ceil(p / 100.0 * n) - 1, 0)]
    return out


def end_to_end(runs: list[Run]) -> tuple[dict, dict]:
    full = [r for r in runs if r.mode == "run" and not r.problems]
    gens = [g for r in full for g in r.generation_samples()]
    gen_s = [s for s, _ in gens]
    setup = [r.setup_s for r in runs if r.mode in ("probe", "run") and not r.problems]
    metrics = {
        "gen_s": (statistics.median(gen_s), "s"),
        "trial_steps_per_s": (statistics.median(steps / s for s, steps in gens), "1/s"),
        "run_s": (statistics.median(r.result["done"] - r.result["generations"][0][0] for r in full), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(r.result["max_rss_mib"] for r in full), "MiB"),
    }
    detail = {"gen_s": tail(gen_s), "setup_s": tail(setup), "full_runs": len(full)}
    return metrics, detail


def layer_metrics(run: Run) -> dict:
    layers = run.result["layers"]
    counts = run.result["counts"]
    gen_total = sum(s for s, _ in run.generation_samples())
    out = {}
    for name in TIMED_LAYERS:
        busy = layers.get(name, (0, 0.0, 0.0))[1]
        out[f"{name}_s"] = (busy, "s")
        out[f"{name}_share"] = (busy / gen_total, "fraction")
    for name in SELF_TIMED_LAYERS:
        out[f"{name}_self_s"] = (layers.get(name, (0, 0.0, 0.0))[2], "s")
    useful = counts.get("tasks.useful_trial_steps", 0)
    lockstep = counts.get("tasks.lockstep_trial_steps", 0)
    out.update({
        "tasks.record_mb": (counts.get("tasks.record_bytes", 0) / 2**20, "MiB"),
        "tasks.useful_trial_steps": (useful, "count"),
        "tasks.lockstep_trial_steps": (lockstep, "count"),
        "tasks.active_ratio": (useful / lockstep if lockstep else 0.0, "fraction"),
        "simulation.collisions_calls": (layers.get("simulation.collisions", (0,))[0], "count"),
        "evolution.controller_rows": (counts.get("evolution.controller_rows", 0), "count"),
        "characterisation.apply_calls": (counts.get("characterisation.apply_calls", 0), "count"),
        "novelty.archive_size": (run.done["archive_size"], "count"),
        "runio.bytes_written": (counts.get("runio.bytes_written", 0), "bytes"),
    })
    return out


def per_layer(runs: list[Run]) -> tuple[dict, dict]:
    ok = [r for r in runs if not r.problems]
    traced = [layer_metrics(r) for r in ok if r.mode == "trace"]
    metrics = {
        name: (statistics.median(m[name][0] for m in traced), unit)
        for name, (_, unit) in traced[0].items()
    }
    traced_gen = statistics.median(s for r in ok if r.mode == "trace" for s, _ in r.generation_samples())
    plain_gen = statistics.median(s for r in ok if r.mode == "run" for s, _ in r.generation_samples())
    metrics["trace.gen_s"] = (traced_gen, "s")
    metrics["trace.untraced_gen_s"] = (plain_gen, "s")
    metrics["trace.overhead_s"] = (traced_gen - plain_gen, "s")
    detail = {
        "spans": [r.result["spans"] for r in ok if r.mode == "trace"],
        "unwrapped": sorted({n for r in ok if r.mode == "trace" for n in r.result["unwrapped"]}),
    }
    return metrics, detail


def replay_summary(runs: list[Run]) -> dict:
    diffs = [r.result["replay_diff"] for r in runs if "replay_diff" in r.result]
    return {
        "runs": len(diffs),
        "mismatched": sum(d != 0.0 for d in diffs),
        "max_diff": max(diffs, default=0.0),
    }


def metadata(runs: list[Run], workload: str, seed: int) -> dict:
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    child = next((r.result for r in runs if r.result), {})
    return {
        "workload": workload,
        "seed": seed,
        "git_sha": sha,
        "src_lines": sum(len(p.read_bytes().splitlines()) for p in SRC.rglob("*.py")),
        "python": child.get("python"),
        "numpy": child.get("numpy"),
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "sdbc" / "cli.py").is_file():
        print(f"error: no sdbc sources under {SRC}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)

    runs = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    digests = check_digests(runs)
    failed = [r for r in runs if r.problems]
    report = {
        "meta": metadata(runs, args.workload, args.seed),
        "generations_digests": digests,
        "runs": {mode: sum(r.mode == mode for r in runs) for mode in ("probe", "run", "trace")},
        "failed_frac": len(failed) / len(runs),
        "replay": replay_summary(runs),
        "problems": [f"{r.mode}: {p}" for r in failed for p in r.problems],
    }
    correct = not failed
    metrics: dict = {}
    if correct:
        metrics, report["detail"] = (per_layer if args.trace else end_to_end)(runs)
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
