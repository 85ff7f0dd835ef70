"""One evolution run in this process, driven by run.py beside this file.

    python3 perfbench/child.py '<json spec>'

The spec holds the experiment config, the src/ directory to import sdbc
from, a run directory, a result file, a span file and a mode:

    probe  stop at the start of generation 0, so only set-up is timed
    run    the whole run through sdbc.cli.execute_run, timing each generation
    trace  as run, with the public calls of every layer wrapped in spans

Every mode times `run_generation` and sums `TrialBatch.steps` per
generation; these wrappers cost one call per generation.  The result file
gets the generation times, the end of the run and the peak resident
memory, plus the span totals in trace mode.  After a full run the best
genome is re-simulated alone, outside every figure, and the largest
difference from its logged trial fitness is reported.
"""

from __future__ import annotations

import functools
import json
import platform
import resource
import sys
import time
from pathlib import Path

from spans import Tracer


def now() -> float:
    # CLOCK_MONOTONIC is one clock for every process on the machine, so the
    # driver can subtract its launch stamp from the stamps taken here
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class SetupDone(Exception):
    """Raised at the start of generation 0 in probe mode."""


def replace_everywhere(original, replacement) -> None:
    """Rebind every sdbc module attribute that is `original`, including
    names other modules imported with `from ... import`."""
    for name, module in list(sys.modules.items()):
        if name == "sdbc" or name.startswith("sdbc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)


def _files(root: Path) -> dict[Path, tuple[int, int]]:
    stats = {p: p.stat() for p in root.rglob("*") if p.is_file()}
    return {p: (st.st_size, st.st_mtime_ns) for p, st in stats.items()}


def install_trace(tracer: Tracer) -> list[str]:
    """Wrap the public functions and task methods of each layer in spans;
    returns the names that no longer exist, whose layers then read zero."""
    from sdbc import characterisation, evolution, novelty, runio, simulation
    from sdbc.tasks import TASKS, base

    counts = tracer.counts

    def count_apply(token, args, result):
        counts["characterisation.apply_calls"] += 1

    def count_rows(token, args, result):
        counts["evolution.controller_rows"] += args[1].shape[0]

    def count_batch(token, args, batch):
        counts["tasks.useful_trial_steps"] += int(batch.steps.sum())
        counts["tasks.lockstep_trial_steps"] += batch.features.shape[0] * batch.features.shape[1]
        arrays = [batch.features] + [
            a for a in (batch.record or {}).values() if hasattr(a, "nbytes")
        ]
        counts["tasks.record_bytes"] += sum(a.nbytes for a in arrays)

    def snapshot(args):
        return _files(args[0].dir)

    def count_written(before, args, result):
        # a file counts in full when the call created or rewrote it
        after = _files(args[0].dir)
        counts["runio.bytes_written"] += sum(
            size for path, (size, mtime) in after.items() if before.get(path) != (size, mtime)
        )

    targets = [
        ("tasks.neighbor_sensor", base, "nearest_neighbor_sensor", {}),
        ("simulation.collisions", simulation, "resolve_collisions_arrays", {}),
        ("simulation.kinematics", simulation, "step_kinematics_arrays", {}),
        ("simulation.range_bearing", simulation, "range_bearing_arrays", {}),
        ("evolution.generation", evolution, "run_generation", {}),
        ("evolution.evaluate", evolution, "evaluate_population", {}),
        ("evolution.breed", evolution, "mutate", {}),
        ("evolution.breed", evolution, "crossover", {}),
        ("evolution.trial_seeds", evolution, "trial_seeds", {}),
        ("characterisation.aggregate", characterisation, "aggregate_batch", {}),
        ("characterisation.aggregate", characterisation, "aggregate_trials", {}),
        ("characterisation.standardise", characterisation, "compute_standardisation", {}),
        ("characterisation.standardise", characterisation, "apply_standardisation",
         {"after": count_apply}),
        ("characterisation.mi", characterisation, "compute_weights", {}),
        ("novelty.score", novelty, "novelty_scores", {}),
        ("novelty.rank", novelty, "rank_population", {}),
        ("evolution.controller", evolution.StackedControllers, "__call__",
         {"after": count_rows}),
    ]
    for cls, _ in TASKS.values():
        targets += [
            ("tasks.simulate", cls, "simulate", {"after": count_batch}),
            ("tasks.sensors", cls, "_sensors", {}),
            ("tasks.features", cls, "_features", {}),
        ]
    for attr in ("append_generation", "dump_population", "dump_feature_stats",
                 "write_checkpoint", "write_archive", "write_best_genome", "mark_done"):
        targets.append(("runio.write", runio.RunWriter, attr,
                        {"before": snapshot, "after": count_written}))

    missing = []
    for name, owner, attr, hooks in targets:
        fn = vars(owner).get(attr)
        if fn is None:
            missing.append(f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}")
        elif isinstance(owner, type):
            setattr(owner, attr, tracer.wrap(name, fn, **hooks))
        else:
            replace_everywhere(fn, tracer.wrap(name, fn, **hooks))
    return missing


def replay_best(cfg, run_dir: str) -> float:
    """Re-simulate the logged best genome alone on its own trial seeds and
    return the largest difference from its logged per-trial fitness.

    The difference is 0.0 only if the trials of one batch do not affect
    each other.
    """
    from sdbc import runio
    from sdbc.evolution import ControllerSpec, evaluate
    from sdbc.tasks import make_task

    header, weights = runio.load_genome_file(Path(run_dir) / "best_genome.txt")
    spec = ControllerSpec(*(int(header[k]) for k in ("inputs", "hidden", "outputs")))
    seeds = [int(s) for s in header["trial_seeds"].split(",")]
    result = evaluate(weights, make_task(cfg.task, cfg.task_params), spec, seeds)
    logged = [float(f) for f in header["trial_fitness"].split(",")]
    return max(abs(a - b) for a, b in zip(result.trial_fitness.tolist(), logged))


def main() -> int:
    spec = json.loads(sys.argv[1])
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import numpy
    import sdbc
    from sdbc import cli, evolution
    from sdbc.config import config_from_dict
    from sdbc.tasks import TASKS

    if src not in Path(sdbc.__file__).resolve().parents:
        print(f"sdbc was imported from {sdbc.__file__}, not from {src}", file=sys.stderr)
        return 3
    cfg = config_from_dict(spec["config"])

    tracer = Tracer() if spec["mode"] == "trace" else None
    unwrapped = install_trace(tracer) if tracer is not None else []

    generations: list[list[float]] = []  # [start, end, useful trial-steps]
    run_generation = evolution.run_generation

    def timed_generation(state):
        generations.append([now(), 0.0, 0])
        if spec["mode"] == "probe":
            raise SetupDone
        out = run_generation(state)
        generations[-1][1] = now()
        return out

    replace_everywhere(run_generation, timed_generation)

    def counting(simulate):
        @functools.wraps(simulate)
        def counted(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            if generations:
                generations[-1][2] += int(batch.steps.sum())
            return batch

        return counted

    for cls, _ in TASKS.values():
        cls.simulate = counting(cls.simulate)

    try:
        cli.execute_run(cfg, spec["run_dir"])
        done = now()
    except SetupDone:
        done = None

    result = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "generations": [list(g) for g in generations],
        "done": done,
        # ru_maxrss is in KiB on Linux
        "max_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = tracer.totals()
        result["counts"] = dict(tracer.counts)
        result["spans"] = len(tracer.spans)
        result["unwrapped"] = unwrapped
        tracer.write(spec["spans"])
    if done is not None:  # after the figures above are taken, so they omit it
        result["replay_diff"] = replay_best(cfg, spec["run_dir"])
    with open(spec["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
