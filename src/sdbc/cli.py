"""Command-line entry points: run experiments, replay genomes, analyse runs.

Flags override SDBC_* environment variables, which override the config
file.  A batch runs `--runs` runs of each method that `--method` lists
(default: the config's `method`).  Run i of the j-th method uses seed
master + 1000*j + i, so every run is independently reproducible and a
one-method batch uses master + i.  One method writes OUT/run_i; several
write OUT/<method>/run_i, with "+" spelled "plus".  The runs advance in
groups of up to `GROUP_RUNS`, whose fresh genomes each generation are
evaluated as one trial batch, split over the usable cores when it is
large enough; grouping cannot change any run's results.  A run that
fails is reported and the others carry on; `run` then exits with status
1.  `--resume` continues unfinished runs and leaves complete ones as they
are; it refuses, before any run starts, a config that differs from a
run's `config.yaml` in any field but `out` and `ga.generations`.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import os
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Sequence

import numpy as np

from . import analysis
from . import runio
from .characterisation import apply_standardisation, compute_standardisation
from .config import (
    ConfigError,
    ExperimentConfig,
    default_config_text,
    load_config,
    validate_config,
)
from .evolution import (
    METHODS,
    ControllerSpec,
    EvolutionState,
    advance_generation,
    build_controller,
    evaluate_fresh,
    init_population,
    run_generation,
)
from .tasks import Task, TrialBatch, make_task

ENV_PREFIX = "SDBC_"
METHOD_SEED_STRIDE = 1000  # seeds set aside for each method of a batch
GROUP_RUNS = 8  # runs that share a trial batch: bounds its memory and a shared fault's reach


def _env_default(name: str, default=None):
    """The SDBC_<NAME> variable as its raw string, else `default`;
    argparse converts a string default with the option's `type`, so a
    malformed value is a usage error of the subcommand that reads it."""
    return os.environ.get(ENV_PREFIX + name.upper(), default)


def _fail(message: str) -> int:
    """Report bad input on stderr; the command exits with status 2."""
    print(f"error: {message}", file=sys.stderr)
    return 2


def build_state(cfg: ExperimentConfig) -> EvolutionState:
    task = make_task(cfg.task, cfg.task_params)
    spec = ControllerSpec(
        inputs=task.n_inputs, hidden=cfg.ga.hidden_units, outputs=task.n_outputs
    )
    return EvolutionState(
        task=task,
        method=cfg.method,
        spec=spec,
        master_seed=cfg.seed,
        population_size=cfg.ga.population,
        trials=cfg.ga.trials,
        tournament_size=cfg.ga.tournament_size,
        p_crossover=cfg.ga.p_crossover,
        p_gene_mutation=cfg.ga.p_gene_mutation,
        mutation_sigma=cfg.ga.mutation_sigma,
        elites=cfg.ga.elites,
        init_range=cfg.ga.init_range,
        novelty_k=cfg.novelty.k,
        archive_rate=cfg.novelty.archive_rate,
        delta=cfg.sdbc.delta,
        mi_bins_min=cfg.sdbc.mi_bins_min,
        mi_bins_max=cfg.sdbc.mi_bins_max,
        weight_update_period=cfg.sdbc.weight_update_period,
    )


def execute_run(cfg: ExperimentConfig, run_dir: str | Path, resume: bool = False) -> dict:
    """Run one evolution to completion: `execute_runs` of one job, raising its failure."""
    (outcome,) = execute_runs([(cfg, run_dir, resume)])
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def execute_runs(jobs: Sequence[tuple[ExperimentConfig, str | Path, bool]]) -> list:
    """Run (config, run directory, resume) jobs of one task and controller
    in consecutive groups of `GROUP_RUNS`; a group evaluates its runs' fresh
    genomes of each generation in one batch.  Returns each job's summary or
    the exception that failed it, left as `error.txt` until a success.  A
    fault in a run's own set-up, selection or files fails it alone; one in
    the shared evaluation fails every run of the group still going."""
    outcomes: list = [None] * len(jobs)
    for first in range(0, len(jobs), GROUP_RUNS):
        runs = {k: _run_steps(*jobs[k]) for k in range(len(jobs))[first:first + GROUP_RUNS]}
        # what each run is sent next, computed inside that run's own `try`
        replies = dict.fromkeys(runs, lambda: None)
        while True:
            live = {}  # job index -> state, for the runs still going
            for k, reply in replies.items():
                try:
                    live[k] = runs[k].send(reply())
                except StopIteration as stop:
                    outcomes[k] = stop.value
                except Exception as exc:
                    outcomes[k] = exc
            if not live:
                break
            t0 = time.perf_counter()
            try:  # a lone run calls `run_generation`, whose calls the benchmark times
                if len(live) == 1:
                    out = run_generation(*live.values())
                    replies = dict.fromkeys(live, lambda: out)
                else:
                    counts = evaluate_fresh(list(live.values()))
                    replies = {k: functools.partial(advance_generation, state, n, t0)
                               for (k, state), n in zip(live.items(), counts)}
            except Exception as exc:
                for k in live:
                    outcomes[k] = exc
                break
        for k in runs:
            error_file = Path(jobs[k][1]) / "error.txt"
            with contextlib.suppress(OSError):  # e.g. the run directory is missing or a file
                if isinstance(outcomes[k], Exception):
                    trace = "".join(traceback.format_exception(outcomes[k]))
                    runio._replace_file(error_file, lambda fh: fh.write(trace))
                else:
                    error_file.unlink(missing_ok=True)
    return outcomes


def _run_steps(cfg: ExperimentConfig, run_dir: str | Path, resume: bool):
    """One run as a generator: it yields its state before each generation,
    is sent back (stats, detail), and returns its summary."""
    if resume and runio.is_complete(run_dir):
        done = json.loads((Path(run_dir) / "done.json").read_text())
        return {"best_fitness": done["best_fitness"], "run_dir": str(run_dir)}
    state = build_state(cfg)
    task = state.task
    meta = {
        "task": cfg.task,
        "method": cfg.method,
        "seed": cfg.seed,
        "feature_names": list(task.feature_names()),
        "char_schema": list(task.char_schema()),
        "controller": {
            "inputs": state.spec.inputs,
            "hidden": state.spec.hidden,
            "outputs": state.spec.outputs,
        },
    }
    writer = runio.RunWriter(run_dir, cfg, meta)
    if resume and (Path(run_dir) / "checkpoint.npz").exists():
        runio.restore_state(state, run_dir)
        writer.resume_generations(state.generation - 1)
    else:
        init_population(state)

    schema = task.char_schema()
    while state.generation < cfg.ga.generations:
        stats, detail = yield state
        writer.append_generation(stats)
        if cfg.dump_population:
            writer.dump_population(stats.generation, detail)
            writer.dump_feature_stats(stats.generation, schema, detail)
        last = state.generation >= cfg.ga.generations
        if last or state.generation % cfg.checkpoint_every == 0:
            writer.write_checkpoint(state)
    writer.write_archive(state.archive)
    writer.write_best_genome(state, cfg.task)
    writer.mark_done(state)
    return {"best_fitness": state.best_so_far, "run_dir": str(run_dir)}


def _flat_fields(d: dict, prefix: str = "") -> dict[str, Any]:
    """A nested config mapping as {dotted field path: value}."""
    out: dict[str, Any] = {}
    for key, value in d.items():
        if isinstance(value, dict):
            out.update(_flat_fields(value, f"{prefix}{key}."))
        else:
            out[f"{prefix}{key}"] = value
    return out


def _resume_conflict(run_dir: Path, cfg_dict: dict) -> str | None:
    """Why `run_dir` cannot be resumed under `cfg_dict`, or None.

    A resumed run must keep the config its `config.yaml` records, except
    for `out` and `ga.generations`, so that a run can be extended; a
    directory without `config.yaml` holds no run to keep."""
    path = run_dir / "config.yaml"
    if not path.exists():
        return None
    try:
        old = _flat_fields(load_config(path).to_dict())
    except ConfigError as exc:
        return f"config.yaml: {exc}"
    new = _flat_fields(cfg_dict)
    for key in {**new, **old}:  # the job's field order, then fields only the run has
        was, now = old.get(key, "unset"), new.get(key, "unset")
        if was != now and key not in ("out", "ga.generations"):
            return f"cannot resume with another {key}: the run has {was!r}, the config {now!r}"
    return None


def cmd_run(args: argparse.Namespace) -> int:
    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg.seed = args.seed
            validate_config(cfg)
    except ConfigError as exc:
        return _fail(f"invalid configuration: {exc}")
    if args.out is not None:
        cfg.out = args.out
    methods = args.method or [cfg.method]
    if args.runs < 1:
        return _fail(f"--runs must be >= 1, got {args.runs}")
    if len(set(methods)) < len(methods):
        return _fail(f"--method lists a method twice: {' '.join(methods)}")
    if len(methods) > 1 and args.runs > METHOD_SEED_STRIDE:
        return _fail(
            f"--runs {args.runs} would give two methods the same seeds "
            f"(at most {METHOD_SEED_STRIDE} runs per method)"
        )
    out_root = Path(cfg.out)
    out_root.mkdir(parents=True, exist_ok=True)

    # seeds and layout as in the module docstring
    jobs = []
    for j, method in enumerate(methods):
        method_root = out_root / method.replace("+", "plus") if len(methods) > 1 else out_root
        for i in range(args.runs):
            seed = cfg.seed + METHOD_SEED_STRIDE * j + i
            run_cfg = dataclasses.replace(cfg, method=method, seed=seed)
            jobs.append((run_cfg, str(method_root / f"run_{i:03d}"), args.resume))
    if args.resume:
        for run_cfg, run_dir, _ in jobs:
            conflict = _resume_conflict(Path(run_dir), run_cfg.to_dict())
            if conflict:
                return _fail(f"{run_dir}: {conflict}")

    outcomes = execute_runs(jobs)
    for (_, run_dir, _), res in zip(jobs, outcomes):
        if isinstance(res, Exception):
            print("".join(traceback.format_exception(res)), end="", file=sys.stderr)
            print(f"{run_dir}: failed: {type(res).__name__}: {res}", file=sys.stderr)
        else:
            print(f"{run_dir}: best fitness {res['best_fitness']:.6f}")
    return 1 if any(isinstance(res, Exception) for res in outcomes) else 0


def replay_genome(
    genome: str | Path, config: str | Path | None = None, seed: int | None = None
) -> tuple[dict[str, str], Task, int, TrialBatch]:
    """Re-simulate a saved genome on one trial seed with every step recorded;
    returns the genome file's header, the task, the seed and the batch.

    Task overrides come from `config`, else from the `config.yaml` beside
    the genome; the seed defaults to the first logged trial seed.  Bad
    input raises OSError or ValueError (ConfigError for a configuration).
    """
    header, weights = runio.load_genome_file(genome)
    if not config:
        sibling = Path(genome).parent / "config.yaml"
        config = sibling if sibling.exists() else None
    task = make_task(header["task"], load_config(config).task_params if config else {})
    spec = ControllerSpec(
        inputs=int(header["inputs"]),
        hidden=int(header["hidden"]),
        outputs=int(header["outputs"]),
    )
    if seed is None:
        seeds = header.get("trial_seeds", "")
        seed = int(seeds.split(",")[0]) if seeds else 0
    batch = task.simulate(build_controller(weights, spec), [seed], record=True)
    return header, task, seed, batch


def cmd_replay(args: argparse.Namespace) -> int:
    try:
        _, _, seed, batch = replay_genome(args.genome, args.config, args.seed)
    except ConfigError as exc:
        return _fail(f"invalid configuration: {exc}")
    except (OSError, ValueError) as exc:
        return _fail(str(exc))
    if args.out:
        rec = batch.record  # (T, 1, ...): one trial
        rows = []
        for t in range(int(batch.steps[0])):
            for i in range(rec["pos"].shape[2]):
                xs = (*rec["pos"][t, 0, i], rec["heading"][t, 0, i], *rec["wheels"][t, 0, i])
                rows.append((t, i, *(repr(float(x)) for x in xs)))
            if "prey" in rec:
                rows.append((t, "prey", *(repr(float(x)) for x in rec["prey"][t, 0]), "", "", ""))
        runio._write_csv(
            Path(args.out), ("step", "robot", "x", "y", "heading", "left", "right"), rows
        )
        print(f"trajectory written to {args.out}")
    print(f"seed {seed}: fitness {float(batch.fitness[0])!r}, steps {int(batch.steps[0])}")
    return 0


def _collect_runs(run_dirs: list[str]) -> dict[str, list[Path]]:
    """Group completed run directories by method, skipping incomplete ones;
    runs of different tasks or characterisation schemas raise ValueError."""
    by_method: dict[str, list[Path]] = {}
    first = None  # the first complete run and its meta
    for d in run_dirs:
        path = Path(d)
        if not (path / "meta.json").exists():
            print(f"skipping {d}: no meta.json", file=sys.stderr)
            continue
        if not runio.is_complete(path):
            print(f"skipping {d}: incomplete run", file=sys.stderr)
            continue
        meta = runio.read_meta(path)
        first = first or (d, meta)
        d0, meta0 = first
        if (meta["task"], meta["char_schema"]) != (meta0["task"], meta0["char_schema"]):
            raise ValueError(
                "cannot analyse runs of different tasks together: "
                f"{d0} is {meta0['task']} ({len(meta0['char_schema'])} components), "
                f"{d} is {meta['task']} ({len(meta['char_schema'])} components)"
            )
        by_method.setdefault(meta["method"], []).append(path)
    return by_method


def cmd_analyze(args: argparse.Namespace) -> int:
    try:
        by_method = _collect_runs(args.run_dirs)
    except ValueError as exc:
        return _fail(str(exc))
    if not by_method:
        return _fail("no complete runs to analyse")
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    methods = sorted(by_method)

    # fitness curves and per-run bests
    bests: dict[str, list[float]] = {}
    curve_rows = []
    for method in methods:
        curves = []
        for run in by_method[method]:
            rows = runio.read_generations(run)
            curves.append([row["best_so_far"] for row in rows])
            bests.setdefault(method, []).append(rows[-1]["best_so_far"])
        length = min(len(c) for c in curves)
        mat = np.array([c[:length] for c in curves])
        curve_rows += [
            (method, g, repr(float(mat[:, g].mean())), repr(float(mat[:, g].std())))
            for g in range(length)
        ]
    runio._write_csv(
        out / "fitness_curves.csv",
        ("method", "generation", "mean_best_so_far", "sd_best_so_far"),
        curve_rows,
    )
    runio._write_csv(
        out / "best_fitness.csv",
        ("method", "run", "best_fitness"),
        [(m, i, repr(value)) for m in methods for i, value in enumerate(bests[m])],
    )

    # pairwise Mann-Whitney comparisons of per-run best fitness
    test_rows = []
    for i, a in enumerate(methods):
        for b in methods[i + 1:]:
            u, p2 = analysis.mann_whitney_u(bests[a], bests[b], "two-sided")
            _, pg = analysis.mann_whitney_u(bests[a], bests[b], "greater")
            test_rows.append((a, b, repr(u), repr(p2), repr(pg)))
    runio._write_csv(
        out / "mann_whitney.csv",
        ("method_a", "method_b", "u", "p_two_sided", "p_a_greater"),
        test_rows,
    )

    # MI relevance tables for every method that logged MI
    for method in methods:
        records: list[dict[str, float]] = []
        for run in by_method[method]:
            for _, rows in runio.read_feature_stats(run):
                table = {r["feature"]: float(r["mi"]) for r in rows if r["mi"] != ""}
                if table:
                    records.append(table)
        if records:
            runio._write_csv(
                out / f"mi_table_{method.replace('+', 'plus')}.csv",
                ("feature", "mean_mi", "sd_mi"),
                [(f, repr(m), repr(sd)) for f, m, sd in analysis.mi_relevance_table(records)],
            )

    # behaviour-space exploration over a shared map
    samples: dict[str, tuple[np.ndarray, np.ndarray]] = {}
    for method in methods:
        chars, fits = [], []
        for run in by_method[method]:
            for _, cols in runio.read_population_dumps(run):
                raw_cols = sorted(
                    (k for k in cols if k.startswith("raw_")),
                    key=lambda k: int(k.split("_")[1]),
                )
                if not raw_cols:
                    continue
                chars.append(np.stack([cols[k] for k in raw_cols], axis=1))
                fits.append(cols["fitness"])
        if chars:
            samples[method] = (np.concatenate(chars), np.concatenate(fits))
    if samples:
        pooled = np.concatenate([xs for xs, _ in samples.values()])
        coeffs = compute_standardisation(pooled)
        standardised = {
            m: (apply_standardisation(xs, coeffs), fs) for m, (xs, fs) in samples.items()
        }
        rng = np.random.default_rng(args.som_seed)
        train_pool = np.concatenate([xs for xs, _ in standardised.values()])
        if len(train_pool) > args.som_samples:
            train_pool = train_pool[
                rng.choice(len(train_pool), args.som_samples, replace=False)
            ]
        grid = analysis.train_som(
            train_pool, args.som_width, args.som_height, args.som_epochs, rng
        )
        counts, best_cell = analysis.exploration_density(grid, standardised)
        density_rows = []
        for method in sorted(standardised):
            xs, fs = standardised[method]
            bmus = grid.bmu_batch(xs)
            for cell in range(grid.width * grid.height):
                mask = bmus == cell
                mean_fit = repr(float(fs[mask].mean())) if mask.any() else ""
                density_rows.append(
                    (cell, method, int(counts[method][cell]), mean_fit, int(cell == best_cell))
                )
        runio._write_csv(
            out / "som_density.csv",
            ("cell", "method", "count", "mean_fitness", "is_best_cell"),
            density_rows,
        )
        for method in sorted(standardised):
            analysis.write_som_svg(
                str(out / f"som_{method.replace('+', 'plus')}.svg"),
                grid,
                counts[method],
                best_cell,
                title=f"behaviour-space exploration: {method}",
            )
    print(f"analysis written to {out}")
    return 0


def cmd_print_defaults(_args: argparse.Namespace) -> int:
    print(default_config_text(), end="")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="sdbc",
        description="Evolve collective robot controllers with novelty search "
        "over systematically derived behaviour characterisations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="execute one or more evolutionary runs")
    p_run.add_argument("--config", required=True, help="experiment config YAML")
    p_run.add_argument("--runs", type=int, default=_env_default("runs", 1))
    p_run.add_argument(
        "--method", nargs="+", choices=METHODS, help="methods to run (default: the config's)"
    )
    p_run.add_argument("--seed", type=int, default=_env_default("seed"))
    p_run.add_argument("--out", default=_env_default("out"))
    p_run.add_argument("--resume", action="store_true", help="resume from checkpoints")
    p_run.set_defaults(func=cmd_run)

    p_replay = sub.add_parser("replay", help="re-simulate a saved genome")
    p_replay.add_argument("genome", help="best_genome.txt file")
    p_replay.add_argument("--config", help="config providing task overrides")
    p_replay.add_argument("--seed", type=int, help="trial seed (default: first logged)")
    p_replay.add_argument("--out", help="trajectory CSV path")
    p_replay.set_defaults(func=cmd_replay)

    p_an = sub.add_parser("analyze", help="aggregate and compare completed runs")
    p_an.add_argument("run_dirs", nargs="+", help="run directories")
    p_an.add_argument("--out", default="analysis")
    p_an.add_argument("--som-width", type=int, default=8)
    p_an.add_argument("--som-height", type=int, default=8)
    p_an.add_argument("--som-epochs", type=int, default=5)
    p_an.add_argument("--som-samples", type=int, default=20000)
    p_an.add_argument("--som-seed", type=int, default=7)
    p_an.set_defaults(func=cmd_analyze)

    p_def = sub.add_parser("print-defaults", help="emit an annotated default config")
    p_def.set_defaults(func=cmd_print_defaults)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
