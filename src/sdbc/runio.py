"""Run-record persistence: one writer per run directory, plus readers.

Layout of a run directory:

    config.yaml        resolved configuration snapshot (includes the seed)
    meta.json          task, method, schemas, genome spec
    generations.csv    one row per generation (no timing, byte-reproducible)
    timing.csv         wall-clock seconds per generation
    population/        optional per-generation characterisation dumps
    features/          optional per-generation mu/sigma/MI/weight tables
    archive.csv        novelty archive contents with generation tags
    best_genome.txt    flat weights with a small header
    checkpoint.npz     resumable state, refreshed periodically
    done.json          completion marker with a summary

generations.csv, timing.csv and checkpoint.npz are rewritten through a
temporary file in the run directory that then replaces the old file, so
a run that dies mid-write leaves the previous version whole.
"""

from __future__ import annotations

import csv
import json
import os
from pathlib import Path
from typing import IO, Any, Callable

import numpy as np

from . import characterisation as ch
from . import novelty as nov
from .config import ExperimentConfig, save_config
from .evolution import EvaluationResult, EvolutionState, GenerationDetail, GenerationStats, Individual

GENERATION_COLUMNS = (
    "generation",
    "best_fitness",
    "mean_fitness",
    "best_id",
    "best_so_far",
    "archive_size",
    "evaluations",
)


def _fmt(x: Any) -> str:
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def _replace_file(path: Path, write: Callable[[IO], None], binary: bool = False) -> None:
    """Write `path` through a temporary sibling file, then rename it over
    `path`; on an error the temporary file goes and `path` is untouched."""
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") if binary else open(tmp, "w", newline="") as fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _write_csv(path: Path, header: tuple[str, ...], rows: list[list[str]]) -> None:
    def write(fh: IO) -> None:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)

    _replace_file(path, write)


class RunWriter:
    """All file writes for one run funnel through this object."""

    def __init__(self, run_dir: str | Path, cfg: ExperimentConfig, meta: dict[str, Any]):
        self.dir = Path(run_dir)
        self.dir.mkdir(parents=True, exist_ok=True)
        self.cfg = cfg
        save_config(cfg, self.dir / "config.yaml")
        with open(self.dir / "meta.json", "w") as fh:
            json.dump(meta, fh, indent=2)
        self._gen_rows: list[list[str]] = []
        self._timing_rows: list[list[str]] = []

    def append_generation(self, stats: GenerationStats) -> None:
        self._gen_rows.append(
            [
                _fmt(stats.generation),
                _fmt(stats.best_fitness),
                _fmt(stats.mean_fitness),
                _fmt(stats.best_id),
                _fmt(stats.best_so_far),
                _fmt(stats.archive_size),
                _fmt(stats.evaluations),
            ]
        )
        self._timing_rows.append([_fmt(stats.generation), _fmt(stats.wall_time)])
        self._flush_generations()

    def truncate_generations(self, last_generation: int) -> None:
        """Drop rows beyond a checkpoint when resuming a crashed run."""
        self._gen_rows = [r for r in self._gen_rows if int(r[0]) <= last_generation]
        self._timing_rows = [r for r in self._timing_rows if int(r[0]) <= last_generation]
        self._flush_generations()

    def preload_generations(self) -> int:
        """Load existing rows (resume path); returns the last generation."""
        gen_path = self.dir / "generations.csv"
        if gen_path.exists():
            with open(gen_path, newline="") as fh:
                rows = list(csv.reader(fh))[1:]
            self._gen_rows = rows
        timing_path = self.dir / "timing.csv"
        if timing_path.exists():
            with open(timing_path, newline="") as fh:
                self._timing_rows = list(csv.reader(fh))[1:]
        return int(self._gen_rows[-1][0]) if self._gen_rows else -1

    def _flush_generations(self) -> None:
        _write_csv(self.dir / "generations.csv", GENERATION_COLUMNS, self._gen_rows)
        _write_csv(self.dir / "timing.csv", ("generation", "wall_time"), self._timing_rows)

    def dump_population(self, generation: int, detail: GenerationDetail) -> None:
        pop_dir = self.dir / "population"
        pop_dir.mkdir(exist_ok=True)
        n_char = detail.sdbc_raw.shape[1]
        header = (
            ["id", "fitness", "novelty"]
            + [f"ts_{i}" for i in range(detail.ts.shape[1])]
            + [f"raw_{i}" for i in range(n_char)]
            + [f"transformed_{i}" for i in range(n_char)]
        )
        with open(pop_dir / f"gen_{generation:06d}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(header)
            for i in range(len(detail.ids)):
                novelty = "" if detail.novelty is None else _fmt(detail.novelty[i])
                transformed = (
                    [""] * n_char
                    if detail.transformed is None
                    else [_fmt(v) for v in detail.transformed[i]]
                )
                w.writerow(
                    [_fmt(detail.ids[i]), _fmt(detail.fitness[i]), novelty]
                    + [_fmt(v) for v in detail.ts[i]]
                    + [_fmt(v) for v in detail.sdbc_raw[i]]
                    + transformed
                )

    def dump_feature_stats(
        self, generation: int, schema: tuple[str, ...], detail: GenerationDetail
    ) -> None:
        if detail.coefficients is None:
            return
        feat_dir = self.dir / "features"
        feat_dir.mkdir(exist_ok=True)
        mi = None
        weights = None
        if detail.weights is not None:
            weights = detail.weights.weights
            mi = weights - detail.weights.delta
        with open(feat_dir / f"gen_{generation:06d}.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(("feature", "mu", "sigma", "mi", "weight"))
            for k, name in enumerate(schema):
                w.writerow(
                    (
                        name,
                        _fmt(detail.coefficients.mu[k]),
                        _fmt(detail.coefficients.sigma[k]),
                        "" if mi is None else _fmt(mi[k]),
                        "1.0" if weights is None else _fmt(weights[k]),
                    )
                )

    def write_archive(self, archive: nov.NoveltyArchive) -> None:
        with open(self.dir / "archive.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            if len(archive) == 0:
                w.writerow(("generation",))
                return
            width = len(archive.entries[0][0])
            w.writerow(("generation", *[f"raw_{i}" for i in range(width)]))
            for raw, gen in archive.entries:
                w.writerow([_fmt(gen)] + [_fmt(v) for v in raw])

    def write_best_genome(self, state: EvolutionState, task_name: str) -> None:
        if state.best_genome is None or state.best_result is None:
            return
        res = state.best_result
        lines = [
            f"# task: {task_name}",
            f"# method: {state.method}",
            f"# inputs: {state.spec.inputs}",
            f"# hidden: {state.spec.hidden}",
            f"# outputs: {state.spec.outputs}",
            f"# generation: {state.best_generation}",
            f"# fitness: {_fmt(state.best_so_far)}",
            f"# trial_seeds: {','.join(str(s) for s in res.trial_seeds)}",
            f"# trial_fitness: {','.join(_fmt(f) for f in res.trial_fitness)}",
        ]
        lines += [_fmt(w) for w in state.best_genome]
        (self.dir / "best_genome.txt").write_text("\n".join(lines) + "\n")

    def write_checkpoint(self, state: EvolutionState) -> None:
        pop = state.population
        has_result = np.array([ind.result is not None for ind in pop])
        n_char = len(state.task.char_schema())
        raw = np.zeros((len(pop), n_char))
        ts = np.zeros((len(pop), 4))
        fit = np.zeros(len(pop))
        tfit = np.zeros((len(pop), state.trials))
        tseeds = np.zeros((len(pop), state.trials), dtype=np.int64)
        for i, ind in enumerate(pop):
            if ind.result is not None:
                raw[i] = ind.result.raw_characterisation.values
                ts[i] = ind.result.ts_characterisation
                fit[i] = ind.result.fitness
                tfit[i] = ind.result.trial_fitness
                tseeds[i] = ind.result.trial_seeds
        arch = state.archive.raw_matrix()
        arrays = dict(
            generation=state.generation,
            next_id=state.next_id,
            genomes=np.stack([ind.genome for ind in pop]),
            ids=np.array([ind.id for ind in pop]),
            has_result=has_result,
            fitness=fit,
            raw=raw,
            ts=ts,
            trial_fitness=tfit,
            trial_seeds=tseeds,
            archive_raw=arch if arch.size else np.zeros((0, n_char)),
            archive_gens=np.array(state.archive.generations(), dtype=np.int64),
            best_so_far=state.best_so_far,
            best_generation=state.best_generation,
            best_genome=(
                state.best_genome
                if state.best_genome is not None
                else np.zeros(state.spec.genome_length)
            ),
            best_trial_seeds=(
                np.array(state.best_result.trial_seeds, dtype=np.int64)
                if state.best_result is not None
                else np.zeros(state.trials, dtype=np.int64)
            ),
            best_trial_fitness=(
                state.best_result.trial_fitness
                if state.best_result is not None
                else np.zeros(state.trials)
            ),
            best_ts=(
                state.best_result.ts_characterisation
                if state.best_result is not None
                else np.zeros(4)
            ),
            best_raw=(
                state.best_result.raw_characterisation.values
                if state.best_result is not None
                else np.zeros(n_char)
            ),
            weights=(
                state.weights.weights
                if state.weights is not None
                else np.zeros(0)
            ),
        )
        # an open handle, because np.savez appends ".npz" to a path name
        _replace_file(
            self.dir / "checkpoint.npz", lambda fh: np.savez(fh, **arrays), binary=True
        )

    def mark_done(self, state: EvolutionState) -> None:
        with open(self.dir / "done.json", "w") as fh:
            json.dump(
                {
                    "generations": state.generation,
                    "best_fitness": state.best_so_far,
                    "best_generation": state.best_generation,
                    "archive_size": len(state.archive),
                },
                fh,
                indent=2,
            )


def restore_state(state: EvolutionState, run_dir: str | Path) -> None:
    """Load a checkpoint into a freshly constructed EvolutionState."""
    data = np.load(Path(run_dir) / "checkpoint.npz")
    schema = state.task.char_schema()
    state.generation = int(data["generation"])
    state.next_id = int(data["next_id"])
    state.population = []
    for i in range(data["genomes"].shape[0]):
        result = None
        if data["has_result"][i]:
            result = EvaluationResult(
                fitness=float(data["fitness"][i]),
                raw_characterisation=ch.RawCharacterisation(
                    values=data["raw"][i], schema=schema
                ),
                ts_characterisation=data["ts"][i],
                trial_fitness=data["trial_fitness"][i],
                trial_seeds=[int(s) for s in data["trial_seeds"][i]],
            )
        state.population.append(
            Individual(id=int(data["ids"][i]), genome=data["genomes"][i], result=result)
        )
    state.archive = nov.NoveltyArchive()
    for raw, gen in zip(data["archive_raw"], data["archive_gens"]):
        state.archive.add(raw, int(gen))
    state.best_so_far = float(data["best_so_far"])
    state.best_generation = int(data["best_generation"])
    state.best_genome = data["best_genome"]
    if state.best_generation >= 0:
        state.best_result = EvaluationResult(
            fitness=float(data["best_so_far"]),
            raw_characterisation=ch.RawCharacterisation(
                values=data["best_raw"], schema=schema
            ),
            ts_characterisation=data["best_ts"],
            trial_fitness=data["best_trial_fitness"],
            trial_seeds=[int(s) for s in data["best_trial_seeds"]],
        )
    if data["weights"].size:
        state.weights = ch.FeatureWeights(weights=data["weights"], delta=state.delta)


# --------------------------------------------------------------------------
# readers used by replay and analyze


def read_generations(run_dir: str | Path) -> list[dict[str, float]]:
    with open(Path(run_dir) / "generations.csv", newline="") as fh:
        reader = csv.DictReader(fh)
        return [
            {k: float(v) for k, v in row.items()}
            for row in reader
        ]


def read_meta(run_dir: str | Path) -> dict[str, Any]:
    with open(Path(run_dir) / "meta.json") as fh:
        return json.load(fh)


def is_complete(run_dir: str | Path) -> bool:
    return (Path(run_dir) / "done.json").exists()


def read_population_dumps(run_dir: str | Path) -> list[tuple[int, dict[str, np.ndarray]]]:
    """Yield (generation, columns) for each population dump, generation order."""
    pop_dir = Path(run_dir) / "population"
    out = []
    if not pop_dir.is_dir():
        return out
    for path in sorted(pop_dir.glob("gen_*.csv")):
        gen = int(path.stem.split("_")[1])
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = next(reader)
            rows = list(reader)
        cols: dict[str, list[float]] = {name: [] for name in header}
        for row in rows:
            for name, value in zip(header, row):
                cols[name].append(float(value) if value != "" else np.nan)
        out.append((gen, {k: np.array(v) for k, v in cols.items()}))
    return out


def read_feature_stats(run_dir: str | Path) -> list[tuple[int, list[dict[str, str]]]]:
    feat_dir = Path(run_dir) / "features"
    out = []
    if not feat_dir.is_dir():
        return out
    for path in sorted(feat_dir.glob("gen_*.csv")):
        gen = int(path.stem.split("_")[1])
        with open(path, newline="") as fh:
            out.append((gen, list(csv.DictReader(fh))))
    return out


def load_genome_file(path: str | Path) -> tuple[dict[str, str], np.ndarray]:
    """Parse a best-genome file into its header fields and weight vector."""
    header: dict[str, str] = {}
    weights: list[float] = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                key, _, value = line[1:].partition(":")
                header[key.strip()] = value.strip()
            else:
                try:
                    weights.append(float(line))
                except ValueError as exc:
                    raise ValueError(f"corrupted genome file: bad weight line {line!r}") from exc
    if not weights:
        raise ValueError("corrupted genome file: no weights found")
    for key in ("task", "inputs", "hidden", "outputs"):
        if key not in header:
            raise ValueError(f"corrupted genome file: missing header field {key!r}")
    return header, np.array(weights)
