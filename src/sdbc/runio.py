"""Run-record persistence: one writer per run directory, plus readers.

Layout of a run directory:

    config.yaml        resolved configuration snapshot (includes the seed)
    meta.json          task, method, schemas, genome spec
    generations.csv    one row per generation (no timing, byte-reproducible)
    timing.csv         wall-clock seconds per generation (its group's, in a group)
    population/        optional per-generation characterisation dumps
    features/          optional per-generation mu/sigma/MI/weight tables
    archive.csv        novelty archive contents with generation tags
    best_genome.txt    flat weights with a small header
    checkpoint.npz     resumable state, refreshed periodically: the
                       population's arrays as `EvolutionState` holds them
    done.json          completion marker with a summary
    error.txt          traceback of a failed run, until a later run succeeds

Every file is written through `_replace_file`: into a temporary file in
the same directory that then replaces the old file, so a run that dies
mid-write leaves the previous version whole, or no file at all.  The
command line's trajectory and analysis files are written the same way.

The checkpoint saves the population's arrays (`genomes`, `ids`,
`has_result` and the `EvaluationResult` columns, zeros in rows that hold
no result) under their own names, the best result's row under
`best_`-prefixed names, the archive as the two arrays the GA holds
(`archive_raw` and `archive_gens`), and the counters and MI weights;
`restore_state` loads them back into the state unchanged.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import fields
from pathlib import Path
from typing import IO, Any, Callable, Iterable, Sequence

import numpy as np
import yaml

from . import characterisation as ch
from . import novelty as nov
from .config import ExperimentConfig
from .evolution import EvaluationResult, EvolutionState, GenerationDetail, GenerationStats

GENERATION_COLUMNS = (
    "generation",
    "best_fitness",
    "mean_fitness",
    "best_id",
    "best_so_far",
    "archive_size",
    "evaluations",
)

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


def _write_csv(path: Path, header: Sequence[str], rows: Iterable[Sequence[Any]]) -> None:
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
        _replace_file(
            self.dir / "config.yaml",
            lambda fh: yaml.safe_dump(cfg.to_dict(), fh, sort_keys=False),
        )
        _replace_file(self.dir / "meta.json", lambda fh: json.dump(meta, fh, indent=2))
        self._gen_rows: list[list] = []
        self._timing_rows: list[list] = []

    def append_generation(self, stats: GenerationStats) -> None:
        self._gen_rows.append([getattr(stats, c) for c in GENERATION_COLUMNS])
        self._timing_rows.append([stats.generation, stats.wall_time])
        self._flush_generations()

    def resume_generations(self, last: int) -> None:
        """Reload the logged rows up to generation `last`, dropping those
        a crashed run wrote after the checkpoint it resumes from."""

        def rows(name: str) -> list[list[str]]:
            path = self.dir / name
            if not path.exists():
                return []
            with open(path, newline="") as fh:
                return [r for r in list(csv.reader(fh))[1:] if int(r[0]) <= last]

        self._gen_rows = rows("generations.csv")
        self._timing_rows = rows("timing.csv")
        self._flush_generations()

    def _flush_generations(self) -> None:
        _write_csv(self.dir / "generations.csv", GENERATION_COLUMNS, self._gen_rows)
        _write_csv(self.dir / "timing.csv", ("generation", "wall_time"), self._timing_rows)

    def dump_population(self, generation: int, detail: GenerationDetail) -> None:
        pop_dir = self.dir / "population"
        pop_dir.mkdir(exist_ok=True)
        n, n_char = detail.sdbc_raw.shape
        header = (
            ["id", "fitness", "novelty"]
            + [f"ts_{i}" for i in range(detail.ts.shape[1])]
            + [f"raw_{i}" for i in range(n_char)]
            + [f"transformed_{i}" for i in range(n_char)]
        )
        novelty = [""] * n if detail.novelty is None else detail.novelty.tolist()
        transformed = (
            [[""] * n_char] * n if detail.transformed is None else detail.transformed.tolist()
        )
        rows = (
            [ident, fitness, score, *ts, *raw, *tr]
            for ident, fitness, score, ts, raw, tr in zip(
                detail.ids.tolist(), detail.fitness.tolist(), novelty,
                detail.ts.tolist(), detail.sdbc_raw.tolist(), transformed,
            )
        )
        _write_csv(pop_dir / f"gen_{generation:06d}.csv", header, rows)

    def dump_feature_stats(
        self, generation: int, schema: tuple[str, ...], detail: GenerationDetail
    ) -> None:
        if detail.coefficients is None:
            return
        feat_dir = self.dir / "features"
        feat_dir.mkdir(exist_ok=True)
        w = detail.weights
        mi = [""] * len(schema) if w is None else (w.weights - w.delta).tolist()
        weights = [1.0] * len(schema) if w is None else w.weights.tolist()
        c = detail.coefficients
        _write_csv(
            feat_dir / f"gen_{generation:06d}.csv",
            ("feature", "mu", "sigma", "mi", "weight"),
            zip(schema, c.mu.tolist(), c.sigma.tolist(), mi, weights),
        )

    def write_archive(self, archive: nov.NoveltyArchive) -> None:
        # an empty archive's file is the bare header, whatever its width
        width = archive.raw.shape[1] if len(archive) else 0
        _write_csv(
            self.dir / "archive.csv",
            ("generation", *[f"raw_{i}" for i in range(width)]),
            ([gen, *raw] for gen, raw in zip(archive.generation.tolist(), archive.raw.tolist())),
        )

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
            f"# fitness: {state.best_so_far!r}",
            f"# trial_seeds: {','.join(str(s) for s in res.trial_seeds)}",
            f"# trial_fitness: {','.join(map(repr, res.trial_fitness.tolist()))}",
        ]
        lines += map(repr, state.best_genome.tolist())
        text = "\n".join(lines) + "\n"
        _replace_file(self.dir / "best_genome.txt", lambda fh: fh.write(text))

    def write_checkpoint(self, state: EvolutionState) -> None:
        n_char = len(state.task.char_schema())
        best = state.best_result
        if best is None:
            best = EvaluationResult.zeros(1, n_char, state.trials)[0]
        arrays = dict(
            generation=state.generation,
            next_id=state.next_id,
            genomes=state.genomes,
            ids=state.ids,
            has_result=state.has_result,
            **vars(state.results),
            archive_raw=state.archive.raw,
            archive_gens=state.archive.generation,
            best_so_far=state.best_so_far,
            best_generation=state.best_generation,
            best_genome=(
                np.zeros(state.spec.genome_length)
                if state.best_genome is None
                else state.best_genome
            ),
            **{f"best_{name}": a for name, a in vars(best).items() if name != "fitness"},
            weights=state.weights.weights if state.weights is not None else np.zeros(0),
        )
        # an open handle, because np.savez appends ".npz" to a path name
        _replace_file(
            self.dir / "checkpoint.npz", lambda fh: np.savez(fh, **arrays), binary=True
        )

    def mark_done(self, state: EvolutionState) -> None:
        summary = {
            "generations": state.generation,
            "best_fitness": state.best_so_far,
            "best_generation": state.best_generation,
            "archive_size": len(state.archive),
        }
        _replace_file(self.dir / "done.json", lambda fh: json.dump(summary, fh, indent=2))


def restore_state(state: EvolutionState, run_dir: str | Path) -> None:
    """Load a checkpoint into a freshly constructed EvolutionState."""
    with np.load(Path(run_dir) / "checkpoint.npz") as data:
        state.generation = int(data["generation"])
        state.next_id = int(data["next_id"])
        state.genomes = data["genomes"]
        state.ids = data["ids"]
        state.has_result = data["has_result"]
        names = [f.name for f in fields(EvaluationResult)]
        state.results = EvaluationResult(**{name: data[name] for name in names})
        state.archive = nov.NoveltyArchive(data["archive_raw"], data["archive_gens"])
        state.best_so_far = float(data["best_so_far"])
        state.best_generation = int(data["best_generation"])
        state.best_genome = data["best_genome"]
        if state.best_generation >= 0:
            state.best_result = EvaluationResult(
                fitness=data["best_so_far"],
                **{name: data[f"best_{name}"] for name in names if name != "fitness"},
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
