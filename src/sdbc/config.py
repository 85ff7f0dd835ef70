"""Declarative experiment configuration: YAML in, validated dataclasses out.

Validation errors name the offending field with a dotted path so a typo in
a nested section is easy to locate.  `default_config_text` emits a fully
annotated template; defaults marked "heuristic" have no canonical value
and exist to make the tasks runnable out of the box.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any

import yaml

from .evolution import METHODS
from .tasks import TASKS, make_task, task_names


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


@dataclass
class GAConfig:
    population: int = 100
    generations: int = 250
    trials: int = 10
    hidden_units: int = 8
    tournament_size: int = 2
    p_crossover: float = 0.5
    p_gene_mutation: float = 0.05
    mutation_sigma: float = 0.5
    elites: int = 2
    init_range: float = 1.0


@dataclass
class NoveltyConfig:
    k: int = 15
    archive_rate: float = 0.025


@dataclass
class SdbcConfig:
    delta: float = 0.25
    mi_bins_min: int = 4
    mi_bins_max: int = 16
    weight_update_period: int = 1


@dataclass
class ExperimentConfig:
    task: str = "resource_sharing"
    method: str = "ns-sd+"
    seed: int = 1
    out: str = "runs"
    dump_population: bool = False
    checkpoint_every: int = 10
    ga: GAConfig = field(default_factory=GAConfig)
    novelty: NoveltyConfig = field(default_factory=NoveltyConfig)
    sdbc: SdbcConfig = field(default_factory=SdbcConfig)
    task_params: dict[str, Any] = field(default_factory=dict)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


def _coerce(value: Any, target_type: type, path: str) -> Any:
    if target_type is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return float(value)
    if target_type is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if target_type is bool and isinstance(value, bool):
        return value
    if target_type is str and isinstance(value, str):
        return value
    raise ConfigError(f"{path}: expected {target_type.__name__}, got {value!r}")


def _section_fields(cls: type, data: Any, path: str) -> dict[str, Any]:
    """The fields a mapping sets, each coerced to the type of `cls`'s
    default for it."""
    if data is None:
        return {}
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a mapping")
    defaults = cls()
    known = {f.name for f in fields(cls)}
    kwargs = {}
    for key, value in data.items():
        if key not in known:
            raise ConfigError(f"{path}.{key}: unknown field")
        kwargs[key] = _coerce(value, type(getattr(defaults, key)), f"{path}.{key}")
    return kwargs


def config_from_dict(data: dict[str, Any]) -> ExperimentConfig:
    """Build and validate an ExperimentConfig from parsed YAML."""
    if not isinstance(data, dict):
        raise ConfigError("configuration root must be a mapping")
    known = {f.name for f in fields(ExperimentConfig)}
    for key in data:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    task = str(data.get("task", ExperimentConfig.task)).replace("-", "_")
    if task not in TASKS:
        raise ConfigError(f"task: unknown task {task!r}; choose from {task_names()}")

    def top(key: str) -> Any:  # a top-level field, coerced to its default's type
        default = getattr(ExperimentConfig, key)
        return _coerce(data.get(key, default), type(default), key)

    cfg = ExperimentConfig(
        task=task,
        method=str(data.get("method", ExperimentConfig.method)),
        seed=top("seed"),
        out=str(data.get("out", ExperimentConfig.out)),
        dump_population=top("dump_population"),
        checkpoint_every=top("checkpoint_every"),
        ga=GAConfig(**_section_fields(GAConfig, data.get("ga"), "ga")),
        novelty=NoveltyConfig(**_section_fields(NoveltyConfig, data.get("novelty"), "novelty")),
        sdbc=SdbcConfig(**_section_fields(SdbcConfig, data.get("sdbc"), "sdbc")),
        task_params=_section_fields(TASKS[task][1], data.get("task_params"), "task_params"),
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Check ranges and the task's own parameter rules; field types and
    the task name are checked while the config is built."""
    if cfg.method not in METHODS:
        raise ConfigError(f"method: unknown method {cfg.method!r}; choose from {list(METHODS)}")
    ga = cfg.ga
    checks = [
        (cfg.seed >= 0, "seed: must be >= 0"),
        (ga.population >= 2, "ga.population: must be >= 2"),
        (ga.generations >= 1, "ga.generations: must be >= 1"),
        (ga.trials >= 1, "ga.trials: must be >= 1"),
        (ga.hidden_units >= 1, "ga.hidden_units: must be >= 1"),
        (ga.tournament_size >= 1, "ga.tournament_size: must be >= 1"),
        (0.0 <= ga.p_crossover <= 1.0, "ga.p_crossover: must be in [0, 1]"),
        (0.0 <= ga.p_gene_mutation <= 1.0, "ga.p_gene_mutation: must be in [0, 1]"),
        (ga.mutation_sigma > 0.0, "ga.mutation_sigma: must be > 0"),
        (1 <= ga.elites <= ga.population, "ga.elites: must be in [1, population]"),
        (ga.init_range > 0.0, "ga.init_range: must be > 0"),
        (cfg.novelty.k >= 1, "novelty.k: must be >= 1"),
        (0.0 <= cfg.novelty.archive_rate <= 1.0, "novelty.archive_rate: must be in [0, 1]"),
        (cfg.sdbc.delta >= 0.0, "sdbc.delta: must be >= 0"),
        (2 <= cfg.sdbc.mi_bins_min <= cfg.sdbc.mi_bins_max,
         "sdbc.mi_bins_min: need 2 <= mi_bins_min <= mi_bins_max"),
        (cfg.sdbc.weight_update_period >= 1, "sdbc.weight_update_period: must be >= 1"),
        (cfg.checkpoint_every >= 1, "checkpoint_every: must be >= 1"),
    ]
    for ok, message in checks:
        if not ok:
            raise ConfigError(message)
    # the task's own checks: at least one step, group sizes within bounds
    try:
        make_task(cfg.task, cfg.task_params)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"task_params: {exc}") from exc


def load_config(path: str | Path) -> ExperimentConfig:
    """Read and validate a YAML config; an unreadable file or bad YAML
    raises ConfigError too."""
    try:
        with open(path, "rb") as fh:  # PyYAML decodes, so bad bytes raise a YAMLError
            data = yaml.safe_load(fh)
    except (OSError, yaml.YAMLError) as exc:
        raise ConfigError(str(exc)) from exc
    return config_from_dict(data or {})


def default_config_text() -> str:
    """An annotated template covering every field and its default."""
    task_lines = []
    for name in task_names():
        params_cls = TASKS[name][1]
        pairs = ", ".join(f"{f.name}={getattr(params_cls(), f.name)}" for f in fields(params_cls))
        task_lines.append(f"#   {name}: {pairs}")
    task_doc = "\n".join(task_lines)
    return f"""\
# Experiment configuration. All values shown are the built-in defaults.
# Fields marked [heuristic] have no canonical published value; they were
# chosen to make the bundled tasks runnable and are meant to be tuned.

task: resource_sharing        # one of: {", ".join(task_names())}
method: ns-sd+                # fit | ns-ts | ns-sd | ns-sd+
seed: 1                       # master seed (>= 0); run i of the j-th --method uses seed + 1000*j + i
out: runs                     # output directory for run records
dump_population: false        # per-generation CSVs of characterisations
checkpoint_every: 10          # generations between resumable checkpoints

ga:
  population: 100             # [heuristic]
  generations: 250            # [heuristic]
  trials: 10                  # randomised evaluations averaged per genome
  hidden_units: 8             # [heuristic] hidden layer width
  tournament_size: 2          # [heuristic]
  p_crossover: 0.5            # [heuristic]
  p_gene_mutation: 0.05       # [heuristic]
  mutation_sigma: 0.5         # [heuristic]
  elites: 2                   # [heuristic]
  init_range: 1.0             # [heuristic] initial weights ~ U(-r, r)

novelty:
  k: 15                       # nearest neighbours in the novelty score
  archive_rate: 0.025         # [heuristic] per-individual archive probability

sdbc:
  delta: 0.25                 # minimum feature weight
  mi_bins_min: 4              # MI histogram bins: clamp(ceil(sqrt(n)), min, max)
  mi_bins_max: 16
  weight_update_period: 1     # recompute MI weights every n generations

# Task parameter overrides (all [heuristic] unless stated otherwise).
# Available parameters per task:
{task_doc}
task_params: {{}}
"""
