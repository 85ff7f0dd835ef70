"""Benchmark tasks and the registry used by the experiment configuration."""

from __future__ import annotations

from dataclasses import fields
from typing import Any

from .base import Controller, Task, TrialBatch
from .gate_escape import GateEscapeParams, GateEscapeTask, gate_fitness
from .predator_prey import PredatorPreyParams, PredatorPreyTask, pursuit_fitness
from .resource_sharing import ResourceSharingParams, ResourceSharingTask, sharing_fitness

TASKS = {
    "gate_escape": (GateEscapeTask, GateEscapeParams),
    "resource_sharing": (ResourceSharingTask, ResourceSharingParams),
    "predator_prey": (PredatorPreyTask, PredatorPreyParams),
}


def task_names() -> list[str]:
    return sorted(TASKS)


def make_task(name: str, overrides: dict[str, Any] | None = None) -> Task:
    """Instantiate a registered task, applying parameter overrides."""
    key = name.replace("-", "_")
    if key not in TASKS:
        raise ValueError(f"unknown task {name!r}; choose from {task_names()}")
    cls, params_cls = TASKS[key]
    overrides = dict(overrides or {})
    valid = {f.name for f in fields(params_cls)}
    for k in overrides:
        if k not in valid:
            raise ValueError(f"unknown parameter {k!r} for task {key!r}")
    task = cls(params_cls(**overrides))
    if task.max_steps < 1:
        raise ValueError(f"max_steps must be >= 1, got {task.max_steps}")
    task.group_specs()  # a GroupSpec out of its size bounds (e.g. no robots) raises here
    return task


__all__ = [
    "Controller",
    "Task",
    "TrialBatch",
    "TASKS",
    "task_names",
    "make_task",
    "GateEscapeTask",
    "GateEscapeParams",
    "gate_fitness",
    "ResourceSharingTask",
    "ResourceSharingParams",
    "sharing_fitness",
    "PredatorPreyTask",
    "PredatorPreyParams",
    "pursuit_fitness",
]
