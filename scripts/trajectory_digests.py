#!/usr/bin/env python3
"""Print one sha256 line per task configuration, over the bits of its
trajectories, so two checkouts can be compared with `diff`.

Each configuration is digested twice: a small population through
`evolution.evaluate_population` (fitness, raw and task-specific
characterisations, per-trial fitness), and one genome's trials through
`Task.simulate(..., record=True)` (steps, fitness, characterisations,
per-step features and every recorded state array).  The configurations
cover every task, both feature layouts, spawn clearance, one robot, the
8-or-more-robot sizes at which NumPy switches to pairwise summation, gate
trials that end with every robot escaped, and a crowded sharing box with a
clearance, where some robots take the draw after the 200 spawn tries.

    python3 scripts/trajectory_digests.py > after.txt
    (cd ../parent && python3 scripts/trajectory_digests.py) > before.txt
    diff before.txt after.txt

The digests are bit-level, so another NumPy build or CPU may move them.
"""

import hashlib
import json
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdbc.evolution import ControllerSpec, StackedControllers, evaluate_population  # noqa: E402
from sdbc.tasks import make_task  # noqa: E402

GENOMES, TRIALS = 6, 4  # the population of each configuration

FAST_GATE = {"max_steps": 150, "v_max": 0.4, "gate_width": 0.6, "gate_close_delay": 5,
             "grace_steps": 5}
SLOW_PREY = {"max_steps": 150, "prey_speed_factor": 0.3}
# one robot and a wide gate that closes late: most trials end on the step
# their last robot escapes, so the agents group is empty on the final step
OPEN_GATE = {"n_robots": 1, "gate_width": 1.0, "v_max": 0.4, "max_steps": 400,
             "gate_close_delay": 300}

CONFIGS = [
    ("resource_sharing", {}),
    ("resource_sharing", {"max_steps": 150, "start_energy": 12.0}),
    ("resource_sharing", {"spawn_clearance": 0.5}),
    ("resource_sharing", {"n_robots": 1}),
    ("resource_sharing", {"n_robots": 9}),
    ("resource_sharing", {"n_robots": 10, "start_energy": 20.0}),
    ("gate_escape", {}),
    ("gate_escape", {"published_layout": False}),
    ("gate_escape", FAST_GATE),
    ("gate_escape", {**FAST_GATE, "n_robots": 1}),
    ("gate_escape", {**FAST_GATE, "n_robots": 9}),
    ("gate_escape", {**FAST_GATE, "n_robots": 10}),
    ("predator_prey", {}),
    ("predator_prey", {"published_layout": False}),
    ("predator_prey", SLOW_PREY),
    ("predator_prey", {**SLOW_PREY, "n_predators": 1}),
    ("predator_prey", {**SLOW_PREY, "n_predators": 8}),
    ("predator_prey", {**SLOW_PREY, "n_predators": 8, "published_layout": False}),
    ("gate_escape", OPEN_GATE),  # after the others, so their seeds keep their index
    # appended for the same reason: seven robots kept 0.25 from the station
    # of a 0.6 box, where on some trials the 200 spawn tries find no legal
    # point and a robot takes the draw after them
    ("resource_sharing",
     {"arena_size": 0.6, "n_robots": 7, "spawn_clearance": 0.25, "max_steps": 150}),
]


def digest(arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def main() -> int:
    for index, (name, overrides) in enumerate(CONFIGS):
        task = make_task(name, overrides)
        spec = ControllerSpec(task.n_inputs, 8, task.n_outputs)
        rng = np.random.default_rng(index)
        genomes = rng.uniform(-2.0, 2.0, (GENOMES, spec.genome_length))
        seeds = [[1000 * g + t for t in range(TRIALS)] for g in range(GENOMES)]
        result = evaluate_population(genomes, task, spec, seeds)
        label = f"{name} {json.dumps(overrides, sort_keys=True)}"
        print(label, "evaluate_population",
              digest([result.fitness, result.raw, result.ts, result.trial_fitness]))
        batch = task.simulate(StackedControllers(genomes[:1], spec), list(range(8)), record=True)
        record = [batch.record[key] for key in sorted(batch.record)]
        print(label, "record", digest(
            [batch.steps, batch.fitness, batch.raw, batch.ts_chars, batch.features, *record]
        ))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
