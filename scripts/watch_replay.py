#!/usr/bin/env python3
"""Replay a saved genome and print a coarse ASCII film of the trajectory.

Meant for quick solution inspection without plotting dependencies:

    python scripts/watch_replay.py out/run_000/best_genome.txt --seed 7
"""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from sdbc.cli import replay_genome  # noqa: E402


def frame(bounds, positions, extra, cols=48, rows=20) -> str:
    (xmin, ymin, xmax, ymax) = bounds
    grid = [[" "] * cols for _ in range(rows)]

    def put(x, y, ch):
        cx = int((x - xmin) / (xmax - xmin) * (cols - 1))
        cy = int((y - ymin) / (ymax - ymin) * (rows - 1))
        if 0 <= cx < cols and 0 <= cy < rows:
            grid[rows - 1 - cy][cx] = ch

    for x, y, ch in extra:
        put(x, y, ch)
    for i, (x, y) in enumerate(positions):
        put(x, y, str(i))
    return "\n".join("".join(row) for row in grid)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("genome")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--every", type=int, default=25, help="steps between frames")
    args = ap.parse_args(argv)

    # task overrides come from the run directory's config.yaml, as in `sdbc replay`
    header, task, _, batch = replay_genome(args.genome, seed=args.seed)
    rec = batch.record
    steps = int(batch.steps[0])

    if header["task"] == "predator_prey":
        r = task.params.zone_radius
        bounds = (-r, -r, r, r)
    else:
        bounds = (0.0, 0.0, task.params.arena_size, task.params.arena_size)

    for t in range(0, steps, args.every):
        extra = []
        if header["task"] == "resource_sharing":
            extra.append((*task.station, "#"))
        if header["task"] == "gate_escape":
            extra.append((*task.gate_center, "="))
        if "prey" in rec:
            extra.append((rec["prey"][t, 0, 0], rec["prey"][t, 0, 1], "P"))
        print(f"--- step {t} ---")
        print(frame(bounds, rec["pos"][t, 0], extra))
    print(f"fitness {float(batch.fitness[0]):.4f}, steps {steps}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
