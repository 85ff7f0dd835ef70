"""The program names that the benchmark in perfbench/ reads.

`perfbench/child.py` times each layer by wrapping functions and methods
by name, looked up in their owner's own namespace, and checks a finished
run by replaying its best genome through `evaluate`.  A rename or a new
return type there would make a traced layer read zero, or fail the
benchmark, without any other test noticing.
"""

import functools
import os
import sys

import numpy as np
import pytest

from sdbc import characterisation, cli, evolution, novelty, runio, simulation
from sdbc.config import config_from_dict
from sdbc.evolution import ControllerSpec, StackedControllers, evaluate, evaluate_population
from sdbc.tasks import TASKS, base, make_task

WRAPPED = [
    (simulation, "step_kinematics_arrays"),
    (simulation, "resolve_collisions_arrays"),
    (simulation, "range_bearing_arrays"),
    (base, "nearest_neighbor_sensor"),
    (evolution, "run_generation"),
    (evolution, "evaluate_population"),
    (evolution, "mutate"),
    (evolution, "crossover"),
    (evolution, "trial_seeds"),
    (evolution.StackedControllers, "__call__"),
    (characterisation, "aggregate_batch"),
    (characterisation, "compute_standardisation"),
    (characterisation, "apply_standardisation"),
    (characterisation, "compute_weights"),
    (novelty, "novelty_scores"),
    (novelty, "rank_population"),
    *(
        (runio.RunWriter, name)
        for name in (
            "append_generation", "dump_population", "dump_feature_stats",
            "write_checkpoint", "write_archive", "write_best_genome", "mark_done",
        )
    ),
    # called, not wrapped
    (cli, "execute_run"),
    (runio, "load_genome_file"),
]


@pytest.mark.parametrize(
    "owner,name", WRAPPED,
    ids=[f"{getattr(o, '__qualname__', o.__name__)}.{n}" for o, n in WRAPPED],
)
def test_wrapped_name_exists_in_its_owner(owner, name):
    assert callable(vars(owner).get(name))


def test_evaluate_returns_what_the_replay_check_reads():
    task = make_task("resource_sharing", {"max_steps": 30, "n_robots": 3})
    # positional, as the replay check builds it from a genome file's header
    spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
    genome = np.random.default_rng(1).uniform(-1, 1, spec.genome_length)
    result = evaluate(genome, task, spec, [5, 6, 7])
    assert isinstance(result.fitness, float)
    assert result.trial_fitness.ndim == 1
    logged = result.trial_fitness.tolist()
    assert len(logged) == 3 and all(type(f) is float for f in logged)
    assert result.fitness == float(np.mean(logged))


def test_simulate_calls_the_controller_once_per_step_with_the_live_rows(monkeypatch):
    # the `evolution.controller` span and the `controller_rows` count wrap
    # this call, so they cover every step only while each step makes it
    calls = []
    call = StackedControllers.__call__

    def counted(self, x, networks=None):
        calls.append((x.shape[0], networks.copy()))
        return call(self, x, networks)

    monkeypatch.setattr(StackedControllers, "__call__", counted)
    task = make_task("resource_sharing", {"max_steps": 80, "n_robots": 3, "start_energy": 4.0})
    spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
    genomes = np.random.default_rng(3).uniform(-1, 1, (3, spec.genome_length))
    networks = np.repeat(np.arange(3), 4)
    batch = task.simulate(
        StackedControllers(genomes, spec), list(range(12)), record=False, networks=networks
    )
    steps = batch.steps
    assert len(np.unique(steps)) > 2  # trials leave the batch at several steps
    assert len(calls) == steps.max()
    for t, (rows, index) in enumerate(calls):
        live = steps > t
        assert rows == 3 * live.sum()
        assert np.array_equal(index, np.repeat(networks[live], 3))


def test_a_split_batch_passes_the_step_count_once(monkeypatch):
    # `trial_steps_per_s` sums `TrialBatch.steps` in a wrapper around each
    # task class's `simulate`, in the run's own process; a batch split over
    # forked parts must pass it once, with the steps of every part
    counted = []

    def counting(simulate):
        @functools.wraps(simulate)
        def wrapper(*args, **kwargs):
            batch = simulate(*args, **kwargs)
            counted.append(int(batch.steps.sum()))
            return batch

        return wrapper

    task = make_task("resource_sharing", {"max_steps": 150, "start_energy": 12.0})
    spec = ControllerSpec(task.n_inputs, 8, task.n_outputs)
    genomes = np.random.default_rng(0).uniform(-2, 2, (6, spec.genome_length))
    seeds = [[10 * g + t for t in range(3)] for g in range(6)]
    whole = task.simulate(
        StackedControllers(genomes, spec), sum(seeds, []), networks=np.repeat(np.arange(6), 3)
    )
    assert len(np.unique(whole.steps)) > 2

    cls = type(task)
    parts = []
    run = cls._run

    def run_here(self, controller, seeds, *args):
        parts.append(len(seeds))
        return run(self, controller, seeds, *args)

    monkeypatch.setattr(base, "MIN_PART_WORK", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(cls, "_run", run_here)
    monkeypatch.setattr(cls, "simulate", counting(cls.simulate))
    evaluate_population(genomes, task, spec, seeds)
    assert parts == [9]  # this process ran half the trials, a child the rest
    assert counted == [int(whole.steps.sum())]


def rebind_everywhere(monkeypatch, original, replacement):
    """child.py's `replace_everywhere`, undone after the test."""
    for name, module in list(sys.modules.items()):
        if name == "sdbc" or name.startswith("sdbc."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, replacement)


SMALL_RUN = {
    "task": "resource_sharing",
    "seed": 3,
    "ga": {"population": 8, "generations": 3, "trials": 2, "hidden_units": 4},
    "task_params": {"max_steps": 40, "n_robots": 3},
}


def test_a_run_times_each_generation_in_one_call(tmp_path, monkeypatch):
    # child.py times a generation from the call of `run_generation` it
    # rebinds in every sdbc module, and adds the steps of each `simulate`
    # call to the generation in progress, so each generation must be one
    # such call with every simulation inside it
    calls, inside = [], []
    run_generation = evolution.run_generation

    def timed(state):
        calls.append(state.generation)
        inside.append(True)
        try:
            return run_generation(state)
        finally:
            inside.pop()

    simulated = []
    for cls, _ in TASKS.values():
        simulate = cls.simulate

        def counted(*args, simulate=simulate, **kwargs):
            simulated.append(bool(inside))
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cls, "simulate", counted)
    rebind_everywhere(monkeypatch, run_generation, timed)
    cli.execute_run(config_from_dict(SMALL_RUN), tmp_path / "run")
    assert calls == [0, 1, 2]
    assert simulated and all(simulated)


def test_a_probe_leaves_the_run_with_its_own_exception(tmp_path, monkeypatch):
    # the probe raises from the first call, once the run is set up, and
    # must get the same object back from `execute_run`
    class SetupDone(Exception):
        pass

    raised = SetupDone()
    run_dir = tmp_path / "run"

    def probe(state):
        assert state.genomes is not None and (run_dir / "meta.json").is_file()
        raise raised

    rebind_everywhere(monkeypatch, evolution.run_generation, probe)
    with pytest.raises(SetupDone) as exc:
        cli.execute_run(config_from_dict(SMALL_RUN), run_dir)
    assert exc.value is raised
