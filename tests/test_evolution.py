"""Controller construction, GA operators, and the generation pipeline."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdbc.evolution import (
    ControllerSpec,
    EvolutionState,
    StackedControllers,
    build_controller,
    crossover,
    evaluate,
    evaluate_population,
    init_population,
    mutate,
    run_generation,
    trial_seeds,
)
from sdbc.tasks import make_task

SPEC = ControllerSpec(inputs=3, hidden=4, outputs=2)


def small_task(**over):
    params = {"max_steps": 60, "n_robots": 3}
    params.update(over)
    return make_task("resource_sharing", params)


def small_state(method="fit", seed=11, pop=8, **kwargs):
    task = small_task()
    spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
    state = EvolutionState(
        task=task, method=method, spec=spec, master_seed=seed,
        population_size=pop, trials=2, elites=2, novelty_k=3, **kwargs,
    )
    init_population(state)
    return state


def trial_raw(genomes, task, spec, seeds):
    """(K, trials, 2F+1): the raw characterisation of every trial of each
    genome, from one stacked batch as `evaluate_population` runs it."""
    k, trials = len(genomes), len(seeds[0])
    batch = task.simulate(
        StackedControllers(genomes, spec), [s for row in seeds for s in row],
        networks=np.repeat(np.arange(k), trials),
    )
    return batch.raw.reshape(k, trials, -1)


class TestController:
    def test_genome_length_formula(self):
        assert SPEC.genome_length == (3 + 1) * 4 + (4 + 1) * 2

    def test_zero_genome_outputs_midpoint(self):
        ctrl = build_controller(np.zeros(SPEC.genome_length), SPEC)
        rng = np.random.default_rng(0)
        x = rng.normal(size=(5, 3))
        assert ctrl(x) == pytest.approx(np.zeros((5, 2)), abs=1e-12)

    def test_single_path_monotone(self):
        # one positive weight from hidden unit 0 to output 0
        g = np.zeros(SPEC.genome_length)
        g[0] = 1.0  # hidden 0 <- input 0
        g[(3 + 1) * 4] = 2.0  # output 0 <- hidden 0
        ctrl = build_controller(g, SPEC)
        inputs = np.linspace(-3, 3, 11)
        outs = ctrl(np.stack([inputs, np.zeros(11), np.zeros(11)], axis=1))[:, 0]
        assert np.all(np.diff(outs) > 0)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(7)
        g = rng.normal(size=SPEC.genome_length)
        ctrl = build_controller(g, SPEC)
        x = rng.normal(size=(6, 3))
        w1 = g[:16].reshape(4, 4)
        w2 = g[16:].reshape(2, 5)
        for i in range(6):
            xin = np.append(x[i], 1.0)
            h = np.append(np.tanh(w1 @ xin), 1.0)
            o = 1.0 / (1.0 + np.exp(-(w2 @ h)))
            expected = -1.0 + 2.0 * o
            assert ctrl(x[i : i + 1])[0] == pytest.approx(expected, abs=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            build_controller(np.zeros(5), SPEC)

    def test_stacked_matches_individual(self):
        rng = np.random.default_rng(13)
        genomes = rng.normal(size=(5, SPEC.genome_length))
        stacked = StackedControllers(genomes, SPEC)
        x = rng.normal(size=(5 * 4, 3))
        got = stacked(x, np.repeat(np.arange(5), 4))
        for k in range(5):
            single = build_controller(genomes[k], SPEC)
            block = x[k * 4 : (k + 1) * 4]
            assert got[k * 4 : (k + 1) * 4] == pytest.approx(single(block), abs=1e-12)

    def test_stacked_rows_in_any_order_match_each_network(self):
        # finished trials leave the batch, so rows arrive as any subset
        rng = np.random.default_rng(17)
        genomes = rng.normal(size=(6, SPEC.genome_length))
        stacked = StackedControllers(genomes, SPEC)
        x = rng.normal(size=(6 * 5, SPEC.inputs))
        subset = np.sort(rng.choice(len(x), 13, replace=False))
        blocks = np.repeat(np.arange(6), 5)
        assert np.array_equal(stacked(x[subset], blocks[subset]), stacked(x, blocks)[subset])
        networks = rng.integers(0, 6, len(x))
        got = stacked(x, networks)
        for k in range(6):
            single = build_controller(genomes[k], SPEC)
            rows = networks == k
            assert np.array_equal(got[rows], single(x[rows]))
            for i in np.nonzero(rows)[0]:
                assert np.array_equal(got[i], single(x[i : i + 1])[0])

    def test_several_networks_need_a_row_index(self):
        rng = np.random.default_rng(23)
        x = rng.normal(size=(6, SPEC.inputs))
        with pytest.raises(ValueError, match="row index"):
            StackedControllers(rng.normal(size=(2, SPEC.genome_length)), SPEC)(x)
        one = StackedControllers(rng.normal(size=(1, SPEC.genome_length)), SPEC)
        assert np.array_equal(one(x), one(x, np.zeros(6, dtype=int)))

    def test_an_index_rewritten_in_place_is_read_afresh(self):
        # the gathered weights are kept while the row index stays equal, so
        # a caller that rewrites its one index array must still get the
        # networks it now names
        rng = np.random.default_rng(19)
        genomes = rng.normal(size=(4, SPEC.genome_length))
        stacked = StackedControllers(genomes, SPEC)
        x = rng.normal(size=(8, SPEC.inputs))
        networks = np.zeros(8, dtype=int)
        assert np.array_equal(stacked(x, networks), build_controller(genomes[0], SPEC)(x))
        networks[:] = 3
        last = build_controller(genomes[3], SPEC)
        assert np.array_equal(stacked(x, networks), last(x))
        assert np.array_equal(stacked(x[:4], networks[:4]), last(x[:4]))


class TestMutate:
    def test_zero_probability_identity(self):
        rng = np.random.default_rng(1)
        g = rng.normal(size=50)
        assert np.array_equal(mutate(g, rng, 0.0, 0.5), g)

    def test_tiny_sigma_changes_nothing_much(self):
        rng = np.random.default_rng(2)
        g = rng.normal(size=50)
        out = mutate(g, rng, 1.0, 1e-12)
        assert out == pytest.approx(g, abs=1e-9)

    def test_changed_gene_count_binomial(self):
        rng = np.random.default_rng(3)
        g = np.zeros(100)
        changed = [int((mutate(g, rng, 0.1, 0.5) != 0).sum()) for _ in range(1000)]
        mean = np.mean(changed)
        sd3 = 3 * np.sqrt(100 * 0.1 * 0.9 / 1000)
        assert abs(mean - 10.0) < sd3

    def test_clamped_to_bounds(self):
        rng = np.random.default_rng(4)
        g = np.full(200, 9.9)
        out = mutate(g, rng, 1.0, 50.0)
        assert np.all(out <= 10.0) and np.all(out >= -10.0)

    def test_rejects_bad_parameters(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            mutate(np.zeros(3), rng, 1.5, 0.5)
        with pytest.raises(ValueError):
            mutate(np.zeros(3), rng, 0.5, 0.0)


class TestCrossover:
    def test_identical_parents_identity(self):
        rng = np.random.default_rng(6)
        a = rng.normal(size=20)
        assert np.array_equal(crossover(a, a.copy(), rng), a)

    def test_child_structure(self):
        rng = np.random.default_rng(7)
        a = np.zeros(30)
        b = np.ones(30)
        for _ in range(50):
            child = crossover(a, b, rng)
            assert child[0] == 0.0  # prefix always from a
            flips = np.nonzero(np.diff(child))[0]
            assert len(flips) == 1  # single cut
            cut = flips[0] + 1
            assert 1 <= cut <= 29

    def test_cut_positions_cover_range(self):
        rng = np.random.default_rng(8)
        a, b = np.zeros(4), np.ones(4)
        cuts = set()
        for _ in range(200):
            child = crossover(a, b, rng)
            cuts.add(int(child.sum()))
        assert cuts == {1, 2, 3}  # cut in [1, 3]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            crossover(np.zeros(3), np.zeros(4), np.random.default_rng(0))


class TestSeeds:
    def test_deterministic_and_distinct(self):
        (a,) = trial_seeds(42, 3, [7], 5)
        (b,) = trial_seeds(42, 3, [7], 5)
        assert a == b
        assert len(set(a)) == 5
        assert trial_seeds(42, 3, [8], 5) != [a]
        assert trial_seeds(42, 4, [7], 5) != [a]
        assert trial_seeds(43, 3, [7], 5) != [a]

    @pytest.mark.parametrize("master", [0, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**130 + 99])
    def test_each_seed_is_the_seed_sequence_word(self, master):
        rows = np.array([0, 1, 49, 2**31 + 5])
        seeds = trial_seeds(master, 7, rows, 4)
        assert seeds == [
            [
                int(np.random.SeedSequence(master, spawn_key=(2, 7, int(r), t)).generate_state(1)[0])
                for t in range(4)
            ]
            for r in rows
        ]
        assert all(type(s) is int for row in seeds for s in row)
        assert trial_seeds(master, 7, [], 4) == []


class TestEvaluate:
    def test_single_trial_equals_that_trial(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        rng = np.random.default_rng(9)
        g = rng.uniform(-1, 1, spec.genome_length)
        res = evaluate(g, task, spec, [123])
        assert res.fitness == res.trial_fitness[0]

    def test_identical_seeds_zero_variance(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        rng = np.random.default_rng(10)
        g = rng.uniform(-1, 1, spec.genome_length)
        res = evaluate(g, task, spec, [77, 77, 77])
        assert res.trial_fitness.std() == 0.0

    def test_repeated_calls_bit_identical(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        rng = np.random.default_rng(11)
        g = rng.uniform(-1, 1, spec.genome_length)
        r1 = evaluate(g, task, spec, [5, 6, 7])
        r2 = evaluate(g, task, spec, [5, 6, 7])
        assert r1.fitness == r2.fitness
        assert np.array_equal(r1.raw, r2.raw)
        assert np.array_equal(r1.ts, r2.ts)

    def test_population_evaluation_matches_singles(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        rng = np.random.default_rng(12)
        genomes = rng.uniform(-1, 1, (4, spec.genome_length))
        seeds = [[int(s) for s in rng.integers(0, 2**31, 3)] for _ in range(4)]
        stacked = evaluate_population(genomes, task, spec, seeds)
        for k in range(4):
            single = evaluate(genomes[k], task, spec, seeds[k])
            assert single.fitness == stacked[k].fitness
            assert np.array_equal(single.raw, stacked[k].raw)

    @pytest.mark.parametrize(
        "name, params",
        [
            ("resource_sharing", {"n_robots": 8, "arena_size": 0.8, "max_steps": 100}),
            ("gate_escape", {"max_steps": 300}),
        ],
    )
    def test_crowded_population_trials_match_solo_runs(self, name, params):
        # crowded arenas make collisions frequent, where a trial's pushes
        # must not depend on which other trials share the batch
        task = make_task(name, params)
        spec = ControllerSpec(task.n_inputs, 8, task.n_outputs)
        rng = np.random.default_rng(10)
        genomes = rng.uniform(-2, 2, (12, spec.genome_length))
        seeds = [[int(s) for s in rng.integers(0, 2**31, 4)] for _ in range(12)]
        stacked = evaluate_population(genomes, task, spec, seeds)
        for k in range(12):
            single = evaluate(genomes[k], task, spec, seeds[k])
            assert np.array_equal(single.trial_fitness, stacked[k].trial_fitness), k
            assert np.array_equal(
                trial_raw(genomes[k : k + 1], task, spec, seeds[k : k + 1])[0],
                trial_raw(genomes, task, spec, seeds)[k],
            ), k

    @pytest.mark.parametrize("name", ["resource_sharing", "gate_escape", "predator_prey"])
    def test_peak_memory_stays_near_the_feature_array(self, name):
        # evaluation keeps each trial's feature total and last row, never a
        # per-step (T, B, ...) array, so its peak does not grow with the
        # trial length; a per-step (T, B, F) feature array would grow it
        # several-fold here
        def peak(max_steps):
            task = make_task(name, {"max_steps": max_steps})
            spec = ControllerSpec(task.n_inputs, 6, task.n_outputs)
            rng = np.random.default_rng(14)
            genomes = rng.uniform(-1, 1, (20, spec.genome_length))
            seeds = [[int(s) for s in rng.integers(0, 2**31, 5)] for _ in range(20)]
            tracemalloc.start()
            try:
                evaluate_population(genomes, task, spec, seeds)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        short, long = peak(150), peak(600)
        assert long <= 1.25 * short, long / short

    def test_identical_trials_leave_the_mean_unchanged(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        g = np.random.default_rng(15).uniform(-1, 1, spec.genome_length)
        res = evaluate(g, task, spec, [77, 77, 77])
        raw = trial_raw(g[None, :], task, spec, [[77, 77, 77]])[0]
        assert (raw == raw[0]).all()
        assert res.raw == pytest.approx(raw[0], abs=1e-12)
        assert res.fitness == pytest.approx(res.trial_fitness[0], abs=1e-12)

    def test_trial_mean_matches_brute_force(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        rng = np.random.default_rng(16)
        genomes = rng.uniform(-1, 1, (3, spec.genome_length))
        seeds = [[int(s) for s in rng.integers(0, 2**31, 5)] for _ in range(3)]
        results = evaluate_population(genomes, task, spec, seeds)
        raws = trial_raw(genomes, task, spec, seeds)
        for res, raw in ((results[k], raws[k]) for k in range(3)):
            assert raw.shape == (5, len(task.char_schema()))
            for k in range(raw.shape[1]):
                total = 0.0
                for i in range(5):
                    total += raw[i, k]
                assert res.raw[k] == pytest.approx(total / 5, abs=1e-12)
            assert res.fitness == pytest.approx(sum(res.trial_fitness) / 5, abs=1e-12)
            # the per-trial average this replaced, bit for bit
            assert np.array_equal(res.raw, np.mean(list(raw), axis=0))
            assert res.fitness == float(np.mean(res.trial_fitness))

    def test_needs_a_trial(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        with pytest.raises(ValueError):
            evaluate(np.zeros(spec.genome_length), task, spec, [])


class TestRunGeneration:
    def test_population_size_constant(self):
        state = small_state("ns-sd")
        for _ in range(3):
            run_generation(state)
            assert state.genomes.shape == (8, state.spec.genome_length)
            assert len(state.ids) == len(state.has_result) == len(state.results.fitness) == 8

    def test_offspring_plus_elites(self):
        state = small_state("fit")
        before = state.ids.copy()
        stats, _ = run_generation(state)
        carried = np.isin(state.ids, before)
        assert carried.sum() == state.elites
        assert np.array_equal(state.has_result, carried)

    def test_full_elitism_freezes_population(self):
        state = small_state("fit", pop=6)
        state.elites = 6
        ids0 = set(state.ids.tolist())
        for _ in range(3):
            run_generation(state)
        assert set(state.ids.tolist()) == ids0

    def test_best_so_far_monotone_under_elitism(self):
        state = small_state("ns-sd+", pop=10)
        best = []
        current = []
        for _ in range(6):
            stats, _ = run_generation(state)
            best.append(stats.best_so_far)
            current.append(stats.best_fitness)
        assert best == sorted(best)
        assert all(b >= c - 1e-15 for b, c in zip(best, current))
        # the elite keeps its cached evaluation, so the running best never dips
        assert all(current[i + 1] >= current[i] - 1e-15 for i in range(len(current) - 1))

    def test_full_run_determinism(self):
        traces = []
        for _ in range(2):
            state = small_state("ns-sd+", seed=77)
            trace = []
            for _ in range(4):
                stats, _ = run_generation(state)
                trace.append((stats.best_fitness, stats.mean_fitness, stats.archive_size))
            traces.append(trace)
        assert traces[0] == traces[1]

    def test_methods_disagree_on_selection_not_evaluation(self):
        a = small_state("fit", seed=5)
        b = small_state("ns-sd", seed=5)
        sa, _ = run_generation(a)
        sb, _ = run_generation(b)
        # generation 0 evaluations are identical; selection differs later
        assert sa.best_fitness == sb.best_fitness
        assert sa.mean_fitness == sb.mean_fitness

    def test_detail_arrays_cover_population(self):
        state = small_state("ns-sd+")
        _, detail = run_generation(state)
        assert detail.sdbc_raw.shape[0] == 8
        assert detail.ts.shape == (8, 4)
        assert detail.transformed is not None
        assert detail.novelty is not None
        assert sorted(detail.order) == list(range(8))
        assert detail.weights is not None
        assert np.all(detail.weights.weights >= 0.25)

    def test_fit_mode_skips_behaviour_machinery(self):
        state = small_state("fit")
        _, detail = run_generation(state)
        assert detail.transformed is None
        assert detail.novelty is None
        assert len(state.archive) == 0

    def test_unknown_method_rejected(self):
        task = small_task()
        spec = ControllerSpec(task.n_inputs, 4, task.n_outputs)
        with pytest.raises(ValueError):
            EvolutionState(task=task, method="hillclimb", spec=spec, master_seed=1)

    @given(st.integers(0, 30))
    @settings(max_examples=8, deadline=None)
    def test_genomes_stay_in_bounds(self, seed):
        state = small_state("fit", seed=seed, pop=6)
        for _ in range(2):
            run_generation(state)
        assert np.all(np.abs(state.genomes) <= 10.0)
