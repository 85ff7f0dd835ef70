"""Generational GA over directly encoded network weights.

Controllers are single-hidden-layer perceptrons shared by every robot of a
group.  Selection ranks the population either by fitness alone or by
Pareto dominance over (fitness, novelty).  All randomness derives from the
master seed through counter-keyed seed sequences, so results do not depend
on evaluation order and runs can resume mid-way bit-exactly.

The population is a set of row-aligned arrays: genomes, ids, a
`has_result` mask and an `EvaluationResult` of per-genome result columns.
Elites keep their rows and results; children arrive as rows of zeros that
the next generation evaluates.  A checkpoint saves these arrays as they are.
"""

from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import characterisation as ch
from . import novelty as nov
from .tasks import Task

WEIGHT_CLIP = 10.0

# seed stream tags; (master, tag, ...) identifies every random decision
_SEED_INIT = 1
_SEED_EVAL = 2
_SEED_OPS = 3
_SEED_ARCHIVE = 4
# the hash constants of NumPy's SeedSequence, which `trial_seeds` runs on arrays
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _M32 = 0xCA01F9DD, 0x4973F715, 0xFFFF_FFFF

METHODS = ("fit", "ns-ts", "ns-sd", "ns-sd+")


@dataclass(frozen=True)
class ControllerSpec:
    """Feed-forward topology; outputs map through a logistic onto the
    actuator range [-1, 1]."""

    inputs: int
    hidden: int
    outputs: int

    @property
    def genome_length(self) -> int:
        return (self.inputs + 1) * self.hidden + (self.hidden + 1) * self.outputs


class StackedControllers:
    """The networks of many genomes over the sensor rows of one trial
    batch; each a tanh hidden layer with a logistic output scaled to the
    actuator range.

    `networks` gives the genome index of each (R, inputs) sensor row, so
    the rows may come in any order and any subset, as when finished trials
    leave the batch; only a stack of one network may be called without
    it.  Each row's output is bit-identical to running its own genome's
    network on that row alone.

    Each row's weights and biases are gathered once, as contiguous
    arrays, and kept until a call brings another row index, as a step loop
    does only when trials leave its batch; the old gather is dropped
    before the new one is taken.
    """

    def __init__(self, genomes: np.ndarray, spec: ControllerSpec):
        if genomes.ndim != 2 or genomes.shape[1] != spec.genome_length:
            raise ValueError("genomes must be (K, genome_length)")
        k = genomes.shape[0]
        n1 = (spec.inputs + 1) * spec.hidden
        w1 = genomes[:, :n1].reshape(k, spec.hidden, spec.inputs + 1)
        w2 = genomes[:, n1:].reshape(k, spec.outputs, spec.hidden + 1)
        # each layer's weights and bias column as contiguous arrays, whose
        # row gathers are contiguous too and cost less than gathers of views
        self.layers = tuple(
            np.ascontiguousarray(part)
            for w in (w1, w2)
            for part in (w[:, :, :-1], w[:, :, -1])
        )
        self.k = k
        self._rows: np.ndarray | None = None  # the row index `_gathered` is for
        self._gathered: tuple[np.ndarray, ...] | None = None

    def __call__(self, x: np.ndarray, networks: np.ndarray | None = None) -> np.ndarray:
        if networks is None:
            if self.k != 1:
                raise ValueError("a stack of several networks needs a row index")
            networks = np.zeros(x.shape[0], dtype=np.int64)
        if self._rows is None or not np.array_equal(networks, self._rows):
            self._gathered = None  # one gather alive at a time
            self._rows = np.array(networks)  # a copy: the caller may reuse its array
            self._gathered = tuple(part.take(networks, axis=0) for part in self.layers)
        w1, b1, w2, b2 = self._gathered
        h = np.tanh(np.einsum("ri,rhi->rh", x, w1) + b1)
        o = np.einsum("rh,roh->ro", h, w2) + b2
        logistic = 1.0 / (1.0 + np.exp(-o))
        return -1.0 + 2.0 * logistic


def build_controller(genome: np.ndarray, spec: ControllerSpec) -> StackedControllers:
    """Deterministic genome-to-network construction.

    The network is the one-genome case of the evaluation path, so a
    replayed trial reproduces its logged fitness bit for bit.
    """
    g = np.asarray(genome, dtype=float)
    if g.shape != (spec.genome_length,):
        raise ValueError(
            f"genome length {g.shape} does not match spec ({spec.genome_length},)"
        )
    return StackedControllers(g[None, :], spec)


def mutate(
    g: np.ndarray,
    rng: np.random.Generator,
    p_gene: float,
    sigma: float,
    clip: float = WEIGHT_CLIP,
) -> np.ndarray:
    """Per-gene Gaussian perturbation with probability p_gene, clamped."""
    if not (0.0 <= p_gene <= 1.0) or sigma <= 0.0:
        raise ValueError("need 0 <= p_gene <= 1 and sigma > 0")
    hit = rng.random(g.shape) < p_gene
    noise = rng.normal(0.0, sigma, g.shape)
    return np.clip(g + hit * noise, -clip, clip)


def crossover(a: np.ndarray, b: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Single-point crossover; the cut lands uniformly in [1, L-1]."""
    if a.shape != b.shape:
        raise ValueError("parent genomes differ in length")
    cut = int(rng.integers(1, len(a)))
    return np.concatenate([a[:cut], b[cut:]])


def trial_seeds(
    master_seed: int, generation: int, rows: Sequence[int], trials: int
) -> list[list[int]]:
    """Per-trial integer seeds keyed by (master, generation, individual,
    trial), one list per row: the first word of `SeedSequence(master_seed,
    spawn_key=(_SEED_EVAL, generation, row, trial))`, with NumPy's hash
    run once over the arrays of every row and trial."""
    n_words = max(1, (master_seed.bit_length() + 31) // 32)
    words = [master_seed >> 32 * i & _M32 for i in range(n_words)]
    entropy = words + [0] * (4 - len(words)) + [_SEED_EVAL, generation]
    entropy += [np.asarray(rows, np.uint64)[:, None], np.arange(trials, dtype=np.uint64)]
    const = _INIT_A

    def hashmix(value):
        nonlocal const
        value, const = value ^ const, const * _MULT_A & _M32
        value = value * const & _M32
        return value ^ value >> 16

    def mix(x, y):
        x = (_MIX_L * x - _MIX_R * y) & _M32
        return x ^ x >> 16

    pool = [hashmix(e) for e in entropy[:4]]
    for src, dst in itertools.permutations(range(4), 2):
        pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for e in entropy[4:]:
        pool = [mix(p, hashmix(e)) for p in pool]
    out = (pool[0] ^ _INIT_B) * (_INIT_B * _MULT_B & _M32) & _M32
    return (out ^ out >> 16).tolist()


def stream_rng(master_seed: int, tag: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(
        np.random.SeedSequence(entropy=master_seed, spawn_key=(tag, *key))
    )


@dataclass
class EvaluationResult:
    """Trial-averaged outcomes of evaluating genomes, one row per genome.

    Indexing takes rows, so `result[i]` is genome i's outcome.  In the
    population, a row that holds no result yet is all zeros.
    """

    fitness: np.ndarray        # (K,)
    raw: np.ndarray            # (K, 2F+1) raw SDBC characterisation
    ts: np.ndarray             # (K, 4) task-specific characterisation
    trial_fitness: np.ndarray  # (K, trials)
    trial_seeds: np.ndarray    # (K, trials) int64

    @classmethod
    def zeros(cls, n: int, n_char: int, trials: int) -> EvaluationResult:
        return cls(
            np.zeros(n), np.zeros((n, n_char)), np.zeros((n, 4)),
            np.zeros((n, trials)), np.zeros((n, trials), dtype=np.int64),
        )

    def __getitem__(self, rows) -> EvaluationResult:
        return EvaluationResult(**{name: a[rows] for name, a in vars(self).items()})

    def put(self, rows, other: EvaluationResult) -> None:
        """Overwrite `rows` of every column with `other`'s."""
        for name, column in vars(self).items():
            column[rows] = getattr(other, name)


def evaluate(
    genome: np.ndarray,
    task: Task,
    spec: ControllerSpec,
    seeds: Sequence[int],
) -> EvaluationResult:
    """Run one genome over seeded trials and average the results."""
    genomes = np.asarray(genome, dtype=float)[None, :]
    return evaluate_population(genomes, task, spec, [list(seeds)])[0]


def evaluate_population(
    genomes: np.ndarray,
    task: Task,
    spec: ControllerSpec,
    seeds_per_genome: Sequence[Sequence[int]],
) -> EvaluationResult:
    """Evaluate many genomes in one flat trial batch; one result row each.

    Every trial carries its genome's index, so the stacked networks stay
    matched to their rows while finished trials leave the batch.  Trials
    of different genomes never interact, so stacking them yields the same
    numbers as evaluating one genome at a time, only with the per-step
    array overhead shared across the whole generation.  For the same
    reason `Task.simulate` may deal the batch into parts, one per usable
    core and each holding every n-th trial, and joins the parts bit for bit.
    """
    k = genomes.shape[0]
    if len(seeds_per_genome) != k:
        raise ValueError("one seed list per genome required")
    trials = len(seeds_per_genome[0])
    if trials < 1 or any(len(s) != trials for s in seeds_per_genome):
        raise ValueError("every genome needs the same positive trial count")
    controller = StackedControllers(genomes, spec)
    flat_seeds = [s for seeds in seeds_per_genome for s in seeds]
    batch = task.simulate(
        controller, flat_seeds, record=False, networks=np.repeat(np.arange(k), trials)
    )
    trial_fitness = batch.fitness.reshape(k, trials)
    return EvaluationResult(
        fitness=trial_fitness.mean(axis=1),
        raw=batch.raw.reshape(k, trials, -1).mean(axis=1),
        ts=batch.ts_chars.reshape(k, trials, -1).mean(axis=1),
        trial_fitness=trial_fitness,
        trial_seeds=np.array(seeds_per_genome, dtype=np.int64),
    )


@dataclass
class GenerationStats:
    generation: int
    best_fitness: float
    mean_fitness: float
    best_id: int
    best_so_far: float
    archive_size: int
    evaluations: int
    wall_time: float


@dataclass
class GenerationDetail:
    """Per-individual arrays exposed to logging hooks after each generation:
    the generation's own population arrays, which breeding replaces rather
    than overwrites."""

    ids: np.ndarray
    fitness: np.ndarray
    sdbc_raw: np.ndarray            # (P, 2F+1), computed for every method
    ts: np.ndarray                  # (P, 4)
    transformed: np.ndarray | None  # standardised (and weighted) view, sd modes
    novelty: np.ndarray | None
    coefficients: ch.StandardisationCoefficients | None
    weights: ch.FeatureWeights | None
    order: np.ndarray               # (P,) row indices, best first


@dataclass
class EvolutionState:
    """Everything the generational loop carries between generations."""

    task: Task
    method: str
    spec: ControllerSpec
    master_seed: int
    population_size: int = 100
    trials: int = 10
    tournament_size: int = 2
    p_crossover: float = 0.5
    p_gene_mutation: float = 0.05
    mutation_sigma: float = 0.5
    elites: int = 2
    init_range: float = 1.0
    novelty_k: int = 15
    archive_rate: float = 0.025
    delta: float = 0.25
    mi_bins_min: int = 4
    mi_bins_max: int = 16
    weight_update_period: int = 1

    # the population, one row per individual
    genomes: np.ndarray | None = None        # (P, genome_length)
    ids: np.ndarray | None = None            # (P,) int64
    has_result: np.ndarray | None = None     # (P,) bool
    results: EvaluationResult | None = None  # (P, ...)
    generation: int = 0
    next_id: int = 0
    archive: nov.NoveltyArchive = field(default_factory=nov.NoveltyArchive)
    best_so_far: float = -np.inf
    best_genome: np.ndarray | None = None
    best_result: EvaluationResult | None = None  # one row
    best_generation: int = -1
    weights: ch.FeatureWeights | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}; choose from {METHODS}")
        if not (1 <= self.elites <= self.population_size):
            raise ValueError("elites must be in [1, population size]")


def init_population(state: EvolutionState) -> None:
    rng = stream_rng(state.master_seed, _SEED_INIT)
    p = state.population_size
    state.genomes = rng.uniform(
        -state.init_range, state.init_range, (p, state.spec.genome_length)
    )
    state.ids = np.arange(state.next_id, state.next_id + p)
    state.next_id += p
    state.has_result = np.zeros(p, dtype=bool)
    n_char = len(state.task.char_schema())
    state.results = EvaluationResult.zeros(p, n_char, state.trials)
    state.archive = nov.NoveltyArchive(np.zeros((0, n_char)))


def _uses_sdbc(method: str) -> bool:
    return method in ("ns-sd", "ns-sd+")


def run_generation(state: EvolutionState) -> tuple[GenerationStats, GenerationDetail]:
    """One full generation: evaluate, transform, score, rank, breed."""
    t0 = time.perf_counter()
    return advance_generation(state, evaluate_fresh([state])[0], t0)


def evaluate_fresh(states: Sequence[EvolutionState]) -> list[int]:
    """Evaluate the fresh genomes of every state in one `evaluate_population`
    call and return how many each state had.  The states share a task and
    controller and may be at different generations; each row keeps its own
    state's trial seeds, so each state gets bit for bit its results alone."""
    fresh = [np.flatnonzero(~s.has_result) for s in states]
    if any(f.size for f in fresh):
        task, spec = states[0].task, states[0].spec
        if any((s.task.params, s.spec) != (task.params, spec) for s in states):
            raise ValueError("states evaluated together must share one task and controller")
        seeds = [row for s, f in zip(states, fresh)
                 for row in trial_seeds(s.master_seed, s.generation, f, s.trials)]
        genomes = np.concatenate([s.genomes[f] for s, f in zip(states, fresh)])
        results = evaluate_population(genomes, task, spec, seeds)
        for s, f, end in zip(states, fresh, np.cumsum([f.size for f in fresh])):
            s.results.put(f, results[end - f.size:end])
            s.has_result[f] = True
    return [f.size for f in fresh]


def advance_generation(state: EvolutionState, evaluations: int, t0: float):
    """The rest of a generation whose rows all hold results: transform,
    score, rank, archive and breed.  `evaluations` rows were fresh, and the
    generation's wall time runs from `t0`."""
    gen = state.generation
    ids = state.ids
    fitness = state.results.fitness
    sdbc_raw = state.results.raw
    ts = state.results.ts
    by_fitness = np.lexsort((ids, -fitness))
    transformed = None
    novelty_arr = None
    coeffs = None

    if state.method == "fit":
        order = by_fitness
    else:
        if _uses_sdbc(state.method):
            selection_raw = sdbc_raw
            coeffs = ch.compute_standardisation(selection_raw)
            scale = 1.0
            if state.method == "ns-sd+":
                if state.weights is None or gen % state.weight_update_period == 0:
                    state.weights = ch.compute_weights(
                        selection_raw, fitness,
                        state.delta, state.mi_bins_min, state.mi_bins_max,
                    )
                scale = state.weights.weights
            transformed = ch.apply_standardisation(selection_raw, coeffs) * scale
            archive_view = ch.apply_standardisation(state.archive.raw, coeffs) * scale
            selection_chars = transformed
        else:  # ns-ts: the hand-designed vector is used as-is
            selection_raw = ts
            selection_chars = ts
            archive_view = state.archive.raw

        novelty_arr = nov.novelty_scores(selection_chars, archive_view, state.novelty_k)
        order = nov.rank_population(fitness, novelty_arr, ids)
        state.archive.sample(
            selection_raw,
            stream_rng(state.master_seed, _SEED_ARCHIVE, gen),
            state.archive_rate,
            gen,
        )

    best_idx = int(by_fitness[0])
    if fitness[best_idx] > state.best_so_far:
        state.best_so_far = float(fitness[best_idx])
        state.best_genome = state.genomes[best_idx].copy()
        state.best_result = state.results[best_idx]
        state.best_generation = gen

    stats = GenerationStats(
        generation=gen,
        best_fitness=float(fitness[best_idx]),
        mean_fitness=float(fitness.mean()),
        best_id=int(ids[best_idx]),
        best_so_far=state.best_so_far,
        archive_size=len(state.archive),
        evaluations=evaluations,
        wall_time=time.perf_counter() - t0,
    )
    detail = GenerationDetail(
        ids=ids,
        fitness=fitness,
        sdbc_raw=sdbc_raw,
        ts=ts,
        transformed=transformed,
        novelty=novelty_arr,
        coefficients=coeffs,
        weights=state.weights if state.method == "ns-sd+" else None,
        order=order,
    )

    # breed the next generation: the elites' rows pass through with their
    # results, and the children's rows follow with none
    rng = stream_rng(state.master_seed, _SEED_OPS, gen)
    p, e = state.population_size, state.elites
    elites = order[:e]
    rank_of = np.empty(len(order), dtype=int)
    rank_of[order] = np.arange(len(order))
    genomes = np.empty((p, state.spec.genome_length))
    genomes[:e] = state.genomes[elites]
    for row in range(e, p):
        parents = []
        for _ in range(2):
            contenders = rng.integers(0, len(order), state.tournament_size)
            winner = min(contenders, key=lambda i: rank_of[i])
            parents.append(state.genomes[winner])
        if rng.random() < state.p_crossover:
            child = crossover(parents[0], parents[1], rng)
        else:
            child = parents[0]
        genomes[row] = mutate(child, rng, state.p_gene_mutation, state.mutation_sigma)
    results = EvaluationResult.zeros(p, sdbc_raw.shape[1], state.trials)
    results.put(slice(0, e), state.results[elites])
    state.genomes, state.results = genomes, results
    state.ids = np.concatenate([ids[elites], np.arange(state.next_id, state.next_id + p - e)])
    state.next_id += p - e
    state.has_result = np.arange(p) < e
    state.generation += 1
    return stats, detail
