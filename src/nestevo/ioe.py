"""Inner optimization engine: for a frozen backbone, evolve (exit placement,
frequency setting) pairs and return the Pareto archive of the best pairings.

The dynamic fitness of a candidate averages, over its sampled exits, the
product of the exit's correct-classification fraction, its energy and latency
relative to the static backbone at default frequencies, and a dissimilarity
regularizer that discounts exits whose predecessors already classify well.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .evaluator import (
    ExitProfile,
    HardwareBackend,
    HardwareModelParams,
    StaticScore,
    layer_workloads,
    running_sums,
)
from .genome import (
    BackboneGenome,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    VariationParams,
    crossover_dvfs,
    crossover_exit,
    enumerate_dvfs,
    enumerate_exit_genomes,
    indicator_length,
    mutate_dvfs,
    mutate_exit,
    n_inner_candidates,
    require_counts,
    sample_dvfs,
    sample_exit_genome,
)
from .moea import (
    Direction,
    ParetoArchive,
    breed,
    initial_population,
    mating_pool,
    rank_rows,
    require_finite,
)

# Column directions of the inner objectives, per objective mode.
OBJECTIVE_DIRECTIONS = {
    "vector": (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE),
    "scalar": (Direction.MAXIMIZE,),
}
OBJECTIVE_MODES = tuple(OBJECTIVE_DIRECTIONS)


@dataclass(frozen=True)
class DynamicScore:
    """Aggregate dynamic evaluation of one (exits, frequencies) candidate."""

    mean_exit_score: float
    mean_correct: float
    mean_energy_ratio: float
    mean_latency_ratio: float
    mean_dissimilarity: float
    n_exits: int


@dataclass(frozen=True)
class IoeConfig:
    generations: int = 35
    population: int = 100
    gamma: float = 1.0
    objective_mode: str = "vector"
    keep_fraction: float = 0.5
    budget: int = 3500

    def __post_init__(self) -> None:
        require_counts(self, "generations", "population", "budget")
        if self.generations < 1 or self.population < 1:
            raise ValueError("generations and population must be >= 1")
        if self.generations * self.population > self.budget:
            raise ValueError(
                f"generations*population = {self.generations * self.population} "
                f"exceeds the inner budget {self.budget}"
            )
        if not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        if not 0 < self.keep_fraction <= 1:
            raise ValueError("keep_fraction must lie in (0, 1]")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(f"objective_mode must be one of {OBJECTIVE_MODES}")


Candidate = tuple[ExitGenome, DvfsGenome]


def _candidate_key(c: Candidate) -> tuple:
    return (c[0].key(),) + c[1].key()


# Candidates evaluated per block: bounds the temporaries of an exhaustive
# enumeration, which evaluates every candidate of a backbone in one call.
_BLOCK_ROWS = 4096


@dataclass(frozen=True)
class DynamicScores:
    """The DynamicScore of each candidate of a batch, as columns: `means`
    holds mean_exit_score, mean_correct, mean_energy_ratio,
    mean_latency_ratio and mean_dissimilarity, one row per candidate."""

    means: np.ndarray
    n_exits: np.ndarray

    def score(self, i: int) -> DynamicScore:
        return DynamicScore(*self.means[i].tolist(), int(self.n_exits[i]))


class _DynamicEvaluator:
    """Per-backbone context that evaluates candidates as a batch.

    A batch is a P x L indicator matrix (one column per admissible exit
    position) plus one frequency setting per row.  Every value comes from
    the per-exit definition's operations in the same order: running sums
    are masked cumulative sums along the layer axis (never pairwise sums),
    the best earlier fraction is a running maximum, and powers are taken
    with Python's pow, so each score equals that of a per-candidate loop
    bit for bit."""

    def __init__(self, b: BackboneGenome, space: SearchSpaceSpec,
                 device: DeviceSpec, backend: HardwareBackend,
                 hw: HardwareModelParams, profile: ExitProfile,
                 static: StaticScore, gamma: float) -> None:
        flops, byts = layer_workloads(b, space)
        cum_flops = running_sums(flops)
        cum_bytes = running_sums(byts)
        first = space.exit_min_position
        positions = range(first, first + indicator_length(b, space))
        if len(profile.correct_fractions) < len(positions):
            raise ValueError("exit profile does not cover the backbone's exits")
        self.n_cols = len(positions)
        self.prefix_flops = np.array([cum_flops[p] for p in positions])
        self.prefix_bytes = np.array([cum_bytes[p] for p in positions])
        self.exit_overhead = np.array(
            [hw.exit_overhead_fraction * flops[p - 1] for p in positions])
        self.fractions = np.array(profile.correct_fractions[:self.n_cols],
                                  dtype=float)
        # Dissimilarities are 1 - (0 or a fraction): their powers are
        # tabulated once, for the values a valid dissimilarity can take.
        self.best_values = np.unique(np.append(self.fractions, 0.0))
        self.best_powers = np.array([
            (1.0 - v)**gamma if gamma >= 0 and 0.0 <= 1.0 - v <= 1.0 else math.nan
            for v in self.best_values.tolist()])
        self.device = device
        self.backend = backend
        self.static = static
        self.gamma = gamma

    def evaluate_batch(self, candidates: Sequence[Candidate]) -> DynamicScores:
        blocks = [self._evaluate_block(candidates[i:i + _BLOCK_ROWS])
                  for i in range(0, len(candidates), _BLOCK_ROWS)]
        return DynamicScores(np.concatenate([b.means for b in blocks]),
                             np.concatenate([b.n_exits for b in blocks]))

    def _evaluate_block(self, candidates: Sequence[Candidate]) -> DynamicScores:
        bits = [x.indicators for x, _ in candidates]
        if set(map(len, bits)) != {self.n_cols}:
            raise ValueError("exit genome is not conditioned on this backbone")
        sel = np.frombuffer(b"".join(map(bytes, bits)), dtype=np.uint8
                            ).reshape(len(bits), self.n_cols).astype(bool)
        k = sel.sum(axis=1)
        if not k.all():
            raise ZeroDivisionError("exit genome samples no exit")

        # Workload of each sampled prefix: every sampled exit adds its
        # overhead to its own prefix and to all later ones.
        overhead = np.cumsum(np.where(sel, self.exit_overhead, 0.0), axis=1)
        flops = (self.prefix_flops + overhead)[sel]
        bytes_ = np.broadcast_to(self.prefix_bytes, sel.shape)[sel]
        finite = np.isfinite(flops) & np.isfinite(bytes_)
        bad = ~finite | (flops < 0) | (bytes_ < 0)
        if bad.any():
            raise ValueError("workload must be finite" if not finite[bad.argmax()]
                             else "workload must be nonnegative")
        latency, energy = self.backend.latency_energy_batch(
            flops, bytes_, np.nonzero(sel)[0], self.device,
            [f for _, f in candidates])

        # Best fraction among the sampled exits strictly before each one,
        # from 0; fmax skips a NaN as max() does.
        earlier = np.zeros(sel.shape)
        earlier[:, 1:] = np.where(sel[:, :-1], self.fractions[:-1], 0.0)
        best = np.fmax.accumulate(earlier, axis=1)[sel]
        n = np.broadcast_to(self.fractions, sel.shape)[sel]
        er = energy / self.static.energy_mj
        lr = latency / self.static.latency_ms
        d = 1.0 - best
        # The per-exit score's checks, first failing exit first.
        bad_ratio = (er <= 0) | (lr <= 0)
        bad = bad_ratio | ~((d >= 0.0) & (d <= 1.0))
        if not self.gamma >= 0 and not bad[0]:
            raise ValueError("gamma must be nonnegative")
        if bad.any():
            raise ValueError("ratios must be positive" if bad_ratio[bad.argmax()]
                             else "dissimilarity must lie in [0, 1]")
        powers = self.best_powers[np.searchsorted(self.best_values, best)]

        # The per-exit terms on the matrix, 0 where no exit is sampled,
        # summed left to right.
        terms = np.zeros((5,) + sel.shape)
        for row, term in zip(terms, (n * er * lr * powers, n, er, lr, d)):
            row[sel] = term
        sums = np.cumsum(terms, axis=2)[:, :, -1]
        return DynamicScores((sums / k).T, k)


def dynamic_fitness(b: BackboneGenome, x: ExitGenome, f: DvfsGenome,
                    profile: ExitProfile, static: StaticScore,
                    space: SearchSpaceSpec, device: DeviceSpec,
                    backend: HardwareBackend, hw: HardwareModelParams,
                    gamma: float) -> DynamicScore:
    """Evaluate one candidate: prefix latency/energy (including the overheads
    of every sampled exit at or before each position) at the candidate's
    frequencies, normalized by the backbone's static score at defaults."""
    ev = _DynamicEvaluator(b, space, device, backend, hw, profile, static, gamma)
    return ev.evaluate_batch([(x, f)]).score(0)


def ioe_objective_matrix(scores: DynamicScores, mode: str, gamma: float
                         ) -> tuple[np.ndarray, tuple[Direction, ...]]:
    """The inner objectives of every row of a batch, as a matrix plus the
    column directions; a non-finite value raises ValueError.

    Vector mode (default): maximize dissimilarity-weighted correctness,
    minimize the energy and latency ratios.  Scalar mode: the single averaged
    exit score, maximized."""
    if mode == "scalar":
        values = scores.means[:, [0]]
    elif mode == "vector":
        values = scores.means[:, [1, 2, 3]]
        values[:, 0] *= [d**gamma for d in scores.means[:, 4].tolist()]
    else:
        raise ValueError(f"unknown objective mode {mode!r}")
    require_finite(values)
    return values, OBJECTIVE_DIRECTIONS[mode]


@dataclass(frozen=True)
class IoeSolution:
    exits: ExitGenome
    dvfs: DvfsGenome
    score: DynamicScore

    def key(self) -> tuple:
        return _candidate_key((self.exits, self.dvfs))


@dataclass
class IoeResult:
    solutions: tuple[IoeSolution, ...]
    n_dynamic_evals: int


def run_ioe(b: BackboneGenome, space: SearchSpaceSpec, device: DeviceSpec,
            backend: HardwareBackend, hw: HardwareModelParams,
            config: IoeConfig, variation: VariationParams, rng: random.Random,
            profile: ExitProfile, static: StaticScore,
            on_generation: Callable[[int, ParetoArchive], None] | None = None,
            ) -> IoeResult:
    """NSGA-II loop over (exits, frequencies) for one backbone, whose exit
    profile and static score the caller supplies.

    The archive accumulates the rank-0 set across every generation and is
    pruned to a mutually non-dominated set after each one.  Its payloads are
    (candidate, its generation's scores, its row in them) until the end,
    when the final rows become IoeSolutions.
    """
    ev = _DynamicEvaluator(b, space, device, backend, hw, profile, static,
                           config.gamma)

    def crossover(pa: Candidate, pb: Candidate,
                  r: random.Random) -> tuple[Candidate, Candidate]:
        xa, xb = crossover_exit(pa[0], pb[0], variation, r)
        fa, fb = crossover_dvfs(pa[1], pb[1], variation, r)
        return (xa, fa), (xb, fb)

    def mutate(c: Candidate, r: random.Random) -> Candidate:
        return (mutate_exit(c[0], variation, r),
                mutate_dvfs(c[1], device, variation, r))

    archive = ParetoArchive(OBJECTIVE_DIRECTIONS[config.objective_mode])
    n_evals = 0
    candidates = initial_population(
        config.population, n_inner_candidates(b, space, device),
        lambda: [(x, f) for x in enumerate_exit_genomes(b, space)
                 for f in enumerate_dvfs(device)],
        lambda r: (sample_exit_genome(b, space, r), sample_dvfs(device, r)),
        _candidate_key, rng)
    for gen in range(config.generations):
        if gen > 0:
            candidates = breed(parents, places, config.population,
                               crossover, mutate, variation, rng)
        scores = ev.evaluate_batch(candidates)
        n_evals += len(candidates)
        values, directions = ioe_objective_matrix(
            scores, config.objective_mode, config.gamma)
        ranks, crowding = rank_rows(values, directions)
        front = np.flatnonzero(ranks == 0).tolist()
        archive.merge_batch([_candidate_key(candidates[i]) for i in front],
                            [(candidates[i], scores, i) for i in front],
                            values[front])
        if on_generation is not None:
            on_generation(gen, archive)
        keep = max(1, math.ceil(config.keep_fraction * len(candidates)))
        pool, places = mating_pool(ranks, crowding, keep)
        parents = [candidates[i] for i in pool]
    solutions = tuple(IoeSolution(x, f, gen_scores.score(i))
                      for (x, f), gen_scores, i in archive.payloads)
    return IoeResult(solutions, n_evals)
