"""Inner optimization engine: for a frozen backbone, evolve (exit placement,
frequency setting) pairs and return the Pareto archive of the best pairings.

The dynamic fitness of a candidate averages, over its sampled exits, the
product of the exit's correct-classification fraction, its energy and latency
relative to the static backbone at default frequencies, and a dissimilarity
regularizer that discounts exits whose predecessors already classify well.

A candidate is a tuple of gene indices from sampling to the result: the
result holds the archive's candidates and their scores as one matrix
(IoeResult), and readers decode fields from those arrays.
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
    frequency_genes,
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
    bits_key,
    crossover_genes,
    enumerate_candidates,
    indicator_length,
    mutate_genes,
    n_inner_candidates,
    repair_exit_bits,
    require_counts,
    sample_exit_bits,
    sample_frequency_genes,
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


# An inner candidate, and its inner-archive key: its exit bits, then its
# compute frequency index, then its emc index if the device has a memory clock.
Candidate = tuple[int, ...]


def sample_candidate(n_bits: int, device: DeviceSpec,
                     rng: random.Random) -> Candidate:
    """A uniform candidate: sample_exit_bits, then sample_frequency_genes."""
    return sample_exit_bits(n_bits, rng) + sample_frequency_genes(device, rng)


def crossover_candidates(a: Candidate, b: Candidate, n_bits: int,
                         params: VariationParams,
                         rng: random.Random) -> tuple[Candidate, Candidate]:
    """Uniform crossover of the exit bits, each child's bits repaired (a's
    first), then uniform crossover of the frequency genes."""
    p = params.crossover_prob
    bits_a, bits_b = crossover_genes(a[:n_bits], b[:n_bits], p, rng)
    bits_a, bits_b = repair_exit_bits(bits_a, rng), repair_exit_bits(bits_b, rng)
    freq_a, freq_b = crossover_genes(a[n_bits:], b[n_bits:], p, rng)
    return bits_a + freq_a, bits_b + freq_b


def mutate_candidate(c: Candidate, n_bits: int, device: DeviceSpec,
                     params: VariationParams, rng: random.Random) -> Candidate:
    """Per-gene mutation of the exit bits, repaired, then of the frequency
    genes over the device's tables."""
    p = params.mutation_prob_per_gene
    bits = repair_exit_bits(mutate_genes(c[:n_bits], (2,) * n_bits, p, rng), rng)
    sizes = (len(device.compute_freq_ghz),) + (
        (len(device.emc_freq_ghz),) if device.has_emc else ())
    return bits + mutate_genes(c[n_bits:], sizes, p, rng)


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

    A batch is P gene tuples: their first L genes form a P x L indicator
    matrix (one column per admissible exit position), and the rest of each
    is its frequency setting.  Every value comes from the per-exit
    definition's operations in the same order: running sums are masked
    cumulative sums along the layer axis (never pairwise sums), the best
    earlier fraction is a running maximum, and powers are taken with
    Python's pow, so each score equals that of a per-candidate loop bit for
    bit."""

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
        n = self.n_cols
        if set(map(len, candidates)) != {n + 1 + self.device.has_emc}:
            raise ValueError("exit genome is not conditioned on this backbone")
        # The distinct settings, in order of first occurrence.
        index: dict[tuple[int, ...], int] = {}
        which = np.array([index.setdefault(c[n:], len(index)) for c in candidates])
        settings = list(index)
        blocks = [self._score(candidates[i:i + _BLOCK_ROWS], settings,
                              which[i:i + _BLOCK_ROWS])
                  for i in range(0, len(candidates), _BLOCK_ROWS)]
        return DynamicScores(np.concatenate([b.means for b in blocks]),
                             np.concatenate([b.n_exits for b in blocks]))

    def _score(self, rows: Sequence[tuple[int, ...]],
               settings: Sequence[tuple[int, ...]],
               which: np.ndarray) -> DynamicScores:
        """Scores of the exit bits rows[i][:n_cols] at settings[which[i]],
        each setting given as its frequency genes."""
        sel = np.frombuffer(b"".join([bytes(r[:self.n_cols]) for r in rows]),
                            dtype=np.uint8).reshape(len(rows), self.n_cols).astype(bool)
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
            flops, bytes_, which[np.nonzero(sel)[0]], self.device, settings)

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
    if len(x.indicators) != ev.n_cols:
        raise ValueError("exit genome is not conditioned on this backbone")
    return ev._score([x.indicators], [frequency_genes(device, f)],
                     np.zeros(1, dtype=int)).score(0)


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


@dataclass
class IoeResult:
    """An inner archive: its candidates in archive order, their scores as
    rows of one matrix, and the number of candidates evaluated."""

    solutions: tuple[Candidate, ...]
    scores: DynamicScores
    n_dynamic_evals: int

    def solution_fields(self, device: DeviceSpec) -> list[tuple]:
        """Per solution, as Python values: its exit bits as a string of 0s
        and 1s, device name, compute_idx and emc_idx (None without a memory
        clock), then its DynamicScore fields in their order."""
        m = 1 + device.has_emc
        return [(bits_key(c[:-m]), device.name, c[-m],
                 c[-1] if device.has_emc else None, *means, n)
                for c, means, n in zip(self.solutions,
                                       self.scores.means.tolist(),
                                       self.scores.n_exits.tolist())]


def run_ioe(b: BackboneGenome, space: SearchSpaceSpec, device: DeviceSpec,
            backend: HardwareBackend, hw: HardwareModelParams,
            config: IoeConfig, variation: VariationParams, rng: random.Random,
            profile: ExitProfile, static: StaticScore,
            on_generation: Callable[[int, ParetoArchive], None] | None = None,
            ) -> IoeResult:
    """NSGA-II loop over (exits, frequencies) for one backbone, whose exit
    profile and static score the caller supplies.

    Candidates are gene tuples from sampling to the result, and no genome
    object is built.  The archive accumulates the rank-0 set across every
    generation and is pruned to a mutually non-dominated set after each
    one.  Its keys are the candidates and its payloads (their generation's
    scores, their row in them); the result gathers those rows into one
    DynamicScores.  When the whole inner space fits in one population, the
    first generation is all of it, from enumerate_candidates.
    """
    ev = _DynamicEvaluator(b, space, device, backend, hw, profile, static,
                           config.gamma)
    n_bits = ev.n_cols

    archive = ParetoArchive(OBJECTIVE_DIRECTIONS[config.objective_mode])
    n_evals = 0
    candidates = initial_population(
        config.population, n_inner_candidates(b, space, device),
        lambda: enumerate_candidates(n_bits, device),
        lambda r: sample_candidate(n_bits, device, r), lambda c: c, rng)
    for gen in range(config.generations):
        if gen > 0:
            candidates = breed(
                parents, places, config.population,
                lambda x, y, r: crossover_candidates(x, y, n_bits, variation, r),
                lambda c, r: mutate_candidate(c, n_bits, device, variation, r),
                variation, rng)
        scores = ev.evaluate_batch(candidates)
        n_evals += len(candidates)
        values, directions = ioe_objective_matrix(
            scores, config.objective_mode, config.gamma)
        ranks, crowding = rank_rows(values, directions)
        front = np.flatnonzero(ranks == 0).tolist()
        archive.merge_batch([candidates[i] for i in front],
                            [(scores, i) for i in front], values[front])
        if on_generation is not None:
            on_generation(gen, archive)
        keep = max(1, math.ceil(config.keep_fraction * len(candidates)))
        pool, places = mating_pool(ranks, crowding, keep)
        parents = [candidates[i] for i in pool]
    payloads = archive.payloads
    scores = DynamicScores(np.array([s.means[i] for s, i in payloads]),
                           np.array([s.n_exits[i] for s, i in payloads]))
    return IoeResult(tuple(archive.keys), scores, n_evals)
