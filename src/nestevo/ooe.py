"""Outer optimization engine: evolves backbone genomes, prunes them on static
fitness, invokes the inner engine on the survivors, re-ranks on the combined
static + dynamic picture, and accumulates the final solution archive.

Per generation: evaluate the whole population statically (accuracy, latency,
energy at default frequencies), keep the best `prune_fraction` by
non-dominated rank and crowding, run one inner search per survivor, then rank
the survivors on (accuracy, latency, energy, inner-front hypervolume) to pick
the mating pool for the next generation.  The archive keeps every mutually
non-dominated solution seen so far, so its quality never regresses.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .evaluator import (
    HardwareBackend,
    HardwareModelParams,
    StaticScore,
    SurrogateParams,
    eval_static,
    exit_profile,
)
from .genome import (
    BackboneGenome,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    VariationParams,
    crossover_backbone,
    enumerate_backbones,
    mutate_backbone,
    sample_backbone,
)
from .ioe import DynamicScore, IoeConfig, IoeSolution, run_ioe
from .metrics import Front, hypervolume
from .moea import (
    ArchiveEntry,
    Direction,
    ObjectiveVector,
    ParetoArchive,
    RankedPopulation,
    breed,
    initial_population,
    rank_rows,
    survivor_select,
)


@dataclass(frozen=True)
class OoeConfig:
    generations: int = 15
    population: int = 30
    prune_fraction: float = 0.25
    budget: int = 450
    ioe: IoeConfig = field(default_factory=IoeConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.generations < 1 or self.population < 1:
            raise ValueError("generations and population must be >= 1")
        if self.generations * self.population > self.budget:
            raise ValueError(
                f"generations*population = {self.generations * self.population} "
                f"exceeds the outer budget {self.budget}"
            )
        if not 0 < self.prune_fraction <= 1:
            raise ValueError("prune_fraction must lie in (0, 1]")


@dataclass(frozen=True)
class FinalSolution:
    backbone: BackboneGenome
    exits: ExitGenome
    dvfs: DvfsGenome
    static_score: StaticScore
    dynamic_score: DynamicScore

    def key(self) -> tuple:
        return (self.backbone.key(), self.exits.key()) + self.dvfs.key()


@dataclass
class EvalCounters:
    static_evals: int = 0
    dynamic_evals: int = 0
    forwarded_backbones: int = 0


@dataclass(frozen=True)
class GenerationRecord:
    generation: int
    archive_size: int
    static_evals: int
    dynamic_evals: int
    forwarded_backbones: int


@dataclass
class OoeResult:
    entries: tuple[ArchiveEntry, ...]  # payloads are FinalSolutions
    snapshots: tuple[GenerationRecord, ...]
    counters: EvalCounters


STATIC_DIRECTIONS = (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE)
COMBINED_DIRECTIONS = STATIC_DIRECTIONS + (Direction.MAXIMIZE,)

# Reference for the 2-D (effective correctness, energy ratio) summary of an
# inner archive: zero correctness, break-even energy.  Archive members costing
# more than the static backbone fall outside the box and contribute nothing.
SUMMARY_REFERENCE = ObjectiveVector((0.0, 1.0),
                                    (Direction.MAXIMIZE, Direction.MINIMIZE))


def static_objectives(score: StaticScore) -> ObjectiveVector:
    return ObjectiveVector(
        (score.accuracy, score.latency_ms, score.energy_mj), STATIC_DIRECTIONS
    )


def static_rank_and_prune(
    statics: Sequence[StaticScore], prune_fraction: float
) -> list[int]:
    """Indices of the ceil(prune_fraction * n) best members by non-dominated
    rank, then crowding."""
    if not statics:
        raise ValueError("population is empty")
    values = np.array([static_objectives(s).values for s in statics])
    ranks, crowding = rank_rows(values, STATIC_DIRECTIONS)
    ranked = RankedPopulation(tuple(range(len(statics))), tuple(ranks.tolist()),
                              tuple(crowding.tolist()))
    k = max(1, math.ceil(prune_fraction * len(statics)))
    return survivor_select(ranked, k)


def ioe_front_hypervolume(solutions: Sequence[IoeSolution], gamma: float) -> float:
    """2-D hypervolume summary of an inner archive over (effective
    correctness, energy ratio) against the fixed (0, 1) reference."""
    if not solutions:
        raise ValueError("inner archive is empty")
    points = []
    for sol in solutions:
        eff = sol.score.mean_correct * sol.score.mean_dissimilarity**gamma
        er = sol.score.mean_energy_ratio
        if er <= 1.0:
            points.append(ObjectiveVector((eff, er), SUMMARY_REFERENCE.directions))
    return hypervolume(Front(points, SUMMARY_REFERENCE))


def combined_objectives(static: StaticScore, hv_summary: float) -> ObjectiveVector:
    return ObjectiveVector(
        (static.accuracy, static.latency_ms, static.energy_mj, hv_summary),
        COMBINED_DIRECTIONS,
    )


def combined_rank(
    candidates: Sequence[tuple[BackboneGenome, Sequence[IoeSolution]]],
    statics: Sequence[StaticScore],
    gamma: float,
) -> RankedPopulation:
    """Rank backbones on the 4-objective vector (accuracy, latency, energy,
    inner-front hypervolume); the result keeps their objective matrix."""
    if len(candidates) != len(statics):
        raise ValueError("candidates and static scores differ in length")
    values = np.array([
        combined_objectives(st, ioe_front_hypervolume(solutions, gamma)).values
        for (_, solutions), st in zip(candidates, statics)])
    ranks, crowding = rank_rows(values, COMBINED_DIRECTIONS)
    return RankedPopulation(tuple(range(len(candidates))), tuple(ranks.tolist()),
                            tuple(crowding.tolist()), values)


GenerationCallback = Callable[[int, tuple[ArchiveEntry, ...], EvalCounters], None]


def run_ooe(space: SearchSpaceSpec, device: DeviceSpec, backend: HardwareBackend,
            hw: HardwareModelParams, surrogate: SurrogateParams,
            config: OoeConfig, variation: VariationParams,
            on_generation: GenerationCallback | None = None) -> OoeResult:
    """Run the nested search and return the elitist archive of final
    solutions, per-generation records, and exact evaluation counters."""
    rng = random.Random(config.seed)
    counters = EvalCounters()
    # Keys: visit numbers; payloads: solution rows.
    archive = ParetoArchive(COMBINED_DIRECTIONS)
    n_visits = 0
    entries: tuple[ArchiveEntry, ...] = ()
    snapshots: list[GenerationRecord] = []
    population = initial_population(
        config.population, space.n_backbones(),
        lambda: enumerate_backbones(space),
        lambda r: sample_backbone(space, r),
        BackboneGenome.key, rng)

    for gen in range(1, config.generations + 1):
        statics = [eval_static(b, space, device, backend, surrogate, config.seed)
                   for b in population]
        counters.static_evals += len(population)

        pruned_ids = static_rank_and_prune(statics, config.prune_fraction)
        counters.forwarded_backbones += len(pruned_ids)
        forwarded = [population[i] for i in pruned_ids]
        forwarded_statics = [statics[i] for i in pruned_ids]
        profiles = [exit_profile(b, space, surrogate, config.seed)
                    for b in forwarded]
        ioe_seeds = [rng.getrandbits(63) for _ in forwarded]
        ioe_results = [
            run_ioe(b, space, device, backend, hw, config.ioe, variation,
                    random.Random(seed), profile=prof, static=st)
            for b, st, prof, seed in zip(forwarded, forwarded_statics,
                                         profiles, ioe_seeds)]
        counters.dynamic_evals += sum(r.n_dynamic_evals for r in ioe_results)

        ranked = combined_rank(
            [(b, r.solutions) for b, r in zip(forwarded, ioe_results)],
            forwarded_statics, config.ioe.gamma,
        )
        # One archive entry per backbone visit: its rows are the visit's
        # solutions whose keys are not live yet (the existing row wins), and
        # all of them share the visit's combined vector.
        live = {row.key for row in entries}
        visited: list[int] = []  # forwarded indices of this generation's visits
        visit_rows = []
        for i, (b, st, result) in enumerate(zip(forwarded, forwarded_statics,
                                                ioe_results)):
            vector = ObjectiveVector(tuple(ranked.values[i].tolist()),
                                     COMBINED_DIRECTIONS)
            rows = []
            for sol in result.solutions:
                fs = FinalSolution(b, sol.exits, sol.dvfs, st, sol.score)
                key = fs.key()
                if key not in live:
                    live.add(key)
                    rows.append(ArchiveEntry(key, fs, vector))
            if rows:
                visited.append(i)
                visit_rows.append(tuple(rows))
        archive.merge_batch(range(n_visits, n_visits + len(visited)), visit_rows,
                            ranked.values[visited])
        n_visits += len(visited)
        entries = tuple(row for rows in archive.payloads for row in rows)

        snapshots.append(GenerationRecord(
            gen, len(entries), counters.static_evals, counters.dynamic_evals,
            counters.forwarded_backbones,
        ))
        if on_generation is not None:
            on_generation(gen, entries, counters)

        if gen < config.generations:
            k2 = min(config.population, len(ranked))
            second_ids = survivor_select(ranked, k2)
            pool = ranked.subset(second_ids)
            population = breed(
                pool, forwarded, config.population,
                lambda a, b, r: crossover_backbone(a, b, space, variation, r),
                lambda c, r: mutate_backbone(c, space, variation, r),
                variation, rng)

    return OoeResult(entries, tuple(snapshots), counters)
