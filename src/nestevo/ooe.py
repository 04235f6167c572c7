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
import os
import pickle
import random
from dataclasses import dataclass, field
from typing import Callable, NoReturn, Sequence, TypeVar

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
    require_counts,
    sample_backbone,
)
from .ioe import DynamicScore, IoeConfig, IoeResult, IoeSolution, run_ioe
from .metrics import Front, hypervolume
from .moea import (
    ArchiveEntry,
    Direction,
    ObjectiveVector,
    ParetoArchive,
    breed,
    initial_population,
    mating_pool,
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
        require_counts(self, "generations", "population", "budget", "seed")
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
    k = max(1, math.ceil(prune_fraction * len(statics)))
    return survivor_select(ranks, crowding, k)


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
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Rank backbones on the 4-objective vector (accuracy, latency, energy,
    inner-front hypervolume): their objective matrix, non-domination ranks
    and crowding distances."""
    if len(candidates) != len(statics):
        raise ValueError("candidates and static scores differ in length")
    values = np.array([
        combined_objectives(st, ioe_front_hypervolume(solutions, gamma)).values
        for (_, solutions), st in zip(candidates, statics)])
    return (values,) + rank_rows(values, COMBINED_DIRECTIONS)


T = TypeVar("T")
R = TypeVar("R")


def _cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _share(fn: Callable[[T], R], items: Sequence[T]
           ) -> tuple[list[R], Exception | None]:
    """fn over items in order, up to the first one that raises: the results
    before it and its exception."""
    results = []
    try:
        for x in items:
            results.append(fn(x))
    except Exception as exc:  # noqa: BLE001 - handed to fork_map's caller
        return results, exc
    return results, None


def _serve(fn: Callable[[T], R], items: Sequence[T], read_fds: list[int],
           write_fd: int) -> NoReturn:
    """Body of a forked worker: send _share(fn, items) pickled through its
    pipe and leave through os._exit, running none of the parent's cleanup.
    A share that cannot be pickled or sent ends it with status 1."""
    status = 1
    try:
        # With its own read end open, a worker whose parent died would block
        # on a full pipe instead of failing.
        for fd in read_fds:
            os.close(fd)
        data = pickle.dumps(_share(fn, items), pickle.HIGHEST_PROTOCOL)
        with open(write_fd, "wb") as out:
            out.write(data)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items] over n = min(_cpus(), len(items)) processes,
    at least one.

    This process computes items[0::n]; each of n-1 forked children computes
    items[w::n] and sends back its results, pickled through a pipe.  The
    children inherit fn and items, so neither is pickled.  With one CPU, or
    no os.fork, nothing is forked.  Items must not depend on each other, and
    fn must not rely on side effects in this process.  Forking is safe for
    the callers here: they run Python and element-wise numpy only, never a
    threaded BLAS routine.

    Every child is reaped before the call returns or raises.  An item that
    raises makes the call raise: the exception of the first such item, with
    its own type.  A child that ends without sending results raises a
    ChildProcessError naming its exit status."""
    n = max(1, min(_cpus(), len(items)))
    pids: list[int] = []        # unreaped children
    read_fds: list[int] = []    # one pipe per child, in worker order
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            read_fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[w::n], read_fds, write_fd)
            finally:
                os.close(write_fd)
            pids.append(pid)
        shares = [_share(fn, items[0::n])]
        for fd in read_fds:
            with open(fd, "rb", closefd=False) as src:
                data = src.read()
            shares.append(pickle.loads(data) if data else None)
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
        pids.clear()
    finally:
        for fd in read_fds:
            os.close(fd)
        if pids:  # interrupted: the results are no longer wanted
            import signal
            for pid in pids:
                os.kill(pid, signal.SIGKILL)
            for pid in pids:
                os.waitpid(pid, 0)

    results: list = [None] * len(items)
    first: tuple[int, BaseException] | None = None  # (item, its exception)
    for w, share in enumerate(shares):
        if share is None:
            code = os.waitstatus_to_exitcode(statuses[w - 1])
            share = [], ChildProcessError(
                f"fork_map worker {w} ended with exit status {code} "
                "without sending its results")
        done, error = share
        results[w:w + n * len(done):n] = done
        failed = w + n * len(done)
        if error is not None and (first is None or failed < first[0]):
            first = failed, error
    if first is not None:
        raise first[1]
    return results


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

        def inner(i: int) -> IoeResult:
            return run_ioe(forwarded[i], space, device, backend, hw, config.ioe,
                           variation, random.Random(ioe_seeds[i]),
                           profile=profiles[i], static=forwarded_statics[i])

        ioe_results = fork_map(inner, range(len(forwarded)))
        counters.dynamic_evals += sum(r.n_dynamic_evals for r in ioe_results)

        values, ranks, crowding = combined_rank(
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
            vector = ObjectiveVector(tuple(values[i].tolist()),
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
                            values[visited])
        n_visits += len(visited)
        entries = tuple(row for rows in archive.payloads for row in rows)

        snapshots.append(GenerationRecord(
            gen, len(entries), counters.static_evals, counters.dynamic_evals,
            counters.forwarded_backbones,
        ))
        if on_generation is not None:
            on_generation(gen, entries, counters)

        if gen < config.generations:
            pool, places = mating_pool(ranks, crowding,
                                       min(config.population, len(ranks)))
            population = breed(
                [forwarded[i] for i in pool], places, config.population,
                lambda a, b, r: crossover_backbone(a, b, space, variation, r),
                lambda c, r: mutate_backbone(c, space, variation, r),
                variation, rng)

    return OoeResult(entries, tuple(snapshots), counters)
