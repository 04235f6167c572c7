"""Outer optimization engine: evolves backbone genomes, prunes them on static
fitness, invokes the inner engine on the survivors, re-ranks on the combined
static + dynamic picture, and accumulates the final solution archive.

Per generation: evaluate the whole population statically (accuracy, latency,
energy at default frequencies), keep the best `prune_fraction` by
non-dominated rank and crowding, run one inner search per survivor, then rank
the survivors on (accuracy, latency, energy, inner-front hypervolume) to pick
the mating pool for the next generation.  The archive keeps every mutually
non-dominated visit seen so far (merge_visits): its quality never regresses.

A worker runs a survivor's inner search, computes its combined objectives and
renders its archive rows (visit_rows, which the exhaustive oracle and the
checkpoint replay call too); the main process handles only row keys and
front.csv lines, and spells each visit's objectives once, for the
archive.json texts that are made from the lines as that file is written.
"""

from __future__ import annotations

import math
import os
import pickle
import random
from dataclasses import dataclass, field, replace
from operator import itemgetter
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
    SearchSpaceSpec,
    VariationParams,
    backbone_of_key,
    backbone_sizes,
    enumerate_backbones,
    repair_backbone,
    require_counts,
    require_finite_fields,
    sample_backbone,
)
from .ioe import DynamicScores, IoeConfig, IoeResult, _breed, run_ioe
from .metrics import Front, hypervolume
from .moea import (Direction, initial_population, nondominated_rows,
                   require_finite, select)
from .rows import (COMBINED_DIRECTIONS, STATIC_DIRECTIONS, FinalRow, Row,
                   objectives_block, render_rows, visit_values)

Visit = tuple[tuple[float, ...], tuple[Row, ...]]  # combined objectives, rows


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
        require_finite_fields(self, "prune_fraction")
        if not 0 < self.prune_fraction <= 1:
            raise ValueError("prune_fraction must lie in (0, 1]")


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


@dataclass(frozen=True)
class OoeState:
    """The search after a generation: what the generation changed in the
    archive, and all that the next generation starts from.

    The archive is one entry per backbone visit (one backbone forwarded in
    one generation), numbered in visit order: `visits` maps each live visit,
    in archive order, to its combined objectives and its rows, each a key
    and a front.csv line (nestevo.rows.render_rows).
    `population` holds the backbone keys of the next generation, and is
    empty after the last one."""

    visits: dict[int, Visit]
    added: tuple[int, ...]    # visits that entered the archive in this generation
    evicted: tuple[int, ...]  # visits that left it
    snapshots: tuple[GenerationRecord, ...]  # one per generation so far
    counters: EvalCounters
    n_visits: int             # visits numbered so far
    population: tuple[tuple[int, ...], ...]
    rng_state: tuple          # random.Random.getstate() after breeding

    @property
    def generation(self) -> int:
        return self.snapshots[-1].generation


@dataclass
class OoeResult:
    # The archive's rows, sorted by key, each with its visit's
    # objectives_block: what archive.json and front.csv are written from.
    rows: tuple[FinalRow, ...]
    snapshots: tuple[GenerationRecord, ...]
    counters: EvalCounters


# Reference for the 2-D (effective correctness, energy ratio) summary of an
# inner front: zero correctness, break-even energy.  Front members costing
# more than the static backbone fall outside the box and contribute nothing.
SUMMARY_REFERENCE = (0.0, 1.0)
SUMMARY_DIRECTIONS = (Direction.MAXIMIZE, Direction.MINIMIZE)


def static_rank_and_prune(
    statics: Sequence[StaticScore], prune_fraction: float
) -> list[int]:
    """Indices of the ceil(prune_fraction * n) best members by non-dominated
    rank, then crowding."""
    values = np.array([(s.accuracy, s.latency_ms, s.energy_mj) for s in statics])
    k = max(1, math.ceil(prune_fraction * len(statics)))
    return select(values, STATIC_DIRECTIONS, k)[0].tolist()


def ioe_front_hypervolume(scores: DynamicScores, gamma: float) -> float:
    """2-D hypervolume summary of an inner front's scores over (effective
    correctness, energy ratio) against the fixed (0, 1) reference."""
    if not len(scores.means):
        raise ValueError("inner front is empty")
    points = np.array([(m[1] * m[4]**gamma, m[2])
                       for m in scores.means.tolist()])
    return hypervolume(Front(points[points[:, 1] <= SUMMARY_REFERENCE[1]],
                             SUMMARY_DIRECTIONS, SUMMARY_REFERENCE))


def combined_objectives(static: StaticScore, hv_summary: float) -> tuple[float, ...]:
    """A backbone's row in the combined ranking: its static objectives and
    its inner-front hypervolume, columns carrying COMBINED_DIRECTIONS."""
    return (static.accuracy, static.latency_ms, static.energy_mj, hv_summary)


def visit_rows(b: BackboneGenome, static: StaticScore, result: IoeResult,
               device: DeviceSpec) -> list[Row]:
    """The keys and front.csv lines of the solutions of `result`, an inner
    front of backbone `b` whose static score is `static`: the rows of a
    visit, as a worker renders them, exhaustive.enumerate_truth writes them
    and the checkpoint replay rebuilds them."""
    return render_rows(visit_values(b, static, result.solution_fields(device)))


def merge_visits(visits: dict[int, Visit], new: dict[int, Visit]
                 ) -> dict[int, Visit]:
    """A new archive: the live `visits`, then the `new` ones (numbered apart),
    in order, cut by one moea.nondominated_rows call to those whose combined
    objectives no other's dominate, equal ones all kept.  Objectives that are
    not one finite number per combined objective raise ValueError."""
    union = {**visits, **new}
    values = np.array([objectives for objectives, _ in union.values()],
                      dtype=float).reshape(len(union), len(COMBINED_DIRECTIONS))
    require_finite(values)
    keep = nondominated_rows(values, COMBINED_DIRECTIONS).tolist()
    return {v: visit for (v, visit), k in zip(union.items(), keep) if k}


def combined_rank(values: np.ndarray, k: int) -> np.ndarray:
    """The k best backbones, best first (moea.select), of those whose rows
    of `values` are their combined_objectives."""
    return select(values, COMBINED_DIRECTIONS, k)[0]


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
           write_fd: int, parent: int) -> NoReturn:
    """Body of a forked worker: pickle _share(fn, items) into its pipe and
    leave through os._exit, running none of the parent's cleanup.  A share
    that cannot be pickled or sent, even after part of it was, ends it with
    status 1, and so does the death of `parent`, seen before each item:
    nobody would read the results."""
    status = 1

    def unless_orphaned(x: T) -> R:
        if os.getppid() != parent:
            os._exit(1)
        return fn(x)

    try:
        # With its own read end open, a worker whose parent died would block
        # on a full pipe instead of failing.
        for fd in read_fds:
            os.close(fd)
        with open(write_fd, "wb") as out:
            pickle.dump(_share(unless_orphaned, items), out,
                        pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def fork_map(fn: Callable[[T], R], items: Sequence[T]) -> list[R]:
    """[fn(x) for x in items] over n = min(_cpus(), len(items)) processes,
    at least one.

    This process computes items[0::n]; each of n-1 forked children computes
    items[w::n] and pickles its results straight into a pipe, which this
    process unpickles them from: no share is held as one bytes object.  The
    children inherit fn and items, so neither is pickled.  With one CPU, or
    no os.fork, nothing is forked.  Items must not depend on each other, and
    fn must not rely on side effects in this process.  Forking is safe for
    the callers here: they run Python and element-wise numpy only, never a
    threaded BLAS routine.

    Every child is reaped before the call returns or raises, and a child
    whose parent was killed stops before its next item.  An item that
    raises makes the call raise: the exception of the first such item, with
    its own type.  A child that ends without sending all its results raises
    a ChildProcessError naming its exit status."""
    n = max(1, min(_cpus(), len(items)))
    parent = os.getpid()
    pids: list[int] = []        # unreaped children
    read_fds: list[int] = []    # one pipe per child, in worker order
    try:
        for w in range(1, n):
            read_fd, write_fd = os.pipe()
            read_fds.append(read_fd)
            try:
                pid = os.fork()
                if pid == 0:
                    _serve(fn, items[w::n], read_fds, write_fd, parent)
            finally:
                os.close(write_fd)
            pids.append(pid)
        shares = [_share(fn, items[0::n])]
        for fd in read_fds:
            with open(fd, "rb", closefd=False) as src:
                try:
                    shares.append(pickle.load(src))
                except (EOFError, pickle.UnpicklingError):
                    shares.append(None)  # ended before its share did
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


def run_ooe(space: SearchSpaceSpec, device: DeviceSpec, backend: HardwareBackend,
            hw: HardwareModelParams, surrogate: SurrogateParams,
            config: OoeConfig, variation: VariationParams,
            on_generation: Callable[[OoeState], None] | None = None,
            start: OoeState | None = None) -> OoeResult:
    """Run the nested search and return the elitist archive of final
    solutions, per-generation records, and exact evaluation counters.

    After each generation `on_generation` gets the search's state.  Given
    the state after generation k as `start`, the run goes on from generation
    k + 1 and returns what the run that handed out that state returns: each
    inner search is a function of its seed, drawn from the restored stream."""
    visits: dict[int, Visit] = {} if start is None else dict(start.visits)
    if start is None:
        rng = random.Random(config.seed)
        counters = EvalCounters()
        n_visits = 0
        snapshots: list[GenerationRecord] = []
        population = initial_population(
            config.population, space.n_backbones(),
            lambda: enumerate_backbones(space),
            lambda r, n: [sample_backbone(space, r) for _ in range(n)],
            BackboneGenome.key, rng)
    else:
        rng = random.Random()
        rng.setstate(start.rng_state)
        counters = replace(start.counters)
        n_visits = start.n_visits
        snapshots = list(start.snapshots)
        population = [backbone_of_key(k) for k in start.population]
    live = {key for _, rows in visits.values() for key, _ in rows}

    for gen in range(len(snapshots) + 1, config.generations + 1):
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

        def inner(i: int) -> tuple[int, tuple[float, ...], list[Row]]:
            """Visit i's evaluation count, combined objectives and rows."""
            b, static = forwarded[i], forwarded_statics[i]
            result = run_ioe(b, space, device, backend, hw, config.ioe,
                             variation, random.Random(ioe_seeds[i]),
                             profile=profiles[i], static=static)
            objectives = combined_objectives(static, ioe_front_hypervolume(
                result.scores, config.ioe.gamma))
            return (result.n_dynamic_evals, objectives,
                    visit_rows(b, static, result, device))

        results = fork_map(inner, range(len(forwarded)))
        counters.dynamic_evals += sum(n for n, _, _ in results)
        values = np.array([objectives for _, objectives, _ in results])
        # One archive entry per backbone visit: its rows are the visit's
        # solutions whose keys are not live yet (the existing row wins).
        new: dict[int, Visit] = {}
        for _, objectives, rows in results:
            kept = []
            for row in rows:
                if row[0] not in live:
                    live.add(row[0])
                    kept.append(row)
            if kept:
                new[n_visits + len(new)] = objectives, tuple(kept)
        n_visits += len(new)
        union = {**visits, **new}
        visits = merge_visits(visits, new)
        left = [v for v in union if v not in visits]
        # The keys of visits that left the archive, or never entered it, are
        # free again.
        for v in left:
            live.difference_update(key for key, _ in union[v][1])

        snapshots.append(GenerationRecord(
            gen, len(live), counters.static_evals, counters.dynamic_evals,
            counters.forwarded_backbones,
        ))
        if gen < config.generations:
            # The inner engine's breeding on backbone keys; its repair
            # uniforms fit exit bits, not blocks, and go unused.  A child
            # too shallow to host an exit is repaired from rng afterwards,
            # in child order.
            children, _ = _breed(
                np.array([b.key() for b in forwarded]),
                combined_rank(values, min(config.population, len(values))),
                config.population, np.array(backbone_sizes(space)), variation,
                rng)
            population = [repair_backbone(backbone_of_key(genes), space, rng)
                          for genes in children.tolist()]
        else:
            population = []
        if on_generation is not None:
            on_generation(OoeState(
                visits, tuple(v for v in visits if v in new),
                tuple(v for v in left if v not in new),
                tuple(snapshots), replace(counters), n_visits,
                tuple(b.key() for b in population), rng.getstate()))

    final = []
    for objectives, rows in visits.values():
        block = objectives_block(objectives)
        final += [(key, line, block) for key, line in rows]
    return OoeResult(tuple(sorted(final, key=itemgetter(0))),
                     tuple(snapshots), counters)
