"""Inner optimization engine: for a frozen backbone, evolve (exit placement,
frequency setting) pairs and return the Pareto front of the best pairings.

The dynamic fitness of a candidate averages, over its sampled exits, the
product of the exit's correct-classification fraction, its energy and latency
relative to the static backbone at default frequencies, and a dissimilarity
regularizer that discounts exits whose predecessors already classify well.

A generation is one matrix of gene indices, a candidate per row, sampled
and bred from one block of uniforms per generation and evaluated as a
whole.  The result holds the front's candidates as gene tuples and their
scores as one matrix (IoeResult), and readers decode fields from those
arrays.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .evaluator import (
    ExitProfile,
    HardwareBackend,
    HardwareModelParams,
    StaticScore,
    frequency_genes,
    layer_workloads,
    running_sums,
    setting_codes,
)
from .genome import (
    BackboneGenome,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    VariationParams,
    bits_key,
    indicator_length,
    n_inner_candidates,
    require_counts,
    require_finite_fields,
)
from .moea import (
    Direction,
    initial_population,
    nondominated_rows,
    require_finite,
    select,
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
        # NaN is not nonnegative; infinity is, but is not finite.
        if isinstance(self.gamma, (int, float)) and not self.gamma >= 0:
            raise ValueError("gamma must be nonnegative")
        require_finite_fields(self, "gamma", "keep_fraction")
        if not 0 < self.keep_fraction <= 1:
            raise ValueError("keep_fraction must lie in (0, 1]")
        if self.objective_mode not in OBJECTIVE_MODES:
            raise ValueError(f"objective_mode must be one of {OBJECTIVE_MODES}")


# An inner candidate: its exit bits, then its compute frequency index, then
# its emc index if the device has a memory clock.
Candidate = tuple[int, ...]


def gene_sizes(n_bits: int, device: DeviceSpec) -> np.ndarray:
    """The domain size of each gene of a candidate: 2 per exit bit, then
    the compute table's, then the emc table's if the device has one."""
    return np.array((2,) * n_bits + (len(device.compute_freq_ghz),) + (
        (len(device.emc_freq_ghz),) if device.has_emc else ()))


def enumerated(n_bits: int, device: DeviceSpec, rows: range) -> np.ndarray:
    """Places `rows` of the inner candidates of `n_bits` exit bits on
    `device` as a gene matrix: exit patterns with a set bit in counting
    order, each with every setting in code order (a count over gene_sizes)."""
    sizes = gene_sizes(n_bits, device)
    n_settings = math.prod(sizes[n_bits:].tolist())
    places = np.arange(rows.start, rows.stop, rows.step) + n_settings
    return np.stack(np.unravel_index(places, sizes), axis=1)


def uniforms(rng: random.Random, n: int) -> np.ndarray:
    """n uniforms in [0, 1) from one rng.getrandbits(64 * n) draw: its
    little-endian 64-bit words in order, each cut to its top 53 bits and
    scaled by 2**-53."""
    words = np.frombuffer(rng.getrandbits(64 * n).to_bytes(8 * n, "little"),
                          dtype="<u8")
    return (words >> 11) * 2.0**-53


def _breed(genes: np.ndarray, best: np.ndarray, population: int,
           sizes: np.ndarray, params: VariationParams,
           rng: random.Random) -> tuple[np.ndarray, np.ndarray]:
    """`population` children of a generation, one genome per row of `genes`,
    whose best rows are `best`, best first (moea.select), as a matrix, and a
    repair uniform per child: both engines breed here, the inner one
    candidates and the outer one backbone keys.

    The mating pool holds the best rows in row order, each with its place
    in `best` (0 is the best).  Children come in pairs, the last pair's
    second child dropped when `population` is odd.  One block of uniforms
    serves the generation, cut at fixed offsets into:
    - per parent, `tournament_size` pool slots floor(u * pool size); the
      drawn slot with the lowest place wins, the first of a pair's two
      tournaments picking parent a;
    - per pair and gene, a uniform crossover swap when u < crossover_prob;
    - per child and gene, a mutation when u < mutation_prob_per_gene, and
      the mutated gene's new value floor(u * sizes[gene]);
    - per child, a uniform handed back for the caller's repair (the inner
      engine's _repaired).
    `sizes` holds each gene's domain size (gene_sizes, backbone_sizes)."""
    parents, places = genes[np.sort(best)], np.argsort(best)
    pairs = -(-population // 2)
    n_genes = len(sizes)
    t = params.tournament_size
    draws, swaps, mutations, values, repairs = np.split(
        uniforms(rng, 2 * pairs * t + pairs * n_genes
                 + 2 * population * n_genes + population),
        np.cumsum([2 * pairs * t, pairs * n_genes, population * n_genes,
                   population * n_genes]))
    slots = (draws.reshape(2 * pairs, t) * len(parents)).astype(np.intp)
    winners = slots[np.arange(2 * pairs), places[slots].argmin(axis=1)]
    a, b = parents[winners[0::2]], parents[winners[1::2]]
    swap = swaps.reshape(pairs, n_genes) < params.crossover_prob
    children = np.stack([np.where(swap, b, a), np.where(swap, a, b)], axis=1
                        ).reshape(2 * pairs, n_genes)[:population]
    mutate = mutations.reshape(population, n_genes) < params.mutation_prob_per_gene
    children = np.where(mutate, (values.reshape(population, n_genes) * sizes
                                 ).astype(children.dtype), children)
    return children, repairs


def _repaired(rows: np.ndarray, n_bits: int, u: np.ndarray) -> np.ndarray:
    """The rows, each whose exit bits are all zero with its bit
    floor(u[row] * n_bits) set."""
    empty = np.flatnonzero(~rows[:, :n_bits].any(axis=1))
    rows[empty, (u[empty] * n_bits).astype(np.intp)] = 1
    return rows


def _sample(n: int, n_bits: int, sizes: np.ndarray,
            rng: random.Random) -> np.ndarray:
    """n uniform candidates from one block of uniforms: each gene
    floor(u * sizes[gene]), so each exit bit is set with probability 1/2,
    then the repair of each all-zero exit pattern."""
    cut = n * len(sizes)
    u = uniforms(rng, cut + n)
    genes = (u[:cut].reshape(n, len(sizes)) * sizes).astype(np.intp)
    return _repaired(genes, n_bits, u[cut:])


def _distinct(values: np.ndarray) -> np.ndarray:
    """np.unique(values) for a non-empty float vector, NaNs collapsed into
    one: the sorted values that differ from their left neighbour.  Unlike
    np.unique, it does not import numpy.ma."""
    values = np.sort(values)
    nan = np.isnan(values)
    keep = np.ones(len(values), dtype=bool)
    keep[1:] = (values[1:] != values[:-1]) & ~(nan[1:] & nan[:-1])
    return values[keep]


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

    A batch is a P x G gene matrix, one candidate per row: its first L
    columns form the indicator matrix (one column per admissible exit
    position), and the rest are its frequency setting, priced from the
    backend's price_table for the device.  Every value comes from the
    per-exit definition's operations in the same order: running sums are
    masked cumulative sums along the layer axis (never pairwise sums), the
    best earlier fraction is a running maximum, and powers are taken with
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
        self.sizes = gene_sizes(self.n_cols, device)
        self.prefix_flops = np.array([cum_flops[p] for p in positions])
        self.prefix_bytes = np.array([cum_bytes[p] for p in positions])
        self.exit_overhead = np.array(
            [hw.exit_overhead_fraction * flops[p - 1] for p in positions])
        self.fractions = np.array(profile.correct_fractions[:self.n_cols],
                                  dtype=float)
        # Dissimilarities are 1 - (0 or a fraction): their powers are
        # tabulated once, for the values a valid dissimilarity can take.
        self.best_values = _distinct(np.append(self.fractions, 0.0))
        self.best_powers = np.array([
            (1.0 - v)**gamma if gamma >= 0 and 0.0 <= 1.0 - v <= 1.0 else math.nan
            for v in self.best_values.tolist()])
        self.device = device
        self.backend = backend
        self.prices = backend.price_table(device)
        self.static = static
        self.gamma = gamma

    def evaluate_batch(self, candidates: np.ndarray) -> DynamicScores:
        """The scores of the rows of a gene matrix, in one pass whose
        temporaries grow with the rows; a matrix of the wrong width or a
        gene outside its domain raises ValueError."""
        if candidates.ndim != 2 or candidates.shape[1] != len(self.sizes):
            raise ValueError("exit genome is not conditioned on this backbone")
        if ((candidates < 0) | (candidates >= self.sizes)).any():
            raise ValueError("gene index outside its domain")
        sel = candidates[:, :self.n_cols] != 0
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
        codes = setting_codes(self.device, candidates[:, self.n_cols:])
        latency, energy = self.backend.latency_energy_batch(
            flops, bytes_, codes[np.nonzero(sel)[0]], self.prices)

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
    return ev.evaluate_batch(
        np.array([x.indicators + frequency_genes(device, f)])).score(0)


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
    """An inner front: its candidates in inner_front's order, their scores
    as rows of one matrix, and the number of candidates evaluated."""

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


def inner_front(parts: list[tuple[np.ndarray, ...]],
                directions: tuple[Direction, ...], n_evals: int) -> IoeResult:
    """The rows of parts (genes, objectives, means, n_exits) no row
    dominates, in order, a repeated gene row only where it first appears:
    run_ioe and exhaustive.exact_inner_front both end here."""
    genes, values, means, n_exits = map(np.concatenate, zip(*parts))
    first: dict[bytes, int] = {}
    for i in np.flatnonzero(nondominated_rows(values, directions)).tolist():
        first.setdefault(genes[i].tobytes(), i)
    kept = list(first.values())
    return IoeResult(tuple(map(tuple, genes[kept].tolist())),
                     DynamicScores(means[kept], n_exits[kept]), n_evals)


def run_ioe(b: BackboneGenome, space: SearchSpaceSpec, device: DeviceSpec,
            backend: HardwareBackend, hw: HardwareModelParams,
            config: IoeConfig, variation: VariationParams, rng: random.Random,
            profile: ExitProfile, static: StaticScore) -> IoeResult:
    """NSGA-II loop over (exits, frequencies) for one backbone, whose exit
    profile and static score the caller supplies.

    Each generation is one gene matrix, sampled (_sample) or bred (_breed)
    from one block of uniforms and evaluated as a whole, and no genome
    object is built.  When the whole inner space fits in one population,
    the first generation is all of it, from enumerated.

    The result is the inner front (inner_front) of every generation's
    rank-0 rows: as a candidate's scores depend on its genes alone, this is
    the archive a merge after each generation would end with.
    """
    ev = _DynamicEvaluator(b, space, device, backend, hw, profile, static,
                           config.gamma)
    n_bits = ev.n_cols

    fronts = []  # per generation: rank-0 genes, objectives, means, n_exits
    size = n_inner_candidates(n_bits, device)
    population = np.array(initial_population(
        config.population, size, lambda: enumerated(n_bits, device, range(size)),
        lambda r, n: list(map(tuple, _sample(n, n_bits, ev.sizes, r).tolist())),
        lambda c: c, rng))
    keep = max(1, math.ceil(config.keep_fraction * config.population))
    for gen in range(config.generations):
        if gen > 0:
            children, repairs = _breed(population, best, config.population,
                                       ev.sizes, variation, rng)
            population = _repaired(children, n_bits, repairs)
        scores = ev.evaluate_batch(population)
        values, directions = ioe_objective_matrix(
            scores, config.objective_mode, config.gamma)
        best, front = select(values, directions, keep)
        fronts.append((population[front], values[front], scores.means[front],
                       scores.n_exits[front]))
    return inner_front(fronts, directions,
                       config.generations * config.population)
