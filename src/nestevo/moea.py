"""Generic NSGA-II machinery over objective vectors with per-coordinate directions.

Pareto dominance, fast non-dominated sorting, crowding distance, survivor and
tournament selection, the initial sampler and breeder that both engines call,
and an elitist non-dominated archive.  Everything here is pure and
deterministic: the same inputs (and RNG stream) always produce the same
outputs, so search runs are reproducible bit for bit.
"""

from __future__ import annotations

import enum
import math
import random
from dataclasses import dataclass
from typing import Any, Callable, Hashable, Iterable, Sequence, TypeVar

import numpy as np

from .genome import VariationParams

T = TypeVar("T")


class Direction(enum.Enum):
    MAXIMIZE = "max"
    MINIMIZE = "min"


@dataclass(frozen=True)
class ObjectiveVector:
    """Fixed-length real vector, each coordinate tagged Maximize or Minimize."""

    values: tuple[float, ...]
    directions: tuple[Direction, ...]

    def __post_init__(self) -> None:
        if len(self.values) != len(self.directions):
            raise ValueError(
                f"objective vector has {len(self.values)} values but "
                f"{len(self.directions)} directions"
            )
        for v in self.values:
            if not math.isfinite(v):
                raise ValueError(f"objective value {v!r} is not finite")

    def __len__(self) -> int:
        return len(self.values)

    def normalized(self) -> tuple[float, ...]:
        """Values flipped so every coordinate is maximized."""
        return tuple(
            v if d is Direction.MAXIMIZE else -v
            for v, d in zip(self.values, self.directions)
        )


def _check_comparable(a: ObjectiveVector, b: ObjectiveVector) -> None:
    if len(a.values) != len(b.values) or a.directions != b.directions:
        raise ValueError("objective vectors have mismatched shape or directions")


def dominates(a: ObjectiveVector, b: ObjectiveVector) -> bool:
    """True iff a is at least as good as b everywhere and strictly better somewhere."""
    _check_comparable(a, b)
    better = False
    for va, vb, d in zip(a.values, b.values, a.directions):
        if d is Direction.MINIMIZE:
            va, vb = -va, -vb
        if va < vb:
            return False
        if va > vb:
            better = True
    return better


def _normalized_matrix(pop: Sequence[ObjectiveVector]) -> np.ndarray:
    if not pop:
        raise ValueError("population is empty")
    directions = pop[0].directions
    for v in pop:
        if v.directions != directions or len(v) != len(directions):
            raise ValueError("population contains heterogeneous objective vectors")
    return np.asarray([v.normalized() for v in pop], dtype=float)


def _dominance(rows: np.ndarray, cands: np.ndarray) -> np.ndarray:
    """dom[i, j]: rows[i] dominates cands[j] (both normalized, every
    coordinate maximized)."""
    ge = np.ones((len(rows), len(cands)), dtype=bool)
    gt = np.zeros((len(rows), len(cands)), dtype=bool)
    for k in range(rows.shape[1]):
        r = rows[:, k, None]
        c = cands[None, :, k]
        ge &= r >= c
        gt |= r > c
    return ge & gt


def _normalize(values: np.ndarray, directions: Sequence[Direction]) -> np.ndarray:
    """A raw objective matrix with every column flipped to maximization."""
    maximize = np.array([d is Direction.MAXIMIZE for d in directions])
    return np.where(maximize, values, -values)


def _front_ranks(mat: np.ndarray) -> np.ndarray:
    """Non-domination rank of each row of a normalized matrix: rank 0 is the
    non-dominated set, each later rank the non-dominated set of the
    remainder (Deb's domination-count peeling, one front per step)."""
    dom = _dominance(mat, mat)
    remaining = dom.sum(axis=0)
    ranks = np.full(len(mat), -1)
    unassigned = np.ones(len(mat), dtype=bool)
    rank = 0
    while unassigned.any():
        current = unassigned & (remaining == 0)
        ranks[current] = rank
        unassigned &= ~current
        remaining = remaining - dom[current].sum(axis=0)
        rank += 1
    return ranks


def _crowding_by_front(values: np.ndarray, ranks: np.ndarray) -> np.ndarray:
    """NSGA-II crowding distance of every row within its front, on the raw
    (not normalized) values.

    Per objective, each front is sorted stably by value (ties keep row
    order); its two ends get +inf and each interior row adds the gap between
    its neighbours over the front's span, unless the row is already +inf or
    the span is 0 or not finite: an objective whose span overflows adds
    nothing, as a constant one does, instead of inf/inf = NaN.  Fronts of
    one or two rows are all ends."""
    n, m = values.shape
    dist = np.zeros(n)
    for k in range(m):
        order = np.lexsort((values[:, k], ranks))
        v = values[order, k]
        r = ranks[order]
        first = np.ones(n, dtype=bool)
        first[1:] = r[1:] != r[:-1]
        last = np.ones(n, dtype=bool)
        last[:-1] = first[1:]
        dist[order[first | last]] = math.inf
        span = (v[last] - v[first])[np.cumsum(first) - 1]
        inner = np.flatnonzero(~(first | last) & (span != 0)
                               & np.isfinite(span))
        rows = order[inner]
        cur = dist[rows]
        gap = (v[inner + 1] - v[inner - 1]) / span[inner]
        dist[rows] = np.where(cur == math.inf, cur, cur + gap)
    return dist


def rank_rows(values: np.ndarray,
              directions: Sequence[Direction]) -> tuple[np.ndarray, np.ndarray]:
    """(non-domination rank, crowding distance) of each row of a raw
    objective matrix whose columns carry `directions`."""
    if len(values) == 0:
        raise ValueError("population is empty")
    ranks = _front_ranks(_normalize(values, directions))
    return ranks, _crowding_by_front(values, ranks)


def _values_matrix(pop: Sequence[ObjectiveVector]) -> np.ndarray:
    _normalized_matrix(pop)  # shape validation only
    return np.asarray([v.values for v in pop], dtype=float)


def fast_nondominated_sort(pop: Sequence[ObjectiveVector]) -> list[list[int]]:
    """Partition indices into fronts: front 0 is the non-dominated set, each
    later front the non-dominated set of the remainder (Deb's procedure),
    each front in ascending index order."""
    ranks = _front_ranks(_normalized_matrix(pop)).tolist()
    fronts: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for i, r in enumerate(ranks):
        fronts[r].append(i)
    return fronts


# Bound on the elements of one boolean comparison block in `_dominated_by`.
_BLOCK_ELEMENTS = 4_000_000


def _dominated_by(cands: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Per row of `cands`: True iff some row of `rows` dominates it.

    Both are normalized matrices (every coordinate maximized).  Candidates
    are processed in blocks so the (rows x block) comparison matrices stay
    within a bounded footprint."""
    dominated = np.zeros(len(cands), dtype=bool)
    if len(cands) == 0 or len(rows) == 0:
        return dominated
    block = max(1, _BLOCK_ELEMENTS // len(rows))
    for start in range(0, len(cands), block):
        dominated[start:start + block] = _dominance(
            rows, cands[start:start + block]).any(axis=0)
    return dominated


def nondominated_mask(pop: Sequence[ObjectiveVector]) -> list[bool]:
    """Per-member flag: True iff no other member dominates it."""
    mat = _normalized_matrix(pop)
    return [bool(not d) for d in _dominated_by(mat, mat)]


def nondominated_rows(values: np.ndarray,
                      directions: Sequence[Direction]) -> np.ndarray:
    """Per row of a raw objective matrix: True iff no other row dominates it."""
    mat = _normalize(values, directions)
    return ~_dominated_by(mat, mat)


def crowding_distance(front: Sequence[ObjectiveVector]) -> list[float]:
    """NSGA-II diversity score for one front.

    Boundary members get +inf per objective; interior members accumulate the
    normalized cuboid side length.  A degenerate objective (max == min) or
    one whose span overflows to inf contributes nothing.  Callers are
    expected to pass a mutually non-dominating front; this is not enforced.
    """
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [math.inf] * n
    values = _values_matrix(front)
    return _crowding_by_front(values, np.zeros(n, dtype=int)).tolist()


@dataclass(frozen=True)
class RankedPopulation:
    """Population annotated with non-domination rank and crowding distance.

    `vectors` holds the ranked objective vectors when the population was
    ranked from them; it is empty for a population ranked as a matrix and
    for a subset."""

    ids: tuple[int, ...]
    ranks: tuple[int, ...]
    crowding: tuple[float, ...]
    vectors: tuple[ObjectiveVector, ...] = ()

    def __len__(self) -> int:
        return len(self.ids)

    def subset(self, keep_ids: Sequence[int]) -> "RankedPopulation":
        """Restriction to `keep_ids`, preserving the original ranks/crowding."""
        keep = set(keep_ids)
        sel = [i for i, cid in enumerate(self.ids) if cid in keep]
        return RankedPopulation(
            ids=tuple(self.ids[i] for i in sel),
            ranks=tuple(self.ranks[i] for i in sel),
            crowding=tuple(self.crowding[i] for i in sel),
        )


def rank_population(
    ids: Sequence[int], vectors: Sequence[ObjectiveVector]
) -> RankedPopulation:
    """Sort into fronts and crowd each front."""
    if len(ids) != len(vectors):
        raise ValueError("ids and vectors differ in length")
    ranks, crowd = rank_rows(_values_matrix(vectors), vectors[0].directions)
    return RankedPopulation(tuple(ids), tuple(ranks.tolist()),
                            tuple(crowd.tolist()), tuple(vectors))


def _selection_key(ranked: RankedPopulation, i: int) -> tuple[int, float, int]:
    # Lower is better: rank ascending, crowding descending, id ascending.
    return (ranked.ranks[i], -ranked.crowding[i], ranked.ids[i])


def survivor_select(ranked: RankedPopulation, k: int) -> list[int]:
    """Take whole fronts in rank order, splitting the last one by descending
    crowding distance; residual ties fall back to the lowest candidate id."""
    if k > len(ranked):
        raise ValueError(f"cannot select {k} from population of {len(ranked)}")
    order = sorted(range(len(ranked)), key=lambda i: _selection_key(ranked, i))
    return [ranked.ids[i] for i in order[:k]]


def tournament_select(
    ranked: RankedPopulation, params: VariationParams, rng: random.Random
) -> int:
    """Draw `tournament_size` members uniformly (with replacement); the winner
    is the lexicographic best by (rank asc, crowding desc, id asc)."""
    if len(ranked) == 0:
        raise ValueError("cannot run a tournament on an empty population")
    draws = [rng.randrange(len(ranked)) for _ in range(params.tournament_size)]
    best = min(draws, key=lambda i: _selection_key(ranked, i))
    return ranked.ids[best]


def initial_population(population: int, space_size: int,
                       enumerate_all: Callable[[], Iterable[T]],
                       sample: Callable[[random.Random], T],
                       key: Callable[[T], Hashable],
                       rng: random.Random) -> list[T]:
    """First generation of `population` genomes.

    A space of at most `population` genomes is seeded exhaustively, in
    enumeration order.  A larger one gets distinct samples, at most 64
    attempts per slot.  Any slot still empty takes a plain (possibly
    repeated) sample."""
    out: list[T] = []
    if space_size <= population:
        out.extend(enumerate_all())
    else:
        seen: set[Hashable] = set()
        attempts = 0
        while len(out) < population and attempts < 64 * population:
            attempts += 1
            member = sample(rng)
            k = key(member)
            if k not in seen:
                seen.add(k)
                out.append(member)
    while len(out) < population:
        out.append(sample(rng))
    return out[:population]


def breed(pool: RankedPopulation, members: Sequence[T], population: int,
          crossover: Callable[[T, T, random.Random], tuple[T, T]],
          mutate: Callable[[T, random.Random], T],
          params: VariationParams, rng: random.Random) -> list[T]:
    """`population` children: two tournaments on `pool` (whose ids index
    `members`) pick the parents, `crossover` makes two children and each is
    mutated in turn.  When `population` is odd the last pair's second child
    is dropped unmutated."""
    children: list[T] = []
    while len(children) < population:
        pa = members[tournament_select(pool, params, rng)]
        pb = members[tournament_select(pool, params, rng)]
        ca, cb = crossover(pa, pb, rng)
        children.append(mutate(ca, rng))
        if len(children) < population:
            children.append(mutate(cb, rng))
    return children


@dataclass(frozen=True)
class ArchiveEntry:
    key: Any
    payload: Any
    vector: ObjectiveVector


class ParetoArchive:
    """Elitist accumulation of mutually non-dominated candidates.

    Entries are kept in insertion order (deterministic across runs).  A new
    entry is dropped if an existing entry dominates it or carries the same key;
    otherwise it displaces every entry it dominates.  Entries with equal
    vectors but distinct keys are all retained.  The normalized objective
    matrix of the entries is kept alongside them, row for row.
    """

    def __init__(self) -> None:
        self._entries: list[ArchiveEntry] = []
        self._keys: set[Any] = set()
        self._mat: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple[ArchiveEntry, ...]:
        return tuple(self._entries)

    def vectors(self) -> list[ObjectiveVector]:
        return [e.vector for e in self._entries]

    def merge_batch(self, items: Sequence[tuple[Any, Any, ObjectiveVector]]) -> None:
        """Bulk-merge new candidates.

        Keys are deduplicated first: an item is dropped if its key is live in
        the archive or appeared earlier in the batch, and the first occurrence
        wins even if it is later dominated.  The union of the existing entries
        and the surviving items is then cut to its non-dominated subset:
        existing entries first, then fresh ones, each in order.

        This is not a sequence of one-item merges when a key repeats within
        the batch: for [("x", (0, 0)), ("y", (1, 1)), ("x", (2, 2))] (both
        maximized) the batch keeps [y], while one-item merges keep
        [x (2, 2)].

        The entries are mutually non-dominated, so only two checks are made:
        existing rows against the fresh rows, and fresh rows against the
        union."""
        fresh: list[ArchiveEntry] = []
        seen = set(self._keys)
        for key, payload, vector in items:
            if key in seen:
                continue
            seen.add(key)
            fresh.append(ArchiveEntry(key, payload, vector))
        if not fresh:
            return
        rows = _normalized_matrix([e.vector for e in fresh])
        if self._mat is None:
            union = rows
            keep_old = np.zeros(0, dtype=bool)
        else:
            if self._entries[0].vector.directions != fresh[0].vector.directions:
                raise ValueError("batch vectors do not match the archive's shape")
            union = np.concatenate([self._mat, rows])
            keep_old = ~_dominated_by(self._mat, rows)
        keep = np.concatenate([keep_old, ~_dominated_by(rows, union)])
        self._entries = [e for e, k in zip(self._entries + fresh, keep) if k]
        self._keys = {e.key for e in self._entries}
        self._mat = union[keep]
