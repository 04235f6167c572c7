"""Generic NSGA-II machinery over raw objective matrices whose columns carry
per-coordinate directions.

Pareto dominance, the sort-first front filter (nondominated_rows: the inner
front and the outer archive merge, ooe.merge_visits), selection (select: the
non-dominated sorting and crowding distance of NSGA-II, giving the rank-0
rows and the k best rows that pruning and both engines' breeding take), and
the initial sampler both engines call.  Both breed through ioe._breed.
Everything here is pure and deterministic: the same inputs (and RNG stream)
always produce the same outputs, so search runs are reproducible bit for
bit.
"""

from __future__ import annotations

import enum
import math
import random
from typing import Callable, Hashable, Iterable, Sequence, TypeVar

import numpy as np

T = TypeVar("T")


class Direction(enum.Enum):
    MAXIMIZE = "max"
    MINIMIZE = "min"


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


def require_finite(values: np.ndarray) -> None:
    """Raise ValueError naming the first value of an array that is not
    finite."""
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(f"objective value {values[~finite][0].item()!r} "
                         "is not finite")


def _normalize(values: np.ndarray, directions: Sequence[Direction]) -> np.ndarray:
    """A raw objective matrix with every column flipped to maximization."""
    maximize = np.array([d is Direction.MAXIMIZE for d in directions])
    return np.where(maximize, values, -values)


def _front_ranks(mat: np.ndarray, k: int) -> np.ndarray:
    """Non-domination rank of the rows of a normalized matrix, peeled until
    at least k rows have one: rank 0 is the non-dominated set, each later
    rank the non-dominated set of the remainder (Deb's domination-count
    peeling, one front per step).  Rows left unpeeled get -1."""
    dom = _dominance(mat, mat)
    remaining = dom.sum(axis=0)
    ranks = np.full(len(mat), -1)
    while (ranks >= 0).sum() < k:
        current = (ranks < 0) & (remaining == 0)
        ranks[current] = ranks.max() + 1
        remaining = remaining - dom[current].sum(axis=0)
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
        with np.errstate(over="ignore"):  # an overflowing span adds nothing
            span = (v[last] - v[first])[np.cumsum(first) - 1]
        inner = np.flatnonzero(~(first | last) & (span != 0)
                               & np.isfinite(span))
        rows = order[inner]
        cur = dist[rows]
        gap = (v[inner + 1] - v[inner - 1]) / span[inner]
        dist[rows] = np.where(cur == math.inf, cur, cur + gap)
    return dist


def select(values: np.ndarray, directions: Sequence[Direction],
           k: int) -> tuple[np.ndarray, np.ndarray]:
    """(best, front) of a raw objective matrix whose columns carry
    `directions`: `best` holds the k best rows, best first, as whole fronts
    in rank order, the last one split by descending crowding distance and
    residual ties going to the lower row; `front` is the rank-0 mask.

    Only the fronts that hold the k rows are peeled and crowded: a row's
    crowding depends on its own front alone."""
    if not 1 <= k <= len(values):
        raise ValueError(f"cannot select {k} from population of {len(values)}")
    ranks = _front_ranks(_normalize(values, directions), k)
    peeled = np.flatnonzero(ranks >= 0)
    crowding = _crowding_by_front(values[peeled], ranks[peeled])
    return peeled[np.lexsort((-crowding, ranks[peeled]))[:k]], ranks == 0


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


_SWEEP_ROWS = 256  # rows per block of the sweep in `nondominated_rows`


def nondominated_rows(values: np.ndarray,
                      directions: Sequence[Direction]) -> np.ndarray:
    """Per row of a raw objective matrix: True iff no other row dominates it.

    The sort-first sweep of Kung, Luccio & Preparata (J. ACM 22(4), 1975):
    in descending lexicographic order only earlier rows can dominate a row,
    and by transitivity a kept one does if any does.  Each block of sorted
    rows is checked against the rows kept so far, then its survivors against
    each other.  Equal rows do not dominate each other: all are kept."""
    mat = _normalize(values, directions)
    order = np.lexsort(-mat.T[::-1])
    keep = np.zeros(len(mat), dtype=bool)
    kept = mat[:0]
    for start in range(0, len(mat), _SWEEP_ROWS):
        block = order[start:start + _SWEEP_ROWS]
        rows = mat[block]
        alive = ~_dominated_by(rows, kept)
        alive[alive] = ~_dominated_by(rows[alive], rows[alive])
        keep[block] = alive
        kept = np.concatenate([kept, rows[alive]])
    return keep


def initial_population(population: int, space_size: int,
                       enumerate_all: Callable[[], Iterable[T]],
                       sample: Callable[[random.Random, int], Sequence[T]],
                       key: Callable[[T], Hashable],
                       rng: random.Random) -> list[T]:
    """First generation of `population` genomes; sample(rng, n) draws n.

    A space of at most `population` genomes is seeded exhaustively, in
    enumeration order.  A larger one gets distinct samples, at most 64
    attempts per slot, drawn as many at a time as there are empty slots.
    Any slot still empty takes a plain (possibly repeated) sample."""
    out: list[T] = []
    if space_size <= population:
        out.extend(enumerate_all())
    else:
        seen: set[Hashable] = set()
        attempts = 0
        while len(out) < population and attempts < 64 * population:
            block = sample(rng, min(population - len(out),
                                    64 * population - attempts))
            attempts += len(block)
            for member in block:
                k = key(member)
                if k not in seen:
                    seen.add(k)
                    out.append(member)
    out.extend(sample(rng, max(0, population - len(out))))
    return out[:population]
