"""Slow reference implementations that the fast paths are checked against.

Each is the code the package ran before the corresponding path became
whole-array numpy (or, for 3-D hypervolume, stopped filtering each slice
before its 2-D sweep, or, for the output files, rendered rows from a
template); a fast path must equal its oracle exactly (==, or byte for byte),
not within a tolerance, because the arithmetic is kept in the same order.
The per-exit primitives and the one-item archive merge are definitions
only the tests use.  The regrouping helpers at the end give the package's
matrix ranking API (rank_rows, nondominated_rows, ParetoArchive.merge_batch)
the lists of ObjectiveVectors the tests are written in; they convert and
regroup, and rank nothing themselves.
"""

from __future__ import annotations

import csv
import io
import json
import math
from typing import Sequence

import numpy as np

from nestevo.archive import FRONT_CSV_COLUMNS, _FIELDS, _blocks_str
from nestevo.evaluator import ExitProfile, Workload, layer_workloads
from nestevo.genome import sampled_positions
from nestevo.ioe import DynamicScore
from nestevo.metrics import Front
from nestevo.moea import (
    ObjectiveVector,
    ParetoArchive,
    RankedPopulation,
    _crowding_by_front,
    dominates,
    nondominated_rows,
    rank_rows,
)


def add(archive: ParetoArchive, key, payload, vector: ObjectiveVector) -> bool:
    """Merge one candidate; True iff it entered the archive."""
    if any(e.key == key for e in archive.entries):
        return False
    merge(archive, [(key, payload, vector)])
    return any(e.key == key for e in archive.entries)


def dissimilarity(profile: ExitProfile, positions: Sequence[int], i: int) -> float:
    """1 minus the best correct fraction among the sampled exits strictly
    before index i; the first sampled exit gets 1.0 (empty max is 0)."""
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("sampled positions must be strictly ascending")
    if not 0 <= i < len(positions):
        raise ValueError("exit index out of range")
    best = 0.0
    for p in positions[:i]:
        best = max(best, profile.fraction_at(p))
    return 1.0 - best


def exit_score(correct_fraction: float, energy_ratio: float,
               latency_ratio: float, dissim_value: float, gamma: float) -> float:
    """Literal per-exit score: fraction * energy ratio * latency ratio *
    dissimilarity^gamma (gamma 0 neutralizes the last term)."""
    if energy_ratio <= 0 or latency_ratio <= 0:
        raise ValueError("ratios must be positive")
    if not 0.0 <= dissim_value <= 1.0:
        raise ValueError("dissimilarity must lie in [0, 1]")
    if not gamma >= 0:
        raise ValueError("gamma must be nonnegative")
    return correct_fraction * energy_ratio * latency_ratio * dissim_value**gamma


def _hv2d(points: list[tuple[float, float]], ref: tuple[float, float]) -> float:
    """2-D sweep over x descending; assumes a mutually non-dominated input."""
    hv = 0.0
    prev_y = ref[1]
    for x, y in sorted(points, reverse=True):
        if y > prev_y:
            hv += (x - ref[0]) * (y - prev_y)
            prev_y = y
    return hv


def _filter_2d(points: list[tuple[float, float]]) -> list[tuple[float, float]]:
    kept = []
    for p in points:
        if not any(q != p and q[0] >= p[0] and q[1] >= p[1] for q in points):
            kept.append(p)
    # Duplicates survive the check above; collapse them.
    return list(dict.fromkeys(kept))


def hv3d(points: list[tuple[float, float, float]],
         ref: tuple[float, float, float]) -> float:
    """3-D hypervolume by z slices, each slice's active set reduced to its
    non-dominated, distinct points before the 2-D sweep."""
    if not points:
        return 0.0
    pts = sorted(points, key=lambda p: p[2], reverse=True)
    hv = 0.0
    active: list[tuple[float, float]] = []
    for i, p in enumerate(pts):
        active.append((p[0], p[1]))
        z_top = p[2]
        z_bottom = pts[i + 1][2] if i + 1 < len(pts) else ref[2]
        if z_top > z_bottom:
            area = _hv2d(_filter_2d(active), (ref[0], ref[1]))
            hv += area * (z_top - z_bottom)
    return hv


def is_mutually_nondominated(archive: ParetoArchive) -> bool:
    vs = [e.vector for e in archive.entries]
    return not any(
        dominates(a, b) for i, a in enumerate(vs) for j, b in enumerate(vs) if i != j
    )


class ScalarDynamicEvaluator:
    """Per-candidate dynamic evaluation: one backend call per sampled exit,
    running sums in Python floats."""

    def __init__(self, b, space, device, backend, hw, profile, static,
                 gamma) -> None:
        flops, byts = layer_workloads(b, space)
        self.cum_flops = [0.0]
        self.cum_bytes = [0.0]
        for f, m in zip(flops, byts):
            self.cum_flops.append(self.cum_flops[-1] + f)
            self.cum_bytes.append(self.cum_bytes[-1] + m)
        self.layer_flops = flops
        self.space = space
        self.device = device
        self.backend = backend
        self.overhead = hw.exit_overhead_fraction
        self.profile = profile
        self.static = static
        self.gamma = gamma
        self.min_pos = space.exit_min_position

    def evaluate(self, x, f) -> DynamicScore:
        positions = sampled_positions(x, self.space)
        overhead_flops = 0.0
        best_prev = 0.0
        sum_score = sum_n = sum_er = sum_lr = sum_d = 0.0
        for pos in positions:
            overhead_flops += self.overhead * self.layer_flops[pos - 1]
            w = Workload(self.cum_flops[pos] + overhead_flops, self.cum_bytes[pos])
            latency, energy = self.backend.latency_energy(w, self.device, f)
            er = energy / self.static.energy_mj
            lr = latency / self.static.latency_ms
            n = self.profile.correct_fractions[pos - self.min_pos]
            d = 1.0 - best_prev
            best_prev = max(best_prev, n)
            sum_score += exit_score(n, er, lr, d, self.gamma)
            sum_n += n
            sum_er += er
            sum_lr += lr
            sum_d += d
        k = len(positions)
        return DynamicScore(sum_score / k, sum_n / k, sum_er / k,
                            sum_lr / k, sum_d / k, k)


def object_fronts(pop: Sequence[ObjectiveVector]) -> list[list[int]]:
    """Deb's fronts, each in ascending index order."""
    mat = np.asarray([v.normalized() for v in pop], dtype=float)
    ge = (mat[:, None, :] >= mat[None, :, :]).all(axis=-1)
    gt = (mat[:, None, :] > mat[None, :, :]).any(axis=-1)
    dom = ge & gt
    remaining = dom.sum(axis=0)
    assigned = np.zeros(len(pop), dtype=bool)
    fronts: list[list[int]] = []
    while not assigned.all():
        current = [i for i in range(len(pop)) if not assigned[i] and remaining[i] == 0]
        for i in current:
            assigned[i] = True
        for i in current:
            remaining -= dom[i]
        fronts.append(current)
    return fronts


def object_crowding(front: Sequence[ObjectiveVector]) -> list[float]:
    """NSGA-II crowding distance of one front, member by member; an
    objective whose span is 0 or overflows to inf adds nothing."""
    n = len(front)
    if n == 0:
        return []
    if n <= 2:
        return [math.inf] * n
    dist = [0.0] * n
    for k in range(len(front[0])):
        order = sorted(range(n), key=lambda i: (front[i].values[k], i))
        lo, hi = front[order[0]].values[k], front[order[-1]].values[k]
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = hi - lo
        if span == 0 or not math.isfinite(span):
            continue
        for j in range(1, n - 1):
            i = order[j]
            if dist[i] != math.inf:
                prev_v = front[order[j - 1]].values[k]
                next_v = front[order[j + 1]].values[k]
                dist[i] += (next_v - prev_v) / span
    return dist


def object_rank(pop: Sequence[ObjectiveVector]) -> tuple[list[int], list[float]]:
    """(rank, crowding distance) per member: fronts peeled with per-member
    domination counts, crowding sorted with Python's sort per front and
    objective."""
    ranks = [0] * len(pop)
    crowd = [0.0] * len(pop)
    for r, front in enumerate(object_fronts(pop)):
        for i, d in zip(front, object_crowding([pop[i] for i in front])):
            ranks[i] = r
            crowd[i] = d
    return ranks, crowd


def solution_values(sol) -> tuple:
    """A FinalSolution's fields in front.csv column order."""
    b, dvfs, st, dy = sol.backbone, sol.dvfs, sol.static_score, sol.dynamic_score
    return (b.resolution_idx, _blocks_str(b), sol.exits.key(),
            dvfs.device, dvfs.compute_idx, dvfs.emc_idx,
            st.accuracy, st.latency_ms, st.energy_mj,
            dy.mean_correct, dy.mean_energy_ratio, dy.mean_latency_ratio,
            dy.mean_dissimilarity, dy.n_exits, dy.mean_exit_score)


def solution_to_dict(sol, vector: ObjectiveVector) -> dict:
    """One archive.json row as a dict."""
    doc: dict = {"objectives": list(vector.values)}
    for (_, section, name, _), value in zip(_FIELDS, solution_values(sol)):
        (doc if section is None else doc.setdefault(section, {}))[name] = value
    return doc


def archive_text(doc: dict, entries) -> str:
    """The text of an archive document (or checkpoint) whose "final" list
    holds `entries` sorted by key: one json.dumps of the whole document."""
    full = dict(doc, final=[solution_to_dict(e.payload, e.vector)
                            for e in sorted(entries, key=lambda e: e.key)])
    return json.dumps(full, indent=2, sort_keys=True) + "\n"


def front_csv_text(entries) -> str:
    """The text of front.csv for `entries`, one dict per row through
    csv.DictWriter."""
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=FRONT_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for e in sorted(entries, key=lambda e: e.key):
        writer.writerow(dict(zip(FRONT_CSV_COLUMNS, solution_values(e.payload))))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# Regrouping helpers


def _columns(pop: Sequence[ObjectiveVector]):
    """The raw objective matrix of a population and its column directions."""
    return (np.array([v.values for v in pop], dtype=float),
            pop[0].directions if pop else ())


def merge(archive: ParetoArchive, items) -> None:
    """ParetoArchive.merge_batch over (key, payload, ObjectiveVector) items."""
    width = len(items[0][2]) if items else len(archive.directions)
    archive.merge_batch([key for key, _, _ in items],
                        [payload for _, payload, _ in items],
                        np.array([v.values for _, _, v in items],
                                 dtype=float).reshape(len(items), width))


def fast_nondominated_sort(pop: Sequence[ObjectiveVector]) -> list[list[int]]:
    """rank_rows' ranks as fronts of indices, each in ascending order."""
    ranks = rank_rows(*_columns(pop))[0].tolist()
    fronts: list[list[int]] = [[] for _ in range(max(ranks) + 1)]
    for i, r in enumerate(ranks):
        fronts[r].append(i)
    return fronts


def rank_population(ids, vectors: Sequence[ObjectiveVector]) -> RankedPopulation:
    """rank_rows' ranks and crowding under the given ids."""
    ranks, crowding = rank_rows(*_columns(vectors))
    return RankedPopulation(tuple(ids), tuple(ranks.tolist()),
                            tuple(crowding.tolist()))


def nondominated_mask(pop: Sequence[ObjectiveVector]) -> list[bool]:
    """nondominated_rows as a list."""
    return nondominated_rows(*_columns(pop)).tolist()


def crowding_distance(front: Sequence[ObjectiveVector]) -> list[float]:
    """The crowding distances of the package's ranking, every member taken
    as one front whether or not it is mutually non-dominated."""
    values, _ = _columns(front)
    return _crowding_by_front(values, np.zeros(len(front), dtype=int)).tolist()


def merge_nondominated(a: Sequence[ObjectiveVector], b: Sequence[ObjectiveVector],
                       reference: ObjectiveVector | None = None) -> Front:
    """The Front of the union of two point sets."""
    return Front(list(a) + list(b), reference)
