"""Slow reference implementations that the fast paths are checked against.

Each is the code the package ran before the corresponding path became
whole-array numpy (or, for 3-D hypervolume, stopped filtering each slice
before its 2-D sweep, or, for the output files, rendered rows from a
template); a fast path must equal its oracle exactly (==, or byte for byte),
not within a tolerance, because the arithmetic is kept in the same order.
The selection layer (RankedPopulation, survivor_select and mating_pool
over it) is the object API selection ran on before it took rank and
crowding arrays, and rank_rows the full peel those arrays came from before
moea.select peeled only the fronts it keeps.  The object twins (dominates, normalized,
ioe_objectives and ObjectFront with its hypervolume and ratio of dominance)
are the per-ObjectiveVector code the package ran before metrics and the
outer engine took objective matrices.  The scalar hardware costs
(hw_latency_energy and a bisecting table lookup) price one workload at a
time, independently of the backends' batch path.  The per-exit primitives,
the one-item archive merge and the archive readers are definitions only the
tests use.  The front filters are the all-pairs mask nondominated_rows
computed before its sort-first sweep, and the inner archive run_ioe merged
after every generation before it kept its rank-0 rows and filtered them
once (UnionMaskArchive, with the key rule the outer archive no longer has).
The readers (FinalSolution, solution_from_values, read_entries,
state_rows, and those of a whole archive.json and of front.csv rows) left
the package because no command reads a row back into objects: the search
renders rows from nestevo.rows' field table and only writes them.
read_lines, which reads front.csv lines back into fields, and
VISIT_FIELDS left it when checkpoints began to store a row's genes in
place of its line.  row_text
spells a row's archive.json text from its values, as the workers did before
rows travelled as front.csv lines only; rows.archive_text must spell the
same text from the line.  The
object enumerators and samplers (enumerate_exit_genomes, enumerate_dvfs,
sample_dvfs, sample_exit_genome, with candidate_genes to flatten a pair)
are the genome-object code both engines ran before they sampled and
enumerated gene rows; ioe.enumerated must give the same rows in the same
order.  sample_exit_genome draws what the package's
sample_exit_bits and repair_exit_bits drew, in one function.  The
regrouping helpers at the end give the matrix API (rank_rows,
nondominated_rows, ooe.merge_visits, Front) the lists of
ObjectiveVectors the tests are written in; they convert and regroup, and
rank nothing themselves.  ObjectiveVector and ArchiveEntry, the objects
the outer archive held before it became a dict of visits, are the tests'
data format.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Sequence

import numpy as np

from nestevo.evaluator import (
    ExitProfile,
    HardwareTable,
    StaticScore,
    SyntheticHardwareModel,
    TableHardwareModel,
    Workload,
    _table_key,
    frequency_genes,
    hw_latency_energy,
    layer_workloads,
    resolved_frequencies,
)
from nestevo.genome import (
    BackboneGenome,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    indicator_length,
)
from nestevo.ioe import OBJECTIVE_DIRECTIONS, DynamicScore
from nestevo.metrics import Front, _hv2d, _hv3d
from nestevo.moea import (
    Direction,
    _crowding_by_front,
    _dominance,
    _normalize,
    nondominated_rows,
)
from nestevo.ooe import (
    COMBINED_DIRECTIONS,
    EvalCounters,
    GenerationRecord,
    OoeResult,
    OoeState,
    merge_visits,
)
from nestevo.rows import (
    FRONT_CSV_COLUMNS,
    _FIELDS,
    _ROW,
    _ROW_ORDER,
    FinalRow,
    Row,
    _blocks_from_str,
    _blocks_str,
    _json_block,
    objectives_block,
    render_rows,
)
from nestevo.rows import archive_text as row_archive_text


# ---------------------------------------------------------------------------
# Object twins


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


@dataclass(frozen=True)
class ArchiveEntry:
    key: Any
    payload: Any
    vector: ObjectiveVector


def normalized(v: ObjectiveVector) -> tuple[float, ...]:
    """Values flipped so every coordinate is maximized."""
    return tuple(x if d is Direction.MAXIMIZE else -x
                 for x, d in zip(v.values, v.directions))


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


def ioe_objectives(score: DynamicScore, mode: str, gamma: float) -> ObjectiveVector:
    """One candidate's inner objectives (ioe_objective_matrix's row)."""
    if mode == "scalar":
        values: tuple[float, ...] = (score.mean_exit_score,)
    elif mode == "vector":
        effective = score.mean_correct * score.mean_dissimilarity**gamma
        values = (effective, score.mean_energy_ratio, score.mean_latency_ratio)
    else:
        raise ValueError(f"unknown objective mode {mode!r}")
    return ObjectiveVector(values, OBJECTIVE_DIRECTIONS[mode])


class ObjectFront:
    """Front over a list of ObjectiveVectors: the non-dominated points,
    repeats collapsed (first kept), each dominating or equal to the
    reference when one is given."""

    def __init__(self, points: Sequence[ObjectiveVector],
                 reference: ObjectiveVector | None = None) -> None:
        points = list(points)
        if points:
            directions = points[0].directions
            for p in points:
                if p.directions != directions or len(p) != len(directions):
                    raise ValueError("front points have mismatched shapes")
            if reference is not None and reference.directions != directions:
                raise ValueError("reference does not match the points' shape")
        kept: list[ObjectiveVector] = []
        seen: set[tuple[float, ...]] = set()
        for p in points:
            if (not any(dominates(q, p) for q in points)
                    and p.values not in seen):
                seen.add(p.values)
                kept.append(p)
        if reference is not None:
            ref_n = normalized(reference)
            for p in kept:
                if any(v < r for v, r in zip(normalized(p), ref_n)):
                    raise ValueError(
                        f"point {p.values} does not dominate the reference "
                        f"{reference.values}"
                    )
        self.points: tuple[ObjectiveVector, ...] = tuple(kept)
        self.reference = reference


def object_hypervolume(front: ObjectFront) -> float:
    """Exact 2-D or 3-D hypervolume over the normalized point tuples; a
    volume that is not a finite float raises ValueError."""
    if front.reference is None:
        raise ValueError("hypervolume needs a front with a reference point")
    points = [normalized(p) for p in front.points]
    ref = normalized(front.reference)
    if not points:
        return 0.0
    if len(ref) == 2:
        hv = _hv2d([(p[0], p[1]) for p in points], (ref[0], ref[1]))
    elif len(ref) == 3:
        hv = _hv3d([(p[0], p[1], p[2]) for p in points], (ref[0], ref[1], ref[2]))
    else:
        raise ValueError(f"exact hypervolume supports 2 or 3 objectives, got {len(ref)}")
    if not math.isfinite(hv):
        raise ValueError(f"the box from the reference {front.reference.values} "
                         "to the front's upper corner has no finite volume")
    return hv


def object_hypervolume_mc(front: ObjectFront, samples: int,
                          seed: int) -> tuple[float, float]:
    """Monte Carlo hypervolume and its standard error, drawn as
    metrics.hypervolume_mc draws."""
    if front.reference is None:
        raise ValueError("hypervolume needs a front with a reference point")
    if not front.points:
        return 0.0, 0.0
    mat = np.asarray([normalized(p) for p in front.points], dtype=float)
    lo = np.asarray(normalized(front.reference), dtype=float)
    hi = mat.max(axis=0)
    sides = [h - r for h, r in zip(hi.tolist(), normalized(front.reference))]
    box = math.prod(sides)
    if 0.0 in sides or box == 0.0:
        return 0.0, 0.0
    if not math.isfinite(box):
        raise ValueError(f"the box from the reference {front.reference.values} "
                         "to the front's upper corner has no finite volume")
    rng = np.random.default_rng(seed)
    covered = 0
    done = 0
    while done < samples:
        n = min(200_000, samples - done)
        draws = rng.uniform(lo, hi, size=(n, mat.shape[1]))
        covered += int((mat[None, :, :] >= draws[:, None, :]).all(axis=-1)
                       .any(axis=-1).sum())
        done += n
    frac = covered / samples
    return box * frac, box * float(np.sqrt(frac * (1.0 - frac) / samples))


def object_ratio_of_dominance(a: ObjectFront, b: ObjectFront) -> float:
    """Fraction of a's points that dominate some point of b; 0 when either
    front is empty."""
    if not a.points or not b.points:
        return 0.0
    return (sum(1 for p in a.points if any(dominates(p, q) for q in b.points))
            / len(a.points))


def add(visits: dict, key, payload, vector: ObjectiveVector
        ) -> tuple[dict, bool]:
    """Merge one candidate under a key of its own: the merged visits, and
    True iff it entered them."""
    merged = merge(visits, [(key, payload, vector)])
    return merged, key in merged


def dissimilarity(profile: ExitProfile, positions: Sequence[int], i: int) -> float:
    """1 minus the best correct fraction among the sampled exits strictly
    before index i; the first sampled exit gets 1.0 (empty max is 0)."""
    if any(b <= a for a, b in zip(positions, positions[1:])):
        raise ValueError("sampled positions must be strictly ascending")
    if not 0 <= i < len(positions):
        raise ValueError("exit index out of range")
    best = 0.0
    for p in positions[:i]:
        best = max(best, fraction_at(profile, p))
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


def is_mutually_nondominated(visits: dict) -> bool:
    vs = [e.vector for e in entries(visits)]
    return not any(
        dominates(a, b) for i, a in enumerate(vs) for j, b in enumerate(vs) if i != j
    )


def table_lookup(table: HardwareTable, device: str, f_c: float,
                 f_m: float | None, flops: float) -> tuple[float, float]:
    """One table query: a bisection over the key's sorted buckets, an exact
    hit read as stored, a clamp at either end, and log-linear interpolation
    in Python floats between the two buckets around the query."""
    rows = table._rows.get(_table_key(device, f_c, f_m))
    if not rows:
        raise KeyError(f"no table rows for device={device!r} f_c={f_c} f_m={f_m}")
    q = math.log10(flops)
    xs = [r[0] for r in rows]
    i = bisect_left(xs, q)
    if i < len(rows) and xs[i] == q:
        return rows[i][1], rows[i][2]
    if i == 0:
        return rows[0][1], rows[0][2]
    if i == len(rows):
        return rows[-1][1], rows[-1][2]
    (x0, l0, e0), (x1, l1, e1) = rows[i - 1], rows[i]
    t = (q - x0) / (x1 - x0)
    lat = math.exp((1 - t) * math.log(l0) + t * math.log(l1))
    energy = math.exp((1 - t) * math.log(e0) + t * math.log(e1))
    return lat, energy


def reference_latency_energy(backend, w: Workload, device,
                             f: DvfsGenome) -> tuple[float, float]:
    """Latency and energy of one workload without the backend's batch path:
    hw_latency_energy for the synthetic model, table_lookup for a table, and
    a test double's own latency_energy."""
    if isinstance(backend, SyntheticHardwareModel):
        return hw_latency_energy(w, device, f, backend.params)
    if isinstance(backend, TableHardwareModel):
        f_c, f_m = resolved_frequencies(device, frequency_genes(device, f))
        return table_lookup(backend.table, device.name, f_c,
                            f_m if device.has_emc else None, w.flops)
    return backend.latency_energy(w, device, f)


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
            latency, energy = reference_latency_energy(self.backend, w,
                                                       self.device, f)
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
    mat = np.asarray([normalized(v) for v in pop], dtype=float)
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


def front_lines(solutions) -> list[str]:
    """The front.csv lines of `solutions`, in their order, one dict per row
    through csv.DictWriter."""
    lines = []
    for sol in solutions:
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=FRONT_CSV_COLUMNS,
                                lineterminator="\n")
        writer.writerow(dict(zip(FRONT_CSV_COLUMNS, solution_values(sol))))
        lines.append(buf.getvalue())
    return lines


def front_csv_text(entries) -> str:
    """The text of front.csv for `entries`: the header and the entries'
    lines (front_lines) sorted by key."""
    ordered = sorted(entries, key=lambda e: e.key)
    return "".join([",".join(FRONT_CSV_COLUMNS) + "\n",
                    *front_lines(e.payload for e in ordered)])


# ---------------------------------------------------------------------------
# Front filters


def all_pairs_nondominated(values: np.ndarray,
                           directions: Sequence[Direction]) -> np.ndarray:
    """nondominated_rows by one comparison of every row with every row."""
    maximize = np.array([d is Direction.MAXIMIZE for d in directions])
    mat = np.where(maximize, values, -values)
    ge = (mat[:, None, :] >= mat[None, :, :]).all(axis=-1)
    gt = (mat[:, None, :] > mat[None, :, :]).any(axis=-1)
    return ~(ge & gt).any(axis=0)


class UnionMaskArchive:
    """The inner archive run_ioe kept before it filtered its rank-0 rows
    once per run.  merge_batch drops an item whose key is live or appeared
    earlier in the batch (the first occurrence wins), then masks the whole
    union of existing and fresh entries with all_pairs_nondominated; add is
    the pairwise loop."""

    def __init__(self):
        self.entries: list[ArchiveEntry] = []

    def keys(self) -> set:
        return {e.key for e in self.entries}

    def add(self, key, payload, vector: ObjectiveVector) -> bool:
        if key in self.keys():
            return False
        if any(dominates(e.vector, vector) for e in self.entries):
            return False
        self.entries = [e for e in self.entries
                        if not dominates(vector, e.vector)]
        self.entries.append(ArchiveEntry(key, payload, vector))
        return True

    def merge_batch(self, items) -> None:
        """Merge (key, payload, ObjectiveVector) items."""
        fresh = []
        seen = self.keys()
        for key, payload, vector in items:
            if key in seen:
                continue
            seen.add(key)
            fresh.append(ArchiveEntry(key, payload, vector))
        if not fresh:
            return
        combined = self.entries + fresh
        mask = all_pairs_nondominated(*_columns([e.vector for e in combined]))
        self.entries = [e for e, keep in zip(combined, mask.tolist()) if keep]


# ---------------------------------------------------------------------------
# Archive readers


@dataclass(frozen=True)
class FinalSolution:
    """One archived solution as objects, read back from its row."""

    backbone: BackboneGenome
    exits: ExitGenome
    dvfs: DvfsGenome
    static_score: StaticScore
    dynamic_score: DynamicScore

    def key(self) -> tuple:
        return (self.backbone.key(), self.exits.key()) + self.dvfs.key()


def solution_from_values(values: Sequence) -> FinalSolution:
    """The solution whose fields in _FIELDS order are `values`."""
    (resolution, blocks, bits, device, compute, emc, acc, latency, energy,
     correct, energy_ratio, latency_ratio, dissimilarity, n_exits,
     exit_score) = values
    return FinalSolution(
        BackboneGenome(resolution, _blocks_from_str(blocks)),
        ExitGenome(tuple(int(c) for c in bits)),
        DvfsGenome(device, compute, emc),
        StaticScore(acc, latency, energy),
        DynamicScore(exit_score, correct, energy_ratio, latency_ratio,
                     dissimilarity, n_exits),
    )


def read_entries(rows: Iterable[FinalRow]) -> tuple[ArchiveEntry, ...]:
    """Final rows read back, as FinalSolution entries, from the archive.json
    texts that rows.archive_text spells from them."""
    return tuple(
        ArchiveEntry(key, *solution_from_dict(json.loads(
            row_archive_text(line, objectives))))
        for key, line, objectives in rows)


def final_rows(objectives: Sequence[float], rows: Iterable[Row]
               ) -> list[FinalRow]:
    """The rows of a visit with the given combined objectives, each with the
    visit's objectives_block, as a search result holds them."""
    block = objectives_block(objectives)
    return [(key, line, block) for key, line in rows]


def state_rows(state: OoeState) -> Iterator[FinalRow]:
    """The rows of a search state's live visits, in archive order, each with
    its visit's objectives_block."""
    return (row for objectives, rows in state.visits.values()
            for row in final_rows(objectives, rows))


def row_text(values: Sequence, objectives: Sequence[float]) -> str:
    """The archive.json text of a row from its fields in _FIELDS order and
    its visit's objectives, each value spelled by json.dumps into the row
    template: the render the workers made before rows travelled as
    front.csv lines only."""
    slots = [json.dumps(v) for v in values]
    slots.append(_json_block("[", [json.dumps(v) for v in objectives], "]"))
    return _ROW % tuple(slots[i] for i in _ROW_ORDER)


def row_values(doc: dict) -> tuple:
    """A loaded archive.json row's fields in _FIELDS order."""
    return tuple((doc if section is None else doc[section])[name]
                 for _, section, name, _ in _FIELDS)


def solution_from_dict(doc: dict) -> tuple[FinalSolution, ObjectiveVector]:
    """One loaded archive.json row as a solution and its objective vector."""
    return (solution_from_values(row_values(doc)),
            ObjectiveVector(tuple(doc["objectives"]), COMBINED_DIRECTIONS))


def archive_doc_result(doc: dict) -> OoeResult:
    """Rebuild an OoeResult from a loaded archive document: each row read
    as a solution object and rendered anew from its fields."""
    rows = []
    for sol_doc in doc["final"]:
        sol, vector = solution_from_dict(sol_doc)
        rows += final_rows(vector.values, render_rows([solution_values(sol)]))
    counters = EvalCounters(**doc["counters"])
    snapshots = tuple(GenerationRecord(**g) for g in doc["generations"])
    return OoeResult(tuple(rows), snapshots, counters)


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def front_solution_from_row(row: dict) -> FinalSolution:
    """One front.csv row (a csv.DictReader dict) as a solution."""
    return solution_from_values(
        [read(row[column]) for column, _, _, read in _FIELDS])


# The fields that every row of one visit shares: its backbone and its
# static score.
VISIT_FIELDS = tuple(i for i, f in enumerate(_FIELDS)
                     if f[1] in ("backbone", "static"))


def read_lines(lines: Sequence[str]) -> list[tuple]:
    """The fields, in _FIELDS order, of front.csv lines given without their
    line break, each cell read by its field's type.  A column that holds
    one text on every line is read once, so its rows share one value, as
    the rows of a visit share their backbone and static score.  A line
    without one cell per field, or a cell that its type refuses, raises
    ValueError."""
    cells = []
    for line in lines:
        try:
            row = next(csv.reader([line]), [])
        except csv.Error as exc:
            raise ValueError(f"line {line!r} is not CSV: {exc}") from exc
        if len(row) != len(_FIELDS):
            raise ValueError(f"line {line!r} holds {len(row)} cells, "
                             f"not {len(_FIELDS)}")
        cells.append(row)
    columns = []
    for (column, _, _, read), texts in zip(_FIELDS, zip(*cells)):
        try:
            if texts.count(texts[0]) == len(texts):
                columns.append([read(texts[0])] * len(texts))
            else:
                columns.append(list(map(read, texts)))
        except ValueError as exc:
            raise ValueError(f"a {column} cell does not read back: {exc}"
                             ) from exc
    return list(zip(*columns))


# ---------------------------------------------------------------------------
# Selection on annotated populations


@dataclass(frozen=True)
class RankedPopulation:
    """Population annotated with non-domination rank and crowding distance."""

    ids: tuple[int, ...]
    ranks: tuple[int, ...]
    crowding: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.ids)


def _selection_key(ranked: RankedPopulation, i: int) -> tuple[int, float, int]:
    # Lower is better: rank ascending, crowding descending, id ascending.
    return (ranked.ranks[i], -ranked.crowding[i], ranked.ids[i])


def survivor_select(ranked: RankedPopulation, k: int) -> list[int]:
    """Ids of the k best members by (rank asc, crowding desc, id asc)."""
    if k > len(ranked):
        raise ValueError(f"cannot select {k} from population of {len(ranked)}")
    order = sorted(range(len(ranked)), key=lambda i: _selection_key(ranked, i))
    return [ranked.ids[i] for i in order[:k]]


def mating_pool(ranked: RankedPopulation, k: int) -> tuple[list[int], list[int]]:
    """The ids survivor_select keeps, in ascending order, and each one's
    place among them (0 is the best)."""
    best = survivor_select(ranked, k)
    pool = sorted(best)
    return pool, [best.index(cid) for cid in pool]


def rank_rows(values: np.ndarray,
              directions: Sequence[Direction]) -> tuple[np.ndarray, np.ndarray]:
    """(non-domination rank, crowding distance) of each row of a raw
    objective matrix whose columns carry `directions`: every front peeled
    (Deb's domination-count peeling), then crowded all at once."""
    if len(values) == 0:
        raise ValueError("population is empty")
    mat = _normalize(values, directions)
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
    return ranks, _crowding_by_front(values, ranks)


# ---------------------------------------------------------------------------
# Object enumerators and samplers


def candidate_genes(x: ExitGenome, f: DvfsGenome) -> tuple[int, ...]:
    """The gene tuple of an (exits, frequencies) pair."""
    emc = () if f.emc_idx is None else (f.emc_idx,)
    return x.indicators + (f.compute_idx,) + emc


def sampled_positions(x: ExitGenome, space: SearchSpaceSpec) -> list[int]:
    """Layer indices of the set indicator bits, ascending."""
    return [space.exit_min_position + p for p, bit in enumerate(x.indicators) if bit]


def fraction_at(profile: ExitProfile, position: int) -> float:
    """The correct fraction of the exit after layer `position`."""
    return profile.correct_fractions[profile.positions.index(position)]


def sample_dvfs(device: DeviceSpec, rng: random.Random) -> DvfsGenome:
    """A uniform setting; on a device with a memory clock the emc index is
    drawn first."""
    if device.has_emc:
        emc = rng.randrange(len(device.emc_freq_ghz))
        return DvfsGenome(device.name, rng.randrange(len(device.compute_freq_ghz)),
                          emc)
    return DvfsGenome(device.name, rng.randrange(len(device.compute_freq_ghz)))


def sample_exit_genome(b: BackboneGenome, space: SearchSpaceSpec,
                       rng: random.Random) -> ExitGenome:
    """Bernoulli(0.5) per admissible exit position; an all-zero draw gets
    one uniformly chosen bit forced on."""
    bits = [1 if rng.random() < 0.5 else 0
            for _ in range(indicator_length(b, space))]
    if not any(bits):
        bits[rng.randrange(len(bits))] = 1
    return ExitGenome(tuple(bits))


def enumerate_exit_genomes(b: BackboneGenome,
                           space: SearchSpaceSpec) -> Iterator[ExitGenome]:
    n = indicator_length(b, space)
    for bits in itertools.product((0, 1), repeat=n):
        if any(bits):
            yield ExitGenome(bits)


def enumerate_dvfs(device: DeviceSpec) -> Iterator[DvfsGenome]:
    emc_range: Sequence[int | None] = (
        range(len(device.emc_freq_ghz)) if device.has_emc else (None,)
    )
    for c in range(len(device.compute_freq_ghz)):
        for e in emc_range:
            yield DvfsGenome(device.name, c, e)


# ---------------------------------------------------------------------------
# Regrouping helpers


def _columns(pop: Sequence[ObjectiveVector]):
    """The raw objective matrix of a population and its column directions."""
    return (np.array([v.values for v in pop], dtype=float),
            pop[0].directions if pop else ())


def merge(visits: dict, items) -> dict:
    """ooe.merge_visits of the live `visits` and (key, payload,
    ObjectiveVector) items over COMBINED_DIRECTIONS, each a visit numbered
    by its key whose rows are its payload."""
    assert all(v.directions == COMBINED_DIRECTIONS for _, _, v in items)
    return merge_visits(visits, {key: (v.values, payload)
                                 for key, payload, v in items})


def entries(visits: dict) -> list[ArchiveEntry]:
    """Visits as entries: each visit's number, rows and combined
    objectives."""
    return [ArchiveEntry(v, rows, ObjectiveVector(tuple(objectives),
                                                  COMBINED_DIRECTIONS))
            for v, (objectives, rows) in visits.items()]


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


def to_front(points: Sequence[ObjectiveVector],
             reference: ObjectiveVector | None = None,
             directions: Sequence[Direction] | None = None) -> Front:
    """The Front of a list of ObjectiveVectors; the column directions come
    from the points, else from the reference, else from `directions`."""
    if points:
        directions = points[0].directions
    elif reference is not None:
        directions = reference.directions
    width = len(directions)
    return Front(np.array([v.values for v in points],
                          dtype=float).reshape(len(points), width),
                 directions, None if reference is None else reference.values)


def front_points(f: Front) -> list[ObjectiveVector]:
    """A Front's kept rows as ObjectiveVectors, in order."""
    return [ObjectiveVector(tuple(row), f.directions) for row in f.values.tolist()]


def merge_nondominated(a: Sequence[ObjectiveVector], b: Sequence[ObjectiveVector],
                       reference: ObjectiveVector | None = None) -> Front:
    """The Front of the union of two point sets."""
    return to_front(list(a) + list(b), reference)
