"""Front-quality metrics: exact 2-D/3-D hypervolume, a Monte Carlo estimator
for higher dimensions, and ratio of dominance.

Reference points are always explicit inputs; inferring them from data would
make hypervolumes incomparable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .moea import ObjectiveVector, _dominated_by, nondominated_rows


class Front:
    """A mutually non-dominated point set with an optional reference point.

    Construction filters dominated points and collapses duplicates.  When a
    reference is given, every surviving point must dominate or equal it
    (required for hypervolume); a reference-free front still supports
    dominance-based metrics.
    """

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
        if points:
            mask = nondominated_rows(np.array([p.values for p in points]),
                                     directions)
            for p, keep in zip(points, mask.tolist()):
                if keep and p.values not in seen:
                    seen.add(p.values)
                    kept.append(p)
        if reference is not None:
            ref_n = reference.normalized()
            for p in kept:
                if any(v < r for v, r in zip(p.normalized(), ref_n)):
                    raise ValueError(
                        f"point {p.values} does not dominate the reference "
                        f"{reference.values}"
                    )
        self.points: tuple[ObjectiveVector, ...] = tuple(kept)
        self.reference = reference

    def __len__(self) -> int:
        return len(self.points)

    @property
    def dimension(self) -> int:
        if self.points:
            return len(self.points[0])
        if self.reference is not None:
            return len(self.reference)
        return 0


def _require_reference(front: Front) -> tuple[list[tuple[float, ...]], tuple[float, ...]]:
    if front.reference is None:
        raise ValueError("hypervolume needs a front with a reference point")
    return [p.normalized() for p in front.points], front.reference.normalized()


def _hv2d(points: list[tuple[float, float]], ref: tuple[float, float]) -> float:
    """Sweep over x descending, summing rectangle slabs against the reference.
    Dominated and repeated points never raise the running y, so they add
    nothing."""
    if not points:
        return 0.0
    hv = 0.0
    prev_y = ref[1]
    for x, y in sorted(points, reverse=True):
        if y > prev_y:
            hv += (x - ref[0]) * (y - prev_y)
            prev_y = y
    return hv


def _hv3d(points: list[tuple[float, float, float]],
          ref: tuple[float, float, float]) -> float:
    """Exact slicing over the sorted third coordinate: each slab contributes
    the 2-D hypervolume of the points above it times the slab height."""
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
            area = _hv2d(active, (ref[0], ref[1]))
            hv += area * (z_top - z_bottom)
    return hv


def hypervolume(front: Front) -> float:
    """Exact dominated volume against the reference; 2-D and 3-D only
    (use hypervolume_mc beyond that)."""
    points, ref = _require_reference(front)
    if not points:
        return 0.0
    dim = front.dimension
    if dim == 2:
        return _hv2d([(p[0], p[1]) for p in points], (ref[0], ref[1]))
    if dim == 3:
        return _hv3d([(p[0], p[1], p[2]) for p in points], (ref[0], ref[1], ref[2]))
    raise ValueError(f"exact hypervolume supports 2 or 3 objectives, got {dim}; "
                     "use hypervolume_mc")


def hypervolume_mc(front: Front, samples: int,
                   seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (any dimensionality): uniform samples in the
    reference-to-upper-corner box, counting points covered by the front.
    Returns (estimate, standard error)."""
    if samples < 1:
        raise ValueError("need at least one sample")
    points, ref = _require_reference(front)
    if not points:
        return 0.0, 0.0
    mat = np.asarray(points, dtype=float)
    lo = np.asarray(ref, dtype=float)
    hi = mat.max(axis=0)
    box = float(np.prod(hi - lo))
    if box == 0.0:
        return 0.0, 0.0
    rng = np.random.default_rng(seed)
    covered = 0
    chunk = 200_000
    done = 0
    while done < samples:
        n = min(chunk, samples - done)
        draws = rng.uniform(lo, hi, size=(n, mat.shape[1]))
        hits = (mat[None, :, :] >= draws[:, None, :]).all(axis=-1).any(axis=-1)
        covered += int(hits.sum())
        done += n
    frac = covered / samples
    estimate = box * frac
    stderr = box * float(np.sqrt(frac * (1.0 - frac) / samples))
    return estimate, stderr


def ratio_of_dominance(a: Front, b: Front) -> float:
    """Fraction of points in `a` that dominate at least one point of `b`.
    Empty `a` yields 0."""
    if a.points and b.points:
        if a.points[0].directions != b.points[0].directions:
            raise ValueError("fronts have mismatched objective shapes")
    if not a.points or not b.points:
        return 0.0
    # p dominates q exactly when -q dominates -p.
    neg_a = -np.array([p.normalized() for p in a.points])
    neg_b = -np.array([p.normalized() for p in b.points])
    count = int(_dominated_by(neg_a, neg_b).sum())
    return count / len(a.points)


@dataclass(frozen=True)
class MetricsReport:
    hv_a: float
    hv_b: float
    rod_a_over_b: float
    rod_b_over_a: float
    hv_stderr_a: float = 0.0
    hv_stderr_b: float = 0.0


def compare_fronts(a: Front, b: Front, mc_samples: int = 0,
                   mc_seed: int = 0) -> MetricsReport:
    """Hypervolumes (exact when 2-D/3-D, Monte Carlo above) and both ratios
    of dominance."""
    dim = a.dimension or b.dimension
    if dim <= 3 and mc_samples == 0:
        hv_a, hv_b = hypervolume(a), hypervolume(b)
        se_a = se_b = 0.0
    else:
        if mc_samples <= 0:
            raise ValueError("mc_samples required for >3 objectives")
        hv_a, se_a = hypervolume_mc(a, mc_samples, mc_seed)
        hv_b, se_b = hypervolume_mc(b, mc_samples, mc_seed + 1)
    return MetricsReport(hv_a, hv_b, ratio_of_dominance(a, b),
                         ratio_of_dominance(b, a), se_a, se_b)
