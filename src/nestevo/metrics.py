"""Front-quality metrics: exact 2-D/3-D hypervolume, a Monte Carlo estimator
for higher dimensions, and ratio of dominance.

Reference points are always explicit inputs; inferring them from data would
make hypervolumes incomparable across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .moea import (Direction, _dominated_by, _normalize, nondominated_rows,
                   require_finite)


class Front:
    """A mutually non-dominated point set with an optional reference point.

    `values` is a raw n x m matrix (n may be 0) whose columns carry
    `directions`.  Construction keeps its non-dominated rows and drops
    repeated rows, the first occurrence kept.  When a reference is given,
    every surviving point must dominate or equal it (required for
    hypervolume); a reference-free front still supports dominance-based
    metrics.  A matrix or reference of the wrong shape, or a value that is
    not finite, raises ValueError.
    """

    def __init__(self, values: np.ndarray, directions: Sequence[Direction],
                 reference: Sequence[float] | None = None) -> None:
        self.directions = tuple(directions)
        m = len(self.directions)
        values = np.asarray(values, dtype=float)
        if values.ndim != 2 or values.shape[1] != m:
            raise ValueError(f"a {values.shape} matrix does not fit {m} "
                             "objectives")
        if reference is not None:
            reference = tuple(float(r) for r in reference)
            if len(reference) != m:
                raise ValueError("reference does not match the points' shape")
            require_finite(np.array(reference))
        require_finite(values)
        mask = nondominated_rows(values, self.directions).tolist()
        kept = []
        seen: set[tuple[float, ...]] = set()
        for i, row in enumerate(map(tuple, values.tolist())):
            if mask[i] and row not in seen:
                seen.add(row)
                kept.append(i)
        self.values = values[kept]
        if reference is not None:
            below = (_normalize(self.values, self.directions)
                     < _normalize(np.array(reference), self.directions))
            bad = np.flatnonzero(below.any(axis=1))
            if len(bad):
                raise ValueError(
                    f"point {tuple(self.values[bad[0]].tolist())} does not "
                    f"dominate the reference {reference}")
        self.reference = reference

    def __len__(self) -> int:
        return len(self.values)


def _require_reference(front: Front) -> tuple[list[list[float]], list[float]]:
    """The front's points and reference, normalized, as Python floats."""
    if front.reference is None:
        raise ValueError("hypervolume needs a front with a reference point")
    return (_normalize(front.values, front.directions).tolist(),
            _normalize(np.array(front.reference), front.directions).tolist())


def _hv2d(points: Sequence[Sequence[float]], ref: Sequence[float]) -> float:
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


def _hv3d(points: Sequence[Sequence[float]], ref: Sequence[float]) -> float:
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
    (use hypervolume_mc beyond that).  A volume that is not a finite float
    raises ValueError, as hypervolume_mc does."""
    points, ref = _require_reference(front)
    if not points:
        return 0.0
    dim = len(front.directions)
    if dim not in (2, 3):
        raise ValueError(f"exact hypervolume supports 2 or 3 objectives, got "
                         f"{dim}; use hypervolume_mc")
    hv = _hv2d(points, ref) if dim == 2 else _hv3d(points, ref)
    if not math.isfinite(hv):
        raise ValueError(f"the box from the reference {front.reference} to "
                         "the front's upper corner has no finite volume")
    return hv


def hypervolume_mc(front: Front, samples: int,
                   seed: int) -> tuple[float, float]:
    """Monte Carlo estimate (any dimensionality): uniform samples in the
    reference-to-upper-corner box, counting points covered by the front.
    Returns (estimate, standard error); a box with a side of zero width has
    volume 0, and one whose volume is not a finite float raises ValueError."""
    if samples < 1:
        raise ValueError("need at least one sample")
    points, ref = _require_reference(front)
    if not points:
        return 0.0, 0.0
    mat = np.asarray(points, dtype=float)
    lo = np.asarray(ref, dtype=float)
    hi = mat.max(axis=0)
    # In Python floats, so that an overflow gives inf instead of a warning.
    sides = [h - r for h, r in zip(hi.tolist(), ref)]
    box = math.prod(sides)
    if 0.0 in sides or box == 0.0:
        return 0.0, 0.0
    if not math.isfinite(box):
        raise ValueError(f"the box from the reference {front.reference} to "
                         "the front's upper corner has no finite volume")
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
    if a.directions != b.directions:
        raise ValueError("fronts have mismatched objective shapes")
    if not len(a) or not len(b):
        return 0.0
    # p dominates q exactly when -q dominates -p.
    neg_a = -_normalize(a.values, a.directions)
    neg_b = -_normalize(b.values, b.directions)
    count = int(_dominated_by(neg_a, neg_b).sum())
    return count / len(a)


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
    """Hypervolumes, exact (2-D and 3-D only) when `mc_samples` is 0 and
    Monte Carlo estimates otherwise, and both ratios of dominance."""
    if mc_samples == 0:
        hv_a, hv_b = hypervolume(a), hypervolume(b)
        se_a = se_b = 0.0
    else:
        hv_a, se_a = hypervolume_mc(a, mc_samples, mc_seed)
        hv_b, se_b = hypervolume_mc(b, mc_samples, mc_seed + 1)
    return MetricsReport(hv_a, hv_b, ratio_of_dominance(a, b),
                         ratio_of_dominance(b, a), se_a, se_b)
