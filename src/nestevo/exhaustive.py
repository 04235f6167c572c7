"""Exhaustive bi-level oracle for enumerable spaces.

Evaluates every (backbone, exits, frequencies) triple, takes the exact inner
Pareto set per backbone, then the exact outer non-dominated set over the
combined static + inner-hypervolume vector.  Used for ground-truth fronts
that the evolutionary engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import itemgetter

import numpy as np

from .evaluator import (
    HardwareBackend,
    HardwareModelParams,
    SurrogateParams,
    eval_static,
    exit_profile,
)
from .genome import (
    DeviceSpec,
    SearchSpaceSpec,
    enumerate_backbones,
    enumerate_candidates,
)
from .ioe import (DynamicScores, IoeResult, _DynamicEvaluator,
                  ioe_objective_matrix)
from .moea import nondominated_rows
from .ooe import COMBINED_DIRECTIONS, combined_objectives, ioe_front_hypervolume
from .rows import Row, render_rows, visit_values


@dataclass(frozen=True)
class SpaceCardinality:
    n_backbones: int
    max_exit_patterns: int
    n_dvfs: int

    @property
    def total(self) -> int:
        return self.n_backbones * self.max_exit_patterns * self.n_dvfs


def space_cardinality(space: SearchSpaceSpec, device: DeviceSpec) -> SpaceCardinality:
    max_layers = space.n_block * max(space.depth_domain)
    max_patterns = 2 ** (max_layers - space.exit_min_position) - 1
    n_dvfs = len(device.compute_freq_ghz) * max(1, len(device.emc_freq_ghz))
    return SpaceCardinality(space.n_backbones(), max_patterns, n_dvfs)


def enumerate_truth(space: SearchSpaceSpec, device: DeviceSpec,
                    backend: HardwareBackend, hw: HardwareModelParams,
                    surrogate: SurrogateParams, seed: int, gamma: float,
                    objective_mode: str = "vector") -> list[Row]:
    """The true bi-level Pareto front, one row (nestevo.rows.render_rows: a
    key and a front.csv line) per surviving (backbone, exits, frequencies)
    triple, sorted by solution key."""
    per_backbone = []
    for b in enumerate_backbones(space):
        static = eval_static(b, space, device, backend, surrogate, seed)
        profile = exit_profile(b, space, surrogate, seed)
        ev = _DynamicEvaluator(b, space, device, backend, hw, profile, static,
                               gamma)
        candidates = np.array(enumerate_candidates(ev.n_cols, device))
        scores = ev.evaluate_batch(candidates)
        values, directions = ioe_objective_matrix(scores, objective_mode, gamma)
        keep = np.flatnonzero(nondominated_rows(values, directions))
        inner = IoeResult(tuple(map(tuple, candidates[keep].tolist())),
                          DynamicScores(scores.means[keep], scores.n_exits[keep]),
                          len(candidates))
        hv = ioe_front_hypervolume(inner.scores, gamma)
        per_backbone.append((b, static, inner, combined_objectives(static, hv)))

    outer_mask = nondominated_rows(
        np.array([row for _, _, _, row in per_backbone]), COMBINED_DIRECTIONS)
    rows = [row for (b, static, inner, _), keep
            in zip(per_backbone, outer_mask.tolist()) if keep
            for row in render_rows(
                visit_values(b, static, inner.solution_fields(device)))]
    return sorted(rows, key=itemgetter(0))
