"""Exhaustive bi-level oracle for enumerable spaces.

Evaluates every (backbone, exits, frequencies) triple, takes the exact inner
Pareto set per backbone, then the exact outer non-dominated set over the
combined static + inner-hypervolume vector.  Used for ground-truth fronts
that the evolutionary engine is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    enumerate_dvfs,
    enumerate_exit_genomes,
)
from .ioe import IoeSolution, _DynamicEvaluator, ioe_objective_matrix
from .moea import ArchiveEntry, ObjectiveVector, nondominated_rows
from .ooe import (
    COMBINED_DIRECTIONS,
    FinalSolution,
    combined_objectives,
    ioe_front_hypervolume,
)


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
                    objective_mode: str = "vector") -> list[ArchiveEntry]:
    """The true bi-level Pareto front, one entry per surviving
    (backbone, exits, frequencies) triple, sorted by solution key."""
    per_backbone = []
    dvfs_all = list(enumerate_dvfs(device))
    for b in enumerate_backbones(space):
        static = eval_static(b, space, device, backend, surrogate, seed)
        profile = exit_profile(b, space, surrogate, seed)
        ev = _DynamicEvaluator(b, space, device, backend, hw, profile, static,
                               gamma)
        candidates = [(x, f) for x in enumerate_exit_genomes(b, space)
                      for f in dvfs_all]
        scores = ev.evaluate_batch(candidates)
        values, directions = ioe_objective_matrix(scores, objective_mode, gamma)
        keep = nondominated_rows(values, directions)
        inner = [
            IoeSolution(*candidates[i], scores.score(i),
                        ObjectiveVector(tuple(values[i].tolist()), directions))
            for i in keep.nonzero()[0].tolist()
        ]
        hv = ioe_front_hypervolume(inner, gamma)
        per_backbone.append((b, static, inner, combined_objectives(static, hv)))

    outer_mask = nondominated_rows(
        np.array([v.values for _, _, _, v in per_backbone]), COMBINED_DIRECTIONS)
    entries: list[ArchiveEntry] = []
    for (b, static, inner, vector), keep in zip(per_backbone, outer_mask.tolist()):
        if not keep:
            continue
        for sol in inner:
            fs = FinalSolution(b, sol.exits, sol.dvfs, static, sol.score)
            entries.append(ArchiveEntry(fs.key(), fs, vector))
    entries.sort(key=lambda e: e.key)
    return entries
