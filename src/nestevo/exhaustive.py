"""Exhaustive bi-level oracle for enumerable spaces.

Evaluates every (backbone, exits, frequencies) triple, takes the exact inner
Pareto set per backbone, then the exact outer non-dominated set over the
combined static + inner-hypervolume vector.  Used for ground-truth fronts
that the evolutionary engine is checked against.
"""

from __future__ import annotations

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
    n_inner_candidates,
)
from .ioe import (IoeResult, _DynamicEvaluator, enumerated, inner_front,
                  ioe_objective_matrix)
from .moea import nondominated_rows
from .ooe import (COMBINED_DIRECTIONS, combined_objectives,
                  ioe_front_hypervolume, visit_rows)
from .rows import Row


def space_cardinality(space: SearchSpaceSpec, device: DeviceSpec) -> int:
    """A bound on the triples: every backbone as deep as the deepest."""
    max_bits = space.n_block * max(space.depth_domain) - space.exit_min_position
    return space.n_backbones() * n_inner_candidates(max_bits, device)


# Candidates evaluated and filtered at a time, which bounds the temporaries.
_BLOCK_ROWS = 4096


def exact_inner_front(ev: _DynamicEvaluator, objective_mode: str) -> IoeResult:
    """The exact inner front of ev's backbone, in enumeration order: each
    block of candidates (ioe.enumerated) filtered alone, then the blocks'
    survivors together (ioe.inner_front), as the front of a union lies in
    the union of its parts' fronts (Kung, Luccio & Preparata, 1975)."""
    places = range(n_inner_candidates(ev.n_cols, ev.device))
    parts = []
    for i in places[::_BLOCK_ROWS]:
        genes = enumerated(ev.n_cols, ev.device, places[i:i + _BLOCK_ROWS])
        scores = ev.evaluate_batch(genes)
        values, directions = ioe_objective_matrix(scores, objective_mode,
                                                  ev.gamma)
        keep = nondominated_rows(values, directions)
        parts.append((genes[keep], values[keep], scores.means[keep],
                      scores.n_exits[keep]))
    return inner_front(parts, directions, len(places))


def enumerate_truth(space: SearchSpaceSpec, device: DeviceSpec,
                    backend: HardwareBackend, hw: HardwareModelParams,
                    surrogate: SurrogateParams, seed: int, gamma: float,
                    objective_mode: str = "vector") -> tuple[list[Row], int]:
    """The true bi-level Pareto front, one row (ooe.visit_rows: a key and a
    front.csv line) per surviving (backbone, exits, frequencies) triple,
    sorted by solution key, and the number of candidates evaluated."""
    per_backbone = []
    for b in enumerate_backbones(space):
        static = eval_static(b, space, device, backend, surrogate, seed)
        profile = exit_profile(b, space, surrogate, seed)
        inner = exact_inner_front(
            _DynamicEvaluator(b, space, device, backend, hw, profile, static,
                              gamma), objective_mode)
        hv = ioe_front_hypervolume(inner.scores, gamma)
        per_backbone.append((b, static, inner, combined_objectives(static, hv)))

    outer_mask = nondominated_rows(
        np.array([row for _, _, _, row in per_backbone]), COMBINED_DIRECTIONS)
    rows = [row for (b, static, inner, _), keep
            in zip(per_backbone, outer_mask.tolist()) if keep
            for row in visit_rows(b, static, inner, device)]
    return (sorted(rows, key=itemgetter(0)),
            sum(inner.n_dynamic_evals for _, _, inner, _ in per_backbone))
