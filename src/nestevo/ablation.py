"""Dissimilarity-regularizer ablation: run the inner engine on one backbone
once per trade-off exponent and compare the resulting archives.

Arms share the same RNG seed so their initial populations coincide; gamma 0
is the regularizer-off arm.  Cross-arm comparisons use the exponent-free
component space (correct fraction, energy ratio, latency ratio), since the
weighted first objective is not comparable across exponents.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .config import ConfigError, RunConfig
from .evaluator import (
    ExitProfile,
    HardwareBackend,
    eval_static,
    exit_profile,
)
from .genome import BackboneGenome, SearchSpaceSpec, sample_backbone, sampled_positions, validate_backbone
from .ioe import IoeConfig, IoeSolution, run_ioe
from .metrics import Front, ratio_of_dominance
from .moea import Direction, ObjectiveVector
from .ooe import fork_map, ioe_front_hypervolume

COMPONENT_DIRECTIONS = (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE)


def component_vector(sol: IoeSolution) -> ObjectiveVector:
    return ObjectiveVector(
        (sol.score.mean_correct, sol.score.mean_energy_ratio,
         sol.score.mean_latency_ratio),
        COMPONENT_DIRECTIONS,
    )


def exit_fraction_spread(solutions: Sequence[IoeSolution], profile: ExitProfile,
                         space: SearchSpaceSpec) -> float:
    """Mean over multi-exit archive members of the mean pairwise absolute
    difference between their selected exits' correct fractions.  Members with
    a single exit carry no pairwise information and are skipped; an archive
    with no multi-exit member scores 0."""
    per_solution = []
    for sol in solutions:
        positions = sampled_positions(sol.exits, space)
        if len(positions) < 2:
            continue
        values = [profile.fraction_at(p) for p in positions]
        diffs = [abs(a - b) for a, b in combinations(values, 2)]
        per_solution.append(sum(diffs) / len(diffs))
    if not per_solution:
        return 0.0
    return sum(per_solution) / len(per_solution)


@dataclass(frozen=True)
class AblationArm:
    gamma: float
    solutions: tuple[IoeSolution, ...]
    hypervolume: float          # (correct fraction, energy ratio) vs (0, 1)
    spread: float


@dataclass(frozen=True)
class AblationReport:
    backbone: BackboneGenome
    arms: tuple[AblationArm, ...]
    # (gamma_a, gamma_b) -> RoD of a's archive over b's, in component space
    rod: dict[tuple[float, float], float]


def resolve_backbone(cfg: RunConfig) -> BackboneGenome:
    if cfg.ablate is None:
        raise ConfigError("config has no ablate section")
    if cfg.ablate.backbone is not None:
        validate_backbone(cfg.ablate.backbone, cfg.space)
        return cfg.ablate.backbone
    rng = random.Random(cfg.ablate.backbone_seed)
    return sample_backbone(cfg.space, rng)


def run_ablation(cfg: RunConfig, backend: HardwareBackend,
                 gammas: Sequence[float]) -> AblationReport:
    if not gammas:
        raise ConfigError("gamma list must be non-empty")
    b = resolve_backbone(cfg)
    space = cfg.space
    device = cfg.device_spec()
    static = eval_static(b, space, device, backend, cfg.surrogate, cfg.seed)
    profile = exit_profile(b, space, cfg.surrogate, cfg.seed)
    arm_seed = random.Random(cfg.seed).getrandbits(63)

    def arm(gamma: float) -> AblationArm:
        ioe_cfg = IoeConfig(
            generations=cfg.ooe.ioe.generations,
            population=cfg.ooe.ioe.population,
            gamma=gamma,
            objective_mode=cfg.ooe.ioe.objective_mode,
            keep_fraction=cfg.ooe.ioe.keep_fraction,
            budget=cfg.ooe.ioe.budget,
        )
        result = run_ioe(b, space, device, backend, cfg.hw, ioe_cfg,
                         cfg.variation, random.Random(arm_seed),
                         profile=profile, static=static)
        return AblationArm(
            gamma=gamma,
            solutions=result.solutions,
            hypervolume=ioe_front_hypervolume(result.solutions, 0.0),
            spread=exit_fraction_spread(result.solutions, profile, space),
        )

    arms = fork_map(arm, gammas)

    rod: dict[tuple[float, float], float] = {}
    for a, b_arm in combinations(arms, 2):
        front_a = Front([component_vector(s) for s in a.solutions])
        front_b = Front([component_vector(s) for s in b_arm.solutions])
        rod[(a.gamma, b_arm.gamma)] = ratio_of_dominance(front_a, front_b)
        rod[(b_arm.gamma, a.gamma)] = ratio_of_dominance(front_b, front_a)

    return AblationReport(b, tuple(arms), rod)
