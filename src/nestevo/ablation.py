"""Dissimilarity-regularizer ablation: run the inner engine on one backbone
once per trade-off exponent and compare the resulting archives.

Arms share the same RNG seed so their initial populations coincide; gamma 0
is the regularizer-off arm.  Cross-arm comparisons use the exponent-free
component space (correct fraction, energy ratio, latency ratio), since the
weighted first objective is not comparable across exponents.  Each arm
keeps its inner result as run_ioe returns it, and the comparisons read its
score matrix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Sequence

from .config import ConfigError, RunConfig
from .evaluator import (
    ExitProfile,
    HardwareBackend,
    eval_static,
    exit_profile,
    running_sums,
)
from .genome import BackboneGenome, sample_backbone, validate_backbone
from .ioe import Candidate, DynamicScores, IoeResult, run_ioe
from .metrics import Front, ratio_of_dominance
from .moea import Direction
from .ooe import fork_map, ioe_front_hypervolume

COMPONENT_DIRECTIONS = (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE)


def component_front(scores: DynamicScores) -> Front:
    """An archive's points in component space (correct fraction, energy
    ratio, latency ratio)."""
    return Front(scores.means[:, 1:4], COMPONENT_DIRECTIONS)


def exit_fraction_spread(solutions: Sequence[Candidate],
                         profile: ExitProfile) -> float:
    """Mean over multi-exit archive members of the mean pairwise absolute
    difference between their selected exits' correct fractions.  Members with
    a single exit carry no pairwise information and are skipped; an archive
    with no multi-exit member scores 0."""
    per_solution = []
    for c in solutions:
        # A candidate's leading genes are its exit bits, one per fraction.
        values = [f for bit, f in zip(c, profile.correct_fractions) if bit]
        if len(values) < 2:
            continue
        diffs = [abs(a - b) for a, b in combinations(values, 2)]
        per_solution.append(running_sums(diffs)[-1] / len(diffs))
    if not per_solution:
        return 0.0
    return running_sums(per_solution)[-1] / len(per_solution)


@dataclass(frozen=True)
class AblationArm:
    gamma: float
    result: IoeResult
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
    if len(set(gammas)) != len(gammas):
        # The ratios of dominance are keyed by gamma pair.
        raise ConfigError(f"gammas must be distinct (0 and -0 are one value), "
                          f"got {list(gammas)}")
    b = resolve_backbone(cfg)
    space = cfg.space
    device = cfg.device_spec()
    static = eval_static(b, space, device, backend, cfg.surrogate, cfg.seed)
    profile = exit_profile(b, space, cfg.surrogate, cfg.seed)
    arm_seed = random.Random(cfg.seed).getrandbits(63)

    def arm(gamma: float) -> AblationArm:
        ioe_cfg = replace(cfg.ooe.ioe, gamma=gamma)
        result = run_ioe(b, space, device, backend, cfg.hw, ioe_cfg,
                         cfg.variation, random.Random(arm_seed),
                         profile=profile, static=static)
        return AblationArm(
            gamma=gamma,
            result=result,
            hypervolume=ioe_front_hypervolume(result.scores, 0.0),
            spread=exit_fraction_spread(result.solutions, profile),
        )

    arms = fork_map(arm, gammas)

    fronts = [component_front(a.result.scores) for a in arms]
    rod: dict[tuple[float, float], float] = {}
    for (a, front_a), (b_arm, front_b) in combinations(zip(arms, fronts), 2):
        rod[(a.gamma, b_arm.gamma)] = ratio_of_dominance(front_a, front_b)
        rod[(b_arm.gamma, a.gamma)] = ratio_of_dominance(front_b, front_a)

    return AblationReport(b, tuple(arms), rod)
