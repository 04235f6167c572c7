"""Quality yardstick of the inner engine: how much of the exact inner Pareto
front it finds, on fixed backbones of the default space that are
small enough to enumerate.

    PYTHONPATH=src python tests/yardstick.py

Each backbone is sample_backbone(space, random.Random(seed)) for a seed of
BACKBONES, searched with the inner configuration and variation of
configs/default.yaml (35 generations of 100 on agx-volta-gpu), once per
seed of INNER_SEEDS.  Per backbone it prints, as mean [min, max] over those
seeds:
- recall: the share of the exhaustive front's candidates that the inner
  search returns;
- hv3: the 3-D hypervolume of the returned front's inner objectives (weighted
  correctness, energy ratio, latency ratio) against HV_REFERENCE, as a share
  of the exhaustive front's;
- hv2: the same share for the 2-D summary the outer engine ranks on
  (ooe.ioe_front_hypervolume).
"""

from __future__ import annotations

import random
import statistics
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from nestevo.cli import build_backend
from nestevo.config import RunConfig, load_config
from nestevo.evaluator import eval_static, exit_profile
from nestevo.exhaustive import exact_inner_front
from nestevo.genome import BackboneGenome, indicator_length, sample_backbone
from nestevo.ioe import (OBJECTIVE_DIRECTIONS, _DynamicEvaluator,
                         ioe_objective_matrix, run_ioe)
from nestevo.metrics import Front, hypervolume
from nestevo.ooe import ioe_front_hypervolume

CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"

# Backbone seeds with 4, 4, 5, 5, 6 and 6 exit positions, the first such
# seeds of the default space, then seeds with 8, 10 and 12.  Their inner
# spaces hold 1,890, 3,906, 7,938, 32,130, 128,898 and 515,970 candidates,
# all larger than one population of 100; all but the first exceed the
# inner budget of 3,500.
BACKBONES = (21346, 57351, 63752, 111074, 7530, 32542, 450, 190, 678)
INNER_SEEDS = tuple(range(10))

# Zero weighted correctness, the static backbone's energy and twice its
# latency.  Front points at the lowest clocks, up to about 12 times the
# static latency, fall outside; with them inside, every share reads 1.000.
HV_REFERENCE = (0.0, 1.0, 2.0)


@dataclass(frozen=True)
class Case:
    """One backbone and what its inner searches need."""

    seed: int
    backbone: BackboneGenome
    cfg: RunConfig
    args: tuple   # run_ioe's and _DynamicEvaluator's leading arguments
    profile: object
    static: object


@lru_cache(maxsize=None)
def case(seed: int) -> Case:
    cfg = load_config(str(CONFIG))
    space, device = cfg.space, cfg.device_spec()
    backend = build_backend(cfg)
    b = sample_backbone(space, random.Random(seed))
    static = eval_static(b, space, device, backend, cfg.surrogate, cfg.seed)
    profile = exit_profile(b, space, cfg.surrogate, cfg.seed)
    return Case(seed, b, cfg, (b, space, device, backend, cfg.hw),
                profile, static)


def hv3(values: np.ndarray) -> float:
    """Hypervolume of inner objective rows against HV_REFERENCE; rows that
    do not dominate the reference add nothing."""
    directions = OBJECTIVE_DIRECTIONS["vector"]
    inside = (values[:, 0] >= HV_REFERENCE[0]) & (
        values[:, 1:] <= HV_REFERENCE[1:]).all(axis=1)
    return hypervolume(Front(values[inside], directions, HV_REFERENCE))


@lru_cache(maxsize=None)
def truth(seed: int) -> tuple[frozenset, float, float]:
    """The exhaustive inner front of a backbone: its candidates, its 3-D
    hypervolume and its 2-D summary."""
    c = case(seed)
    gamma = c.cfg.ooe.ioe.gamma
    result = exact_inner_front(
        _DynamicEvaluator(*c.args, c.profile, c.static, gamma), "vector")
    values, _ = ioe_objective_matrix(result.scores, "vector", gamma)
    return (frozenset(result.solutions), hv3(values),
            ioe_front_hypervolume(result.scores, gamma))


def measure(seed: int, inner_seed: int) -> tuple[float, float, float]:
    """(recall, hv3 share, hv2 share) of one inner search."""
    c = case(seed)
    front, hv3_truth, hv2_truth = truth(seed)
    ioe = c.cfg.ooe.ioe
    result = run_ioe(*c.args, ioe, c.cfg.variation, random.Random(inner_seed),
                     profile=c.profile, static=c.static)
    values, _ = ioe_objective_matrix(result.scores, "vector", ioe.gamma)
    found = front.intersection(result.solutions)
    return (len(found) / len(front), hv3(values) / hv3_truth,
            ioe_front_hypervolume(result.scores, ioe.gamma) / hv2_truth)


def main() -> int:
    print("backbone  L  |front|  recall                    hv3"
          "                       hv2")
    for seed in BACKBONES:
        c = case(seed)
        rows = [measure(seed, s) for s in INNER_SEEDS]
        cells = []
        for column in zip(*rows):
            cells.append(f"{statistics.fmean(column):.4f} "
                         f"[{min(column):.4f}, {max(column):.4f}]")
        print(f"{seed:8d} {indicator_length(c.backbone, c.cfg.space):2d} "
              f"{len(truth(seed)[0]):8d}  " + "  ".join(cells))
    return 0


if __name__ == "__main__":
    sys.exit(main())
