"""Nested multi-objective evolutionary search over backbone architectures,
early-exit placements, and device frequency settings, evaluated with
deterministic surrogates."""

from .evaluator import (
    ExitProfile,
    HardwareModelParams,
    LossRecord,
    StaticScore,
    SurrogateParams,
    SyntheticHardwareModel,
    TableHardwareModel,
    Workload,
    accuracy_surrogate,
    eval_static,
    exit_profile,
    hw_latency_energy,
    hybrid_loss,
    workload_of,
)
from .genome import (
    BackboneGenome,
    BlockGenes,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    VariationParams,
    admissible_positions,
    sample_backbone,
)
from .ioe import DynamicScore, IoeConfig, dynamic_fitness, run_ioe
from .metrics import Front, hypervolume, hypervolume_mc, ratio_of_dominance
from .moea import Direction, nondominated_rows, select
from .ooe import OoeConfig, combined_rank, run_ooe, static_rank_and_prune

__version__ = "0.1.0"
