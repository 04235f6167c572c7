import math
import random
from pathlib import Path

import numpy as np
import pytest

from nestevo.config import load_config
from nestevo.evaluator import (
    HardwareModelParams,
    StaticScore,
    SurrogateParams,
    SyntheticHardwareModel,
    default_dvfs,
    eval_static,
    exit_profile,
)
from nestevo.exhaustive import enumerate_truth, space_cardinality
from nestevo.genome import (
    VariationParams,
    enumerate_backbones,
    indicator_length,
    n_inner_candidates,
)
from nestevo.ioe import DynamicScores, IoeConfig, dynamic_fitness
from nestevo.moea import Direction
from nestevo.ooe import (
    STATIC_DIRECTIONS,
    OoeConfig,
    combined_objectives,
    combined_rank,
    ioe_front_hypervolume,
    run_ooe,
    static_rank_and_prune,
)

from oracles import (
    ObjectiveVector,
    enumerate_dvfs,
    enumerate_exit_genomes,
    ioe_objectives,
    read_entries,
    state_rows,
)

HW = HardwareModelParams()
SUR = SurrogateParams()
CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def oracle_dominates(a, b):
    av = [v if d is Direction.MAXIMIZE else -v
          for v, d in zip(a.values, a.directions)]
    bv = [v if d is Direction.MAXIMIZE else -v
          for v, d in zip(b.values, b.directions)]
    return all(x >= y for x, y in zip(av, bv)) and any(
        x > y for x, y in zip(av, bv))


def bilevel_truth_keys(space, device, backend, seed, gamma=1.0, mode="vector"):
    """Independent plain-loop construction of the true bi-level front."""
    per_backbone = []
    for b in enumerate_backbones(space):
        static = eval_static(b, space, device, backend, SUR, seed)
        profile = exit_profile(b, space, SUR, seed)
        cands = [(x, f) for x in enumerate_exit_genomes(b, space)
                 for f in enumerate_dvfs(device)]
        scored = []
        for x, f in cands:
            s = dynamic_fitness(b, x, f, profile, static, space, device,
                                backend, HW, gamma)
            scored.append((x, f, s, ioe_objectives(s, mode, gamma)))
        inner = [
            (x, f, s) for x, f, s, v in scored
            if not any(oracle_dominates(v2, v) for _, _, _, v2 in scored)
        ]
        # 2-D summary volume by rectangle sweep over (effective correctness,
        # energy ratio <= 1) against (0, 1).
        pts = sorted(
            {(s.mean_correct * s.mean_dissimilarity**gamma, s.mean_energy_ratio)
             for _, _, s in inner if s.mean_energy_ratio <= 1.0},
            reverse=True,
        )
        hv = 0.0
        prev_er = 1.0
        for eff, er in pts:
            if er < prev_er:
                hv += (eff - 0.0) * (prev_er - er)
                prev_er = er
        vec = ObjectiveVector(
            (static.accuracy, static.latency_ms, static.energy_mj, hv),
            (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE,
             Direction.MAXIMIZE))
        per_backbone.append((b, static, inner, vec))

    keys = set()
    for b, static, inner, vec in per_backbone:
        if any(oracle_dominates(v2, vec) for _, _, _, v2 in per_backbone):
            continue
        for x, f, s in inner:
            keys.add((b.key(), x.key()) + f.key())
    return keys


def exhaustive_config(seed):
    return OoeConfig(
        generations=2, population=8, prune_fraction=1.0, budget=16,
        ioe=IoeConfig(generations=2, population=6, budget=12),
        seed=seed,
    )


class TestStaticRankAndPrune:
    def _statics(self, rng, n):
        return [StaticScore(rng.uniform(0.1, 0.9), rng.uniform(1, 50),
                            rng.uniform(1, 500)) for _ in range(n)]

    def test_prune_fraction_one_is_identity_membership(self):
        rng = random.Random(0)
        statics = self._statics(rng, 12)
        assert sorted(static_rank_and_prune(statics, 1.0)) == list(range(12))

    def test_heavily_dominated_member_never_selected(self):
        rng = random.Random(1)
        for _ in range(50):
            statics = self._statics(rng, 12)
            k = math.ceil(0.25 * len(statics))
            selected = static_rank_and_prune(statics, 0.25)
            assert len(selected) == k
            vectors = [ObjectiveVector((s.accuracy, s.latency_ms, s.energy_mj),
                                       STATIC_DIRECTIONS) for s in statics]
            for i in range(len(statics)):
                dominators = sum(
                    1 for j in range(len(statics))
                    if oracle_dominates(vectors[j], vectors[i]))
                if dominators >= k:
                    assert i not in selected

    def test_deterministic(self):
        rng = random.Random(2)
        statics = self._statics(rng, 20)
        assert static_rank_and_prune(statics, 0.3) == static_rank_and_prune(
            statics, 0.3)

    def test_empty_population_rejected(self):
        with pytest.raises(ValueError):
            static_rank_and_prune([], 0.5)


def make_solution(eff, er, lr=0.5, n_exits=1):
    """An inner solution's score row: its DynamicScore fields in order."""
    return (eff * er * lr, eff, er, lr, 1.0, n_exits)


def scores_of(solutions):
    """Score rows as the DynamicScores of an inner archive."""
    return DynamicScores(np.array([s[:5] for s in solutions]).reshape(-1, 5),
                         np.array([s[5] for s in solutions], dtype=int))


class TestCombinedRank:
    def test_hypervolume_summary_orders_backbones(self):
        static = StaticScore(0.5, 10.0, 100.0)
        strong = [make_solution(0.8, 0.2), make_solution(0.9, 0.4)]
        weak = [make_solution(0.4, 0.6)]
        hv_strong = ioe_front_hypervolume(scores_of(strong), 1.0)
        hv_weak = ioe_front_hypervolume(scores_of(weak), 1.0)
        assert hv_strong > hv_weak
        # The weak backbone comes first, so no tie goes to the strong one.
        values = np.array([
            combined_objectives(static, ioe_front_hypervolume(scores_of(sols),
                                                              1.0))
            for sols in (weak, strong)])
        assert combined_rank(values, 2).tolist() == [1, 0]
        assert combined_rank(values, 1).tolist() == [1]

    def test_single_candidate_rank_zero(self):
        best = combined_rank(np.array([combined_objectives(
            StaticScore(0.5, 1.0, 1.0),
            ioe_front_hypervolume(scores_of([make_solution(0.5, 0.5)]),
                                  1.0))]), 1)
        assert best.tolist() == [0]

    def test_summary_invariant_to_member_order(self):
        sols = [make_solution(0.8, 0.2), make_solution(0.5, 0.1),
                make_solution(0.9, 0.9)]
        base = ioe_front_hypervolume(scores_of(sols), 1.0)
        assert ioe_front_hypervolume(scores_of(list(reversed(sols))),
                                     1.0) == pytest.approx(
            base, abs=1e-15)

    def test_points_beyond_reference_contribute_nothing(self):
        inside = [make_solution(0.5, 0.5)]
        with_outside = inside + [make_solution(0.9, 1.5)]
        assert ioe_front_hypervolume(scores_of(with_outside),
                                     1.0) == pytest.approx(
            ioe_front_hypervolume(scores_of(inside), 1.0), abs=1e-15)

    def test_empty_archive_rejected(self):
        with pytest.raises(ValueError):
            ioe_front_hypervolume(scores_of([]), 1.0)


class TestRunOoe:
    def test_exhaustive_settings_reproduce_truth(self, toy_space):
        device = toy_space.device("toy-dev")
        backend = SyntheticHardwareModel(HW)
        config = exhaustive_config(seed=11)
        result = run_ooe(toy_space, device, backend, HW, SUR, config,
                         VariationParams())
        truth = bilevel_truth_keys(toy_space, device, backend, seed=11)
        archive_keys = {e.payload.key() for e in read_entries(result.rows)}
        assert archive_keys == truth

    def test_enumerate_truth_matches_inline_oracle(self, toy_space):
        device = toy_space.device("toy-dev")
        backend = SyntheticHardwareModel(HW)
        rows, evaluated = enumerate_truth(toy_space, device, backend, HW,
                                          SUR, seed=11, gamma=1.0)
        assert {key for key, _ in rows} == bilevel_truth_keys(
            toy_space, device, backend, seed=11)
        # Every candidate of every backbone, not the bound of
        # space_cardinality, which counts each as deep as the deepest.
        assert evaluated == sum(
            n_inner_candidates(indicator_length(b, toy_space), device)
            for b in enumerate_backbones(toy_space))
        assert evaluated < space_cardinality(toy_space, device)

    def test_enumerate_truth_builds_genomes_only_for_statics(self,
                                                             genome_objects):
        # Candidates are enumerated, scored and rendered as gene tuples and
        # score matrices; the only genome objects are the default settings
        # of the static evaluations, one per backbone.
        cfg = load_config(str(CONFIGS / "toy.yaml"))
        device = cfg.device_spec()
        n_backbones = len(list(enumerate_backbones(cfg.space)))
        default = default_dvfs(device)
        genome_objects.clear()
        rows, _ = enumerate_truth(cfg.space, device,
                                  SyntheticHardwareModel(cfg.hw), cfg.hw,
                                  cfg.surrogate, cfg.seed, cfg.ooe.ioe.gamma)
        assert rows
        assert genome_objects == [default] * n_backbones

    def test_exhaustive_equality_across_seeds(self, toy_space):
        device = toy_space.device("toy-dev")
        backend = SyntheticHardwareModel(HW)
        for seed in (1, 2, 3):
            result = run_ooe(toy_space, device, backend, HW, SUR,
                             exhaustive_config(seed), VariationParams())
            truth = bilevel_truth_keys(toy_space, device, backend, seed=seed)
            assert {e.payload.key() for e in read_entries(result.rows)} == truth

    def test_deterministic_given_seed(self, toy_space):
        device = toy_space.device("toy-dev")
        backend = SyntheticHardwareModel(HW)
        config = OoeConfig(generations=3, population=4, prune_fraction=0.5,
                           budget=12, ioe=IoeConfig(generations=2, population=4,
                                                    budget=8), seed=21)

        def run():
            result = run_ooe(toy_space, device, backend, HW, SUR, config,
                             VariationParams())
            return [(e.key, e.vector.values)
                    for e in read_entries(result.rows)]

        assert run() == run()

    def test_exit_genomes_conditioned_on_their_backbones(self, toy_space):
        device = toy_space.device("toy-dev")
        backend = SyntheticHardwareModel(HW)
        result = run_ooe(toy_space, device, backend, HW, SUR,
                         exhaustive_config(seed=41), VariationParams())
        for e in read_entries(result.rows):
            sol = e.payload
            assert len(sol.exits.indicators) == indicator_length(
                sol.backbone, toy_space)
            assert sum(sol.exits.indicators) >= 1

    def test_archive_coverage_never_regresses(self, toy_space):
        device = toy_space.device("toy-dev")
        backend = SyntheticHardwareModel(HW)
        config = OoeConfig(generations=4, population=4, prune_fraction=0.5,
                           budget=16, ioe=IoeConfig(generations=2, population=4,
                                                    budget=8), seed=51)
        history = []

        def on_gen(state):
            history.append([e.vector
                            for e in read_entries(state_rows(state))])

        run_ooe(toy_space, device, backend, HW, SUR, config, VariationParams(),
                on_generation=on_gen)
        assert len(history) == 4
        for earlier, later in zip(history, history[1:]):
            for v in earlier:
                assert any(
                    w.values == v.values or oracle_dominates(w, v)
                    for w in later
                )

    def test_budget_counters_exact(self, toy_space):
        device = toy_space.device("toy-dev")
        backend = SyntheticHardwareModel(HW)
        config = OoeConfig(generations=3, population=4, prune_fraction=0.5,
                           budget=12, ioe=IoeConfig(generations=2, population=5,
                                                    budget=10), seed=61)
        result = run_ooe(toy_space, device, backend, HW, SUR, config,
                         VariationParams())
        c = result.counters
        assert c.static_evals == 3 * 4
        assert c.forwarded_backbones == 3 * math.ceil(0.5 * 4)
        assert c.dynamic_evals == c.forwarded_backbones * 2 * 5
        # Per-generation records accumulate the same numbers.
        last = result.snapshots[-1]
        assert last.static_evals == c.static_evals
        assert last.dynamic_evals == c.dynamic_evals

    def test_config_validation(self):
        with pytest.raises(ValueError):
            OoeConfig(generations=100, population=100, budget=450)
        with pytest.raises(ValueError):
            OoeConfig(prune_fraction=0.0)

    @pytest.mark.parametrize("field", ["generations", "population", "budget"])
    @pytest.mark.parametrize("value", [2.5, 15.0, True, "15"])
    def test_counts_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            OoeConfig(**{field: value})

    def test_space_cardinality(self, toy_space):
        # 8 backbones, each counted with the deepest's 2 exit bits: 3
        # patterns times 2 settings.
        device = toy_space.device("toy-dev")
        assert toy_space.n_backbones() == 8
        assert n_inner_candidates(2, device) == 3 * 2
        assert space_cardinality(toy_space, device) == 48
