import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestevo.config import default_devices
from nestevo.evaluator import (
    ExitProfile,
    HardwareModelParams,
    SurrogateParams,
    SyntheticHardwareModel,
    eval_static,
    exit_profile,
    layer_workloads,
)
from nestevo.genome import (
    BackboneGenome,
    BlockGenes,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    VariationParams,
    indicator_length,
    n_inner_candidates,
    sample_backbone,
)
from nestevo.ioe import (
    OBJECTIVE_DIRECTIONS,
    IoeConfig,
    _DynamicEvaluator,
    _distinct,
    _sample,
    dynamic_fitness,
    gene_sizes,
    ioe_objective_matrix,
    run_ioe,
    uniforms,
)
from nestevo.metrics import Front, hypervolume
from nestevo.moea import Direction

from oracles import (
    ObjectiveVector,
    UnionMaskArchive,
    dissimilarity,
    dominates,
    enumerate_dvfs,
    enumerate_exit_genomes,
    exit_score,
    fraction_at,
    ioe_objectives,
)

QUAD_DEVICE = DeviceSpec("quad", (0.5, 1.0, 1.5, 2.0), (), default_compute_idx=3)


def profile_of(fractions, positions=None, final_accuracy=None):
    positions = positions or tuple(range(5, 5 + len(fractions)))
    return ExitProfile(tuple(positions), tuple(fractions),
                       final_accuracy if final_accuracy is not None
                       else max(fractions))


class TestDissimilarity:
    def test_first_exit_gets_one(self):
        p = profile_of((0.3, 0.6))
        assert dissimilarity(p, [5, 6], 0) == 1.0

    def test_predecessor_max_subtracted(self):
        # 1 - max(0.3, 0.6) = 0.4, direct substitution.
        p = profile_of((0.3, 0.6, 0.7))
        assert dissimilarity(p, [5, 6, 7], 2) == pytest.approx(0.4, abs=1e-15)

    def test_saturated_predecessor(self):
        p = profile_of((1.0, 1.0), final_accuracy=1.0)
        assert dissimilarity(p, [5, 6], 1) == 0.0

    def test_validation(self):
        p = profile_of((0.3, 0.6))
        with pytest.raises(ValueError):
            dissimilarity(p, [6, 5], 0)
        with pytest.raises(ValueError):
            dissimilarity(p, [5, 6], 2)


class TestExitScore:
    def test_hand_value(self):
        assert exit_score(0.6, 0.3, 0.4, 1.0, 1.0) == pytest.approx(0.072, abs=1e-15)

    def test_gamma_zero_neutralizes_dissim(self):
        for d in (0.0, 0.25, 1.0):
            assert exit_score(0.5, 0.5, 0.5, d, 0.0) == pytest.approx(
                0.125, abs=1e-15)

    def test_zero_fraction_annihilates(self):
        assert exit_score(0.0, 0.9, 0.9, 1.0, 1.0) == 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            exit_score(0.5, 0.0, 0.5, 1.0, 1.0)
        with pytest.raises(ValueError):
            exit_score(0.5, 0.5, 0.5, 1.5, 1.0)
        with pytest.raises(ValueError):
            exit_score(0.5, 0.5, 0.5, 0.5, -1.0)


def toy_backbone(toy_space, depth):
    return BackboneGenome(0, (BlockGenes(toy_space.depth_domain.index(depth),
                                         0, 0, 0),))


def straight_line_scores(b, x, f, profile, static, space, device, hw, gamma):
    """Independent per-exit recomputation, plain loops only."""
    flops, byts = layer_workloads(b, space)
    positions = [space.exit_min_position + i
                 for i, bit in enumerate(x.indicators) if bit]
    f_c = device.compute_freq_ghz[f.compute_idx]
    f_m = (device.emc_freq_ghz[f.emc_idx] if device.has_emc else f_c)
    scores = []
    best = 0.0
    overhead = 0.0
    for pos in positions:
        overhead += hw.exit_overhead_fraction * flops[pos - 1]
        pre_f = sum(flops[:pos]) + overhead
        pre_b = sum(byts[:pos])
        lat = pre_f / (hw.kappa_compute * f_c) + pre_b / (hw.kappa_memory * f_m)
        power = hw.p0 + hw.p1 * f_c**3 + hw.p2 * f_m
        energy = power * lat / 1e3
        n = fraction_at(profile, pos)
        d = 1.0 - best
        best = max(best, n)
        scores.append(n * (energy / static.energy_mj)
                      * (lat / static.latency_ms) * d**gamma)
    return scores


class TestDynamicFitness:
    def _setup(self, toy_space, depth=7):
        b = toy_backbone(toy_space, depth)
        device = toy_space.device("toy-dev")
        hw = HardwareModelParams()
        backend = SyntheticHardwareModel(hw)
        sur = SurrogateParams()
        static = eval_static(b, toy_space, device, backend, sur, seed=0)
        profile = exit_profile(b, toy_space, sur, seed=0)
        return b, device, hw, backend, static, profile

    def test_single_exit_mean_identity(self, toy_space):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        x = ExitGenome((1, 0))
        f = DvfsGenome("toy-dev", 0)
        score = dynamic_fitness(b, x, f, profile, static, toy_space, device,
                                backend, hw, gamma=1.0)
        expected = straight_line_scores(b, x, f, profile, static, toy_space,
                                        device, hw, 1.0)
        assert score.n_exits == 1
        assert score.mean_exit_score == pytest.approx(expected[0], abs=1e-15)

    def test_two_exit_mean_of_scores(self, toy_space):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        x = ExitGenome((1, 1))
        f = DvfsGenome("toy-dev", 1)
        score = dynamic_fitness(b, x, f, profile, static, toy_space, device,
                                backend, hw, gamma=1.0)
        expected = straight_line_scores(b, x, f, profile, static, toy_space,
                                        device, hw, 1.0)
        assert score.mean_exit_score == pytest.approx(
            sum(expected) / 2.0, abs=1e-15)

    def test_last_position_default_freq_latency_ratio_below_one(self, toy_space):
        b, device, _, _, static, profile = self._setup(toy_space)
        hw = HardwareModelParams(exit_overhead_fraction=0.0)
        backend = SyntheticHardwareModel(hw)
        x = ExitGenome((0, 1))  # last admissible position (layer 6 of 7)
        f = DvfsGenome("toy-dev", device.default_compute_idx)
        score = dynamic_fitness(b, x, f, profile, static, toy_space, device,
                                backend, hw, gamma=1.0)
        assert score.mean_latency_ratio < 1.0

    def test_purity(self, toy_space):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        x = ExitGenome((1, 1))
        f = DvfsGenome("toy-dev", 0)
        s1 = dynamic_fitness(b, x, f, profile, static, toy_space, device,
                             backend, hw, gamma=1.0)
        s2 = dynamic_fitness(b, x, f, profile, static, toy_space, device,
                             backend, hw, gamma=1.0)
        assert s1 == s2

    def test_gamma_zero_equals_plain_product_mean(self, toy_space):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        x = ExitGenome((1, 1))
        f = DvfsGenome("toy-dev", 1)
        score = dynamic_fitness(b, x, f, profile, static, toy_space, device,
                                backend, hw, gamma=0.0)
        expected = straight_line_scores(b, x, f, profile, static, toy_space,
                                        device, hw, 0.0)
        assert score.mean_exit_score == pytest.approx(
            sum(expected) / len(expected), abs=1e-15)

    def test_unconditioned_exit_genome_rejected(self, toy_space):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        with pytest.raises(ValueError):
            dynamic_fitness(b, ExitGenome((1, 0, 1)), DvfsGenome("toy-dev", 0),
                            profile, static, toy_space, device, backend, hw, 1.0)


class TestIoeObjectives:
    def _score(self):
        from nestevo.ioe import DynamicScore
        return DynamicScore(0.1, 0.4, 0.5, 0.6, 0.8, 2)

    def test_scalar_mode(self):
        v = ioe_objectives(self._score(), "scalar", 1.0)
        assert v.values == (0.1,)
        assert v.directions == (Direction.MAXIMIZE,)

    def test_vector_mode(self):
        v = ioe_objectives(self._score(), "vector", 1.0)
        assert len(v) == 3
        assert v.values[0] == pytest.approx(0.4 * 0.8, abs=1e-15)
        assert v.values[1:] == (0.5, 0.6)
        assert v.directions == (Direction.MAXIMIZE, Direction.MINIMIZE,
                                Direction.MINIMIZE)

    def test_lower_energy_dominates(self):
        from nestevo.ioe import DynamicScore
        a = ioe_objectives(DynamicScore(0.1, 0.4, 0.3, 0.6, 0.8, 2), "vector", 1.0)
        b = ioe_objectives(DynamicScore(0.1, 0.4, 0.5, 0.6, 0.8, 2), "vector", 1.0)
        assert dominates(a, b)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            ioe_objectives(self._score(), "weighted", 1.0)


def solution_keys(result, device) -> set:
    """A result's candidate keys, as exhaustive_inner_front spells them."""
    return {fields[:4] for fields in result.solution_fields(device)}


def exhaustive_inner_front(b, space, device, backend, hw, profile, static,
                           gamma, mode):
    """Oracle: evaluate every candidate, keep the non-dominated keys."""
    items = []
    for x in enumerate_exit_genomes(b, space):
        for f in enumerate_dvfs(device):
            score = dynamic_fitness(b, x, f, profile, static, space, device,
                                    backend, hw, gamma)
            items.append(((x.key(),) + f.key(),
                          ioe_objectives(score, mode, gamma)))
    keys = set()
    for key, vec in items:
        if not any(dominates(other, vec) for _, other in items):
            keys.add(key)
    return keys


def run_with_oracle(monkeypatch, *args, **kwargs):
    """run_ioe(*args, **kwargs), with every population it evaluates also
    merged into a UnionMaskArchive (the inner archive run_ioe kept before):
    keys are gene tuples, payloads the scores' bytes.  Asserts that the
    result is that archive's final state, with the evaluation count, and
    returns the result and the archive's entries after each generation."""
    config = args[5]
    oracle = UnionMaskArchive()
    history = []
    evaluated = []
    evaluate = _DynamicEvaluator.evaluate_batch

    def feeding(self, candidates):
        scores = evaluate(self, candidates)
        values, directions = ioe_objective_matrix(
            scores, config.objective_mode, config.gamma)
        oracle.merge_batch([
            (tuple(genes), (means.tobytes(), n.tobytes()),
             ObjectiveVector(tuple(row), directions))
            for genes, means, n, row in zip(candidates.tolist(), scores.means,
                                            scores.n_exits, values.tolist())])
        history.append(list(oracle.entries))
        evaluated.append(len(candidates))
        return scores

    with monkeypatch.context() as patch:
        patch.setattr(_DynamicEvaluator, "evaluate_batch", feeding)
        result = run_ioe(*args, **kwargs)
    assert result.solutions == tuple(e.key for e in oracle.entries)
    assert [(means.tobytes(), n.tobytes()) for means, n in
            zip(result.scores.means, result.scores.n_exits)] == [
        e.payload for e in oracle.entries]
    assert result.n_dynamic_evals == sum(evaluated)
    return result, history


@pytest.mark.parametrize("mode", ["vector", "scalar"])
@pytest.mark.parametrize("seed", range(20))
def test_result_is_the_merged_archive(full_space, toy_space, monkeypatch,
                                      mode, seed):
    # An odd population on a backbone of the default space, and the toy
    # backbone whose 12 candidates the first generation enumerates whole.
    hw = HardwareModelParams()
    backend = SyntheticHardwareModel(hw)
    sur = SurrogateParams()
    rng = random.Random(seed)
    for space, b, device, config in [
            (full_space, sample_backbone(full_space, rng),
             full_space.device("agx-volta-gpu"),
             IoeConfig(generations=8, population=31, budget=248,
                       objective_mode=mode)),
            (toy_space, toy_backbone(toy_space, 7), QUAD_DEVICE,
             IoeConfig(generations=3, population=13, budget=39,
                       objective_mode=mode))]:
        run_with_oracle(monkeypatch, b, space, device, backend, hw, config,
                        VariationParams(), rng,
                        profile=exit_profile(b, space, sur, seed=0),
                        static=eval_static(b, space, device, backend, sur,
                                           seed=0))


class TestRunIoe:
    def _setup(self, toy_space):
        b = toy_backbone(toy_space, 7)
        device = QUAD_DEVICE
        hw = HardwareModelParams()
        backend = SyntheticHardwareModel(hw)
        sur = SurrogateParams()
        static = eval_static(b, toy_space, device, backend, sur, seed=0)
        profile = exit_profile(b, toy_space, sur, seed=0)
        return b, device, hw, backend, static, profile

    def test_archive_equals_exhaustive_front(self, toy_space):
        # 3 indicator patterns x 4 frequency levels = 12 candidates.
        b, device, hw, backend, static, profile = self._setup(toy_space)
        config = IoeConfig(generations=3, population=12, budget=36)
        result = run_ioe(b, toy_space, device, backend, hw, config,
                         VariationParams(), random.Random(0),
                         profile=profile, static=static)
        expected = exhaustive_inner_front(b, toy_space, device, backend, hw,
                                          profile, static, config.gamma,
                                          config.objective_mode)
        assert solution_keys(result, device) == expected
        assert result.n_dynamic_evals == 36

    def test_single_generation_full_population(self, toy_space):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        config = IoeConfig(generations=1, population=12, budget=12)
        result = run_ioe(b, toy_space, device, backend, hw, config,
                         VariationParams(), random.Random(5),
                         profile=profile, static=static)
        expected = exhaustive_inner_front(b, toy_space, device, backend, hw,
                                          profile, static, config.gamma,
                                          config.objective_mode)
        assert solution_keys(result, device) == expected

    def test_fixed_seed_reproducible(self, toy_space, monkeypatch):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        config = IoeConfig(generations=4, population=8, budget=32)

        def run(seed):
            """The oracle archive's keys after each generation, then the
            result."""
            result, history = run_with_oracle(
                monkeypatch, b, toy_space, device, backend, hw, config,
                VariationParams(), random.Random(seed), profile=profile,
                static=static)
            return ([sorted(e.key for e in entries) for entries in history],
                    result.solutions, result.scores.means.tolist(),
                    result.scores.n_exits.tolist())

        assert run(42) == run(42)
        # 8 distinct samples of the 12 candidates: the seed decides which,
        # and so the first generation's archive.
        assert run(42)[0][0] != run(43)[0][0]

    def test_archive_nondominated_every_generation(self, toy_space,
                                                   monkeypatch):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        config = IoeConfig(generations=5, population=6, budget=30)
        _, history = run_with_oracle(
            monkeypatch, b, toy_space, device, backend, hw, config,
            VariationParams(), random.Random(1), profile=profile, static=static)
        assert len(history) == 5
        assert all(not any(dominates(p.vector, q.vector)
                           for p in entries for q in entries)
                   for entries in history)

    def test_archive_hypervolume_nondecreasing(self, toy_space, monkeypatch):
        b, device, hw, backend, static, profile = self._setup(toy_space)
        config = IoeConfig(generations=6, population=6, budget=36)
        _, history = run_with_oracle(
            monkeypatch, b, toy_space, device, backend, hw, config,
            VariationParams(), random.Random(2), profile=profile, static=static)
        volumes = [hypervolume(Front(np.array([e.vector.values for e in entries]),
                                     OBJECTIVE_DIRECTIONS["vector"],
                                     (0.0, 50.0, 50.0)))
                   for entries in history]
        assert all(a <= b + 1e-12 for a, b in zip(volumes, volumes[1:]))

    def test_genome_objects_only_at_the_ends(self, full_space, toy_space,
                                             genome_objects):
        # Sampling, enumeration, breeding, evaluation and the result work on
        # gene tuples and score matrices: between the static evaluation and
        # the caller's reading of the result, no ExitGenome, DvfsGenome or
        # DynamicScore is built.  Three backbones: one of the default space;
        # a 1-block one with 3 exit bits on carmel-cpu (203 candidates),
        # whose first generation rejects many repeated samples; and the toy
        # one on QUAD_DEVICE, whose 12 candidates are enumerated.
        one_block = SearchSpaceSpec(n_block=1, depth_domain=(8,),
                                    device_specs=full_space.device_specs)
        hw = HardwareModelParams()
        backend = SyntheticHardwareModel(hw)
        sur = SurrogateParams()
        config = IoeConfig(generations=10, population=100, budget=1000)
        rng = random.Random(8)
        one = BackboneGenome(0, (BlockGenes(0, 3, 1, 2),))
        for space, b, device, config in [
                (full_space, sample_backbone(full_space, rng),
                 full_space.device("agx-volta-gpu"), config),
                (one_block, one, one_block.device("carmel-cpu"), config),
                (toy_space, toy_backbone(toy_space, 7), QUAD_DEVICE,
                 IoeConfig(generations=3, population=12, budget=36))]:
            static = eval_static(b, space, device, backend, sur, seed=0)
            genome_objects.clear()
            result = run_ioe(b, space, device, backend, hw, config,
                             VariationParams(), rng,
                             profile=exit_profile(b, space, sur, seed=0),
                             static=static)
            assert genome_objects == []
            assert len(result.solutions) == len(result.scores.means) > 0
        assert indicator_length(one, one_block) == 3
        assert n_inner_candidates(indicator_length(b, toy_space),
                                  QUAD_DEVICE) == 12

    def test_budget_invariant_enforced(self):
        with pytest.raises(ValueError):
            IoeConfig(generations=10, population=100, budget=500)
        with pytest.raises(ValueError):
            IoeConfig(gamma=-0.5)
        with pytest.raises(ValueError):
            IoeConfig(objective_mode="other")

    @pytest.mark.parametrize("field", ["generations", "population", "budget"])
    @pytest.mark.parametrize("value", [2.5, 35.0, True, "35"])
    def test_counts_must_be_ints(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            IoeConfig(**{field: value})

    def test_nan_gamma_rejected(self):
        # NaN fails `gamma < 0` as well as `gamma >= 0`.
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            IoeConfig(gamma=math.nan)


@settings(max_examples=200, deadline=None)
@given(n_bits=st.integers(1, 41), emc=st.booleans(),
       seed=st.integers(0, 2**32), n=st.integers(0, 9))
def test_sampled_candidates_follow_the_block(n_bits, emc, seed, n):
    # One block: n rows of genes floor(u * size), then one repair draw per
    # row; a row without an exit gets the bit floor(u * n_bits).
    device = next(d for d in default_devices() if d.has_emc == emc)
    sizes = gene_sizes(n_bits, device)
    ours, theirs = random.Random(seed), random.Random(seed)
    got = _sample(n, n_bits, sizes, ours).tolist()
    u = uniforms(theirs, n * len(sizes) + n).tolist()
    assert ours.getstate() == theirs.getstate()
    for i, row in enumerate(got):
        genes = [int(v * size) for v, size in
                 zip(u[i * len(sizes):(i + 1) * len(sizes)], sizes.tolist())]
        if not any(genes[:n_bits]):
            genes[int(u[n * len(sizes) + i] * n_bits)] = 1
        assert row == genes
        assert 1 in row[:n_bits]



@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(
    st.sampled_from([0.0, -0.0, math.nan, 0.25, 0.5, 1.0]),
    st.floats(0.0, 1.0)), min_size=1, max_size=12))
def test_distinct_values_are_those_of_np_unique(values):
    # Repeats, both zeros and NaNs: the same values, bit for bit, NaNs
    # collapsed into one as np.unique(equal_nan=True) does.
    values = np.array(values)
    assert _distinct(values).tobytes() == np.unique(values).tobytes()


ROOT = Path(__file__).resolve().parent.parent

# Runs one CLI command in a fresh interpreter, then prints whether numpy.ma
# was ever imported.
LOADS_MA = """
import sys
from nestevo.cli import main
main.main(sys.argv[1:], standalone_mode=False)
print("numpy.ma" in sys.modules)
"""


@pytest.mark.parametrize("command", ["search", "ablate-dissim"])
def test_commands_never_load_numpy_ma(tmp_path, command):
    # np.unique imports numpy.ma on its first call: about 9 ms and 1.2 MB in
    # the main process and in every worker.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", LOADS_MA, command, "--config",
         str(ROOT / "configs" / "toy.yaml"), "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "False"
