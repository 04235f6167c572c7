import math
import random

import pytest

from nestevo.genome import (
    BackboneGenome,
    BlockGenes,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    VariationParams,
    admissible_positions,
    crossover_backbone,
    crossover_dvfs,
    crossover_exit,
    enumerate_backbones,
    enumerate_dvfs,
    enumerate_exit_genomes,
    indicator_length,
    mutate_backbone,
    mutate_dvfs,
    mutate_exit,
    n_inner_candidates,
    sample_backbone,
    sample_dvfs,
    sample_exit_genome,
    sampled_positions,
    total_layers,
    validate_backbone,
)
from tests.conftest import EMC_DEVICE, TOY_DEVICE


class TestSpaceValidation:
    def test_rejects_empty_domain(self):
        with pytest.raises(ValueError):
            SearchSpaceSpec(kernel_domain=())

    def test_rejects_space_without_exits(self):
        with pytest.raises(ValueError):
            SearchSpaceSpec(n_block=1, depth_domain=(1, 2), exit_min_position=5)

    def test_device_frequency_validation(self):
        with pytest.raises(ValueError):
            DeviceSpec("bad", (1.0, 0.5))
        with pytest.raises(ValueError):
            DeviceSpec("bad", (0.5, -1.0))
        with pytest.raises(ValueError):
            DeviceSpec("bad", (0.5, 1.0), default_compute_idx=5)

    @pytest.mark.parametrize("name", ["", "a\rb", "a\nb", "a\r\nb", "ab\r",
                                      5, None, b"ab"])
    def test_device_name_validation(self, name):
        # front.csv leaves a bare \r unquoted, so a name holding one would
        # split its row in two when read back.
        with pytest.raises(ValueError, match="device name"):
            DeviceSpec(name, (0.5, 1.0))

    def test_device_name_may_hold_quotes_commas_and_non_ascii(self):
        name = 'Jetson "ÅGX", rev\t2'
        assert DeviceSpec(name, (0.5, 1.0)).name == name

    def test_n_backbones(self, toy_space):
        assert toy_space.n_backbones() == 8

    @pytest.mark.parametrize("value", [1.5, 2.0, True, "2"])
    def test_tournament_size_must_be_an_int(self, value):
        with pytest.raises(ValueError, match="tournament_size must be an integer"):
            VariationParams(tournament_size=value)


class TestSampleBackbone:
    def test_layer_bounds_and_validity(self, full_space):
        rng = random.Random(42)
        for _ in range(200):
            b = sample_backbone(full_space, rng)
            validate_backbone(b, full_space)
            assert 7 <= total_layers(b, full_space) <= 56
            assert total_layers(b, full_space) >= full_space.exit_min_position + 1

    def test_fixed_seed_reproducible(self, full_space):
        a = sample_backbone(full_space, random.Random(42))
        b = sample_backbone(full_space, random.Random(42))
        assert a == b

    def test_kernel_frequencies_binomial(self, full_space):
        # 5-sigma band around n/2 for each kernel value, sigma = sqrt(n/4).
        rng = random.Random(1)
        n = 10_000
        counts = {0: 0, 1: 0}
        for _ in range(n):
            b = sample_backbone(full_space, rng)
            counts[b.blocks[0].kernel_idx] += 1
        sigma = math.sqrt(n / 4)
        for idx in (0, 1):
            assert abs(counts[idx] - n / 2) <= 5 * sigma

    def test_repair_restores_exit_bound(self, small_space):
        # Blocks at minimum depth give 4 layers, below the required 6.
        rng = random.Random(7)
        for _ in range(500):
            b = sample_backbone(small_space, rng)
            assert total_layers(b, small_space) >= 6


class TestExitSampling:
    def _backbone(self, space, depths):
        blocks = tuple(BlockGenes(space.depth_domain.index(d), 0, 0, 0)
                       for d in depths)
        return BackboneGenome(0, blocks)

    def test_forced_single_position(self, toy_space):
        b = self._backbone(toy_space, (6,))
        rng = random.Random(2)
        for _ in range(50):
            x = sample_exit_genome(b, toy_space, rng)
            assert x.indicators == (1,)

    def test_length_matches_backbone(self, full_space):
        rng = random.Random(3)
        for _ in range(100):
            b = sample_backbone(full_space, rng)
            x = sample_exit_genome(b, full_space, rng)
            assert len(x.indicators) == total_layers(b, full_space) - 5

    def test_repair_distribution_matches_enumeration(self, full_space):
        # Oracle: enumerate all 2^7 raw patterns; the all-zero pattern is
        # repaired to a single set bit, so E[bits] = (sum popcounts + 1)/128.
        length = 7
        popcounts = [bin(v).count("1") for v in range(2**length)]
        expected_mean = (sum(popcounts) + 1) / 2**length
        sq = [(c if c else 1) ** 2 for c in popcounts]
        variance = sum(sq) / 2**length - expected_mean**2

        blocks = tuple(BlockGenes(i, 0, 0, 0) for i in (5, 4))  # depths 6 + 5
        space = SearchSpaceSpec(n_block=2, resolution_domain=(32,),
                                depth_domain=(1, 2, 3, 4, 5, 6),
                                width_domain=(16,), kernel_domain=(3,),
                                expand_domain=(1,), exit_min_position=4)
        b = BackboneGenome(0, blocks)
        assert indicator_length(b, space) == length

        rng = random.Random(5)
        n = 10_000
        total_bits = 0
        for _ in range(n):
            x = sample_exit_genome(b, space, rng)
            assert x.n_exits >= 1
            total_bits += x.n_exits
        mean = total_bits / n
        sigma = math.sqrt(variance / n)
        assert abs(mean - expected_mean) <= 5 * sigma


class TestAdmissiblePositions:
    def test_seven_layers(self, toy_space):
        b = BackboneGenome(0, (BlockGenes(1, 0, 0, 0),))  # depth 7
        assert admissible_positions(b, toy_space) == [5, 6]

    def test_six_layers_single_position(self, toy_space):
        b = BackboneGenome(0, (BlockGenes(0, 0, 0, 0),))  # depth 6
        assert admissible_positions(b, toy_space) == [5]

    def test_full_depth_count(self, full_space):
        b = BackboneGenome(0, tuple(BlockGenes(7, 0, 0, 0) for _ in range(7)))
        assert total_layers(b, full_space) == 56
        assert len(admissible_positions(b, full_space)) == 51

    def test_sampled_positions(self, toy_space):
        x = ExitGenome((1, 0))
        assert sampled_positions(x, toy_space) == [5]
        assert sampled_positions(ExitGenome((0, 1)), toy_space) == [6]


class TestMutation:
    def test_prob_zero_is_identity(self, full_space, rng):
        params = VariationParams(mutation_prob_per_gene=0.0)
        b = sample_backbone(full_space, rng)
        assert mutate_backbone(b, full_space, params, rng) == b
        x = sample_exit_genome(b, full_space, rng)
        assert mutate_exit(x, params, rng) == x
        f = sample_dvfs(EMC_DEVICE, rng)
        assert mutate_dvfs(f, EMC_DEVICE, params, rng) == f

    def test_prob_one_kernel_uniform(self, full_space):
        params = VariationParams(mutation_prob_per_gene=1.0)
        rng = random.Random(11)
        base = sample_backbone(full_space, rng)
        n = 10_000
        counts = {0: 0, 1: 0}
        for _ in range(n):
            counts[mutate_backbone(base, full_space, params, rng)
                   .blocks[0].kernel_idx] += 1
        sigma = math.sqrt(n / 4)
        for idx in (0, 1):
            assert abs(counts[idx] - n / 2) <= 5 * sigma

    def test_exit_length_one_keeps_a_bit(self):
        params = VariationParams(mutation_prob_per_gene=1.0)
        rng = random.Random(13)
        x = ExitGenome((1,))
        for _ in range(100):
            assert mutate_exit(x, params, rng).n_exits >= 1

    def test_input_not_modified(self, full_space, rng):
        params = VariationParams(mutation_prob_per_gene=1.0)
        b = sample_backbone(full_space, rng)
        snapshot = b.key()
        mutate_backbone(b, full_space, params, rng)
        assert b.key() == snapshot


class TestCrossover:
    def test_prob_zero_children_equal_parents(self, full_space, rng):
        params = VariationParams(crossover_prob=0.0)
        pa = sample_backbone(full_space, rng)
        pb = sample_backbone(full_space, rng)
        ca, cb = crossover_backbone(pa, pb, full_space, params, rng)
        assert ca == pa and cb == pb

    def test_identical_parents_fixed_point(self, full_space, rng):
        params = VariationParams(crossover_prob=1.0)
        p = sample_backbone(full_space, rng)
        ca, cb = crossover_backbone(p, p, full_space, params, rng)
        assert ca == p and cb == p

    def test_exit_child_bits_from_parents(self):
        # Parents share a set bit so repair can never fire, making the
        # per-bit membership check exact.
        params = VariationParams(crossover_prob=0.5)
        rng = random.Random(17)
        for _ in range(1000):
            bits_a = [rng.randrange(2) for _ in range(7)]
            bits_b = [rng.randrange(2) for _ in range(7)]
            shared = rng.randrange(7)
            bits_a[shared] = bits_b[shared] = 1
            pa, pb = ExitGenome(tuple(bits_a)), ExitGenome(tuple(bits_b))
            ca, cb = crossover_exit(pa, pb, params, rng)
            for child in (ca, cb):
                for i, bit in enumerate(child.indicators):
                    assert bit in (pa.indicators[i], pb.indicators[i])

    def test_mismatched_lengths_raise(self, rng):
        params = VariationParams()
        with pytest.raises(ValueError):
            crossover_exit(ExitGenome((1, 0)), ExitGenome((1, 0, 1)), params, rng)
        with pytest.raises(ValueError):
            crossover_dvfs(DvfsGenome("toy-dev", 0), DvfsGenome("emc-dev", 0, 0),
                           params, rng)

    def test_dvfs_swap(self, rng):
        params = VariationParams(crossover_prob=1.0)
        pa = DvfsGenome("emc-dev", 0, 1)
        pb = DvfsGenome("emc-dev", 2, 0)
        ca, cb = crossover_dvfs(pa, pb, params, rng)
        assert ca == pb and cb == pa


class TestDeterminismAndInvariants:
    def test_operators_pure_given_stream(self, small_space):
        def run(seed):
            rng = random.Random(seed)
            params = VariationParams()
            out = []
            b = sample_backbone(small_space, rng)
            for _ in range(50):
                b2 = sample_backbone(small_space, rng)
                b, _ = crossover_backbone(b, b2, small_space, params, rng)
                b = mutate_backbone(b, small_space, params, rng)
                out.append(b.key())
            return out

        assert run(99) == run(99)

    def test_invariant_sweep_100k_operations(self, small_space):
        rng = random.Random(12345)
        params = VariationParams(mutation_prob_per_gene=0.3, crossover_prob=0.5)
        device = EMC_DEVICE
        b = sample_backbone(small_space, rng)
        x = sample_exit_genome(b, small_space, rng)
        f = sample_dvfs(device, rng)
        for i in range(100_000):
            op = i % 5
            if op == 0:
                b2 = sample_backbone(small_space, rng)
                b, _ = crossover_backbone(b, b2, small_space, params, rng)
                x = sample_exit_genome(b, small_space, rng)
            elif op == 1:
                b = mutate_backbone(b, small_space, params, rng)
                x = sample_exit_genome(b, small_space, rng)
            elif op == 2:
                x = mutate_exit(x, params, rng)
            elif op == 3:
                x2 = sample_exit_genome(b, small_space, rng)
                x, _ = crossover_exit(x, x2, params, rng)
            else:
                f = mutate_dvfs(f, device, params, rng)
            validate_backbone(b, small_space)
            assert x.n_exits >= 1
            assert len(x.indicators) == indicator_length(b, small_space)
            assert 0 <= f.compute_idx < len(device.compute_freq_ghz)
            assert f.emc_idx is not None and 0 <= f.emc_idx < len(device.emc_freq_ghz)


class TestEnumeration:
    def test_toy_backbone_count(self, toy_space):
        assert len(list(enumerate_backbones(toy_space))) == 8

    def test_exit_patterns_nonzero(self, toy_space):
        b = BackboneGenome(0, (BlockGenes(1, 0, 0, 0),))  # 7 layers, 2 positions
        patterns = list(enumerate_exit_genomes(b, toy_space))
        assert sorted(p.indicators for p in patterns) == [(0, 1), (1, 0), (1, 1)]

    def test_dvfs_enumeration(self):
        assert len(list(enumerate_dvfs(TOY_DEVICE))) == 2
        assert len(list(enumerate_dvfs(EMC_DEVICE))) == 6

    def test_inner_candidate_count(self, toy_space):
        b = BackboneGenome(0, (BlockGenes(1, 0, 0, 0),))
        assert n_inner_candidates(b, toy_space, TOY_DEVICE) == 6
        assert n_inner_candidates(b, toy_space, EMC_DEVICE) == 18
