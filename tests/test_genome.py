import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nestevo.config import default_devices
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
    crossover_genes,
    enumerate_backbones,
    enumerate_candidates,
    indicator_length,
    mutate_backbone,
    mutate_genes,
    n_inner_candidates,
    sample_backbone,
    sample_exit_genome,
    total_layers,
    validate_backbone,
)
from nestevo.ioe import crossover_candidates, mutate_candidate
from oracles import (
    candidate_genes,
    enumerate_dvfs,
    enumerate_exit_genomes,
    sample_dvfs,
    sampled_positions,
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
            assert sum(x.indicators) >= 1
            total_bits += sum(x.indicators)
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
        c = candidate_genes(sample_exit_genome(b, full_space, rng),
                            sample_dvfs(EMC_DEVICE, rng))
        n_bits = indicator_length(b, full_space)
        assert mutate_candidate(c, n_bits, EMC_DEVICE, params, rng) == c

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
        c = (1, 0)
        for _ in range(100):
            assert mutate_candidate(c, 1, TOY_DEVICE, params, rng)[0] == 1

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
            pa = tuple(bits_a) + (rng.randrange(3), rng.randrange(2))
            pb = tuple(bits_b) + (rng.randrange(3), rng.randrange(2))
            ca, cb = crossover_candidates(pa, pb, 7, params, rng)
            for child in (ca, cb):
                for i, gene in enumerate(child):
                    assert gene in (pa[i], pb[i])

    def test_mismatched_lengths_raise(self, rng):
        with pytest.raises(ValueError):
            crossover_genes((1, 0), (1, 0, 1), 0.5, rng)
        with pytest.raises(ValueError):
            mutate_genes((1, 0), (2, 2, 2), 0.5, rng)
        pa = BackboneGenome(0, (BlockGenes(0, 0, 0, 0),) * 2)
        pb = BackboneGenome(0, (BlockGenes(0, 0, 0, 0),) * 3)
        with pytest.raises(ValueError):
            crossover_backbone(pa, pb, SearchSpaceSpec(), VariationParams(), rng)

    def test_dvfs_swap(self, rng):
        params = VariationParams(crossover_prob=1.0)
        pa = candidate_genes(ExitGenome((1, 0)), DvfsGenome("emc-dev", 0, 1))
        pb = candidate_genes(ExitGenome((0, 1)), DvfsGenome("emc-dev", 2, 0))
        ca, cb = crossover_candidates(pa, pb, 2, params, rng)
        assert ca == pb and cb == pa


class TestGeneOperators:
    def test_prob_zero_is_identity(self):
        rng = random.Random(19)
        a, b = (0, 1, 2, 3, 1), (4, 0, 2, 1, 0)
        assert crossover_genes(a, b, 0.0, rng) == (a, b)
        assert mutate_genes(a, (5,) * 5, 0.0, rng) == a

    def test_prob_one_redraws_every_gene(self):
        # One random() and one randrange() per gene, in gene order.
        sizes = (2, 7, 3, 5)
        rng, replay = random.Random(29), random.Random(29)
        expected = []
        for n in sizes:
            replay.random()
            expected.append(replay.randrange(n))
        assert mutate_genes((0, 0, 0, 0), sizes, 1.0, rng) == tuple(expected)
        assert rng.getstate() == replay.getstate()


def _twins(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


PROBS = st.sampled_from([0.0, 0.1, 0.5, 1.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 41), st.sampled_from([EMC_DEVICE, TOY_DEVICE]), PROBS,
       PROBS, st.sampled_from([0.0, 0.1, 0.5]), st.integers(0, 2**32))
def test_inner_breeding_matches_object_operators(n_bits, device, p_cross, p_mut,
                                                 density, seed):
    """Crossover then mutation of each child, as the inner engine breeds,
    against the object operators: the same children from the same draws.
    Sparse parents may have no exit set, so that repair fires."""
    params = VariationParams(mutation_prob_per_gene=p_mut, crossover_prob=p_cross)
    rng = random.Random(seed)
    parents = [(ExitGenome(tuple(int(rng.random() < density)
                                 for _ in range(n_bits))),
                sample_dvfs(device, rng)) for _ in range(2)]
    old, new = _twins(seed)
    (xa, xb), (fa, fb) = (oracles.crossover_exit(parents[0][0], parents[1][0],
                                                 params, old),
                          oracles.crossover_dvfs(parents[0][1], parents[1][1],
                                                 params, old))
    children = crossover_candidates(*(candidate_genes(*p) for p in parents),
                                    n_bits, params, new)
    assert children == (candidate_genes(xa, fa), candidate_genes(xb, fb))
    assert new.getstate() == old.getstate()
    for (x, f), c in zip(((xa, fa), (xb, fb)), children):
        expected = candidate_genes(oracles.mutate_exit(x, params, old),
                                   oracles.mutate_dvfs(f, device, params, old))
        assert mutate_candidate(c, n_bits, device, params, new) == expected
        assert new.getstate() == old.getstate()


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["small", "full"]), PROBS, PROBS, st.integers(0, 2**32))
def test_backbone_variation_matches_object_operators(which, p_cross, p_mut, seed):
    # The small space's shallow blocks make repair fire often.  Its parents
    # are left unrepaired, so that both children may need repair and the
    # order of the two repairs shows.
    space = (SearchSpaceSpec(n_block=2, depth_domain=(1, 2, 3, 4),
                             exit_min_position=5) if which == "small"
             else SearchSpaceSpec())
    params = VariationParams(mutation_prob_per_gene=p_mut, crossover_prob=p_cross)
    rng = random.Random(seed)
    if which == "small":
        pa, pb = (BackboneGenome(0, tuple(BlockGenes(rng.randrange(4), 0, 0, 0)
                                          for _ in range(2))) for _ in range(2))
    else:
        pa, pb = sample_backbone(space, rng), sample_backbone(space, rng)
    old, new = _twins(seed)
    children = crossover_backbone(pa, pb, space, params, new)
    assert children == oracles.crossover_backbone(pa, pb, space, params, old)
    assert new.getstate() == old.getstate()
    for child in children:
        assert (mutate_backbone(child, space, params, new)
                == oracles.mutate_backbone(child, space, params, old))
        assert new.getstate() == old.getstate()


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
        c = candidate_genes(sample_exit_genome(b, small_space, rng),
                            sample_dvfs(device, rng))
        for i in range(100_000):
            n = indicator_length(b, small_space)
            op = i % 5
            if op == 0:
                b2 = sample_backbone(small_space, rng)
                b, _ = crossover_backbone(b, b2, small_space, params, rng)
                c = sample_exit_genome(b, small_space, rng).indicators + c[n:]
            elif op == 1:
                b = mutate_backbone(b, small_space, params, rng)
                c = sample_exit_genome(b, small_space, rng).indicators + c[n:]
            elif op == 2:
                c = mutate_candidate(c, n, device, params, rng)
            elif op == 3:
                c2 = candidate_genes(sample_exit_genome(b, small_space, rng),
                                     sample_dvfs(device, rng))
                c, _ = crossover_candidates(c, c2, n, params, rng)
            else:
                sizes = (len(device.compute_freq_ghz), len(device.emc_freq_ghz))
                c = c[:n] + mutate_genes(c[n:], sizes,
                                         params.mutation_prob_per_gene, rng)
            validate_backbone(b, small_space)
            n = indicator_length(b, small_space)
            assert len(c) == n + 2
            assert set(c[:n]) <= {0, 1} and 1 in c[:n]
            assert 0 <= c[n] < len(device.compute_freq_ghz)
            assert 0 <= c[n + 1] < len(device.emc_freq_ghz)


@settings(max_examples=100, deadline=None)
@given(n_bits=st.integers(1, 8), device=st.sampled_from(default_devices()))
def test_enumerated_candidates_match_object_enumeration(n_bits, device):
    # The same candidates in the same order: exit patterns in counting
    # order, each with every setting, compute index outer.
    space = SearchSpaceSpec(n_block=1, depth_domain=(n_bits + 5,),
                            device_specs=default_devices())
    b = BackboneGenome(0, (BlockGenes(0, 0, 0, 0),))
    assert indicator_length(b, space) == n_bits
    assert enumerate_candidates(n_bits, device) == [
        candidate_genes(x, f) for x in enumerate_exit_genomes(b, space)
        for f in enumerate_dvfs(device)]


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
