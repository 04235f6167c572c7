import math
import random

import numpy as np
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
    total_layers,
    validate_backbone,
)
from nestevo.ioe import _breed, gene_sizes, uniforms
from oracles import (
    candidate_genes,
    enumerate_dvfs,
    enumerate_exit_genomes,
    sample_dvfs,
    sample_exit_genome,
    sampled_positions,
)
from tests.conftest import EMC_DEVICE, TOY_DEVICE


def breed_rows(parents, n_bits, device, params, rng, population=None, places=None):
    """_breed on a mating pool given as gene tuples, places in pool order
    unless given; the children as tuples."""
    pool = np.array(parents)
    places = np.arange(len(pool)) if places is None else np.array(places)
    children = _breed(pool, places, population or len(pool), n_bits,
                      gene_sizes(n_bits, device), params, rng)
    return [tuple(c) for c in children.tolist()]


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
        no_swap = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=0.0)
        assert breed_rows([c], n_bits, EMC_DEVICE, no_swap, rng,
                          population=7) == [c] * 7

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
        children = breed_rows([(1, 0)], 1, TOY_DEVICE, params, rng,
                              population=100)
        assert [c[0] for c in children] == [1] * 100

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
        params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=0.5)
        rng = random.Random(17)
        for _ in range(1000):
            bits_a = [rng.randrange(2) for _ in range(7)]
            bits_b = [rng.randrange(2) for _ in range(7)]
            shared = rng.randrange(7)
            bits_a[shared] = bits_b[shared] = 1
            pa = tuple(bits_a) + (rng.randrange(3), rng.randrange(2))
            pb = tuple(bits_b) + (rng.randrange(3), rng.randrange(2))
            for child in breed_rows([pa, pb], 7, EMC_DEVICE, params, rng):
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
        # Every gene swaps, the frequency genes too: a pair of children is
        # its two tournament winners, second first.
        params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=1.0)
        pa = candidate_genes(ExitGenome((1, 0)), DvfsGenome("emc-dev", 0, 1))
        pb = candidate_genes(ExitGenome((0, 1)), DvfsGenome("emc-dev", 2, 0))
        twin = random.Random()
        twin.setstate(rng.getstate())
        children = breed_rows([pa, pb], 2, EMC_DEVICE, params, rng,
                              population=40)
        # The block opens with the 40 tournaments' draws (a 64-bit word
        # stream's prefix is the shorter stream).
        draws = uniforms(twin, 40 * 2).reshape(40, 2)
        winners = [[pa, pb][min(int(u * 2) for u in d)] for d in draws]
        assert children[0::2] == winners[1::2]
        assert children[1::2] == winners[0::2]
        assert {pa, pb} <= set(children)


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


# ---------------------------------------------------------------------------
# Inner breeding: one block of uniforms per generation (ioe._breed)


class FixedBits:
    """A stand-in for random.Random whose getrandbits returns one integer."""

    def __init__(self, value):
        self.value = value

    def getrandbits(self, k):
        assert 0 <= self.value < 2**k
        return self.value


def test_uniforms_decode_by_hand():
    # Word i is bits 64i..64i+63 of the draw; its top 53 bits over 2**53.
    words = [2**64 - 1, 1 << 11, (1 << 11) - 1, 1 << 63]
    value = sum(w << (64 * i) for i, w in enumerate(words))
    assert uniforms(FixedBits(value), 4).tolist() == [
        (2**53 - 1) / 2**53, 2**-53, 0.0, 0.5]
    assert uniforms(FixedBits(0), 0).tolist() == []
    # The stdlib stream at a fixed seed, by hand from its first 192 bits.
    x = random.Random(2024).getrandbits(192)
    by_hand = [(((x >> (64 * i)) & (2**64 - 1)) >> 11) / 2**53
               for i in range(3)]
    got = uniforms(random.Random(2024), 3).tolist()
    assert got == by_hand
    assert got == [0.18170603701614085, 0.5783528230917323, 0.20020173590251966]


def twin_of(rng):
    twin = random.Random()
    twin.setstate(rng.getstate())
    return twin


def block_parts(rng, population, n_genes, t):
    """The block _breed draws for one generation, cut at its documented
    offsets: tournament draws (one row of t per parent), swap draws (one row
    per pair), mutation and new-value draws (one row per child), repair
    draws (one per child)."""
    pairs = -(-population // 2)
    counts = [2 * pairs * t, pairs * n_genes, population * n_genes,
              population * n_genes, population]
    parts = np.split(uniforms(rng, sum(counts)), np.cumsum(counts)[:-1])
    return (parts[0].reshape(2 * pairs, t), parts[1].reshape(pairs, n_genes),
            parts[2].reshape(population, n_genes),
            parts[3].reshape(population, n_genes), parts[4])


@st.composite
def pools(draw):
    """(pool, places, n_bits, device, params, population) with sparse exit
    bits, so that children with no exit set are common."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_bits = draw(st.integers(1, 41))
    device = draw(st.sampled_from([EMC_DEVICE, TOY_DEVICE]))
    density = draw(st.sampled_from([0.0, 0.1, 0.5]))
    sizes = gene_sizes(n_bits, device).tolist()
    k = draw(st.integers(1, 6))
    pool = [tuple(int(rng.random() < density) for _ in range(n_bits))
            + tuple(rng.randrange(n) for n in sizes[n_bits:]) for _ in range(k)]
    params = VariationParams(mutation_prob_per_gene=draw(PROBS),
                             crossover_prob=draw(PROBS),
                             tournament_size=draw(st.integers(1, 3)))
    return (pool, rng.sample(range(k), k), n_bits, device, params,
            draw(st.integers(1, 9)))


@settings(max_examples=300, deadline=None)
@given(pools(), st.integers(0, 2**32))
def test_bred_children_follow_the_block(case, seed):
    """A per-gene reference of the documented block layout."""
    pool, places, n_bits, device, params, population = case
    sizes = gene_sizes(n_bits, device).tolist()
    rng = random.Random(seed)
    draws, swaps, mutations, values, repairs = block_parts(
        twin_of(rng), population, len(sizes), params.tournament_size)
    children = breed_rows(pool, n_bits, device, params, rng, population, places)
    winners = [min((int(u * len(pool)) for u in d), key=places.__getitem__)
               for d in draws.tolist()]
    for i, child in enumerate(children):
        a, b = pool[winners[i - i % 2]], pool[winners[i - i % 2 + 1]]
        if i % 2:
            a, b = b, a
        expected = [b[g] if swaps[i // 2, g] < params.crossover_prob else a[g]
                    for g in range(len(sizes))]
        for g, n in enumerate(sizes):
            if mutations[i, g] < params.mutation_prob_per_gene:
                expected[g] = int(values[i, g] * n)
        if not any(expected[:n_bits]):
            expected[int(repairs[i] * n_bits)] = 1
        assert child == tuple(expected)
    assert len(children) == population
    assert rng.getstate() == twin_of(rng).getstate()


@settings(max_examples=300, deadline=None)
@given(pools(), st.integers(0, 2**32))
def test_child_genes_come_from_parents_unless_mutated(case, seed):
    pool, places, n_bits, device, params, population = case
    rng = random.Random(seed)
    _, _, mutations, _, repairs = block_parts(
        twin_of(rng), population, n_bits + 1 + device.has_emc,
        params.tournament_size)
    children = breed_rows(pool, n_bits, device, params, rng, population, places)
    for i, child in enumerate(children):
        repaired = (sum(child[:n_bits]) == 1
                    and child[int(repairs[i] * n_bits)] == 1)
        for g, gene in enumerate(child):
            if mutations[i, g] < params.mutation_prob_per_gene:
                continue
            if repaired and g == int(repairs[i] * n_bits):
                continue
            assert gene in {p[g] for p in pool}


@settings(max_examples=200, deadline=None)
@given(pools(), st.integers(0, 2**32))
def test_repair_leaves_an_exit(case, seed):
    pool, places, n_bits, device, params, population = case
    # Parents without an exit, and every gene redrawn half the time.
    pool = [(0,) * n_bits + p[n_bits:] for p in pool]
    params = VariationParams(mutation_prob_per_gene=0.5,
                             crossover_prob=params.crossover_prob)
    for child in breed_rows(pool, n_bits, device, params, random.Random(seed),
                            population, places):
        assert 1 in child[:n_bits]


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tournament_winner_has_the_lowest_place(seed):
    # Without variation each child is its tournament's winner.
    rng = random.Random(seed)
    pool = enumerate_candidates(2, EMC_DEVICE)[:7]
    places = rng.sample(range(7), 7)
    params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=0.0,
                             tournament_size=3)
    draws = block_parts(twin_of(rng), 200, 4, 3)[0]
    children = breed_rows(pool, 2, EMC_DEVICE, params, rng, 200, places)
    for d, child in zip(draws.tolist(), children):
        best = min(places[int(u * 7)] for u in d)
        assert places[pool.index(child)] == best


def within(count, n, p, sigmas=5.0):
    return abs(count - n * p) <= sigmas * math.sqrt(n * p * (1 - p)) + 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("p", [0.1, 0.3])
def test_swap_and_mutation_rates_within_binomial_bounds(seed, p):
    n_bits, device = 20, EMC_DEVICE
    sizes = gene_sizes(n_bits, device).tolist()
    rng = random.Random(seed)
    # Mutation: one parent; a redrawn gene changes with p * (1 - 1/size).
    parent = (1,) * n_bits + (0, 0)
    params = VariationParams(mutation_prob_per_gene=p, crossover_prob=0.0)
    children = breed_rows([parent], n_bits, device, params, rng, 500)
    for g, n in enumerate(sizes):
        changed = sum(c[g] != parent[g] for c in children)
        assert within(changed, len(children), p * (1 - 1 / n))
    # Swaps: two parents that differ in every gene, one draw per
    # tournament; a pair of distinct winners shows every swap.
    pa = tuple(i % 2 for i in range(n_bits)) + (0, 0)
    pb = tuple(1 - i % 2 for i in range(n_bits)) + (2, 1)
    params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=p,
                             tournament_size=1)
    draws = block_parts(twin_of(rng), 500, len(sizes), 1)[0]
    children = breed_rows([pa, pb], n_bits, device, params, rng, 500)
    winners = [int(u * 2) for u in draws[:, 0].tolist()]
    swapped = trials = 0
    for j in range(250):
        x, y = (pa, pb)[winners[2 * j]], (pa, pb)[winners[2 * j + 1]]
        if x == y:
            continue
        trials += len(sizes)
        swapped += sum(c == yg for c, yg in zip(children[2 * j], y))
    assert trials > 0 and within(swapped, trials, p)


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
                c = breed_rows([c], n, device, params, rng)[0]
            elif op == 3:
                c2 = candidate_genes(sample_exit_genome(b, small_space, rng),
                                     sample_dvfs(device, rng))
                c = breed_rows([c, c2], n, device, params, rng)[0]
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
