import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestevo.ooe as ooe
from nestevo.config import default_devices
from nestevo.evaluator import (HardwareModelParams, SurrogateParams,
                               SyntheticHardwareModel)
from nestevo.genome import (
    BackboneGenome,
    BlockGenes,
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    VariationParams,
    admissible_positions,
    backbone_of_key,
    backbone_sizes,
    enumerate_backbones,
    indicator_length,
    n_inner_candidates,
    repair_backbone,
    sample_backbone,
    total_layers,
    validate_backbone,
)
from nestevo.ioe import (IoeConfig, _breed, _repaired, enumerated, gene_sizes,
                         uniforms)
from nestevo.ooe import OoeConfig, run_ooe
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
    """The inner engine's breeding on a mating pool given as gene tuples,
    places in pool order unless given: _breed on the pool's rows ranked by
    place, then _repaired; the children as tuples."""
    pool = np.array(parents)
    best = np.arange(len(pool)) if places is None else np.argsort(places)
    children, repairs = _breed(pool, best, population or len(pool),
                               gene_sizes(n_bits, device), params, rng)
    return [tuple(c) for c in _repaired(children, n_bits, repairs).tolist()]


def breed_backbones(parents, space, params, rng, population=None):
    """The outer engine's breeding on a mating pool of backbones, places in
    pool order: _breed on their keys, then repair_backbone on each child in
    order."""
    children, _ = _breed(np.array([b.key() for b in parents]),
                         np.arange(len(parents)), population or len(parents),
                         np.array(backbone_sizes(space)), params, rng)
    return [repair_backbone(backbone_of_key(genes), space, rng)
            for genes in children.tolist()]


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
        assert breed_backbones([b], full_space, params, rng, population=7) == [b] * 7
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
        for child in breed_backbones([base], full_space, params, rng, n):
            counts[child.blocks[0].kernel_idx] += 1
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
        params = VariationParams(mutation_prob_per_gene=1.0, crossover_prob=1.0)
        pool = np.array([sample_backbone(full_space, rng).key()
                         for _ in range(4)])
        best = np.array([1, 3, 0, 2])
        snapshot = pool.copy(), best.copy()
        _breed(pool, best, 9, np.array(backbone_sizes(full_space)), params, rng)
        assert (pool == snapshot[0]).all() and (best == snapshot[1]).all()


class TestCrossover:
    def test_prob_zero_children_equal_parents(self, full_space, rng):
        # Without variation each child is its own tournament's winner.
        params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=0.0)
        parents = [sample_backbone(full_space, rng) for _ in range(2)]
        draws = uniforms(twin_of(rng), 20 * 2).reshape(20, 2)
        children = breed_backbones(parents, full_space, params, rng, 20)
        assert children == [parents[min(int(u * 2) for u in d)]
                            for d in draws.tolist()]

    def test_identical_parents_fixed_point(self, full_space, rng):
        params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=1.0)
        p = sample_backbone(full_space, rng)
        assert breed_backbones([p, p], full_space, params, rng, 9) == [p] * 9

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
    def test_prob_one_redraws_every_gene(self, full_space):
        # Each gene of each child is its block value times the gene's domain
        # size from backbone_sizes, floored; the rng moves past the block.
        sizes = backbone_sizes(full_space)
        assert sizes == (4,) + (8, 16, 2, 4) * 7
        rng = random.Random(29)
        twin = twin_of(rng)
        values = block_parts(twin, 5, len(sizes), 2)[3]
        children, _ = _breed(np.zeros((1, len(sizes)), dtype=np.int64),
                             np.array([0]), 5, np.array(sizes),
                             VariationParams(mutation_prob_per_gene=1.0), rng)
        assert children.tolist() == [[int(u * n) for u, n in zip(row, sizes)]
                                     for row in values.tolist()]
        assert rng.getstate() == twin.getstate()


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


def reference_children(pool, places, sizes, params, parts):
    """Gene by gene, the children that the block cut into `parts`
    (block_parts) makes of a mating pool, before any repair, as lists."""
    draws, swaps, mutations, values, _ = parts
    winners = [min((int(u * len(pool)) for u in d), key=places.__getitem__)
               for d in draws.tolist()]
    children = []
    for i in range(len(mutations)):
        a, b = pool[winners[i - i % 2]], pool[winners[i - i % 2 + 1]]
        if i % 2:
            a, b = b, a
        genes = [b[g] if swaps[i // 2, g] < params.crossover_prob else a[g]
                 for g in range(len(sizes))]
        for g, n in enumerate(sizes):
            if mutations[i, g] < params.mutation_prob_per_gene:
                genes[g] = int(values[i, g] * n)
        children.append(genes)
    return children


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
    parts = block_parts(twin_of(rng), population, len(sizes),
                        params.tournament_size)
    children = breed_rows(pool, n_bits, device, params, rng, population, places)
    repairs = parts[4]
    for i, (child, expected) in enumerate(zip(
            children, reference_children(pool, places, sizes, params, parts))):
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
    pool = list(map(tuple, enumerated(2, EMC_DEVICE, range(7)).tolist()))
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


# ---------------------------------------------------------------------------
# Outer breeding: _breed on backbone keys, then repair_backbone per child

# Blocks of depth 1 to 4 under exit_min_position 5: children too shallow to
# host an exit are common.
SHALLOW_SPACE = SearchSpaceSpec(n_block=2, depth_domain=(1, 2, 3, 4),
                                exit_min_position=5,
                                device_specs=default_devices())


def reference_backbones(pool, places, population, space, params, rng):
    """Gene by gene from the documented block, the backbones bred from a
    mating pool of keys, then repair_backbone on each child in child order,
    drawing from rng after the block; and how many children needed repair."""
    sizes = backbone_sizes(space)
    parts = block_parts(rng, population, len(sizes), params.tournament_size)
    children = [backbone_of_key(genes) for genes in
                reference_children(pool, places, sizes, params, parts)]
    shallow = sum(total_layers(c, space) <= space.exit_min_position
                  for c in children)
    return [repair_backbone(c, space, rng) for c in children], shallow


@pytest.mark.parametrize("seed, population, params", [
    (0, 12, VariationParams()),
    (1, 11, VariationParams(mutation_prob_per_gene=0.5, crossover_prob=0.5,
                            tournament_size=3)),
    (2, 10, VariationParams(mutation_prob_per_gene=1.0, crossover_prob=1.0,
                            tournament_size=1)),
], ids=["default", "odd", "every-gene"])
def test_outer_breeding_follows_the_block(monkeypatch, seed, population, params):
    """Each population run_ooe breeds is the per-gene reference of its
    generation's mating pool, as backbone keys: the forwarded backbones
    that combined_rank ranks best, in visit order, each with its place in
    that ranking.  The rng then stands where the reference leaves it."""
    forwarded, bests, calls = [], [], []

    def recording_profile(b, *args):  # once per forwarded backbone, in order
        forwarded.append(b.key())
        return exit_profile(b, *args)

    def recording_rank(values, k):
        bests.append(combined_rank(values, k).tolist())
        return np.array(bests[-1])

    def recording_breed(genes, best, n, sizes, variation, rng):
        calls.append((genes.tolist(), best.tolist(), n, sizes.tolist(),
                      variation, twin_of(rng)))
        return _breed(genes, best, n, sizes, variation, rng)

    exit_profile, combined_rank = ooe.exit_profile, ooe.combined_rank
    monkeypatch.setattr(ooe, "exit_profile", recording_profile)
    monkeypatch.setattr(ooe, "combined_rank", recording_rank)
    monkeypatch.setattr(ooe, "_breed", recording_breed)
    hw = HardwareModelParams()
    config = OoeConfig(generations=4, population=population,
                       prune_fraction=0.5, budget=4 * population,
                       ioe=IoeConfig(generations=2, population=4, budget=8),
                       seed=seed)
    states = []
    run_ooe(SHALLOW_SPACE, SHALLOW_SPACE.device("agx-volta-gpu"),
            SyntheticHardwareModel(hw), hw, SurrogateParams(), config, params,
            on_generation=states.append)
    assert len(calls) == len(bests) == config.generations - 1
    k = math.ceil(config.prune_fraction * population)
    repaired = 0
    for gen, (genes, best, n, sizes, variation, twin) in enumerate(calls):
        assert genes == [list(key) for key in forwarded[gen * k:(gen + 1) * k]]
        assert best == bests[gen] and sorted(best) == list(range(k))
        pool = [genes[i] for i in sorted(best)]
        places = [best.index(i) for i in sorted(best)]
        assert (n, variation) == (population, params)
        assert sizes == [4] + [4, 16, 2, 4] * 2
        expected, shallow = reference_backbones(pool, places, n, SHALLOW_SPACE,
                                                params, twin)
        repaired += shallow
        assert states[gen].population == tuple(b.key() for b in expected)
        assert states[gen].rng_state == twin.getstate()
    assert repaired > 0


class TestDeterminismAndInvariants:
    def test_operators_pure_given_stream(self, small_space):
        def run(seed):
            rng = random.Random(seed)
            params = VariationParams()
            pool = [sample_backbone(small_space, rng) for _ in range(6)]
            out = []
            for _ in range(50):
                pool = breed_backbones(pool, small_space, params, rng)
                out.append([b.key() for b in pool])
            return out

        assert run(99) == run(99)

    def test_invariant_sweep_100k_operations(self, small_space):
        # 1,000 generations of 100 backbones, each bred from the last (each
        # child one crossover, mutation and repair), and of 10 inner
        # candidates on the first one's exits: every gene stays in its
        # domain, every backbone can host an exit and every candidate
        # samples one.
        rng = random.Random(12345)
        params = VariationParams(mutation_prob_per_gene=0.3, crossover_prob=0.5)
        sizes = np.array(backbone_sizes(small_space))
        order = list(range(100))
        pool = np.array([sample_backbone(small_space, rng).key()
                         for _ in order])
        for _ in range(1000):
            rng.shuffle(order)
            children, repairs = _breed(pool, np.array(order), 100, sizes,
                                       params, rng)
            assert repairs.shape == (100,)
            assert ((children >= 0) & (children < sizes)).all()
            bred = [repair_backbone(backbone_of_key(genes), small_space, rng)
                    for genes in children.tolist()]
            for b in bred:
                validate_backbone(b, small_space)
            pool = np.array([b.key() for b in bred])
            n = indicator_length(bred[0], small_space)
            cands = [candidate_genes(sample_exit_genome(bred[0], small_space, rng),
                                     sample_dvfs(EMC_DEVICE, rng))
                     for _ in range(2)]
            for c in breed_rows(cands, n, EMC_DEVICE, params, rng, 10):
                assert len(c) == n + 2
                assert set(c[:n]) <= {0, 1} and 1 in c[:n]
                assert 0 <= c[n] < len(EMC_DEVICE.compute_freq_ghz)
                assert 0 <= c[n + 1] < len(EMC_DEVICE.emc_freq_ghz)


@settings(max_examples=100, deadline=None)
@given(n_bits=st.integers(1, 8), device=st.sampled_from(default_devices()))
def test_enumerated_candidates_match_object_enumeration(n_bits, device):
    # The same candidates in the same order: exit patterns in counting
    # order, each with every setting, compute index outer.
    space = SearchSpaceSpec(n_block=1, depth_domain=(n_bits + 5,),
                            device_specs=default_devices())
    b = BackboneGenome(0, (BlockGenes(0, 0, 0, 0),))
    assert indicator_length(b, space) == n_bits
    rows = enumerated(n_bits, device, range(n_inner_candidates(n_bits, device)))
    assert rows.dtype == np.int64
    assert list(map(tuple, rows.tolist())) == [
        candidate_genes(x, f) for x in enumerate_exit_genomes(b, space)
        for f in enumerate_dvfs(device)]


@settings(max_examples=200, deadline=None)
@given(n_bits=st.integers(1, 8), device=st.sampled_from(default_devices()),
       data=st.data())
def test_enumerated_window_is_its_slice(n_bits, device, data):
    n = n_inner_candidates(n_bits, device)
    start = data.draw(st.integers(0, n), label="start")
    stop = data.draw(st.integers(start, n), label="stop")
    step = data.draw(st.integers(1, 5), label="step")
    whole = enumerated(n_bits, device, range(n))
    window = enumerated(n_bits, device, range(start, stop, step))
    assert window.shape == (len(range(start, stop, step)), whole.shape[1])
    assert window.tolist() == whole[start:stop:step].tolist()


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
        n_bits = indicator_length(b, toy_space)
        assert n_inner_candidates(n_bits, TOY_DEVICE) == 6
        assert n_inner_candidates(n_bits, EMC_DEVICE) == 18
