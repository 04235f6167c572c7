import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from nestevo import moea
from nestevo.genome import VariationParams
from nestevo.ioe import _breed, uniforms
from nestevo.moea import (
    Direction,
    initial_population,
    nondominated_rows,
    select,
)
from nestevo.ooe import COMBINED_DIRECTIONS

from oracles import (
    ObjectiveVector,
    RankedPopulation,
    add,
    all_pairs_nondominated,
    crowding_distance,
    dominates,
    entries,
    fast_nondominated_sort,
    is_mutually_nondominated,
    merge,
    nondominated_mask,
    rank_population,
)

MAX = Direction.MAXIMIZE
MIN = Direction.MINIMIZE


def vec(*values, directions=None):
    if directions is None:
        directions = (MAX,) * len(values)
    return ObjectiveVector(tuple(float(v) for v in values), tuple(directions))


def random_vec(rng, m, directions=None):
    return vec(*(rng.uniform(-5, 5) for _ in range(m)), directions=directions)


# Independent oracle: peel non-dominated sets with its own dominance test.
def oracle_dominates(a, b):
    av = [v if d is MAX else -v for v, d in zip(a.values, a.directions)]
    bv = [v if d is MAX else -v for v, d in zip(b.values, b.directions)]
    return all(x >= y for x, y in zip(av, bv)) and any(x > y for x, y in zip(av, bv))


def oracle_fronts(vectors):
    remaining = set(range(len(vectors)))
    fronts = []
    while remaining:
        front = sorted(
            i for i in remaining
            if not any(oracle_dominates(vectors[j], vectors[i])
                       for j in remaining if j != i)
        )
        fronts.append(front)
        remaining -= set(front)
    return fronts


class TestDominates:
    def test_strict_improvement(self):
        assert dominates(vec(1, 1), vec(0, 0))

    def test_equal_vectors_do_not_dominate(self):
        assert not dominates(vec(1, 1), vec(1, 1))

    def test_incomparable(self):
        assert not dominates(vec(1, 0), vec(0, 1))
        assert not dominates(vec(0, 1), vec(1, 0))

    def test_direction_aware(self):
        a = vec(1, 1, directions=(MAX, MIN))
        b = vec(0, 2, directions=(MAX, MIN))
        assert dominates(a, b)

    def test_mismatch_raises(self):
        with pytest.raises(ValueError):
            dominates(vec(1, 1), vec(1, 1, 1))
        with pytest.raises(ValueError):
            dominates(vec(1, 1), vec(1, 1, directions=(MAX, MIN)))

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            vec(math.nan, 0)
        with pytest.raises(ValueError):
            vec(math.inf, 0)

    def test_properties_random_triples(self):
        rng = random.Random(1)
        for _ in range(10_000):
            m = rng.randint(2, 4)
            dirs = tuple(rng.choice((MAX, MIN)) for _ in range(m))
            a, b, c = (random_vec(rng, m, dirs) for _ in range(3))
            assert not dominates(a, a)
            assert not (dominates(a, b) and dominates(b, a))
            if dominates(a, b) and dominates(b, c):
                assert dominates(a, c)


class TestSort:
    def test_four_point_example(self):
        pop = [vec(2, 2), vec(1, 1), vec(2, 1), vec(1, 2)]
        assert fast_nondominated_sort(pop) == [[0], [2, 3], [1]]

    def test_identical_population_single_front(self):
        pop = [vec(3, 3)] * 5
        assert fast_nondominated_sort(pop) == [list(range(5))]

    def test_decreasing_chain(self):
        pop = [vec(5 - i, 5 - i) for i in range(5)]
        assert fast_nondominated_sort(pop) == [[0], [1], [2], [3], [4]]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            fast_nondominated_sort([])

    def test_matches_bruteforce(self):
        rng = random.Random(7)
        for _ in range(120):
            n = rng.randint(1, 64)
            m = rng.randint(2, 4)
            dirs = tuple(rng.choice((MAX, MIN)) for _ in range(m))
            # Small integer grid forces plenty of ties and duplicates.
            pop = [vec(*(rng.randint(0, 4) for _ in range(m)), directions=dirs)
                   for _ in range(n)]
            assert fast_nondominated_sort(pop) == oracle_fronts(pop)

    def test_fronts_partition_population(self):
        rng = random.Random(9)
        pop = [random_vec(rng, 3) for _ in range(40)]
        fronts = fast_nondominated_sort(pop)
        flat = [i for f in fronts for i in f]
        assert sorted(flat) == list(range(40))
        assert len(set(flat)) == len(flat)

    def test_negating_minimize_coordinate_is_invariant(self):
        rng = random.Random(11)
        dirs = (MAX, MIN, MAX)
        pop = [random_vec(rng, 3, dirs) for _ in range(30)]
        flipped = [
            ObjectiveVector((v.values[0], -v.values[1], v.values[2]),
                            (MAX, MAX, MAX))
            for v in pop
        ]
        assert fast_nondominated_sort(pop) == fast_nondominated_sort(flipped)
        assert crowding_distance(pop) == crowding_distance(flipped)


class TestCrowding:
    def test_two_points_both_infinite(self):
        assert crowding_distance([vec(0, 1), vec(1, 0)]) == [math.inf, math.inf]

    def test_single_point_infinite(self):
        assert crowding_distance([vec(1, 1)]) == [math.inf]

    def test_three_collinear_equally_spaced(self):
        # Middle point spans the full range in both objectives: 1.0 each.
        front = [vec(0, 0), vec(1, 1), vec(2, 2)]
        dist = crowding_distance(front)
        assert dist[0] == math.inf and dist[2] == math.inf
        assert dist[1] == pytest.approx(2.0, abs=1e-12)

    def test_degenerate_objective_contributes_zero(self):
        front = [vec(0, 5), vec(1, 5), vec(2, 5)]
        dist = crowding_distance(front)
        assert dist[1] == pytest.approx(1.0, abs=1e-12)

    def test_overflowing_span_contributes_zero(self):
        # Objective 0 spans 1e308 - (-1e308) = inf, so its gap over the span
        # would be inf/inf; like a zero span it adds nothing.
        front = [vec(-1e308, 0), vec(0, 1), vec(1e308, 2)]
        assert crowding_distance(front) == [math.inf, 1.0, math.inf]


def best_of(pop, k):
    """select's k best rows of a population of ObjectiveVectors."""
    values = np.array([v.values for v in pop], dtype=float)
    return select(values, pop[0].directions, k)[0].tolist()


class TestSurvivorSelect:
    def test_k_equals_size_identity_membership(self):
        rng = random.Random(3)
        pop = [random_vec(rng, 2) for _ in range(12)]
        assert sorted(best_of(pop, 12)) == list(range(12))

    def test_k_equals_front0(self):
        pop = [vec(2, 2), vec(1, 1), vec(2, 1), vec(1, 2), vec(3, 3)]
        assert best_of(pop, 1) == [4]

    def test_partial_front_matches_sort_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            pop = [vec(*(rng.randint(0, 3) for _ in range(2)))
                   for _ in range(rng.randint(3, 20))]
            ranked = rank_population(list(range(len(pop))), pop)
            k = rng.randint(1, len(pop))
            expected = sorted(
                range(len(pop)),
                key=lambda i: (ranked.ranks[i], -ranked.crowding[i], i),
            )[:k]
            assert best_of(pop, k) == expected

    def test_k_too_large_raises(self):
        with pytest.raises(ValueError, match="cannot select 2"):
            best_of([vec(1, 1)], 2)

    def test_k_zero_raises(self):
        with pytest.raises(ValueError, match="cannot select 0"):
            best_of([vec(1, 1), vec(0, 2)], 0)


def tournament_winners(pop, n, tournament_size, rng):
    """The winning rows of n tournaments on a whole population taken as its
    own mating pool: _breed without variation on rows whose row i holds the
    gene i, so that child i is the winner of tournament i."""
    params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=0.0,
                             tournament_size=tournament_size)
    children, _ = _breed(np.arange(len(pop))[:, None],
                         np.array(best_of(pop, len(pop))), n,
                         np.array([len(pop)]), params, rng)
    return children[:, 0].tolist()


class TestTournament:
    def test_single_member(self):
        assert tournament_winners([vec(1, 1)], 7, 3,
                                  random.Random(0)) == [0] * 7

    def test_rank0_beats_rank1(self):
        pop = [vec(2, 2), vec(1, 1)]
        rng = random.Random(0)
        twin = random.Random()
        twin.setstate(rng.getstate())
        # The block opens with the tournaments' draws, two per tournament:
        # member 1 wins only when it is drawn twice.
        draws = uniforms(twin, 200 * 2).reshape(200, 2)
        winners = tournament_winners(pop, 200, 2, rng)
        assert winners == [min(int(u * 2) for u in d) for d in draws.tolist()]
        assert {0, 1} <= set(winners)

    def test_empirical_win_rates_match_enumeration(self):
        # 4 members, fronts {a}, {c, d}, {b}; c beats d on the id tiebreak.
        pop = [vec(2, 2), vec(1, 1), vec(2, 1), vec(1, 2)]

        # Enumerate all 16 ordered with-replacement draws with an
        # independent key ordering: 0 best, then 2, then 3, then 1.
        strength = {0: 0, 2: 1, 3: 2, 1: 3}
        expected = {i: 0 for i in range(4)}
        for a in range(4):
            for b in range(4):
                winner = a if strength[a] <= strength[b] else b
                expected[winner] += 1 / 16

        rng = random.Random(123)
        n = 10_000
        counts = {i: 0 for i in range(4)}
        for winner in tournament_winners(pop, n, 2, rng):
            counts[winner] += 1
        for i in range(4):
            p = expected[i]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[i] / n - p) <= 5 * sigma


# Small grids make tied values, repeated rows and several fronts.
GRID = (0.0, -0.0, 1.0, 2.0, 1e308, -1e308)


@st.composite
def objective_matrices(draw):
    """A raw objective matrix of 1 to 12 rows on a small grid of values, and
    its column directions."""
    directions = tuple(draw(st.lists(st.sampled_from((MAX, MIN)), min_size=1,
                                     max_size=3)))
    n = draw(st.integers(1, 12))
    cells = draw(st.lists(st.sampled_from(GRID), min_size=n * len(directions),
                          max_size=n * len(directions)))
    return np.array(cells).reshape(n, len(directions)), directions


def full_peel(values, directions):
    """The rows of a raw objective matrix as a RankedPopulation, every front
    peeled and crowded (oracles.rank_rows)."""
    ranks, crowding = oracles.rank_rows(values, directions)
    return RankedPopulation(tuple(range(len(ranks))), tuple(ranks.tolist()),
                            tuple(crowding.tolist()))


@settings(max_examples=300, deadline=None)
@given(objective_matrices())
def test_selection_matches_object_oracle(matrix):
    # For every k: the full peel's ranking cut to k rows, whose rank-0 rows
    # are the sweep's non-dominated ones.
    values, directions = matrix
    ranked = full_peel(values, directions)
    for k in range(1, len(values) + 1):
        best, front = select(values, directions, k)
        assert best.tolist() == oracles.survivor_select(ranked, k)
        assert front.tolist() == [rank == 0 for rank in ranked.ranks]
        assert front.tolist() == nondominated_rows(values, directions).tolist()


@settings(max_examples=200, deadline=None)
@given(objective_matrices(), st.integers(1, 12), st.integers(1, 4),
       st.integers(0, 2**32 - 1))
def test_breeding_pool_is_the_mating_pool(matrix, k, tournament_size, seed):
    # _breed's pool and places are the old mating pool's: the selected rows
    # in row order, each with its place among them.  Without variation on
    # rows whose gene is their row number, each child is its tournament's
    # winner, drawn from the block's opening draws.
    values, directions = matrix
    k = min(k, len(values))
    pool, places = oracles.mating_pool(full_peel(values, directions), k)
    params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=0.0,
                             tournament_size=tournament_size)
    rng = random.Random(seed)
    twin = random.Random()
    twin.setstate(rng.getstate())
    children, _ = _breed(np.arange(len(values))[:, None],
                         select(values, directions, k)[0], 9,
                         np.array([len(values)]), params, rng)
    draws = uniforms(twin, 10 * tournament_size).reshape(10, tournament_size)
    winners = [pool[min((int(u * k) for u in d), key=places.__getitem__)]
               for d in draws.tolist()]
    assert children[:, 0].tolist() == winners[:9]


def one_at_a_time(draw):
    """A sampler of n genomes that draws them one by one."""
    return lambda rng, n: [draw(rng) for _ in range(n)]


class TestInitialPopulation:
    def test_space_that_fits_is_enumerated_then_sampled(self):
        rng = random.Random(5)
        out = initial_population(5, 3, lambda: ["c", "a", "b"],
                                 one_at_a_time(lambda r: r.randrange(100)),
                                 str, rng)
        ref = random.Random(5)
        assert out == ["c", "a", "b", ref.randrange(100), ref.randrange(100)]
        assert rng.getstate() == ref.getstate()

    def test_exact_fit_draws_nothing(self):
        rng = random.Random(5)
        out = initial_population(3, 3, lambda: iter("xyz"),
                                 one_at_a_time(lambda r: r.randrange(100)),
                                 str, rng)
        assert out == ["x", "y", "z"]
        assert rng.getstate() == random.Random(5).getstate()

    def test_samples_are_distinct_by_key(self):
        def enumerate_all():
            raise AssertionError("a space larger than the population "
                                 "must not be enumerated")

        rng = random.Random(9)
        out = initial_population(6, 50, enumerate_all,
                                 one_at_a_time(lambda r: r.randrange(50)),
                                 lambda m: m % 7, rng)
        ref = random.Random(9)
        expected = []
        while len(expected) < 6:
            m = ref.randrange(50)
            if m % 7 not in {e % 7 for e in expected}:
                expected.append(m)
        assert out == expected
        assert len({m % 7 for m in out}) == 6
        assert rng.getstate() == ref.getstate()

    def test_attempt_cap_fills_with_duplicates(self):
        # Only 3 distinct genomes can be drawn: after 64 attempts per slot
        # the two empty slots take plain, repeated samples.
        rng = random.Random(2)
        out = initial_population(5, 10, lambda: [],
                                 one_at_a_time(lambda r: r.randrange(3)),
                                 lambda m: m, rng)
        ref = random.Random(2)
        capped = [ref.randrange(3) for _ in range(64 * 5)]
        expected = list(dict.fromkeys(capped)) + [ref.randrange(3),
                                                  ref.randrange(3)]
        assert out == expected
        assert sorted(set(out)) == [0, 1, 2] and len(out) == 5
        assert rng.getstate() == ref.getstate()


class TestBreed:
    def test_odd_population_draw_sequence(self):
        # The best rows 2, 3 and 0 (row 1 ranks last) make the pool
        # [0, 2, 3] with places [2, 0, 1]: its slots index the pool's rows.
        best = np.array([2, 3, 0])
        pool, places = [0, 2, 3], [2, 0, 1]
        params = VariationParams(mutation_prob_per_gene=0.0, crossover_prob=0.0,
                                 tournament_size=2)
        sizes = np.array([4, 3])
        genes = np.array([[0, 0], [1, 1], [2, 2], [3, 2]])
        rows = genes[pool]
        rng = random.Random(17)
        twin = random.Random()
        twin.setstate(rng.getstate())
        children, repairs = _breed(genes, best, 5, sizes, params, rng)
        # Three pairs draw six tournaments; the last pair's second child is
        # dropped.  Each child is its tournament's winner.
        draws = uniforms(twin, 3 * 2 * 2).reshape(6, 2)
        winners = [min((int(u * 3) for u in d), key=places.__getitem__)
                   for d in draws.tolist()]
        assert children.tolist() == rows[winners[:5]].tolist()
        assert repairs.shape == (5,)
        # The block: 6 * 2 tournament draws, 3 * 2 swap draws, 5 * 2
        # mutation and 5 * 2 value draws, and 5 repair draws.
        twin.setstate(random.Random(17).getstate())
        uniforms(twin, 12 + 6 + 10 + 10 + 5)
        assert rng.getstate() == twin.getstate()


class TestRankPopulation:
    def test_rank_invariants(self):
        rng = random.Random(21)
        pop = [vec(*(rng.randint(0, 3) for _ in range(3))) for _ in range(30)]
        ranked = rank_population(list(range(30)), pop)
        # Rank-0 members are mutually non-dominating.
        front0 = [i for i in range(30) if ranked.ranks[i] == 0]
        for i in front0:
            for j in front0:
                if i != j:
                    assert not dominates(pop[i], pop[j])
        # Every rank-k member is dominated by someone of rank k-1.
        for i in range(30):
            k = ranked.ranks[i]
            if k > 0:
                assert any(
                    ranked.ranks[j] == k - 1 and dominates(pop[j], pop[i])
                    for j in range(30)
                )

    def test_subset_preserves_annotations(self):
        pop = [vec(2, 2), vec(1, 1), vec(2, 1)]
        # The k best rows keep their places in the whole population's order.
        assert best_of(pop, 2) == [0, 2]
        assert best_of(pop, len(pop))[:2] == [0, 2]


def combined(*values):
    """A combined-objectives vector (merge_visits' columns)."""
    return vec(*values, directions=COMBINED_DIRECTIONS)


class TestParetoArchive:
    """The outer archive, ooe.merge_visits (the dict of visits that replaced
    moea.ParetoArchive), and the front filter it cuts with."""

    # Every visit below is (a, 0, 0, b): only the two MAXIMIZE columns vary.
    def test_keeps_nondominated_only(self):
        a, entered = add({}, 0, "x", combined(1, 0, 0, 1))
        a, entered = add(a, 1, "y", combined(0, 0, 0, 0))
        assert not entered and len(a) == 1  # dominated, rejected
        a, entered = add(a, 2, "z", combined(2, 0, 0, 2))  # displaces x
        assert entered and [e.key for e in entries(a)] == [2]

    def test_equal_vectors_both_kept(self):
        a, _ = add({}, 0, "x", combined(1, 0, 0, 1))
        a, _ = add(a, 1, "y", combined(1, 0, 0, 1))
        assert len(a) == 2

    def test_merge_batch_equals_sequential_adds(self):
        rng = random.Random(31)
        items = [(i, i, combined(*(rng.randint(0, 5) for _ in range(4))))
                 for i in range(200)]
        sequential = {}
        for key, payload, v in items:
            sequential, _ = add(sequential, key, payload, v)
        batched = merge(merge({}, items[:97]), items[97:])
        assert set(batched) == set(sequential)
        assert is_mutually_nondominated(batched)

    def test_nondominated_mask_matches_oracle(self):
        rng = random.Random(41)
        pop = [vec(*(rng.randint(0, 3) for _ in range(3))) for _ in range(50)]
        mask = nondominated_mask(pop)
        expected = [
            not any(oracle_dominates(pop[j], pop[i]) for j in range(50) if j != i)
            for i in range(50)
        ]
        assert mask == expected

    def test_nondominated_mask_chunked_path(self):
        # Large enough that the block-wise path engages; compare against a
        # one-shot matrix computation done here.
        import numpy as np

        rng = random.Random(43)
        pop = [vec(*(rng.uniform(0, 1) for _ in range(3))) for _ in range(4000)]
        mat = np.asarray([p.values for p in pop])
        ge = (mat[:, None, :] >= mat[None, :, :]).all(-1)
        gt = (mat[:, None, :] > mat[None, :, :]).any(-1)
        expected = [bool(x) for x in ~((ge & gt).any(axis=0))]
        assert nondominated_mask(pop) == expected


# Ties, signed zeros, the smallest subnormal and the largest magnitudes.
SPECIAL = (0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 0.5, 1e308, -1e308)
column_directions = st.lists(st.sampled_from((MAX, MIN)), min_size=1,
                             max_size=3)


@settings(max_examples=400, deadline=None)
@given(column_directions.flatmap(lambda dirs: st.tuples(
           st.just(tuple(dirs)),
           st.lists(st.tuples(*[st.one_of(st.sampled_from(SPECIAL),
                                           st.floats(-1e308, 1e308))
                                 for _ in dirs]), max_size=40))),
       st.sampled_from((1, 2, 3, 7, 256)))
def test_sweep_matches_all_pairs(case, block):
    # Block sizes of a few rows put every list on both sides of several
    # block boundaries.
    directions, rows = case
    values = np.array(rows, dtype=float).reshape(len(rows), len(directions))
    with mock.patch.object(moea, "_SWEEP_ROWS", block):
        got = nondominated_rows(values, directions)
    assert got.tolist() == all_pairs_nondominated(values, directions).tolist()


@settings(max_examples=40, deadline=None)
@given(column_directions, st.integers(0, 2**32 - 1),
       st.integers(moea._SWEEP_ROWS - 3, 2 * moea._SWEEP_ROWS + 3),
       st.booleans())
def test_sweep_matches_all_pairs_across_real_blocks(directions, seed, n, grid):
    # A small grid of special values makes ties and duplicates; uniform
    # values make a front of few rows.
    gen = np.random.default_rng(seed)
    shape = (n, len(directions))
    values = (gen.choice(SPECIAL, shape) if grid
              else gen.uniform(-1.0, 1.0, shape) * 1e308)
    assert (nondominated_rows(values, directions).tolist()
            == all_pairs_nondominated(values, directions).tolist())
