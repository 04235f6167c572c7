import math
import random

import pytest

from nestevo.genome import VariationParams
from nestevo.moea import (
    Direction,
    ObjectiveVector,
    ParetoArchive,
    RankedPopulation,
    breed,
    dominates,
    initial_population,
    survivor_select,
    tournament_select,
)

from oracles import (
    add,
    crowding_distance,
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


class TestSurvivorSelect:
    def _ranked(self, pop):
        return rank_population(list(range(len(pop))), pop)

    def test_k_equals_size_identity_membership(self):
        rng = random.Random(3)
        pop = [random_vec(rng, 2) for _ in range(12)]
        ranked = self._ranked(pop)
        assert sorted(survivor_select(ranked, 12)) == list(range(12))

    def test_k_equals_front0(self):
        pop = [vec(2, 2), vec(1, 1), vec(2, 1), vec(1, 2), vec(3, 3)]
        ranked = self._ranked(pop)
        assert set(survivor_select(ranked, 1)) == {4}

    def test_partial_front_matches_sort_oracle(self):
        rng = random.Random(5)
        for _ in range(50):
            pop = [vec(*(rng.randint(0, 3) for _ in range(2)))
                   for _ in range(rng.randint(3, 20))]
            ranked = self._ranked(pop)
            k = rng.randint(1, len(pop))
            expected = sorted(
                range(len(pop)),
                key=lambda i: (ranked.ranks[i], -ranked.crowding[i], i),
            )[:k]
            assert survivor_select(ranked, k) == expected

    def test_k_too_large_raises(self):
        ranked = self._ranked([vec(1, 1)])
        with pytest.raises(ValueError):
            survivor_select(ranked, 2)


class TestTournament:
    def test_single_member(self):
        ranked = rank_population([0], [vec(1, 1)])
        params = VariationParams(tournament_size=3)
        assert tournament_select(ranked, params, random.Random(0)) == 0

    def test_rank0_beats_rank1(self):
        pop = [vec(2, 2), vec(1, 1)]
        ranked = rank_population([0, 1], pop)
        params = VariationParams(tournament_size=2)
        rng = random.Random(0)
        # Whenever both members are drawn, rank 0 must win.
        for _ in range(200):
            winner = tournament_select(ranked, params, rng)
            assert winner in (0, 1)
        # Force the mixed draw outcome directly.
        class TwoDraws(random.Random):
            def __init__(self):
                super().__init__(0)
                self.queue = [0, 1]
            def randrange(self, n):
                return self.queue.pop(0)
        assert tournament_select(ranked, params, TwoDraws()) == 0

    def test_empirical_win_rates_match_enumeration(self):
        # 4 members, fronts {a}, {c, d}, {b}; c beats d on the id tiebreak.
        pop = [vec(2, 2), vec(1, 1), vec(2, 1), vec(1, 2)]
        ranked = rank_population([0, 1, 2, 3], pop)
        params = VariationParams(tournament_size=2)

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
        for _ in range(n):
            counts[tournament_select(ranked, params, rng)] += 1
        for i in range(4):
            p = expected[i]
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(counts[i] / n - p) <= 5 * sigma


class TestInitialPopulation:
    def test_space_that_fits_is_enumerated_then_sampled(self):
        rng = random.Random(5)
        out = initial_population(5, 3, lambda: ["c", "a", "b"],
                                 lambda r: r.randrange(100), str, rng)
        ref = random.Random(5)
        assert out == ["c", "a", "b", ref.randrange(100), ref.randrange(100)]
        assert rng.getstate() == ref.getstate()

    def test_exact_fit_draws_nothing(self):
        rng = random.Random(5)
        out = initial_population(3, 3, lambda: iter("xyz"),
                                 lambda r: r.randrange(100), str, rng)
        assert out == ["x", "y", "z"]
        assert rng.getstate() == random.Random(5).getstate()

    def test_samples_are_distinct_by_key(self):
        def enumerate_all():
            raise AssertionError("a space larger than the population "
                                 "must not be enumerated")

        rng = random.Random(9)
        out = initial_population(6, 50, enumerate_all,
                                 lambda r: r.randrange(50), lambda m: m % 7, rng)
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
        out = initial_population(5, 10, lambda: [], lambda r: r.randrange(3),
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
        members = ["A", "B", "C", "D"]
        # Pool over members 0, 2 and 3: the ids index `members`.
        pool = RankedPopulation((0, 2, 3), (1, 0, 0), (0.0, math.inf, 1.0))
        params = VariationParams(tournament_size=2)
        mutated = []

        def crossover(a, b, r):
            cut = r.randrange(10)
            return f"{a}{b}{cut}", f"{b}{a}{cut}"

        def mutate(c, r):
            mutated.append(c)
            return f"{c}'{r.randrange(10)}"

        rng = random.Random(17)
        children = breed(pool, members, 5, crossover, mutate, params, rng)

        ref = random.Random(17)
        expected = []
        for last in (False, False, True):
            pa = members[tournament_select(pool, params, ref)]
            pb = members[tournament_select(pool, params, ref)]
            cut = ref.randrange(10)
            expected.append(f"{pa}{pb}{cut}'{ref.randrange(10)}")
            if not last:
                expected.append(f"{pb}{pa}{cut}'{ref.randrange(10)}")
        assert children == expected
        assert rng.getstate() == ref.getstate()
        # The last pair's second child is dropped before mutation.
        assert len(mutated) == 5
        assert mutated == [c.rsplit("'", 1)[0] for c in children]


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
        ranked = rank_population([0, 1, 2], pop)
        sub = ranked.subset([2, 0])
        assert sub.ids == (0, 2)
        for cid in sub.ids:
            i_full = ranked.ids.index(cid)
            i_sub = sub.ids.index(cid)
            assert sub.ranks[i_sub] == ranked.ranks[i_full]
            assert sub.crowding[i_sub] == ranked.crowding[i_full]


class TestParetoArchive:
    def test_keeps_nondominated_only(self):
        a = ParetoArchive((MAX, MAX))
        add(a, "x", "x", vec(1, 1))
        add(a, "y", "y", vec(0, 0))  # dominated, rejected
        assert len(a) == 1
        add(a, "z", "z", vec(2, 2))  # displaces x
        assert [e.key for e in a.entries] == ["z"]

    def test_equal_vectors_both_kept(self):
        a = ParetoArchive((MAX, MAX))
        add(a, "x", "x", vec(1, 1))
        add(a, "y", "y", vec(1, 1))
        assert len(a) == 2

    def test_key_collision_ignored(self):
        a = ParetoArchive((MAX, MAX))
        add(a, "x", "x", vec(1, 1))
        assert not add(a, "x", "x", vec(5, 5))
        assert len(a) == 1

    def test_merge_batch_equals_sequential_adds(self):
        rng = random.Random(31)
        items = [(i, i, vec(*(rng.randint(0, 5) for _ in range(3))))
                 for i in range(200)]
        sequential = ParetoArchive((MAX,) * 3)
        for key, payload, v in items:
            add(sequential, key, payload, v)
        batched = ParetoArchive((MAX,) * 3)
        merge(batched, items[:97])
        merge(batched, items[97:])
        assert {e.key for e in batched.entries} == {e.key for e in sequential.entries}
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
