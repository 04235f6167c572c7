import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestevo.metrics import (
    Front,
    _hv3d,
    compare_fronts,
    hypervolume,
    hypervolume_mc,
    ratio_of_dominance,
)
from nestevo.moea import Direction, ObjectiveVector, dominates
from oracles import hv3d, merge_nondominated

MAX = Direction.MAXIMIZE
MIN = Direction.MINIMIZE


def vec(*values, directions=None):
    if directions is None:
        directions = (MAX,) * len(values)
    return ObjectiveVector(tuple(float(v) for v in values), tuple(directions))


def front_of(points, reference):
    return Front([vec(*p) for p in points], vec(*reference))


def random_2d_front(rng, n_points):
    # Strictly decreasing y over increasing x gives a mutually
    # non-dominated set in (0, 1)^2.
    xs = sorted(rng.uniform(0.05, 1.0) for _ in range(n_points))
    ys = sorted((rng.uniform(0.05, 1.0) for _ in range(n_points)), reverse=True)
    return [(x, y) for x, y in zip(xs, ys)]


# Independent Monte Carlo oracle (vectorized, no module code reused).
def mc_oracle(points, reference, samples, seed):
    pts = np.asarray(points, dtype=float)
    ref = np.asarray(reference, dtype=float)
    hi = pts.max(axis=0)
    box = float(np.prod(hi - ref))
    rng = np.random.default_rng(seed)
    draws = rng.uniform(ref, hi, size=(samples, pts.shape[1]))
    hits = (pts[None, :, :] >= draws[:, None, :]).all(-1).any(-1)
    frac = hits.mean()
    return box * frac, box * math.sqrt(frac * (1 - frac) / samples)


class TestFrontConstruction:
    def test_filters_dominated_and_duplicates(self):
        f = Front([vec(1, 1), vec(0, 0), vec(1, 1), vec(2, 0)])
        assert sorted(p.values for p in f.points) == [(1.0, 1.0), (2.0, 0.0)]

    def test_reference_violation_raises(self):
        with pytest.raises(ValueError):
            front_of([(0.5, -0.1)], (0.0, 0.0))

    def test_reference_equal_point_allowed(self):
        f = front_of([(0.0, 0.0)], (0.0, 0.0))
        assert hypervolume(f) == 0.0

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            Front([vec(1, 1), vec(1, 1, 1)])
        with pytest.raises(ValueError):
            Front([vec(1, 1)], vec(0, 0, 0))


class TestHypervolume2D:
    def test_single_point_rectangle(self):
        assert hypervolume(front_of([(0.5, 0.5)], (0.0, 0.0))) == pytest.approx(
            0.25, abs=1e-12)

    def test_two_point_inclusion_exclusion(self):
        # 0.8*0.2 + 0.2*0.8 - 0.2*0.2 = 0.28, by hand.
        f = front_of([(0.8, 0.2), (0.2, 0.8)], (0.0, 0.0))
        assert hypervolume(f) == pytest.approx(0.28, abs=1e-12)

    def test_empty_front_zero(self):
        assert hypervolume(Front([], vec(0, 0))) == 0.0

    def test_permutation_invariant(self):
        rng = random.Random(1)
        pts = random_2d_front(rng, 8)
        ref = (0.0, 0.0)
        base = hypervolume(front_of(pts, ref))
        for _ in range(10):
            rng.shuffle(pts)
            assert hypervolume(front_of(pts, ref)) == pytest.approx(base, abs=1e-14)

    def test_mixed_directions(self):
        # (MAX, MIN) objectives with reference (0, 10); by hand 1.6.
        points = [vec(0.2, 5, directions=(MAX, MIN)),
                  vec(0.8, 9, directions=(MAX, MIN))]
        f = Front(points, vec(0, 10, directions=(MAX, MIN)))
        assert hypervolume(f) == pytest.approx(1.6, abs=1e-12)

    def test_matches_mc_oracle(self):
        rng = random.Random(2)
        for trial in range(20):
            pts = random_2d_front(rng, rng.randint(1, 12))
            exact = hypervolume(front_of(pts, (0.0, 0.0)))
            est, se = mc_oracle(pts, (0.0, 0.0), 200_000, seed=trial)
            assert abs(exact - est) <= max(3 * se, 1e-9)

    def test_monotone_under_nondominated_insertion(self):
        rng = random.Random(3)
        for _ in range(300):
            pts = random_2d_front(rng, rng.randint(1, 10))
            f = front_of(pts, (0.0, 0.0))
            before = hypervolume(f)
            new_point = (rng.uniform(0.0, 1.2), rng.uniform(0.0, 1.2))
            merged = merge_nondominated(
                f.points, [vec(*new_point)], vec(0.0, 0.0))
            assert hypervolume(merged) >= before - 1e-12


class TestHypervolume3D:
    def test_single_point_box(self):
        f = front_of([(0.5, 0.5, 0.5)], (0.0, 0.0, 0.0))
        assert hypervolume(f) == pytest.approx(0.125, abs=1e-12)

    def test_two_point_inclusion_exclusion(self):
        # vol(A) + vol(B) - vol(A meet B) = 0.12 + 0.168 - 0.08 = 0.208.
        f = front_of([(0.6, 0.4, 0.5), (0.4, 0.6, 0.7)], (0.0, 0.0, 0.0))
        assert hypervolume(f) == pytest.approx(0.208, abs=1e-12)

    def test_matches_mc_estimator(self):
        rng = random.Random(4)
        for trial in range(10):
            pts = [(rng.uniform(0.1, 1), rng.uniform(0.1, 1), rng.uniform(0.1, 1))
                   for _ in range(6)]
            f = front_of(pts, (0.0, 0.0, 0.0))
            exact = hypervolume(f)
            est, se = hypervolume_mc(f, 200_000, seed=trial)
            assert abs(exact - est) <= max(3 * se, 1e-9)

    def test_degenerate_shared_coordinate(self):
        # All points share z: volume is the 2-D volume times the z extent.
        f = front_of([(0.8, 0.2, 0.5), (0.2, 0.8, 0.5)], (0.0, 0.0, 0.0))
        assert hypervolume(f) == pytest.approx(0.28 * 0.5, abs=1e-12)


# Coordinates on a coarse grid (ties and repeats are common) or anywhere in
# [0, 1]; every point is repeated once more in part of the draws.
_coord = st.one_of(st.integers(0, 4).map(lambda k: k / 4), st.floats(0, 1))
_points_3d = st.tuples(st.lists(st.tuples(_coord, _coord, _coord), max_size=25),
                       st.booleans()).map(lambda t: t[0] + t[0][::2] if t[1] else t[0])


@settings(max_examples=300, deadline=None)
@given(_points_3d)
def test_hv3d_unfiltered_slices_equal_filtered_oracle(points):
    # Dominated, tied and repeated points in every slice.
    assert _hv3d(points, (0.0, 0.0, 0.0)) == hv3d(points, (0.0, 0.0, 0.0))


@settings(max_examples=300, deadline=None)
@given(_points_3d, st.tuples(st.booleans(), st.booleans(), st.booleans()))
def test_hypervolume_3d_equals_filtered_oracle_mixed_directions(points, flips):
    # A minimized coordinate stores 1 - v against reference 1, so its
    # normalized value v - 1 still dominates the normalized reference -1.
    directions = tuple(MIN if f else MAX for f in flips)
    stored = [tuple(1 - v if f else v for v, f in zip(p, flips)) for p in points]
    ref = vec(*(1.0 if f else 0.0 for f in flips), directions=directions)
    front = Front([vec(*p, directions=directions) for p in stored], ref)
    expected = hv3d([p.normalized() for p in front.points], ref.normalized())
    assert hypervolume(front) == expected


class TestHypervolumeHighDim:
    def test_exact_raises_for_4d(self):
        f = front_of([(0.5, 0.5, 0.5, 0.5)], (0.0, 0.0, 0.0, 0.0))
        with pytest.raises(ValueError):
            hypervolume(f)

    def test_mc_4d_single_point(self):
        f = front_of([(0.5, 0.5, 0.5, 0.5)], (0.0, 0.0, 0.0, 0.0))
        est, se = hypervolume_mc(f, 400_000, seed=0)
        assert abs(est - 0.5**4) <= max(3 * se, 1e-9)

    def test_missing_reference_raises(self):
        f = Front([vec(1, 1)])
        with pytest.raises(ValueError):
            hypervolume(f)


class TestRatioOfDominance:
    def test_total_dominance(self):
        a = Front([vec(1, 1)])
        b = Front([vec(0, 0)])
        assert ratio_of_dominance(a, b) == 1.0
        assert ratio_of_dominance(b, a) == 0.0

    def test_identical_fronts_zero(self):
        rng = random.Random(5)
        pts = random_2d_front(rng, 6)
        a = Front([vec(*p) for p in pts])
        b = Front([vec(*p) for p in pts])
        assert ratio_of_dominance(a, b) == 0.0
        assert ratio_of_dominance(a, a) == 0.0

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(6)
        for _ in range(50):
            a = Front([vec(*p) for p in random_2d_front(rng, 16)])
            b = Front([vec(*p) for p in random_2d_front(rng, 16)])
            expected = sum(
                1 for p in a.points
                if any(dominates(p, q) for q in b.points)
            ) / len(a.points)
            assert ratio_of_dominance(a, b) == pytest.approx(expected, abs=1e-15)

    def test_matches_pairwise_oracle_with_duplicates(self):
        # Integer grid points, mixed directions: repeated input points
        # (which Front collapses), points shared by both fronts, and empty
        # fronts are all common.
        rng = random.Random(8)
        dirs = (MAX, MIN, MAX)
        for _ in range(300):
            pts = [tuple(rng.randint(0, 3) for _ in range(3))
                   for _ in range(rng.randint(1, 25))]
            a = Front([vec(*p, directions=dirs)
                       for p in rng.choices(pts, k=rng.randint(0, 20))])
            b = Front([vec(*p, directions=dirs)
                       for p in rng.choices(pts, k=rng.randint(0, 20))])
            expected = (sum(1 for p in a.points
                            if any(dominates(p, q) for q in b.points))
                        / len(a.points)) if a.points else 0.0
            assert ratio_of_dominance(a, b) == expected

    def test_shape_mismatch_raises(self):
        with pytest.raises(ValueError):
            ratio_of_dominance(Front([vec(1, 1)]), Front([vec(1, 1, 1)]))

    def test_empty_front_zero(self):
        assert ratio_of_dominance(Front([]), Front([vec(1, 1)])) == 0.0
        assert ratio_of_dominance(Front([vec(1, 1)]), Front([])) == 0.0


class TestMerge:
    def test_idempotent(self):
        rng = random.Random(7)
        pts = [vec(*p) for p in random_2d_front(rng, 5)]
        merged = merge_nondominated(pts, pts)
        assert sorted(p.values for p in merged.points) == sorted(
            p.values for p in pts)

    def test_incomparable_retained(self):
        merged = merge_nondominated([vec(1, 0)], [vec(0, 1)])
        assert len(merged) == 2

    def test_dominated_dropped(self):
        merged = merge_nondominated([vec(1, 1)], [vec(0, 0)])
        assert [p.values for p in merged.points] == [(1.0, 1.0)]


class TestCompareFronts:
    def test_exact_path(self):
        a = front_of([(0.5, 0.5)], (0.0, 0.0))
        b = front_of([(0.25, 0.25)], (0.0, 0.0))
        report = compare_fronts(a, b)
        assert report.hv_a == pytest.approx(0.25, abs=1e-12)
        assert report.hv_b == pytest.approx(0.0625, abs=1e-12)
        assert report.rod_a_over_b == 1.0
        assert report.rod_b_over_a == 0.0
