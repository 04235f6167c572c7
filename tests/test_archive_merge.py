"""The incremental ParetoArchive merge against the union-mask algorithm it
replaced (oracles.UnionMaskArchive), and the checks merge_batch makes on its
matrix.  Every key is fresh, as the outer engine's visit numbers are: the
archive does not compare keys."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestevo.moea import (
    Direction,
    ObjectiveVector,
    ParetoArchive,
)

from oracles import UnionMaskArchive, add, dominates, merge

MAX = Direction.MAXIMIZE
MIN = Direction.MINIMIZE
DIRECTIONS = (MAX, MIN, MAX)


def vec(*values, directions=DIRECTIONS):
    return ObjectiveVector(tuple(float(v) for v in values), directions)


def listing(entries):
    return [(e.key, e.payload, e.vector) for e in entries]


def mutually_nondominated(entries):
    return not any(dominates(a.vector, b.vector)
                   for a in entries for b in entries if a is not b)


# A 0..2 grid per axis: equal vectors abound.
item = st.tuples(st.integers(0, 1_000), st.tuples(*(st.integers(0, 2),) * 3))
batches = st.lists(st.lists(item, max_size=12), max_size=8)


def keyed(items, keys):
    """(key, payload, vector) items, each key the next of `keys`."""
    return [(next(keys), payload, vec(*values)) for payload, values in items]


@settings(max_examples=300, deadline=None)
@given(batches)
def test_merge_batch_matches_union_mask(batch_list):
    fast, oracle = ParetoArchive(DIRECTIONS), UnionMaskArchive()
    keys = itertools.count()
    for batch in (keyed(b, keys) for b in batch_list):
        merge(fast, batch)
        oracle.merge_batch(batch)
        assert listing(fast.entries) == listing(oracle.entries)
        assert mutually_nondominated(fast.entries)


@settings(max_examples=300, deadline=None)
@given(st.lists(item, max_size=40), st.data())
def test_merge_batch_random_cuts(items, data):
    items = keyed(items, itertools.count())
    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=6)))
    bounds = [0] + cuts + [len(items)]
    fast, oracle = ParetoArchive(DIRECTIONS), UnionMaskArchive()
    for lo, hi in zip(bounds, bounds[1:]):
        merge(fast, items[lo:hi])  # empty when two cuts coincide
        oracle.merge_batch(items[lo:hi])
        assert listing(fast.entries) == listing(oracle.entries)
        assert mutually_nondominated(fast.entries)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(item.map(lambda i: ("add", i)),
                          st.lists(item, max_size=6).map(lambda b: ("merge", b))),
                max_size=20))
def test_add_and_merge_batch_mixed(ops):
    fast, oracle = ParetoArchive(DIRECTIONS), UnionMaskArchive()
    keys = itertools.count()
    for op, arg in ops:
        if op == "add":
            arg, = keyed([arg], keys)
            assert add(fast, *arg) == oracle.add(*arg)
        else:
            arg = keyed(arg, keys)
            merge(fast, arg)
            oracle.merge_batch(arg)
        assert listing(fast.entries) == listing(oracle.entries)
        assert mutually_nondominated(fast.entries)


def test_mismatched_batch_shape_raises():
    a = ParetoArchive(DIRECTIONS)
    merge(a, [("x", None, vec(1, 1, 1))])
    with pytest.raises(ValueError):
        merge(a, [("y", None, vec(1, 1, directions=(MAX, MAX)))])


def filled():
    a = ParetoArchive(DIRECTIONS)
    a.merge_batch(["x", "y"], ["px", "py"], np.array([[1.0, 2.0, 0.0],
                                                      [0.0, 1.0, 1.0]]))
    return a


@pytest.mark.parametrize("keys, payloads, values", [
    (["z"], ["pz"], np.zeros((1, 2))),                  # too few columns
    (["z"], ["pz"], np.zeros((1, 4))),                  # too many columns
    (["z"], ["pz"], np.zeros(3)),                       # not a matrix
    (["z", "w"], ["pz", "pw"], np.zeros((1, 3))),       # too few rows
    (["z"], ["pz"], np.zeros((2, 3))),                  # too many rows
    (["z", "w"], ["pz"], np.zeros((2, 3))),             # too few payloads
])
def test_batch_shape_mismatch_raises(keys, payloads, values):
    a = filled()
    before = listing(a.entries)
    with pytest.raises(ValueError):
        a.merge_batch(keys, payloads, values)
    assert listing(a.entries) == before


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_raises(bad):
    a = filled()
    before = listing(a.entries)
    with pytest.raises(ValueError, match="not finite"):
        a.merge_batch(["z"], ["p"], np.array([[0.5, bad, 0.5]]))
    assert listing(a.entries) == before


def test_empty_batch_changes_nothing():
    a = ParetoArchive(DIRECTIONS)
    a.merge_batch([], [], np.zeros((0, 3)))
    assert len(a) == 0 and a.entries == ()
    a = filled()
    before = listing(a.entries)
    a.merge_batch([], [], np.zeros((0, 3)))
    assert listing(a.entries) == before


def test_entries_give_back_the_raw_floats():
    # A MINIMIZE column is negated inside the archive; the entries must
    # still carry -0.0, 0.0 and every other float exactly as given.
    raw = [(-0.0, -0.0, 5e-324), (1.0, 0.1 + 0.2, -0.0), (1e308, 1e300, 0.0)]
    a = ParetoArchive((MAX, MIN, MIN))
    a.merge_batch(["a", "b", "c"], [None] * 3, np.array(raw))
    assert [e.key for e in a.entries] == ["a", "b", "c"]
    got = [e.vector.values for e in a.entries]
    assert [tuple(map(repr, v)) for v in got] == \
        [tuple(map(repr, v)) for v in raw]
    assert all(e.vector.directions == (MAX, MIN, MIN) for e in a.entries)
