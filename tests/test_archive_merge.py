"""The outer archive merge, ooe.merge_visits, against the union-mask
algorithm of the archive it replaced (oracles.UnionMaskArchive), and the
checks merge_visits makes on the visits' objectives.  Every visit number is
fresh, as the outer engine's are: the merge does not compare them."""

import copy
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nestevo.ooe import COMBINED_DIRECTIONS, merge_visits

from oracles import (
    ObjectiveVector,
    UnionMaskArchive,
    add,
    entries,
    is_mutually_nondominated,
    merge,
)


def vec(*values):
    return ObjectiveVector(tuple(float(v) for v in values), COMBINED_DIRECTIONS)


def listing(archive):
    return [(e.key, e.payload, e.vector) for e in archive]


# A 0..2 grid per axis: equal vectors abound.
item = st.tuples(st.integers(0, 1_000), st.tuples(*(st.integers(0, 2),) * 4))
batches = st.lists(st.lists(item, max_size=12), max_size=8)


def keyed(items, keys):
    """(key, payload, vector) items, each key the next of `keys`."""
    return [(next(keys), payload, vec(*values)) for payload, values in items]


def merged_unchanged(visits, items):
    """merge(visits, items), checking that it leaves `visits` as it was."""
    before = copy.deepcopy(visits)
    out = merge(visits, items)
    assert visits == before
    return out


@settings(max_examples=300, deadline=None)
@given(batches)
def test_merge_batch_matches_union_mask(batch_list):
    fast, oracle = {}, UnionMaskArchive()
    keys = itertools.count()
    for batch in (keyed(b, keys) for b in batch_list):
        fast = merged_unchanged(fast, batch)
        oracle.merge_batch(batch)
        assert listing(entries(fast)) == listing(oracle.entries)
        assert is_mutually_nondominated(fast)


@settings(max_examples=300, deadline=None)
@given(st.lists(item, max_size=40), st.data())
def test_merge_batch_random_cuts(items, data):
    items = keyed(items, itertools.count())
    cuts = sorted(data.draw(st.lists(st.integers(0, len(items)), max_size=6)))
    bounds = [0] + cuts + [len(items)]
    fast, oracle = {}, UnionMaskArchive()
    for lo, hi in zip(bounds, bounds[1:]):
        fast = merged_unchanged(fast, items[lo:hi])  # empty when cuts coincide
        oracle.merge_batch(items[lo:hi])
        assert listing(entries(fast)) == listing(oracle.entries)
        assert is_mutually_nondominated(fast)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(item.map(lambda i: ("add", i)),
                          st.lists(item, max_size=6).map(lambda b: ("merge", b))),
                max_size=20))
def test_add_and_merge_batch_mixed(ops):
    fast, oracle = {}, UnionMaskArchive()
    keys = itertools.count()
    for op, arg in ops:
        if op == "add":
            arg, = keyed([arg], keys)
            fast, entered = add(fast, *arg)
            assert entered == oracle.add(*arg)
        else:
            arg = keyed(arg, keys)
            fast = merged_unchanged(fast, arg)
            oracle.merge_batch(arg)
        assert listing(entries(fast)) == listing(oracle.entries)
        assert is_mutually_nondominated(fast)


def test_mismatched_batch_shape_raises():
    visits = merge({}, [(0, None, vec(1, 1, 1, 1))])
    with pytest.raises(ValueError):
        merge_visits(visits, {1: ((1.0, 1.0), None)})


def filled():
    return {0: ((1.0, 2.0, 0.0, 0.0), "p0"), 1: ((0.0, 1.0, 1.0, 1.0), "p1")}


@pytest.mark.parametrize("new", [
    {2: ((0.0,) * 3, "p2")},
    {2: ((0.0,) * 5, "p2")},
    {2: (0.0, "p2")},                                  # a number, not a row
    {2: ((), "p2")},                                   # no row
    {2: (((0.0,) * 4, (0.0,) * 4), "p2")},             # two rows
    {2: (0.0, 0.0, 0.0, 0.0)},                         # no rows with them
    {2: ((0.0,) * 4, "p2"), 3: ((0.0,) * 3, "p3")},    # unequal widths
    {2: ((0.0,) * 2, "p2"), 3: ((0.0,) * 2, "p3")},    # 4 numbers, 2 visits
], ids=["too-few-columns", "too-many-columns", "not-a-matrix", "too-few-rows",
        "too-many-rows", "no-payload", "ragged", "rows-that-sum-up"])
def test_batch_shape_mismatch_raises(new):
    visits = filled()
    for live, added in ((visits, new), ({}, new), (new, {})):
        with pytest.raises(ValueError):
            merge_visits(live, added)
    assert visits == filled()


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_raises(bad):
    visits = filled()
    with pytest.raises(ValueError, match="not finite"):
        merge_visits(visits, {2: ((0.5, bad, 0.5, 0.5), "p2")})
    assert visits == filled()


def test_empty_batch_changes_nothing():
    assert merge_visits({}, {}) == {}
    visits = filled()
    out = merge_visits(visits, {})
    assert list(out.items()) == list(filled().items())
    assert out is not visits


def test_entries_give_back_the_raw_floats():
    # A MINIMIZE column is negated inside the filter; the visits must still
    # carry -0.0, 0.0 and every other float exactly as given, as the very
    # objects given.
    raw = [(-0.0, -0.0, 5e-324, 0.0), (1.0, 0.1 + 0.2, -0.0, -1.0),
           (1e308, 1e300, 0.0, -1e308)]
    new = {v: (objectives, f"p{v}") for v, objectives in enumerate(raw)}
    out = merge_visits({}, new)
    assert list(out) == [0, 1, 2]
    assert all(out[v] is new[v] for v in out)
    assert [tuple(map(repr, out[v][0])) for v in out] == \
        [tuple(map(repr, objectives)) for objectives in raw]
