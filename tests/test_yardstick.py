"""The quality yardstick (tests/yardstick.py) on three backbones: the inner
engine's recall of the exhaustive inner front is pinned per seed, the way
test_identity pins bytes.  A change that alters the inner search on purpose
re-pins these counts once and reports the full yardstick table.

The L = 4 counts were recorded when the inner engine began to sample and
breed each generation from one block of uniforms (ioe._breed).  The L = 10
backbone, whose recall sits near 0.4 where L = 4's sits near 0.9, was
pinned later on the same stream: a change in survival or variation shows
there first.  The L = 12 backbone, the largest of the yardstick, was pinned
next, on the same stream, before its exhaustive front moved to a blockwise
filter (exhaustive.exact_inner_front).
"""

import pytest

import yardstick

BACKBONE = yardstick.BACKBONES[0]   # 4 exit positions, 1,890 candidates
LONG_BACKBONE = 190                 # 10 exit positions, 128,898 candidates
LONGEST_BACKBONE = 678              # 12 exit positions, 515,970 candidates

# Of the candidates on each exhaustive front (226, 724 and 425), the ones
# the inner search returns, per inner seed.
PINNED_FOUND = {0: 205, 1: 202, 2: 189, 3: 196, 4: 200}
PINNED_LONG_FOUND = {0: 304, 1: 271, 2: 284, 3: 303, 4: 292}
PINNED_LONGEST_FOUND = {0: 226, 1: 235, 2: 223, 3: 216, 4: 198}


def check_recall(backbone, seed, found):
    front = yardstick.truth(backbone)[0]
    recall, hv3_share, hv2_share = yardstick.measure(backbone, seed)
    assert round(recall * len(front)) == found
    assert 0 < hv3_share <= 1 + 1e-12 and 0 < hv2_share <= 1 + 1e-12


def test_exhaustive_front_size():
    front, hv3, hv2 = yardstick.truth(BACKBONE)
    assert len(front) == 226
    assert hv3 > 0 and hv2 > 0


@pytest.mark.parametrize("seed", sorted(PINNED_FOUND))
def test_recall_per_seed(seed):
    check_recall(BACKBONE, seed, PINNED_FOUND[seed])


def test_long_exhaustive_front_size():
    front, hv3, hv2 = yardstick.truth(LONG_BACKBONE)
    assert len(front) == 724
    assert hv3 > 0 and hv2 > 0


@pytest.mark.parametrize("seed", sorted(PINNED_LONG_FOUND))
def test_long_recall_per_seed(seed):
    check_recall(LONG_BACKBONE, seed, PINNED_LONG_FOUND[seed])


def test_longest_exhaustive_front_size():
    front, hv3, hv2 = yardstick.truth(LONGEST_BACKBONE)
    assert len(front) == 425
    assert hv3 > 0 and hv2 > 0


@pytest.mark.parametrize("seed", sorted(PINNED_LONGEST_FOUND))
def test_longest_recall_per_seed(seed):
    check_recall(LONGEST_BACKBONE, seed, PINNED_LONGEST_FOUND[seed])
