"""The quality yardstick (tests/yardstick.py) on its smallest backbone: the
inner engine's recall of the exhaustive inner front is pinned per seed, the
way test_identity pins bytes.  A change that alters the inner search on
purpose re-pins these counts once and reports the full yardstick table.

The counts were recorded when the inner engine began to sample and breed
each generation from one block of uniforms (ioe._breed).
"""

import pytest

import yardstick

BACKBONE = yardstick.BACKBONES[0]   # 4 exit positions, 1,890 candidates

# Of the 226 candidates on the exhaustive front, the ones the inner archive
# holds, per inner seed.
PINNED_FOUND = {0: 205, 1: 202, 2: 189, 3: 196, 4: 200}


def test_exhaustive_front_size():
    front, hv3, hv2 = yardstick.truth(BACKBONE)
    assert len(front) == 226
    assert hv3 > 0 and hv2 > 0


@pytest.mark.parametrize("seed", sorted(PINNED_FOUND))
def test_recall_per_seed(seed):
    front = yardstick.truth(BACKBONE)[0]
    recall, hv3_share, hv2_share = yardstick.measure(BACKBONE, seed)
    assert round(recall * len(front)) == PINNED_FOUND[seed]
    assert 0 < hv3_share <= 1 + 1e-12 and 0 < hv2_share <= 1 + 1e-12
