"""Archive rows rendered once per run (RowEncoder) and front.csv against
the oracles in tests/oracles.py (one json.dumps of the whole document, one
csv.DictWriter row per solution): the bytes must be the same."""

import json
import math
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from nestevo import archive as ar
from nestevo.evaluator import StaticScore
from nestevo.genome import BackboneGenome, BlockGenes, DvfsGenome, ExitGenome
from nestevo.ioe import DynamicScore
from nestevo.moea import ArchiveEntry, ObjectiveVector
from nestevo.ooe import COMBINED_DIRECTIONS, FinalSolution

from oracles import archive_text, front_csv_text


def entry(bits, compute_idx, emc_idx, hv, device="dev"):
    sol = FinalSolution(
        BackboneGenome(1, (BlockGenes(2, 0, 1, 3), BlockGenes(0, 4, 0, 1))),
        ExitGenome(bits), DvfsGenome(device, compute_idx, emc_idx),
        StaticScore(0.71, 12.5, 0.1 + 0.2),
        DynamicScore(0.25, 0.5, 0.6, 1 / 3, 0.9, sum(bits)),
    )
    vector = ObjectiveVector((0.71, 12.5, 0.30000000000000004, hv),
                             COMBINED_DIRECTIONS)
    return ArchiveEntry(sol.key(), sol, vector)


def saved_text(tmp_path, doc, final_json):
    path = tmp_path / "doc.json"
    ar.save_json(str(path), doc, final_json)
    return path.read_text(encoding="utf-8")


def test_checkpoint_sequence_matches_json_dumps(tmp_path):
    doc = {"schema_version": 1, "config_digest": "ab" * 32, "generation": 0}
    a = entry((1, 0, 1), 2, None, 0.125)          # emc_idx null
    b = entry((0, 1, 1), 0, 3, 0.5)
    c = entry((1, 1, 1), 1, 1, 1e-7)
    a_again = entry((1, 0, 1), 2, None, 0.875)    # evicted key, new vector
    rows = ar.RowEncoder()
    # a_again replaces a both right after a was live and after a gap.
    for gen, entries in enumerate([[], [a], [b, a], [a_again, b], [c, b],
                                   [a, c], [a_again, c, b], []]):
        doc["generation"] = gen
        text = saved_text(tmp_path, doc, rows.final_json(entries))
        assert text == archive_text(doc, entries)


def test_archive_document_matches_json_dumps(tmp_path):
    doc = {"schema_version": 1, "config_digest": "0" * 64, "seed": 3,
           "counters": {"static_evals": 4, "dynamic_evals": 40,
                        "forwarded_backbones": 2},
           "generations": [{"generation": 1, "archive_size": 2}]}
    entries = [entry((0, 1), 1, None, 0.3, device="dév"),
               entry((1, 1), 0, None, 0.3)]
    rows = ar.RowEncoder()
    rows.final_json(entries[:1])
    assert saved_text(tmp_path, doc, rows.final_json(entries)) == \
        archive_text(doc, entries)
    assert saved_text(tmp_path, doc, None) == \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"


def test_row_text_cached_under_a_reused_id_is_not_reused(tmp_path):
    # An evicted entry's id can be taken by a later entry.  Put the evicted
    # entry's (entry, text) pair under the new entry's id, as that reuse
    # would leave it: the new entry must still be rendered from itself.
    doc = {"schema_version": 1, "config_digest": "cd" * 32, "generation": 1}
    stale = entry((1, 0, 1), 2, None, 0.125)
    fresh = entry((0, 1, 1), 0, 3, 0.5)
    rows = ar.RowEncoder()
    rows.final_json([stale])
    rows._texts = {id(fresh): rows._texts[id(stale)]}
    assert saved_text(tmp_path, doc, rows.final_json([fresh])) == \
        archive_text(doc, [fresh])


def with_scores(e, mean_dissimilarity, mean_exit_score):
    sol = e.payload
    sol = replace(sol, dynamic_score=replace(
        sol.dynamic_score, mean_dissimilarity=mean_dissimilarity,
        mean_exit_score=mean_exit_score))
    return ArchiveEntry(e.key, sol, e.vector)


# Rows the toy run never writes: an integer emc_idx next to a null one, a
# non-ASCII device name, and floats whose repr is not a short decimal.
ODD_ROWS = [
    entry((1, 0, 1), 2, None, 0.125),
    entry((0, 1, 1), 0, 3, 1e-7, device="dév"),
    with_scores(entry((1, 1, 1), 1, 0, 5e-324), 1e-7, 5e-324),
    with_scores(entry((1, 1, 0), 4, 12, 0.1 + 0.2, device="Jetson ÅGX"),
                0.1 + 0.2, 1e-7),
]


def test_json_rows_round_trip(tmp_path):
    doc = {"schema_version": 1, "config_digest": "f" * 64, "seed": 11}
    first = saved_text(tmp_path, doc, ar.RowEncoder().final_json(ODD_ROWS))
    decoded = [ar.solution_from_dict(row) for row in json.loads(first)["final"]]
    assert [sol for sol, _ in decoded] == \
        [e.payload for e in sorted(ODD_ROWS, key=lambda e: e.key)]
    again = [ArchiveEntry(sol.key(), sol, vector) for sol, vector in decoded]
    assert saved_text(tmp_path, doc, ar.RowEncoder().final_json(again)) == first


def test_csv_rows_round_trip(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    ar.write_front_csv(str(first), ODD_ROWS)
    text = first.read_text(encoding="utf-8")
    assert "5e-324" in text and "1e-07" in text and "dév" in text
    rows = ar.read_front_csv(str(first))
    assert [row["emc_idx"] for row in rows] == ["3", "", "12", "0"]
    sols = [ar.front_solution_from_row(row) for row in rows]
    assert sols == [e.payload for e in sorted(ODD_ROWS, key=lambda e: e.key)]
    ar.write_front_csv(str(second),
                       [ArchiveEntry(sol.key(), sol, None) for sol in sols])
    assert second.read_bytes() == first.read_bytes()


# ---------------------------------------------------------------------------
# The row template and the csv.writer front against the oracles

# Floats whose spellings differ from a short decimal: signed zero, the
# smallest subnormal, exponent forms, a long repr, numpy scalars.
odd_float = st.sampled_from([0.0, -0.0, 5e-324, 1e16, 1e-7, 0.1 + 0.2, 1 / 3,
                             np.float64(0.1 + 0.2), np.float64(-0.0),
                             np.float64(1e16)])
finite_float = st.one_of(odd_float, st.floats(allow_nan=False,
                                              allow_infinity=False))
# Score fields are not validated, so they may be NaN or infinite.
score_float = st.one_of(finite_float, st.sampled_from(
    [math.nan, math.inf, -math.inf, np.float64(math.nan)]))
positive_float = st.one_of(
    st.sampled_from([5e-324, 1e16, 1e-7, 0.1 + 0.2, math.inf, math.nan]),
    st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False))
# Quotes, separators, escapes, control and non-ASCII characters.
device_name = st.text(st.one_of(
    st.sampled_from('"\',\\%{}\n\r\t\x00\x1f\x7f \u00e9\u2248\U0001d11e'),
    st.characters()), max_size=6)
small_int = st.integers(0, 20)

backbones = st.builds(
    BackboneGenome, small_int,
    st.lists(st.builds(BlockGenes, small_int, small_int, small_int, small_int),
             min_size=1, max_size=3).map(tuple))
exit_genomes = st.builds(
    ExitGenome, st.lists(st.sampled_from([0, 1]), min_size=1, max_size=6
                         ).map(tuple))


def pooled(strategy):
    """A few objects; the rows draw from them, so rows share some parts."""
    return st.lists(strategy, min_size=1, max_size=3)


@st.composite
def device_settings(draw):
    """A few settings of one device, which has a memory clock knob (emc_idx
    an int) or not (None): solution keys must sort."""
    device = draw(device_name)
    emc = st.integers(-3, 40) if draw(st.booleans()) else st.none()
    return draw(pooled(st.builds(DvfsGenome, st.just(device),
                                 st.integers(0, 2**70), emc)))


static_scores = st.builds(
    StaticScore, st.one_of(st.sampled_from([0.0, -0.0, 5e-324, 1e-7, 1.0]),
                           st.floats(0.0, 1.0)),
    positive_float, positive_float)
dynamic_scores = st.builds(DynamicScore, score_float, score_float, score_float,
                           score_float, score_float, small_int)
vectors = st.builds(ObjectiveVector, st.tuples(*(finite_float,) * 4),
                    st.just(COMBINED_DIRECTIONS))


@st.composite
def checkpoint_sequences(draw):
    """Archives of consecutive generations over one pool of entries.  Rows
    share backbones, scores, vectors and other parts while their remaining
    parts differ; an entry object stays through several generations; and a
    key can leave and come back as a new entry with another vector."""
    parts = [draw(pooled(backbones)), draw(pooled(exit_genomes)),
             draw(device_settings()), draw(pooled(static_scores)),
             draw(pooled(dynamic_scores)), draw(pooled(vectors))]
    pool = []
    for _ in range(draw(st.integers(0, 10))):
        b, x, f, static, dynamic, vector = (draw(st.sampled_from(p))
                                            for p in parts)
        sol = FinalSolution(b, x, f, static, dynamic)
        pool.append(ArchiveEntry(sol.key(), sol, vector))
    generations = []
    for _ in range(draw(st.integers(1, 5))):
        chosen = draw(st.lists(st.sampled_from(pool), max_size=8)) if pool else []
        by_key = {}
        for e in chosen:
            by_key.setdefault(e.key, e)
        generations.append(list(by_key.values()))
    return generations


@settings(max_examples=300, deadline=None)
@given(checkpoint_sequences())
def test_rows_and_front_match_oracles(generations):
    doc = {"schema_version": 1, "config_digest": "c" * 64, "generation": 0}
    rows = ar.RowEncoder()
    with tempfile.TemporaryDirectory() as tmp:
        for gen, entries in enumerate(generations):
            doc["generation"] = gen
            path = Path(tmp, "checkpoint.json")
            ar.save_json(str(path), doc, rows.final_json(entries))
            assert path.read_bytes() == archive_text(doc, entries).encode()
            front = Path(tmp, "front.csv")
            ar.write_front_csv(str(front), entries)
            assert front.read_bytes() == \
                front_csv_text(entries).encode("utf-8")
