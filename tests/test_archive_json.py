"""Archive rows encoded once per run (RowEncoder) against json.dumps of the
whole document: the bytes must be the same."""

import json
from dataclasses import replace

from nestevo import archive as ar
from nestevo.evaluator import StaticScore
from nestevo.genome import BackboneGenome, BlockGenes, DvfsGenome, ExitGenome
from nestevo.ioe import DynamicScore
from nestevo.moea import ArchiveEntry, ObjectiveVector
from nestevo.ooe import COMBINED_DIRECTIONS, FinalSolution


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


def expected_text(doc, entries):
    full = dict(doc, final=[ar.solution_to_dict(e.payload, e.vector)
                            for e in sorted(entries, key=lambda e: e.key)])
    return json.dumps(full, indent=2, sort_keys=True) + "\n"


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
        assert text == expected_text(doc, entries)


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
        expected_text(doc, entries)
    assert saved_text(tmp_path, doc, None) == \
        json.dumps(doc, indent=2, sort_keys=True) + "\n"


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

