"""Archive rows rendered from their values as front.csv lines
(rows.render_rows), spelled from those lines as archive.json texts
(rows.archive_text), and joined into archive.json and front.csv, against
the oracles in tests/oracles.py (the document laid out by layout_text from
json.dumps calls, one csv.DictWriter row per solution, one json.dumps of
each row): the bytes must be the same.  Every document save_json writes
holds one record per line, as layout_text lays it out.  A row's front.csv
line reads back (oracles.read_lines) to the same row.  The search itself
builds no solution object per row, and holds no row's JSON text."""

import json
import math
import os
import tempfile
import tracemalloc
from dataclasses import replace
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nestevo.ooe as ooe
from nestevo import archive as ar
from nestevo.cli import build_backend, run_search
from nestevo.config import parse_config
from nestevo.evaluator import StaticScore
from nestevo.genome import BackboneGenome, BlockGenes, DvfsGenome, ExitGenome
from nestevo.ioe import DynamicScore
from nestevo.ooe import COMBINED_DIRECTIONS
from nestevo.rows import (_blocks_str, archive_text as row_archive_text,
                          objectives_block, render_rows)

import test_identity
from oracles import (
    ArchiveEntry,
    FinalSolution,
    ObjectiveVector,
    archive_text,
    front_csv_text,
    front_solution_from_row,
    layout_text,
    lists_by_line,
    read_entries,
    read_lines,
    row_text,
    solution_from_dict,
    solution_values,
)


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


def rendered(entries) -> list:
    """The entries' final rows (key, line, objectives block) through
    render_rows, sorted by key: one call per run of entries that share one
    vector object, as a visit's rows do.  Each line's archive.json text is
    that of the row_text oracle."""
    rows = []
    for _, visit in groupby(entries, key=lambda e: id(e.vector)):
        visit = list(visit)
        values = [solution_values(e.payload) for e in visit]
        got = render_rows(values)
        assert [key for key, _ in got] == [e.key for e in visit]
        block = objectives_block(visit[0].vector.values)
        for (_, line), v in zip(got, values):
            assert row_archive_text(line, block) == \
                row_text(v, visit[0].vector.values)
        rows += [(key, line, block) for key, line in got]
    return sorted(rows, key=itemgetter(0))


def texts(entries) -> list[str]:
    return [row_archive_text(line, block)
            for _, line, block in rendered(entries)]


def lines(entries) -> list[str]:
    return [line for _, line, _ in rendered(entries)]


def saved_text(tmp_path, doc, final):
    path = tmp_path / "doc.json"
    ar.save_json(str(path), doc, final)
    return path.read_text(encoding="utf-8")


def test_checkpoint_sequence_matches_json_dumps(tmp_path):
    doc = {"schema_version": 1, "config_digest": "ab" * 32, "generation": 0}
    a = entry((1, 0, 1), 2, None, 0.125)          # emc_idx null
    b = entry((0, 1, 1), 0, 3, 0.5)
    c = entry((1, 1, 1), 1, 1, 1e-7)
    a_again = entry((1, 0, 1), 2, None, 0.875)    # evicted key, new vector
    # a_again replaces a both right after a was live and after a gap.
    for gen, entries in enumerate([[], [a], [b, a], [a_again, b], [c, b],
                                   [a, c], [a_again, c, b], []]):
        doc["generation"] = gen
        text = saved_text(tmp_path, doc, texts(entries))
        assert text == archive_text(doc, entries)


def test_archive_document_matches_json_dumps(tmp_path):
    doc = {"schema_version": 1, "config_digest": "0" * 64, "seed": 3,
           "counters": {"static_evals": 4, "dynamic_evals": 40,
                        "forwarded_backbones": 2},
           "generations": [{"generation": 1, "archive_size": 2}]}
    entries = [entry((0, 1), 1, None, 0.3, device="dév"),
               entry((1, 1), 0, None, 0.3)]
    assert saved_text(tmp_path, doc, texts(entries[:1])) == \
        archive_text(doc, entries[:1])
    assert saved_text(tmp_path, doc, texts(entries)) == \
        archive_text(doc, entries)
    assert saved_text(tmp_path, doc, None) == layout_text(doc)


def test_layout_puts_each_record_on_one_line(tmp_path):
    # The document one key per line; a top-level list, or one whose items
    # include objects, one item per line, and an object that holds such a
    # list one key per line; any other value compact on its own line.
    doc = {"b": [{"x": 1.5}, 2], "a": {"k": [1, [2]], "s": "é\""},
           "c": [[{"y": None}]], "d": [], "e": {"rows": [{"z": 1}], "n": 2},
           "f": {}}
    assert saved_text(tmp_path, doc, None) == (
        '{\n'
        '  "a": {"k":[1,[2]],"s":"\\u00e9\\""},\n'
        '  "b": [\n'
        '    {"x":1.5},\n'
        '    2\n'
        '  ],\n'
        '  "c": [\n'
        '    [\n'
        '      {"y":null}\n'
        '    ]\n'
        '  ],\n'
        '  "d": [],\n'
        '  "e": {\n'
        '    "n": 2,\n'
        '    "rows": [\n'
        '      {"z":1}\n'
        '    ]\n'
        '  },\n'
        '  "f": {}\n'
        '}\n') == layout_text(doc)


def test_search_outputs_hold_one_record_per_line(tmp_path):
    # Each archive.json row, and each gene string, visit and evicted visit
    # of a checkpoint, sits on its own line; the resume state on one line;
    # and line 2 of every file is the config digest's.
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC,
                       out_override=str(tmp_path))
    run_search(cfg)
    text = (tmp_path / "archive.json").read_text(encoding="utf-8")
    doc = json.loads(text)
    for key in ("final", "generations"):
        assert lists_by_line(text, key) == [doc[key]]
    paths = sorted(tmp_path.glob("checkpoint_gen_*.json"))
    assert len(paths) == cfg.ooe.generations
    evicted = 0
    for path in [tmp_path / "archive.json", *paths]:
        text = path.read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text.splitlines()[1] == \
            f'  "config_digest": "{doc["config_digest"]}",'
        if path.name == "archive.json":
            continue
        for key in ("final", "visits", "evicted"):
            assert lists_by_line(text, key) == \
                ([doc[key]] if doc[key] else []), (path.name, key)
        evicted += len(doc["evicted"])
        resume = json.dumps(doc["resume"], separators=(",", ":"),
                            sort_keys=True)
        assert f'  "resume": {resume},' in text.splitlines()
    assert evicted


def test_failed_write_leaves_the_earlier_file_and_no_temp_file(tmp_path):
    doc = {"schema_version": 1, "config_digest": "d" * 64}
    path = tmp_path / "doc.json"
    ar.save_json(str(path), doc, texts(ODD_ROWS))
    before = path.read_bytes()
    # The write fails after part of the document has been written.
    with pytest.raises(TypeError):
        ar.save_json(str(path), doc, texts(ODD_ROWS) + [3])
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["doc.json"]


def traced_peak(write) -> int:
    """The peak of traced allocation, in bytes, while write() runs."""
    tracemalloc.start()
    try:
        write()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_archive_document_is_written_without_a_copy(tmp_path):
    # 16.8 MB of row texts: the writer holds none of it a second time.
    final = [f'{{"row": {i:5d}, "pad": "{"x" * 820}"}}' for i in range(20_000)]
    doc = {"schema_version": 1, "config_digest": "a" * 64, "seed": 1}
    path = tmp_path / "archive.json"
    assert sum(map(len, final)) >= 16e6
    assert traced_peak(lambda: ar.save_json(str(path), doc, final)) <= 1e6
    assert json.loads(path.read_text(encoding="utf-8"))["final"][-1]["row"] \
        == 19_999


def test_archive_document_is_written_from_lines_without_a_copy(tmp_path):
    # As the search writes it: 20,000 rows held as front.csv lines (10 MB),
    # whose archive.json texts (17 MB) exist one at a time, as written.
    visits = [ODD_ROWS[:2], ODD_ROWS[2:]]
    padded = [[replace(e.payload, dvfs=replace(e.payload.dvfs,
                                               device="x" * 420 + str(i)))
               for e in visit] for i, visit in enumerate(visits)]
    rows = [(line, objectives_block(visit[0].vector.values))
            for visit, sols in zip(visits, padded)
            for _, line in render_rows([solution_values(s) for s in sols])]
    rows = [rows[i % len(rows)] for i in range(20_000)]
    doc = {"schema_version": 1, "config_digest": "a" * 64, "seed": 1}
    path = tmp_path / "archive.json"
    assert sum(len(line) for line, _ in rows) >= 8e6

    def write():
        ar.save_json(str(path), doc, (row_archive_text(line, block)
                                      for line, block in rows))

    assert traced_peak(write) <= 1e6
    assert path.stat().st_size >= 16e6
    final = json.loads(path.read_text(encoding="utf-8"))["final"]
    assert len(final) == 20_000
    assert final[-1]["dvfs"]["device"] == "x" * 420 + "1"


def test_front_csv_is_written_without_a_copy(tmp_path):
    lines = [f"{i:5d},{'y' * 194}\n" for i in range(20_000)]
    path = tmp_path / "front.csv"
    assert sum(map(len, lines)) >= 4e6
    assert traced_peak(lambda: ar.write_front_csv(str(path), lines)) <= 1e6
    assert path.read_text(encoding="utf-8").endswith(lines[-1])


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


def test_equal_values_spelled_apart_are_rendered_apart(tmp_path):
    # 0.0 == -0.0 and 1 == 1.0 == True, but json.dumps and csv spell them
    # apart: a slot's text is reused only while its values spell alike.
    vector = ObjectiveVector((0.0, 1.0, 2.0, 0.5), COMBINED_DIRECTIONS)
    entries = []
    for bits, acc, n_exits in [((1, 0, 0), 0.0, 1), ((0, 1, 0), -0.0, 1.0),
                               ((0, 0, 1), 0.0, True), ((1, 1, 0), 0.0, 1)]:
        e = entry(bits, 0, None, 0.5)
        sol = replace(e.payload, static_score=StaticScore(acc, 12.5, 0.3),
                      dynamic_score=replace(e.payload.dynamic_score,
                                            n_exits=n_exits))
        entries.append(ArchiveEntry(e.key, sol, vector))
    doc = {"schema_version": 1, "config_digest": "e" * 64}
    assert saved_text(tmp_path, doc, texts(entries)) == \
        archive_text(doc, entries)
    front = tmp_path / "front.csv"
    ar.write_front_csv(str(front), lines(entries))
    assert front.read_text(encoding="utf-8") == front_csv_text(entries)


def test_json_rows_round_trip(tmp_path):
    doc = {"schema_version": 1, "config_digest": "f" * 64, "seed": 11}
    first = saved_text(tmp_path, doc, texts(ODD_ROWS))
    decoded = [solution_from_dict(row) for row in json.loads(first)["final"]]
    assert [sol for sol, _ in decoded] == \
        [e.payload for e in sorted(ODD_ROWS, key=lambda e: e.key)]
    again = [ArchiveEntry(sol.key(), sol, vector) for sol, vector in decoded]
    assert saved_text(tmp_path, doc, texts(again)) == first
    # The rows of a search result are read back through the same reader.
    assert read_entries(rendered(ODD_ROWS)) == \
        tuple(sorted(ODD_ROWS, key=lambda e: e.key))


def test_csv_rows_round_trip(tmp_path):
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    ar.write_front_csv(str(first), lines(ODD_ROWS))
    text = first.read_text(encoding="utf-8")
    assert "5e-324" in text and "1e-07" in text and "dév" in text
    rows = ar.read_front_csv(str(first))
    assert [row["emc_idx"] for row in rows] == ["3", "", "12", "0"]
    sols = [front_solution_from_row(row) for row in rows]
    assert sols == [e.payload for e in sorted(ODD_ROWS, key=lambda e: e.key)]
    ar.write_front_csv(str(second), [
        line for sol in sols
        for _, line in render_rows([solution_values(sol)])])
    assert second.read_bytes() == first.read_bytes()


def test_search_builds_no_object_per_row(tmp_path, monkeypatch):
    # The rows of a search travel as values and texts only: no archive
    # entry object is built, in the main process or (with one CPU)
    # anywhere.  None can be: ArchiveEntry and FinalSolution are test
    # oracles, and the outer archive is a dict of visits.
    built = []
    init = ArchiveEntry.__init__

    def counted(self, *args, **kwargs):
        built.append("ArchiveEntry")
        init(self, *args, **kwargs)

    monkeypatch.setattr(ArchiveEntry, "__init__", counted)
    monkeypatch.setattr(ooe, "_cpus", lambda: 1)
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC,
                       out_override=str(tmp_path))
    run_search(cfg)
    assert test_identity.digests(tmp_path) == \
        test_identity.PINNED["small-default"]
    assert built == []


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
# Quotes, separators, escapes, control and non-ASCII characters; no lone
# surrogate, which DeviceSpec refuses since UTF-8 cannot encode it.
device_name = st.text(st.one_of(
    st.sampled_from('"\',\\%{}\n\r\t\x00\x1f\x7f \u00e9\u2248\U0001d11e'),
    st.characters(exclude_categories=("Cs",))), max_size=6)
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
    with tempfile.TemporaryDirectory() as tmp:
        for gen, entries in enumerate(generations):
            doc["generation"] = gen
            rows = rendered(entries)
            path = Path(tmp, "checkpoint.json")
            ar.save_json(str(path), doc, (row_archive_text(line, block)
                                          for _, line, block in rows))
            assert path.read_bytes() == archive_text(doc, entries).encode()
            front = Path(tmp, "front.csv")
            ar.write_front_csv(str(front), [line for _, line, _ in rows])
            assert front.read_bytes() == \
                front_csv_text(entries).encode("utf-8")


@settings(max_examples=300, deadline=None)
@given(checkpoint_sequences())
def test_lines_read_back_to_their_rows(generations):
    # Read back, a row's front.csv line renders to the row it came from, key
    # included.  An
    # unquoted \r, which DeviceSpec refuses, is the one cell the CSV reader
    # cannot read back.
    for entries in generations:
        for e in entries:
            rows = rendered([e])
            try:
                values = read_lines([rows[0][1][:-1]])
            except ValueError as exc:
                assert "\r" in e.payload.dvfs.device, exc
                continue
            assert render_rows(values) == [row[:2] for row in rows]


# Field values as the search never makes them but a row may hold: device
# names with separators, quotes, line breaks, non-ASCII text or nothing,
# ints beyond 64 bits, no memory clock, and non-finite scores.
odd_device = st.one_of(device_name, st.sampled_from(
    ["", ",", '"', '""', "a,b", 'say "hi"', "line\nbreak", "car\rriage",
     'both\r"', "dév,ÅGX", "\u2248\n\r,\""]))
big_int = st.one_of(small_int, st.integers(-2**70, 2**70))


@st.composite
def visit_values(draw):
    """The fields, in _FIELDS order, of the rows of one visit: one backbone
    and static score, and for each row its own exits, setting and scores."""
    b = draw(backbones)
    static = draw(static_scores)
    head = (b.resolution_idx, _blocks_str(b))
    scores = (static.accuracy, static.latency_ms, static.energy_mj)
    rows = []
    for _ in range(draw(st.integers(1, 4))):
        bits = "".join(map(str, draw(exit_genomes).indicators))
        setting = (draw(odd_device), draw(big_int),
                   draw(st.one_of(st.none(), big_int)))
        dynamic = draw(st.tuples(*(score_float,) * 4))
        rows.append(head + (bits,) + setting + scores + dynamic
                    + (draw(big_int), draw(score_float)))
    return rows


@settings(max_examples=500, deadline=None)
@given(visit_values(), st.tuples(*(score_float,) * 4))
def test_archive_text_matches_the_template_render(rows, objectives):
    # Each row's archive.json text, spelled from its front.csv line, is the
    # text the row template held when every value was spelled by json.dumps.
    block = objectives_block(objectives)
    for (_, line), values in zip(render_rows(rows), rows):
        assert row_archive_text(line, block) == row_text(values, objectives)


def test_archive_json_rows_are_spelled_as_they_are_written(tmp_path,
                                                          monkeypatch):
    # run_search hands save_json an iterator of row texts, each made as the
    # writer draws it, never a list of them; so do the checkpoints.
    handed = []
    save = ar.save_json

    def recording(path, doc, final=None):
        handed.append(os.path.basename(path))
        assert final is None or iter(final) is final, path
        save(path, doc, final)

    monkeypatch.setattr(ar, "save_json", recording)
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC,
                       out_override=str(tmp_path))
    run_search(cfg)
    assert handed[-1] == "archive.json"
    assert test_identity.digests(tmp_path) == \
        test_identity.PINNED["small-default"]


def test_rows_travel_without_their_json_text(tmp_path):
    # From the workers to the final write a row is its key and front.csv
    # line; the result adds its visit's objectives block, spelled once per
    # visit.  No row's archive.json text is held.
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC,
                       out_override=str(tmp_path))
    states = []
    result = ooe.run_ooe(cfg.space, cfg.device_spec(), build_backend(cfg),
                         cfg.hw, cfg.surrogate, cfg.ooe, cfg.variation,
                         on_generation=states.append)
    for state in states:
        for rows in (rows for _, rows in state.visits.values()):
            assert all(len(row) == 2 for row in rows)
            assert render_rows(read_lines([line[:-1] for _, line in rows])) \
                == list(rows)
    live = states[-1].visits.values()
    assert [row[:2] for row in result.rows] == \
        sorted(row for _, rows in live for row in rows)
    assert all(len(row) == 3 for row in result.rows)
    assert {block for _, _, block in result.rows} == \
        {objectives_block(objectives) for objectives, _ in live}
    assert len({id(block) for _, _, block in result.rows}) == len(live)


# JSON values as a document may hold them: big ints, floats with odd
# spellings or none finite, None, and strings with quotes, escapes,
# control and non-ASCII characters.
json_strings = st.text(st.one_of(
    st.sampled_from('"\\/\n\r\t\x00\x1f\x7f é≈\U0001d11e'),
    st.characters()), max_size=6)
json_scalars = st.one_of(
    st.none(), st.booleans(), st.integers(-2**70, 2**70),
    st.floats(allow_nan=False), odd_float.map(float), json_strings)
json_values = st.recursive(
    json_scalars, lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=24)
# Items of a "final" list given as their texts: scalars and flat objects.
final_items = st.lists(st.one_of(
    json_scalars, st.dictionaries(json_strings, json_scalars, max_size=3)),
    max_size=4)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(json_strings, json_values, max_size=6),
       st.one_of(st.none(), final_items))
def test_saved_text_reads_back_and_matches_the_layout_oracle(doc, final):
    texts = None if final is None else (
        json.dumps(item, separators=(",", ":"), sort_keys=True)
        for item in final)
    with tempfile.TemporaryDirectory() as tmp:
        text = saved_text(Path(tmp), doc, texts)
    full = doc if final is None else dict(doc, final=final)
    assert json.loads(text) == full
    assert text == layout_text(full)
    assert text.isascii()
