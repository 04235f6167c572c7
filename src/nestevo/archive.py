"""Archive persistence: a JSON document with config digest, per-generation
records, and the final solution set; a flat plot-ready CSV of the front;
and one checkpoint per generation that holds what the generation changed
and the state to resume from.  All writes are atomic (temp file + rename),
and the text of every row is a function of the solution alone, so
byte-for-byte determinism can be asserted on disk.  A row is read back by
solution_from_dict, and checkpoints 1..k are replayed into the search state
after generation k by replay_checkpoints.
"""

from __future__ import annotations

import csv
import io
import json
import os
import random
from dataclasses import asdict, replace
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Sequence

from .evaluator import StaticScore
from .genome import BackboneGenome, BlockGenes, DvfsGenome, ExitGenome
from .ioe import DynamicScore
from .moea import ArchiveEntry, ObjectiveVector
from .ooe import (
    COMBINED_DIRECTIONS,
    EvalCounters,
    FinalSolution,
    GenerationRecord,
    OoeResult,
    OoeState,
)

SCHEMA_VERSION = 1


def atomic_write_text(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _blocks_str(b: BackboneGenome) -> str:
    return "|".join(f"{g.depth_idx}-{g.width_idx}-{g.kernel_idx}-{g.expand_idx}"
                    for g in b.blocks)


# The solution schema, one entry per field in front.csv column order: the
# CSV column, and the field's section of an archive.json row (None: the
# row's top level) and its name there.  The CSV writer turns None into an
# empty cell and floats into their repr.
_FIELDS = (
    ("resolution_idx", "backbone", "resolution_idx"),
    ("blocks", "backbone", "blocks"),
    ("exit_bits", None, "exit_bits"),
    ("device", "dvfs", "device"),
    ("compute_idx", "dvfs", "compute_idx"),
    ("emc_idx", "dvfs", "emc_idx"),
    ("acc", "static", "acc"),
    ("latency_ms", "static", "latency_ms"),
    ("energy_mj", "static", "energy_mj"),
    ("mean_correct", "dynamic", "mean_correct"),
    ("energy_ratio", "dynamic", "mean_energy_ratio"),
    ("latency_ratio", "dynamic", "mean_latency_ratio"),
    ("mean_dissimilarity", "dynamic", "mean_dissimilarity"),
    ("n_exits", "dynamic", "n_exits"),
    ("mean_exit_score", "dynamic", "mean_exit_score"),
)

FRONT_CSV_COLUMNS = tuple(f[0] for f in _FIELDS)


# The parts of a FinalSolution that its fields are read from, in _FIELDS
# order, each with its fields' values.  A part fills one key of an
# archive.json row: a section, or the top-level exit_bits.
_PARTS = (
    ("backbone", lambda b: (b.resolution_idx, _blocks_str(b))),
    ("exits", lambda x: (x.key(),)),
    ("dvfs", attrgetter("device", "compute_idx", "emc_idx")),
    ("static_score", attrgetter("accuracy", "latency_ms", "energy_mj")),
    ("dynamic_score", attrgetter("mean_correct", "mean_energy_ratio",
                                 "mean_latency_ratio", "mean_dissimilarity",
                                 "n_exits", "mean_exit_score")),
)


def _values(sol: FinalSolution) -> tuple:
    """The solution's fields in _FIELDS order."""
    return sum((values(getattr(sol, attr)) for attr, values in _PARTS), ())


def _blocks_from_str(s: str) -> tuple[BlockGenes, ...]:
    return tuple(BlockGenes(*(int(v) for v in part.split("-")))
                 for part in s.split("|"))


def solution_from_values(values: Sequence) -> FinalSolution:
    """The solution whose fields in _FIELDS order are `values`."""
    (resolution, blocks, bits, device, compute, emc, acc, latency, energy,
     correct, energy_ratio, latency_ratio, dissimilarity, n_exits,
     exit_score) = values
    return FinalSolution(
        BackboneGenome(resolution, _blocks_from_str(blocks)),
        ExitGenome(tuple(int(c) for c in bits)),
        DvfsGenome(device, compute, emc),
        StaticScore(acc, latency, energy),
        DynamicScore(exit_score, correct, energy_ratio, latency_ratio,
                     dissimilarity, n_exits),
    )


def solution_from_dict(doc: dict) -> tuple[FinalSolution, ObjectiveVector]:
    """One loaded archive.json row as a solution and its objective vector."""
    sol = solution_from_values([(doc if section is None else doc[section])[name]
                                for _, section, name in _FIELDS])
    return sol, ObjectiveVector(tuple(doc["objectives"]), COMBINED_DIRECTIONS)


def _sorted_entries(entries: Sequence[ArchiveEntry]) -> list[ArchiveEntry]:
    return sorted(entries, key=lambda e: e.key)


def archive_header(result: OoeResult, digest: str, seed: int) -> dict:
    """The archive document without its "final" rows."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "seed": seed,
        "counters": asdict(result.counters),
        "generations": [asdict(rec) for rec in result.snapshots],
    }


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_value(v) -> str:
    """A scalar as json.dumps spells it (bools before ints, as it checks)."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return _NON_FINITE.get(text, text)
    if isinstance(v, str):
        return encode_basestring_ascii(v)
    if v is None:
        return "null"
    if v is True:
        return "true"
    if v is False:
        return "false"
    if isinstance(v, int):
        return int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} "
                    "is not JSON serializable")


# A row sits one level below "final": its keys are indented by 6 spaces and
# the items of its sections by 8.
_ROW_INDENT = "\n      "
_ITEM_INDENT = "\n        "


def _json_block(open_: str, items: list[str], close: str) -> str:
    """A section of a row, one item per line as json.dumps indents it."""
    if not items:
        return open_ + close
    return (open_ + _ITEM_INDENT + ("," + _ITEM_INDENT).join(items)
            + _ROW_INDENT + close)


def _objectives_json(vector: ObjectiveVector) -> str:
    return _json_block("[", [_json_value(v) for v in vector.values], "]")


def _key(name: str) -> str:
    return encode_basestring_ascii(name).replace("%", "%%") + ": "


def _compile_row() -> tuple[str, tuple]:
    """The %-template of an archive.json row as json.dumps(row, indent=2,
    sort_keys=True) writes it one level below "final", with one slot per row
    key, and per slot in key order the getter of the object the slot is read
    from (an attribute of the row's ArchiveEntry) and its renderer."""
    slots = {"objectives": (attrgetter("vector"), _objectives_json)}
    groups = groupby(_FIELDS, key=lambda f: f[1] or f[2])
    for (attr, values), (key, fields) in zip(_PARTS, groups, strict=True):
        fields = list(fields)
        names = [name for _, _, name in fields]
        order = sorted(range(len(names)), key=names.__getitem__)
        template = "%s" if fields[0][1] is None else _json_block(
            "{", [_key(names[i]) + "%s" for i in order], "}")

        def render(part, template=template, order=order, values=values):
            spelled = [_json_value(v) for v in values(part)]
            return template % tuple([spelled[i] for i in order])
        slots[key] = (attrgetter("payload." + attr), render)
    keys = sorted(slots)
    row = "{" + _ROW_INDENT + ("," + _ROW_INDENT).join(
        _key(k) + "%s" for k in keys) + "\n    }"
    return row, tuple(slots[k] for k in keys)


_ROW, _ROW_SLOTS = _compile_row()


def _row_json(e: ArchiveEntry, last: list) -> str:
    """One row's text.  A slot's text is a function of the one object it is
    read from, so it is reused while that object recurs from row to row:
    rows sorted by key come in backbone order, and all rows of a backbone
    visit share its backbone, static score and objective vector.  `last`
    holds, per slot, the object it was last read from and that text."""
    filled = []
    for k, (part_of, render) in enumerate(_ROW_SLOTS):
        part = part_of(e)
        cached = last[k]
        if cached is None or cached[0] is not part:
            cached = last[k] = (part, render(part))
        filled.append(cached[1])
    return _ROW % tuple(filled)


class RowEncoder:
    """JSON text of a run's archive rows, each row rendered once.

    A row's text is kept while its entry object stays in the archive: from
    the checkpoint of the generation in which it entered to archive.json (an
    evicted key that comes back is a new entry and is rendered anew)."""

    def __init__(self) -> None:
        self._texts: dict[int, tuple[ArchiveEntry, str]] = {}

    def rows_json(self, entries: Sequence[ArchiveEntry]) -> str:
        """The list of the entries' rows, in their order, as
        json.dumps(doc, indent=2) writes it one level below the document
        root.  New texts are kept."""
        rows = []
        last: list = [None] * len(_ROW_SLOTS)
        for e in entries:
            cached = self._texts.get(id(e))
            if cached is None or cached[0] is not e:
                cached = self._texts[id(e)] = (e, _row_json(e, last))
            rows.append(cached[1])
        if not rows:
            return "[]"
        return "[\n    " + ",\n    ".join(rows) + "\n  ]"

    def keep(self, entries: Sequence[ArchiveEntry]) -> None:
        """Keep the texts of `entries` only."""
        self._texts = {id(e): cached for e in entries
                       if (cached := self._texts.get(id(e))) and cached[0] is e}

    def final_json(self, entries: Sequence[ArchiveEntry]) -> str:
        """rows_json of the entries sorted by key; only their texts are
        kept."""
        entries = _sorted_entries(entries)
        text = self.rows_json(entries)
        self.keep(entries)
        return text


# Stands in for the "final" list while the rest of a document is encoded.
_FINAL_MARK = "\x00final\x00"


def save_json(path: str, doc: dict, final_json: str | None = None) -> None:
    """Write json.dumps(doc, indent=2, sort_keys=True).  With `final_json`
    (from RowEncoder) that text is the document's "final" list."""
    if final_json is None:
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = json.dumps(dict(doc, final=_FINAL_MARK), indent=2, sort_keys=True
                          ).replace(json.dumps(_FINAL_MARK), final_json, 1)
    atomic_write_text(path, text + "\n")


def save_checkpoint(path: str, state: OoeState, digest: str,
                    rows: RowEncoder) -> None:
    """Write what the state's generation changed: under "final" the rows of
    the visits that entered the archive, in visit order, with each visit's
    number and row count under "visits"; the evicted visits; the
    generation's record; and under "resume" the state the next generation
    starts from.  Only the archive's rows stay in `rows`."""
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "generation": state.generation,
        "record": asdict(state.snapshots[-1]),
        "visits": [[v, len(state.visits[v])] for v in state.added],
        "evicted": state.evicted,
        "resume": {"counters": asdict(state.counters),
                   "n_visits": state.n_visits,
                   "population": state.population,
                   "rng_state": state.rng_state},
    }
    save_json(path, doc, rows.rows_json(
        [row for v in state.added for row in state.visits[v]]))
    rows.keep(state.entries)


def _visit_entries(visit: int, docs: Sequence[dict]) -> tuple[ArchiveEntry, ...]:
    """A visit's loaded rows as entries that share the first row's backbone,
    static score and objective vector, as the rows of a live visit do."""
    first = None
    entries = []
    for doc in docs:
        sol, vector = solution_from_dict(doc)
        if first is None:
            first = sol, vector
        elif (sol.backbone, sol.static_score, vector) != (
                first[0].backbone, first[0].static_score, first[1]):
            raise ValueError(f"the rows of visit {visit} differ in backbone, "
                             "static score or objectives")
        else:
            sol = replace(sol, backbone=first[0].backbone,
                          static_score=first[0].static_score)
            vector = first[1]
        entries.append(ArchiveEntry(sol.key(), sol, vector))
    return tuple(entries)


def replay_checkpoints(paths: Sequence[str]) -> OoeState:
    """The search state after generation k, rebuilt from the checkpoints of
    generations 1..k, given in order.  A checkpoint that holds another
    generation, no resume state, row counts that do not add up to its rows,
    rows of one visit that differ in backbone, static score or objectives,
    or an RNG state that random.Random refuses raises ValueError."""
    visits: dict[int, tuple[ArchiveEntry, ...]] = {}
    snapshots = []
    for gen, path in enumerate(paths, 1):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("generation") != gen:
            raise ValueError(f"the checkpoint of generation {gen} is missing: "
                             f"{path} holds generation {doc.get('generation')}")
        if "resume" not in doc:
            raise ValueError(f"{path} holds no resume state")
        counts = [count for _, count in doc["visits"]]
        if sum(counts) != len(doc["final"]) or not all(
                isinstance(c, int) and c > 0 for c in counts):
            raise ValueError(f"{path} lists {len(doc['final'])} rows under "
                             f"final and row counts {counts} under visits")
        rows = iter(doc["final"])
        for visit, count in doc["visits"]:
            visits[visit] = _visit_entries(visit, list(islice(rows, count)))
        for visit in doc["evicted"]:
            del visits[visit]
        snapshots.append(GenerationRecord(**doc["record"]))
    resume = doc["resume"]
    version, internal, gauss = resume["rng_state"]
    rng_state = (version, tuple(internal), gauss)
    random.Random().setstate(rng_state)
    return OoeState(
        visits, tuple(v for v, _ in doc["visits"]), tuple(doc["evicted"]),
        tuple(snapshots), EvalCounters(**resume["counters"]),
        resume["n_visits"], tuple(map(tuple, resume["population"])), rng_state)


def write_front_csv(path: str, entries: Sequence[ArchiveEntry]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(FRONT_CSV_COLUMNS)
    writer.writerows(_values(e.payload) for e in _sorted_entries(entries))
    atomic_write_text(path, buf.getvalue())


def read_front_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(FRONT_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"front CSV missing columns: {sorted(missing)}")
        return list(reader)
