"""Archive persistence: a JSON document with config digest, per-generation
snapshots, and the final solution set, plus a flat plot-ready CSV of the
front.  All writes are atomic (temp file + rename), and the text of every
row is a function of the solution alone, so byte-for-byte determinism can
be asserted on disk.  The readers that rebuild solutions from both files
live with the tests (tests/oracles.py), which check that a read-and-rewrite
gives the same bytes.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import asdict
from itertools import groupby
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from typing import Sequence

from .genome import BackboneGenome
from .moea import ArchiveEntry, ObjectiveVector
from .ooe import FinalSolution, OoeResult

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

    Checkpoints and archive.json list the same rows again and again, so each
    row's text is kept for as long as the same entry object stays in the
    archive (an evicted key that comes back is a new entry and is rendered
    anew)."""

    def __init__(self) -> None:
        self._texts: dict[int, tuple[ArchiveEntry, str]] = {}

    def final_json(self, entries: Sequence[ArchiveEntry]) -> str:
        """The sorted "final" list as json.dumps(doc, indent=2) writes it
        one level below the document root."""
        texts = {}
        rows = []
        last: list = [None] * len(_ROW_SLOTS)
        for e in _sorted_entries(entries):
            cached = self._texts.get(id(e))
            if cached is None or cached[0] is not e:
                cached = (e, _row_json(e, last))
            texts[id(e)] = cached
            rows.append(cached[1])
        self._texts = texts
        if not rows:
            return "[]"
        return "[\n    " + ",\n    ".join(rows) + "\n  ]"


# Stands in for the "final" list while the rest of a document is encoded.
_FINAL_MARK = "\x00final\x00"


def save_json(path: str, doc: dict, final_json: str | None = None) -> None:
    """Write json.dumps(doc, indent=2, sort_keys=True).  With `final_json`
    (from RowEncoder.final_json) that text is the document's "final" list."""
    if final_json is None:
        text = json.dumps(doc, indent=2, sort_keys=True)
    else:
        text = json.dumps(dict(doc, final=_FINAL_MARK), indent=2, sort_keys=True
                          ).replace(json.dumps(_FINAL_MARK), final_json, 1)
    atomic_write_text(path, text + "\n")


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
