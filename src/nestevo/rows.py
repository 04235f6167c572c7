"""The schema of an archived solution and the texts of its row.

A row is one solution of a backbone visit (one backbone forwarded in one
generation): its fields in _FIELDS order, and the visit's combined
objectives.  render_rows makes each row's archive.json text and front.csv
line, once; the writers in nestevo.archive only join them.  read_entries
reads rows back as ArchiveEntry objects with FinalSolution payloads, for
library callers and tests: the search itself builds neither.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from itertools import accumulate, groupby
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .evaluator import StaticScore
from .genome import BackboneGenome, BlockGenes, DvfsGenome, ExitGenome
from .ioe import DynamicScore
from .moea import ArchiveEntry, Direction, ObjectiveVector

STATIC_DIRECTIONS = (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE)
COMBINED_DIRECTIONS = STATIC_DIRECTIONS + (Direction.MAXIMIZE,)


@dataclass(frozen=True)
class FinalSolution:
    backbone: BackboneGenome
    exits: ExitGenome
    dvfs: DvfsGenome
    static_score: StaticScore
    dynamic_score: DynamicScore

    def key(self) -> tuple:
        return (self.backbone.key(), self.exits.key()) + self.dvfs.key()


Row = tuple[tuple, str, str]  # key, archive.json text, front.csv line

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


def _blocks_str(b: BackboneGenome) -> str:
    return "|".join(f"{g.depth_idx}-{g.width_idx}-{g.kernel_idx}-{g.expand_idx}"
                    for g in b.blocks)


def _blocks_from_str(s: str) -> tuple[BlockGenes, ...]:
    return tuple(BlockGenes(*(int(v) for v in part.split("-")))
                 for part in s.split("|"))


def visit_values(backbone: BackboneGenome, static: StaticScore,
                 solutions: Iterable[tuple]) -> list[tuple]:
    """The fields, in _FIELDS order, of `backbone`'s inner solutions, each
    given as IoeResult.solution_fields spells it."""
    head = (backbone.resolution_idx, _blocks_str(backbone))
    scores = (static.accuracy, static.latency_ms, static.energy_mj)
    # A solution's DynamicScore fields lead with mean_exit_score, which
    # _FIELDS puts last.
    return [head + s[:4] + scores + s[5:] + s[4:5] for s in solutions]


def row_values(doc: dict) -> tuple:
    """A loaded archive.json row's fields in _FIELDS order."""
    return tuple((doc if section is None else doc[section])[name]
                 for _, section, name in _FIELDS)


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


def read_entries(rows: Iterable[Row]) -> tuple[ArchiveEntry, ...]:
    """Rows read back from their archive.json texts as FinalSolution entries."""
    entries = []
    for key, text, _ in rows:
        doc = json.loads(text)
        entries.append(ArchiveEntry(key, solution_from_values(row_values(doc)),
                                    ObjectiveVector(tuple(doc["objectives"]),
                                                    COMBINED_DIRECTIONS)))
    return tuple(entries)


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


def _key(name: str) -> str:
    return encode_basestring_ascii(name).replace("%", "%%") + ": "


def _compile_row() -> tuple[str, tuple]:
    """The %-template of an archive.json row as json.dumps(row, indent=2,
    sort_keys=True) writes it one level below "final", with one slot per row
    key, and per slot in key order the slice of the row's fields it is
    filled from (None: the visit's objectives) and its renderer."""
    slots = {"objectives": (None, lambda values: _json_block(
        "[", [_json_value(v) for v in values], "]"))}
    start = 0
    for key, fields in groupby(_FIELDS, key=lambda f: f[1] or f[2]):
        fields = list(fields)
        names = [name for _, _, name in fields]
        order = sorted(range(len(names)), key=names.__getitem__)
        template = "%s" if fields[0][1] is None else _json_block(
            "{", [_key(names[i]) + "%s" for i in order], "}")

        def render(values, template=template, order=order):
            spelled = [_json_value(v) for v in values]
            return template % tuple([spelled[i] for i in order])
        slots[key] = (slice(start, start + len(names)), render)
        start += len(names)
    keys = sorted(slots)
    row = "{" + _ROW_INDENT + ("," + _ROW_INDENT).join(
        _key(k) + "%s" for k in keys) + "\n    }"
    return row, tuple(slots[k] for k in keys)


_ROW, _ROW_SLOTS = _compile_row()


def _spelled_alike(a: Sequence, b: Sequence) -> bool:
    """Whether equal values spell alike (0.0 and -0.0, 1 and 1.0 do not)."""
    return all(x is y or (type(x) is type(y) and (
        x or not isinstance(x, float)
        or math.copysign(1.0, x) == math.copysign(1.0, y)))
        for x, y in zip(a, b))


def render_rows(rows: Sequence[Sequence], objectives: Sequence[float]
                ) -> list[Row]:
    """The rows of one visit, from their fields in _FIELDS order and the
    visit's combined objectives.  A JSON text is the row as json.dumps(doc,
    indent=2, sort_keys=True) writes it one level below "final"; the lines
    are one csv.writer(lineterminator="\\n") pass, cut where each writerow
    ended, as a quoted field may hold a line break.  A slot's text is reused
    while its values are equal and spelled alike, so a visit's backbone,
    static and objectives are rendered once."""
    buf = io.StringIO()
    ends = list(accumulate(map(csv.writer(buf, lineterminator="\n").writerow,
                               rows)))
    lines = buf.getvalue()
    last: list = [None] * len(_ROW_SLOTS)  # per slot: its values and text
    head = b_key = None
    out = []
    for values, start, end in zip(rows, [0] + ends, ends):
        filled = []
        for k, (part, render) in enumerate(_ROW_SLOTS):
            v = objectives if part is None else values[part]
            cached = last[k]
            if (cached is None or cached[0] != v
                    or not _spelled_alike(cached[0], v)):
                cached = last[k] = (v, render(v))
            filled.append(cached[1])
        if values[:2] != head:
            head = values[:2]
            b_key = BackboneGenome(head[0], _blocks_from_str(head[1])).key()
        out.append(((b_key,) + tuple(values[2:6]), _ROW % tuple(filled),
                    lines[start:end]))
    return out
