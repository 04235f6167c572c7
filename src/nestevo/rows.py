"""The schema of an archived solution and the texts of its row.

A row is one solution of a backbone visit (one backbone forwarded in one
generation): its fields in _FIELDS order, and the visit's combined
objectives.  render_rows spells each row once, as its front.csv line, and
that line is the only form a row takes until the outputs are written:
archive_text spells the row's archive.json text from it, with the visit's
objectives_block, while archive.json is being written.  A checkpoint stores
only a row's genes, from which the replay renders the line anew.  No
command builds a solution object or reads a line back, so _FIELDS and
render_rows are the one schema of an archived solution (the tests read rows
back into fields and objects in tests/oracles.py).
"""

from __future__ import annotations

import csv
import json
from json.encoder import encode_basestring_ascii
from operator import itemgetter
from typing import Iterable, Sequence

from .evaluator import StaticScore
from .genome import BackboneGenome, BlockGenes
from .moea import Direction

STATIC_DIRECTIONS = (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE)
COMBINED_DIRECTIONS = STATIC_DIRECTIONS + (Direction.MAXIMIZE,)


Row = tuple[tuple, str]  # key, front.csv line
# A row of the final archive: key, front.csv line, its visit's
# objectives_block.
FinalRow = tuple[tuple, str, str]


def _int_or_none(text: str) -> int | None:
    return None if text == "" else int(text)


# The solution schema, one entry per field in front.csv column order: the
# CSV column, the field's section of an archive.json row (None: the row's
# top level) and its name there, and the type that reads the field back
# from its CSV cell.  The CSV writer turns None into an empty cell and
# floats into their repr.
_FIELDS = (
    ("resolution_idx", "backbone", "resolution_idx", int),
    ("blocks", "backbone", "blocks", str),
    ("exit_bits", None, "exit_bits", str),
    ("device", "dvfs", "device", str),
    ("compute_idx", "dvfs", "compute_idx", int),
    ("emc_idx", "dvfs", "emc_idx", _int_or_none),
    ("acc", "static", "acc", float),
    ("latency_ms", "static", "latency_ms", float),
    ("energy_mj", "static", "energy_mj", float),
    ("mean_correct", "dynamic", "mean_correct", float),
    ("energy_ratio", "dynamic", "mean_energy_ratio", float),
    ("latency_ratio", "dynamic", "mean_latency_ratio", float),
    ("mean_dissimilarity", "dynamic", "mean_dissimilarity", float),
    ("n_exits", "dynamic", "n_exits", int),
    ("mean_exit_score", "dynamic", "mean_exit_score", float),
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


_CSV_SPECIAL = frozenset(',"\n')


def _spell(v) -> str:
    """A scalar's text as csv.writer spells it in a QUOTE_MINIMAL field:
    floats by their repr, None as an empty field, and a string quoted only
    when it holds a comma, a quote or a \\n (with lineterminator "\\n" the
    writer leaves a bare \\r unquoted).  A value of any other type, which
    archive.json could not hold, raises TypeError."""
    if isinstance(v, float):
        return float.__repr__(v)
    if isinstance(v, str):
        if _CSV_SPECIAL.isdisjoint(v):
            return v
        return '"' + v.replace('"', '""') + '"'
    if v is None:
        return ""
    if isinstance(v, int):
        return str(v) if isinstance(v, bool) else int.__repr__(v)
    raise TypeError(f"Object of type {type(v).__name__} "
                    "is not JSON serializable")


def _spell_column(values: Sequence) -> Sequence[str]:
    """The CSV texts of a column of values, each spelled once: a column of
    plain floats or plain ints by their repr, one of plain strings that
    need no quoting as they are, any other one value by value (_spell).  A
    column that repeats one object, as a visit's backbone and static fields
    do, is spelled once."""
    if len(values) > 1 and len(set(map(id, values))) == 1:
        return [_spell(values[0])] * len(values)
    kinds = set(map(type, values))
    if kinds == {float} or kinds == {int}:
        return list(map(kinds.pop().__repr__, values))
    if kinds == {str} and _CSV_SPECIAL.isdisjoint("".join(values)):
        return values
    return list(map(_spell, values))


def render_rows(rows: Sequence[Sequence]) -> list[Row]:
    """The keys and front.csv lines of the rows of one visit, from their
    fields in _FIELDS order.  A line is the row as
    csv.writer(lineterminator="\\n") writes it; each value is spelled once,
    column by column."""
    if not rows:
        return []
    columns = list(zip(*rows))
    lines = [",".join(parts) + "\n"
             for parts in zip(*map(_spell_column, columns))]
    keys = []
    head = b_key = None
    for key in zip(*columns[:6]):
        if key[:2] != head:
            head = key[:2]
            b_key = BackboneGenome(head[0], _blocks_from_str(head[1])).key()
        keys.append((b_key,) + key[2:])
    return list(zip(keys, lines))


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


def _compile_row() -> tuple[str, tuple[int, ...]]:
    """The %-template of an archive.json row as json.dumps(row, indent=2,
    sort_keys=True) writes it one level below "final": one slot per field
    and one for the visit's objectives, and per slot in template order the
    field's place in _FIELDS (len(_FIELDS): the objectives)."""
    # Per key of a row: None for the objectives, a field's place for a
    # top-level field, a section's (name, place) pairs.
    slots: dict[str, int | list | None] = {"objectives": None}
    for i, (_, section, name, _) in enumerate(_FIELDS):
        if section is None:
            slots[name] = i
        else:
            slots.setdefault(section, []).append((name, i))
    parts, order = [], []
    for key in sorted(slots):
        slot = slots[key]
        if isinstance(slot, list):
            slot.sort()
            order.extend(i for _, i in slot)
            parts.append(_key(key) + _json_block(
                "{", [_key(name) + "%s" for name, _ in slot], "}"))
        else:
            order.append(len(_FIELDS) if slot is None else slot)
            parts.append(_key(key) + "%s")
    row = "{" + _ROW_INDENT + ("," + _ROW_INDENT).join(parts) + "\n    }"
    return row, tuple(order)


_ROW, _ROW_ORDER = _compile_row()
_TEMPLATE_ORDER = itemgetter(*_ROW_ORDER)
# Per field: whether its cell holds a string, which JSON quotes.  Any other
# cell is a number's repr (or a bool's) or empty, and JSON spells it the
# same but for these texts.
_STRING_CELLS = tuple(read is str for _, _, _, read in _FIELDS)
_JSON_OF_CELL = {"": "null", "nan": "NaN", "inf": "Infinity",
                 "-inf": "-Infinity", "True": "true", "False": "false"}


def objectives_block(objectives: Sequence[float]) -> str:
    """The "objectives" value of the archive.json rows of a visit whose
    combined objectives are `objectives`, as json.dumps(doc, indent=2)
    writes it in a row."""
    return json.dumps(list(objectives), indent=2).replace("\n", _ROW_INDENT)


def archive_text(line: str, objectives: str) -> str:
    """The archive.json text of the row whose front.csv line (with its line
    break) is `line` and whose visit's objectives_block is `objectives`: the
    row as json.dumps(doc, indent=2, sort_keys=True) writes it one level
    below "final"."""
    cells = (next(csv.reader([line[:-1]])) if '"' in line
             else line[:-1].split(","))
    cells = [encode_basestring_ascii(cell) if quoted
             else _JSON_OF_CELL.get(cell, cell)
             for cell, quoted in zip(cells, _STRING_CELLS)]
    cells.append(objectives)
    return _ROW % _TEMPLATE_ORDER(cells)
