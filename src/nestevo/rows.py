"""The schema of an archived solution and the texts of its row.

A row is one solution of a backbone visit (one backbone forwarded in one
generation): its fields in _FIELDS order, and the visit's combined
objectives.  render_rows makes each row's archive.json text and front.csv
line, once; the writers in nestevo.archive only join them, and a checkpoint
stores only the lines, which read_lines reads back into fields.  No command
builds a solution object, so _FIELDS and render_rows are the one schema of
an archived solution (the tests read rows back into objects in
tests/oracles.py).
"""

from __future__ import annotations

import csv
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .evaluator import StaticScore
from .genome import BackboneGenome, BlockGenes
from .moea import Direction

STATIC_DIRECTIONS = (Direction.MAXIMIZE, Direction.MINIMIZE, Direction.MINIMIZE)
COMBINED_DIRECTIONS = STATIC_DIRECTIONS + (Direction.MAXIMIZE,)


Row = tuple[tuple, str, str]  # key, archive.json text, front.csv line


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


# The fields that every row of one visit shares: its backbone and its
# static score.
VISIT_FIELDS = tuple(i for i, f in enumerate(_FIELDS)
                     if f[1] in ("backbone", "static"))


def read_lines(lines: Sequence[str]) -> list[tuple]:
    """The fields, in _FIELDS order, of front.csv lines given without their
    line break, each cell read by its field's type.  A column that holds
    one text on every line is read once, so its rows share one value, as
    the rows of a visit share their backbone and static score.  A line
    without one cell per field, or a cell that its type refuses, raises
    ValueError."""
    cells = []
    for line in lines:
        try:
            row = next(csv.reader([line]), [])
        except csv.Error as exc:
            raise ValueError(f"line {line!r} is not CSV: {exc}") from exc
        if len(row) != len(_FIELDS):
            raise ValueError(f"line {line!r} holds {len(row)} cells, "
                             f"not {len(_FIELDS)}")
        cells.append(row)
    columns = []
    for (column, _, _, read), texts in zip(_FIELDS, zip(*cells)):
        try:
            if texts.count(texts[0]) == len(texts):
                columns.append([read(texts[0])] * len(texts))
            else:
                columns.append(list(map(read, texts)))
        except ValueError as exc:
            raise ValueError(f"a {column} cell does not read back: {exc}"
                             ) from exc
    return list(zip(*columns))


_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CSV_SPECIAL = frozenset(',"\n')


def _spell(v) -> tuple[str, str]:
    """A scalar's text as json.dumps spells it (bools before ints, as it
    checks) and as csv.writer spells it in a QUOTE_MINIMAL field: floats by
    their repr, None as an empty field, and a string quoted only when it
    holds a comma, a quote or a \\n (with lineterminator "\\n" the writer
    leaves a bare \\r unquoted)."""
    if isinstance(v, float):
        text = float.__repr__(v)
        return _NON_FINITE.get(text, text), text
    if isinstance(v, str):
        quoted = not _CSV_SPECIAL.isdisjoint(v)
        return encode_basestring_ascii(v), (
            '"' + v.replace('"', '""') + '"' if quoted else v)
    if v is None:
        return "null", ""
    if v is True:
        return "true", "True"
    if v is False:
        return "false", "False"
    if isinstance(v, int):
        text = int.__repr__(v)
        return text, text
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


def _spell_column(values: Sequence) -> tuple[Sequence[str], Sequence[str]]:
    """The JSON and CSV texts of a column of values, each spelled once: a
    column of plain floats or plain ints by their repr, one of plain
    strings that need no CSV quoting as they are, any other one value by
    value (_spell).  A column that repeats one object, as a visit's
    backbone and static fields do, is spelled once."""
    if len(values) > 1 and len(set(map(id, values))) == 1:
        json_texts, csv_texts = _spell(values[0])
        return [json_texts] * len(values), [csv_texts] * len(values)
    kinds = set(map(type, values))
    if kinds == {float} or kinds == {int}:
        texts = list(map(kinds.pop().__repr__, values))
        if _NON_FINITE.keys().isdisjoint(texts):
            return texts, texts
        return [_NON_FINITE.get(t, t) for t in texts], texts
    if kinds == {str} and _CSV_SPECIAL.isdisjoint("".join(values)):
        return list(map(encode_basestring_ascii, values)), values
    spelled = list(map(_spell, values))
    return [j for j, _ in spelled], [c for _, c in spelled]


def render_rows(rows: Sequence[Sequence], objectives: Sequence[float]
                ) -> list[Row]:
    """The rows of one visit, from their fields in _FIELDS order and the
    visit's combined objectives.  A JSON text is the row as json.dumps(doc,
    indent=2, sort_keys=True) writes it one level below "final"; a line is
    the row as csv.writer(lineterminator="\\n") writes it.  Each value is
    spelled once for both, column by column, and the objectives once."""
    if not rows:
        return []
    columns = list(zip(*rows))
    spelled = list(map(_spell_column, columns))
    json_columns = [texts for texts, _ in spelled]
    json_columns.append([_json_block(
        "[", [_spell(v)[0] for v in objectives], "]")] * len(rows))
    texts = [_ROW % parts
             for parts in zip(*[json_columns[i] for i in _ROW_ORDER])]
    lines = [",".join(parts) + "\n" for parts in zip(*[c for _, c in spelled])]
    keys = []
    head = b_key = None
    for key in zip(*columns[:6]):
        if key[:2] != head:
            head = key[:2]
            b_key = BackboneGenome(head[0], _blocks_from_str(head[1])).key()
        keys.append((b_key,) + key[2:])
    return list(zip(keys, texts, lines))
