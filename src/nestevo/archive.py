"""Archive persistence: a JSON document with config digest, per-generation
records, and the final solution set; a flat plot-ready CSV of the front;
and one checkpoint per generation that holds what the generation changed,
its rows as their front.csv lines, and the state to resume from.  All
writes are atomic (temp file + rename), and the writers stream row texts
into the file one by one, so no document is ever held whole in memory: a
row's archive.json text (nestevo.rows.archive_text) is made from its line
only as it is written.  Checkpoints 1..k are replayed into the search state
after generation k by replay_checkpoints, which reads each row back from
its line and renders it anew.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import asdict, fields
from itertools import chain, islice, pairwise
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

from .ooe import EvalCounters, GenerationRecord, OoeResult, OoeState
from .rows import (COMBINED_DIRECTIONS, FRONT_CSV_COLUMNS, VISIT_FIELDS, Row,
                   read_lines, render_rows)

# Raised when a checkpoint of the previous version would resume into another
# run: at 2 the outer engine began to breed through ioe._breed.
SCHEMA_VERSION = 2
# The format of a checkpoint, which archive.json does not share: at 3 its
# rows became front.csv lines and its objectives one list per visit.
CHECKPOINT_VERSION = 3


def atomic_write(path: str, pieces: Iterable[str]) -> None:
    """Write the text pieces, in order, to .<name>.tmp beside `path`, then
    rename it to `path`.  A write that raises removes the temp file and
    leaves `path` as it was."""
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.writelines(pieces)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def archive_header(result: OoeResult, digest: str, seed: int) -> dict:
    """The archive document without its "final" rows."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "seed": seed,
        "counters": asdict(result.counters),
        "generations": [asdict(rec) for rec in result.snapshots],
    }


# Stands in for the "final" list while the rest of a document is encoded.
_FINAL_MARK = "\x00final\x00"


def _json_pieces(doc: dict, final: Iterable[str] | None) -> Iterable[str]:
    """The text save_json writes, in pieces that never join two rows."""
    if final is None:
        yield json.dumps(doc, indent=2, sort_keys=True)
    else:
        head, tail = json.dumps(dict(doc, final=_FINAL_MARK), indent=2,
                                sort_keys=True).split(json.dumps(_FINAL_MARK), 1)
        yield head + "["
        i = -1
        for i, text in enumerate(final):
            yield ",\n    " if i else "\n    "
            yield text
        yield ("\n  ]" if i >= 0 else "]") + tail
    yield "\n"


def save_json(path: str, doc: dict, final: Iterable[str] | None = None) -> None:
    """Write json.dumps(doc, indent=2, sort_keys=True).  With `final`, the
    JSON texts of the items of the document's "final" list, such as the
    archive.json texts of rows (rows.archive_text), those items are written
    one by one, each as it is drawn from `final`."""
    atomic_write(path, _json_pieces(doc, final))


def save_checkpoint(path: str, state: OoeState, digest: str) -> None:
    """Write what the state's generation changed: under "final" the rows of
    the visits that entered the archive, in visit order, each as its
    front.csv line without the line break; under "visits" each such visit's
    number, row count and combined objectives; the evicted visits; the
    generation's record; and under "resume" the state the next generation
    starts from."""
    added = [state.visits[v] for v in state.added]
    doc = {
        "schema_version": CHECKPOINT_VERSION,
        "config_digest": digest,
        "generation": state.generation,
        "record": asdict(state.snapshots[-1]),
        "visits": [[v, len(rows), list(objectives)]
                   for v, (objectives, rows) in zip(state.added, added)],
        "evicted": state.evicted,
        "resume": {"counters": asdict(state.counters),
                   "n_visits": state.n_visits,
                   "population": state.population,
                   "rng_state": state.rng_state},
    }
    save_json(path, doc, (encode_basestring_ascii(line[:-1])
                          for _, rows in added for _, line in rows))


def _visit(visit: int, lines: Sequence[str], objectives: Sequence
           ) -> tuple[tuple, tuple[Row, ...]]:
    """A visit's objectives and its rows, read back from their front.csv
    lines and rendered anew (rows.render_rows)."""
    try:
        values = read_lines(lines)
    except ValueError as exc:
        raise ValueError(f"a row of visit {visit} does not read back: {exc}"
                         ) from exc
    if any(len({row[i] for row in values}) != 1 for i in VISIT_FIELDS):
        raise ValueError(f"the rows of visit {visit} differ in backbone "
                         "or static score")
    if not isinstance(objectives, list) or len(objectives) != len(
            COMBINED_DIRECTIONS) or not all(type(v) in (int, float)
                                            for v in objectives):
        raise ValueError(f"visit {visit} has objectives {objectives!r}, not "
                         f"{len(COMBINED_DIRECTIONS)} numbers")
    objectives = tuple(objectives)
    rows = tuple(render_rows(values))
    for line, (_, rendered) in zip(lines, rows):
        if rendered != line + "\n":
            raise ValueError(f"a row of visit {visit} does not read back: "
                             f"{line!r} renders as {rendered[:-1]!r}")
    return objectives, rows


_COUNTERS = tuple(f.name for f in fields(EvalCounters))


def replay_checkpoints(paths: Sequence[str]) -> OoeState:
    """The search state after generation k, rebuilt from the checkpoints of
    generations 1..k, given in order.  Each row is read back from its
    front.csv line by the types of rows._FIELDS and rendered anew with its
    visit's objectives, and must render to the line it was read from.  A
    checkpoint whose schema_version is not CHECKPOINT_VERSION, or that
    holds another generation, no resume state, row counts that do not add
    up to its rows, visit numbers that are not increasing from the previous
    checkpoint's visit count up to its own, an evicted visit that is not
    live, rows of one visit that differ in backbone or static score, a line
    that does not read back to itself, a visit's objectives that are not
    one number per combined objective, a record of another generation, one
    whose archive_size is not the number of rows live after it or whose
    counters fall below the previous record's, or an RNG state that
    random.Random refuses raises ValueError."""
    visits: dict[int, tuple[tuple, tuple[Row, ...]]] = {}
    snapshots = []
    numbered = 0  # visits numbered before the checkpoint's generation
    for gen, path in enumerate(paths, 1):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema_version") != CHECKPOINT_VERSION:
            raise ValueError(f"{path} has schema_version "
                             f"{doc.get('schema_version')}, "
                             f"not {CHECKPOINT_VERSION}")
        if doc.get("generation") != gen:
            raise ValueError(f"the checkpoint of generation {gen} is missing: "
                             f"{path} holds generation {doc.get('generation')}")
        if "resume" not in doc:
            raise ValueError(f"{path} holds no resume state")
        counts = [count for _, count, _ in doc["visits"]]
        if sum(counts) != len(doc["final"]) or not all(
                isinstance(c, int) and c > 0 for c in counts):
            raise ValueError(f"{path} lists {len(doc['final'])} rows under "
                             f"final and row counts {counts} under visits")
        numbers = [v for v, _, _ in doc["visits"]]
        n_visits = doc["resume"]["n_visits"]
        # numbered - 1 < first < ... < last < n_visits
        bounds = [numbered - 1, *numbers, n_visits]
        if not all(a < b for a, b in pairwise(bounds)):
            raise ValueError(f"{path} lists visits {numbers}, not increasing "
                             f"from {numbered} and below {n_visits}")
        numbered = n_visits
        for visit in doc["evicted"]:
            if visits.pop(visit, None) is None:
                raise ValueError(f"{path} evicts visit {visit}, "
                                 "which is not live")
        lines = iter(doc["final"])
        for visit, count, objectives in doc["visits"]:
            try:
                visits[visit] = _visit(visit, list(islice(lines, count)),
                                       objectives)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
        record = GenerationRecord(**doc["record"])
        if record.generation != gen:
            raise ValueError(f"{path} records generation {record.generation}"
                             f", not {gen}")
        size = sum(len(rows) for _, rows in visits.values())
        if record.archive_size != size:
            raise ValueError(f"{path} records archive_size "
                             f"{record.archive_size}, but {size} rows are "
                             "live")
        if snapshots:
            before, after = asdict(snapshots[-1]), asdict(record)
            for name in _COUNTERS:
                if after[name] < before[name]:
                    raise ValueError(
                        f"{path} records {name} {after[name]}, below "
                        f"{before[name]} at generation {gen - 1}")
        snapshots.append(record)
    resume = doc["resume"]
    version, internal, gauss = resume["rng_state"]
    rng_state = (version, tuple(internal), gauss)
    random.Random().setstate(rng_state)
    return OoeState(
        visits, tuple(numbers), tuple(doc["evicted"]),
        tuple(snapshots), EvalCounters(**resume["counters"]),
        resume["n_visits"], tuple(map(tuple, resume["population"])), rng_state)


def write_front_csv(path: str, lines: Iterable[str]) -> None:
    """Write the front.csv header and the rows' lines (rows.render_rows),
    one by one."""
    atomic_write(path, chain([",".join(FRONT_CSV_COLUMNS) + "\n"], lines))


def read_front_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(FRONT_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"front CSV missing columns: {sorted(missing)}")
        return list(reader)
