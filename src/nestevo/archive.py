"""Archive persistence: a JSON document with config digest, per-generation
records, and the final solution set; a flat plot-ready CSV of the front;
and one checkpoint per generation that holds what the generation changed
and the state to resume from.  All writes are atomic (temp file + rename),
and the writers stream the row texts of nestevo.rows into the file one by
one, so no document is ever held whole in memory.  Checkpoints 1..k
are replayed into the search state after generation k by replay_checkpoints,
which renders each visit's rows anew from their loaded values.
"""

from __future__ import annotations

import csv
import json
import os
import random
from dataclasses import asdict
from itertools import chain, islice, pairwise
from typing import Iterable, Sequence

from .ooe import EvalCounters, GenerationRecord, OoeResult, OoeState
from .rows import FRONT_CSV_COLUMNS, Row, render_rows, row_values

# Raised when a checkpoint of the previous version would resume into another
# run: at 2 the outer engine began to breed through ioe._breed.
SCHEMA_VERSION = 2


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


def _json_pieces(doc: dict, final: Sequence[str] | None) -> Iterable[str]:
    """The text save_json writes, in pieces that never join two rows."""
    if final is None:
        yield json.dumps(doc, indent=2, sort_keys=True)
    else:
        head, tail = json.dumps(dict(doc, final=_FINAL_MARK), indent=2,
                                sort_keys=True).split(json.dumps(_FINAL_MARK), 1)
        yield head + ("[\n    " if final else "[")
        for i, text in enumerate(final):
            if i:
                yield ",\n    "
            yield text
        yield ("\n  ]" if final else "]") + tail
    yield "\n"


def save_json(path: str, doc: dict, final: Sequence[str] | None = None) -> None:
    """Write json.dumps(doc, indent=2, sort_keys=True).  With `final`, the
    archive.json texts of rows (rows.render_rows), those rows are the
    document's "final" list, written one by one."""
    atomic_write(path, _json_pieces(doc, final))


def save_checkpoint(path: str, state: OoeState, digest: str) -> None:
    """Write what the state's generation changed: under "final" the rows of
    the visits that entered the archive, in visit order, with each visit's
    number and row count under "visits"; the evicted visits; the
    generation's record; and under "resume" the state the next generation
    starts from."""
    added = [state.visits[v][1] for v in state.added]
    doc = {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "generation": state.generation,
        "record": asdict(state.snapshots[-1]),
        "visits": [[v, len(rows)] for v, rows in zip(state.added, added)],
        "evicted": state.evicted,
        "resume": {"counters": asdict(state.counters),
                   "n_visits": state.n_visits,
                   "population": state.population,
                   "rng_state": state.rng_state},
    }
    save_json(path, doc, [text for rows in added for _, text, _ in rows])


def _visit(visit: int, docs: Sequence[dict]) -> tuple[tuple, tuple[Row, ...]]:
    """A visit's objectives and its loaded rows, rendered anew."""
    shared = [(doc["backbone"], doc["static"], doc["objectives"])
              for doc in docs]
    if shared.count(shared[0]) != len(shared):
        raise ValueError(f"the rows of visit {visit} differ in backbone, "
                         "static score or objectives")
    objectives = tuple(docs[0]["objectives"])
    return objectives, tuple(render_rows([row_values(d) for d in docs],
                                         objectives))


def replay_checkpoints(paths: Sequence[str]) -> OoeState:
    """The search state after generation k, rebuilt from the checkpoints of
    generations 1..k, given in order.  A checkpoint whose schema_version is
    not SCHEMA_VERSION, or that holds another generation, no resume state,
    row counts that do not add up to its rows, visit numbers that are not
    increasing from the previous checkpoint's visit count up to its own, an
    evicted visit that is not live, rows of one visit that differ in
    backbone, static score or objectives, or an RNG state that
    random.Random refuses raises ValueError."""
    visits: dict[int, tuple[tuple, tuple[Row, ...]]] = {}
    snapshots = []
    numbered = 0  # visits numbered before the checkpoint's generation
    for gen, path in enumerate(paths, 1):
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        if doc.get("schema_version") != SCHEMA_VERSION:
            raise ValueError(f"{path} has schema_version "
                             f"{doc.get('schema_version')}, not {SCHEMA_VERSION}")
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
        numbers = [v for v, _ in doc["visits"]]
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
        rows = iter(doc["final"])
        for visit, count in doc["visits"]:
            visits[visit] = _visit(visit, list(islice(rows, count)))
        snapshots.append(GenerationRecord(**doc["record"]))
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
