"""Archive persistence: a JSON document with config digest, per-generation
records, and the final solution set; a flat plot-ready CSV of the front;
and one checkpoint per generation that holds what the generation changed,
its rows as their genes only, and the state to resume from.  All writes are
atomic (temp file + rename), and the writers stream row texts into the file
one by one, so no document is ever held whole in memory: a row's
archive.json text (nestevo.rows.archive_text) is made from its line only as
it is written.  Checkpoints 1..k are replayed into the search state after
generation k by replay_checkpoints, which evaluates each visit's stored
genes again and renders its rows anew (ooe.visit_rows): a row is fixed by
its backbone, its genes and the config, which the config digest guards.
"""

from __future__ import annotations

import csv
import json
import os
import random
import re
from dataclasses import asdict, fields
from itertools import chain, islice, pairwise
from json.encoder import encode_basestring_ascii
from typing import Iterable, Sequence

import numpy as np

from .config import RunConfig
from .evaluator import HardwareBackend, eval_static, exit_profile
from .genome import backbone_in_space
from .ioe import IoeResult, _DynamicEvaluator
from .ooe import (EvalCounters, GenerationRecord, OoeResult, OoeState,
                  merge_visits, visit_rows)
from .rows import COMBINED_DIRECTIONS, FRONT_CSV_COLUMNS, Row

# Raised when a checkpoint of the previous version would resume into another
# run: at 2 the outer engine began to breed through ioe._breed.
SCHEMA_VERSION = 2
# The format of a checkpoint, which archive.json does not share: at 3 its
# objectives became one list per visit, and at 4 its rows their genes, each
# visit's backbone key stored once.
CHECKPOINT_VERSION = 4


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


def _genes_text(key: tuple) -> str:
    """A row's genes, as a checkpoint stores them: exit_bits,compute_idx,
    emc_idx from its key, the emc cell empty without a memory clock."""
    _, bits, _, compute, emc = key
    return f"{bits},{compute},{'' if emc is None else emc}"


def save_checkpoint(path: str, state: OoeState, digest: str) -> None:
    """Write what the state's generation changed: under "final" the rows of
    the visits that entered the archive, in visit order, each as its genes
    (_genes_text); under "visits" each such visit's number, row count,
    combined objectives and backbone key; the evicted visits; the
    generation's record; and under "resume" the state the next generation
    starts from."""
    added = [state.visits[v] for v in state.added]
    doc = {
        "schema_version": CHECKPOINT_VERSION,
        "config_digest": digest,
        "generation": state.generation,
        "record": asdict(state.snapshots[-1]),
        "visits": [[v, len(rows), list(objectives), list(rows[0][0][0])]
                   for v, (objectives, rows) in zip(state.added, added)],
        "evicted": state.evicted,
        "resume": {"counters": asdict(state.counters),
                   "n_visits": state.n_visits,
                   "population": state.population,
                   "rng_state": state.rng_state},
    }
    save_json(path, doc, (encode_basestring_ascii(_genes_text(key))
                          for _, rows in added for key, _ in rows))


# A row's genes as _genes_text spells them; the emc cell may be empty.
_GENES = re.compile(r"([01]+),(0|[1-9][0-9]*),((?:0|[1-9][0-9]*)?)")


def _visit_rows(visit: int, key, texts: Sequence, cfg: RunConfig,
                backend: HardwareBackend) -> tuple[Row, ...]:
    """The rows of a visit of the backbone whose key() is `key`, from their
    genes (_genes_text), as the live run rendered them (ooe.visit_rows):
    the backbone is scored again (eval_static, exit_profile) and so are
    the stored rows, only they, as evaluate_batch scores each row alone."""
    device = cfg.device_spec()
    b = backbone_in_space(key, cfg.space)
    static = eval_static(b, cfg.space, device, backend, cfg.surrogate,
                         cfg.ooe.seed)
    ev = _DynamicEvaluator(
        b, cfg.space, device, backend, cfg.hw,
        exit_profile(b, cfg.space, cfg.surrogate, cfg.ooe.seed), static,
        cfg.ooe.ioe.gamma)
    bits, settings = [], []
    for text in texts:
        match = _GENES.fullmatch(text) if isinstance(text, str) else None
        if (match is None or len(match[1]) != ev.n_cols
                or bool(match[3]) != device.has_emc):
            raise ValueError(
                f"a row of visit {visit} holds genes {text!r}, not "
                f"{ev.n_cols} exit bits, a compute_idx and "
                f"{'an' if device.has_emc else 'no'} emc_idx")
        exits, compute, emc = match.groups()
        bits.append(exits)
        settings.append((int(compute), int(emc)) if emc else (int(compute),))
    try:
        genes = np.concatenate([
            np.frombuffer("".join(bits).encode(), np.uint8).reshape(
                len(bits), ev.n_cols) - ord("0"),
            np.array(settings, dtype=np.int64)], axis=1)
        scores = ev.evaluate_batch(genes)
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        raise ValueError(f"a row of visit {visit} does not evaluate: {exc}"
                         ) from exc
    return tuple(visit_rows(b, static, IoeResult(
        tuple(map(tuple, genes.tolist())), scores, len(genes)), device))


def _objectives(visit: int, objectives) -> tuple[float, ...]:
    """A visit's combined objectives as a checkpoint lists them: one number
    per combined objective, or ValueError."""
    if not isinstance(objectives, list) or len(objectives) != len(
            COMBINED_DIRECTIONS) or not all(type(v) in (int, float)
                                            for v in objectives):
        raise ValueError(f"visit {visit} has objectives {objectives!r}, not "
                         f"{len(COMBINED_DIRECTIONS)} numbers")
    return tuple(objectives)


_COUNTERS = tuple(f.name for f in fields(EvalCounters))


def replay_checkpoints(paths: Sequence[str], cfg: RunConfig,
                       backend: HardwareBackend) -> OoeState:
    """The search state after generation k of a run of `cfg` on `backend`,
    rebuilt from the checkpoints of generations 1..k, given in order.  Each
    visit's rows are rebuilt from their genes (_visit_rows).  A checkpoint
    whose schema_version is not CHECKPOINT_VERSION, or that holds another
    generation, no resume state, row counts that do not add up to its rows,
    visit numbers that are not increasing from the previous checkpoint's
    visit count up to its own, an evicted visit that is not live, a
    backbone key that is not one of the space's, a row whose genes are not
    those of its backbone or that sets no exit bit, a row whose key is
    already live, a visit's objectives that are not one finite number per
    combined objective, evictions other than the visits that merging the
    added ones into the live ones drops (ooe.merge_visits) or an added visit
    that it drops, a record of another generation, one whose archive_size is not the number of rows live after it or whose counters
    fall below the previous record's, or an RNG state that random.Random
    refuses raises ValueError."""
    visits: dict[int, tuple[tuple, tuple[Row, ...]]] = {}
    live: set[tuple] = set()  # the keys of the live visits' rows
    snapshots = []
    numbered = 0  # visits numbered before the checkpoint's generation
    for gen, path in enumerate(paths, 1):
        before = dict(visits)
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
        counts = [count for _, count, _, _ in doc["visits"]]
        if sum(counts) != len(doc["final"]) or not all(
                isinstance(c, int) and c > 0 for c in counts):
            raise ValueError(f"{path} lists {len(doc['final'])} rows under "
                             f"final and row counts {counts} under visits")
        numbers = [v for v, _, _, _ in doc["visits"]]
        n_visits = doc["resume"]["n_visits"]
        # numbered - 1 < first < ... < last < n_visits
        bounds = [numbered - 1, *numbers, n_visits]
        if not all(a < b for a, b in pairwise(bounds)):
            raise ValueError(f"{path} lists visits {numbers}, not increasing "
                             f"from {numbered} and below {n_visits}")
        numbered = n_visits
        for visit in doc["evicted"]:
            if visit not in visits:
                raise ValueError(f"{path} evicts visit {visit}, "
                                 "which is not live")
            live.difference_update(key for key, _ in visits.pop(visit)[1])
        texts = iter(doc["final"])
        for visit, count, objectives, key in doc["visits"]:
            try:
                objectives = _objectives(visit, objectives)
                rows = _visit_rows(visit, key, list(islice(texts, count)),
                                   cfg, backend)
                for row_key, _ in rows:
                    if row_key in live:
                        raise ValueError(f"a row of visit {visit} repeats "
                                         f"the live key {row_key}")
                    live.add(row_key)
            except ValueError as exc:
                raise ValueError(f"{path}: {exc}") from exc
            visits[visit] = objectives, rows
        try:
            merged = merge_visits(before, {v: visits[v] for v in numbers})
        except (ValueError, OverflowError) as exc:
            raise ValueError(f"{path}: {exc}") from exc
        if list(merged) != list(visits):
            dropped = [v for v in chain(before, numbers) if v not in merged]
            raise ValueError(f"{path} evicts visits {doc['evicted']}, but the "
                             f"merge of its visits' objectives drops {dropped}")
        record = GenerationRecord(**doc["record"])
        if record.generation != gen:
            raise ValueError(f"{path} records generation {record.generation}"
                             f", not {gen}")
        if record.archive_size != len(live):
            raise ValueError(f"{path} records archive_size "
                             f"{record.archive_size}, but {len(live)} rows "
                             "are live")
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
