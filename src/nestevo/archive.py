"""Archive persistence: a JSON document with config digest, per-generation
snapshots, and the final solution set, plus a flat plot-ready CSV of the
front.  All writes are atomic (temp file + rename) and all documents
round-trip exactly, so byte-for-byte determinism can be asserted on disk.
"""

from __future__ import annotations

import csv
import io
import json
import os
from typing import Sequence

from .evaluator import StaticScore
from .genome import BackboneGenome, BlockGenes, DvfsGenome, ExitGenome
from .ioe import DynamicScore
from .moea import ArchiveEntry, ObjectiveVector
from .ooe import (COMBINED_DIRECTIONS, EvalCounters, FinalSolution,
                  GenerationRecord, OoeResult)

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


def _blocks_from_str(s: str) -> tuple[BlockGenes, ...]:
    return tuple(BlockGenes(*(int(v) for v in part.split("-")))
                 for part in s.split("|"))


# The solution schema, one entry per field in front.csv column order: the
# CSV column, the field's section of an archive.json row (None: the row's
# top level) and its name there, and the parser of the CSV text.  The CSV
# writer turns None into an empty cell and floats into their repr.
_FIELDS = (
    ("resolution_idx", "backbone", "resolution_idx", int),
    ("blocks", "backbone", "blocks", str),
    ("exit_bits", None, "exit_bits", str),
    ("device", "dvfs", "device", str),
    ("compute_idx", "dvfs", "compute_idx", int),
    ("emc_idx", "dvfs", "emc_idx", lambda s: None if s == "" else int(s)),
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


def _values(sol: FinalSolution) -> tuple:
    """The solution's fields in _FIELDS order."""
    b, dvfs, st, dy = sol.backbone, sol.dvfs, sol.static_score, sol.dynamic_score
    return (b.resolution_idx, _blocks_str(b), sol.exits.key(),
            dvfs.device, dvfs.compute_idx, dvfs.emc_idx,
            st.accuracy, st.latency_ms, st.energy_mj,
            dy.mean_correct, dy.mean_energy_ratio, dy.mean_latency_ratio,
            dy.mean_dissimilarity, dy.n_exits, dy.mean_exit_score)


def _solution(values: Sequence) -> FinalSolution:
    """Inverse of _values."""
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


def solution_to_dict(sol: FinalSolution, vector: ObjectiveVector) -> dict:
    doc: dict = {"objectives": list(vector.values)}
    for (_, section, name, _), value in zip(_FIELDS, _values(sol)):
        (doc if section is None else doc.setdefault(section, {}))[name] = value
    return doc


def solution_from_dict(doc: dict) -> tuple[FinalSolution, ObjectiveVector]:
    sol = _solution([(doc if section is None else doc[section])[name]
                     for _, section, name, _ in _FIELDS])
    return sol, ObjectiveVector(tuple(doc["objectives"]), COMBINED_DIRECTIONS)


def _sorted_entries(entries: Sequence[ArchiveEntry]) -> list[ArchiveEntry]:
    return sorted(entries, key=lambda e: e.key)


def archive_header(result: OoeResult, digest: str, seed: int) -> dict:
    """The archive document without its "final" rows."""
    return {
        "schema_version": SCHEMA_VERSION,
        "config_digest": digest,
        "seed": seed,
        "counters": {
            "static_evals": result.counters.static_evals,
            "dynamic_evals": result.counters.dynamic_evals,
            "forwarded_backbones": result.counters.forwarded_backbones,
        },
        "generations": [
            {
                "generation": rec.generation,
                "archive_size": rec.archive_size,
                "static_evals": rec.static_evals,
                "dynamic_evals": rec.dynamic_evals,
                "forwarded_backbones": rec.forwarded_backbones,
            }
            for rec in result.snapshots
        ],
    }


def archive_doc_result(doc: dict) -> OoeResult:
    """Rebuild an OoeResult from a loaded archive document."""
    entries = []
    for sol_doc in doc["final"]:
        sol, vector = solution_from_dict(sol_doc)
        entries.append(ArchiveEntry(sol.key(), sol, vector))
    counters = EvalCounters(**doc["counters"])
    snapshots = tuple(
        GenerationRecord(g["generation"], g["archive_size"], g["static_evals"],
                         g["dynamic_evals"], g["forwarded_backbones"])
        for g in doc["generations"]
    )
    return OoeResult(tuple(entries), snapshots, counters)


class RowEncoder:
    """JSON text of a run's archive rows, each row encoded once.

    Checkpoints and archive.json list the same rows again and again; the
    pure-Python encoder that indented output needs is slow, so each row's
    text is kept for as long as the same entry object stays in the archive
    (an evicted key that comes back is a new entry and is encoded anew)."""

    def __init__(self) -> None:
        self._texts: dict[int, tuple[ArchiveEntry, str]] = {}

    def final_json(self, entries: Sequence[ArchiveEntry]) -> str:
        """The sorted "final" list as json.dumps(doc, indent=2) writes it
        one level below the document root."""
        texts = {}
        for e in entries:
            cached = self._texts.get(id(e))
            if cached is None or cached[0] is not e:
                text = json.dumps(solution_to_dict(e.payload, e.vector),
                                  indent=2, sort_keys=True)
                cached = (e, text.replace("\n", "\n    "))
            texts[id(e)] = cached
        self._texts = texts
        if not entries:
            return "[]"
        rows = [texts[id(e)][1] for e in _sorted_entries(entries)]
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


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def front_row(sol: FinalSolution) -> dict:
    return dict(zip(FRONT_CSV_COLUMNS, _values(sol)))


def write_front_csv(path: str, entries: Sequence[ArchiveEntry]) -> None:
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=FRONT_CSV_COLUMNS, lineterminator="\n")
    writer.writeheader()
    for e in _sorted_entries(entries):
        writer.writerow(front_row(e.payload))
    atomic_write_text(path, buf.getvalue())


def read_front_csv(path: str) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        missing = set(FRONT_CSV_COLUMNS) - set(reader.fieldnames or ())
        if missing:
            raise ValueError(f"front CSV missing columns: {sorted(missing)}")
        return list(reader)


def front_solution_from_row(row: dict) -> FinalSolution:
    return _solution([parse(row[column]) for column, _, _, parse in _FIELDS])
