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
from .ooe import COMBINED_DIRECTIONS, FinalSolution, GenerationRecord, OoeResult

SCHEMA_VERSION = 1

FRONT_CSV_COLUMNS = (
    "resolution_idx", "blocks", "exit_bits", "device", "compute_idx", "emc_idx",
    "acc", "latency_ms", "energy_mj", "mean_correct", "energy_ratio",
    "latency_ratio", "mean_dissimilarity", "n_exits", "mean_exit_score",
)


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


def solution_to_dict(sol: FinalSolution, vector: ObjectiveVector) -> dict:
    return {
        "backbone": {
            "resolution_idx": sol.backbone.resolution_idx,
            "blocks": _blocks_str(sol.backbone),
        },
        "exit_bits": sol.exits.key(),
        "dvfs": {
            "device": sol.dvfs.device,
            "compute_idx": sol.dvfs.compute_idx,
            "emc_idx": sol.dvfs.emc_idx,
        },
        "static": {
            "acc": sol.static_score.accuracy,
            "latency_ms": sol.static_score.latency_ms,
            "energy_mj": sol.static_score.energy_mj,
        },
        "dynamic": {
            "mean_exit_score": sol.dynamic_score.mean_exit_score,
            "mean_correct": sol.dynamic_score.mean_correct,
            "mean_energy_ratio": sol.dynamic_score.mean_energy_ratio,
            "mean_latency_ratio": sol.dynamic_score.mean_latency_ratio,
            "mean_dissimilarity": sol.dynamic_score.mean_dissimilarity,
            "n_exits": sol.dynamic_score.n_exits,
        },
        "objectives": list(vector.values),
    }


def solution_from_dict(doc: dict) -> tuple[FinalSolution, ObjectiveVector]:
    backbone = BackboneGenome(doc["backbone"]["resolution_idx"],
                              _blocks_from_str(doc["backbone"]["blocks"]))
    exits = ExitGenome(tuple(int(c) for c in doc["exit_bits"]))
    dvfs = DvfsGenome(doc["dvfs"]["device"], doc["dvfs"]["compute_idx"],
                      doc["dvfs"]["emc_idx"])
    st = doc["static"]
    dy = doc["dynamic"]
    sol = FinalSolution(
        backbone, exits, dvfs,
        StaticScore(st["acc"], st["latency_ms"], st["energy_mj"]),
        DynamicScore(dy["mean_exit_score"], dy["mean_correct"],
                     dy["mean_energy_ratio"], dy["mean_latency_ratio"],
                     dy["mean_dissimilarity"], dy["n_exits"]),
    )
    vector = ObjectiveVector(tuple(doc["objectives"]), COMBINED_DIRECTIONS)
    return sol, vector


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


def build_archive_doc(result: OoeResult, digest: str, seed: int) -> dict:
    return dict(archive_header(result, digest, seed),
                final=[solution_to_dict(e.payload, e.vector)
                       for e in _sorted_entries(result.entries)])


def archive_doc_result(doc: dict) -> OoeResult:
    """Rebuild an OoeResult from a loaded archive document."""
    from .ooe import EvalCounters  # avoid a hard dependency at import time

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
    return {
        "resolution_idx": sol.backbone.resolution_idx,
        "blocks": _blocks_str(sol.backbone),
        "exit_bits": sol.exits.key(),
        "device": sol.dvfs.device,
        "compute_idx": sol.dvfs.compute_idx,
        "emc_idx": "" if sol.dvfs.emc_idx is None else sol.dvfs.emc_idx,
        "acc": repr(sol.static_score.accuracy),
        "latency_ms": repr(sol.static_score.latency_ms),
        "energy_mj": repr(sol.static_score.energy_mj),
        "mean_correct": repr(sol.dynamic_score.mean_correct),
        "energy_ratio": repr(sol.dynamic_score.mean_energy_ratio),
        "latency_ratio": repr(sol.dynamic_score.mean_latency_ratio),
        "mean_dissimilarity": repr(sol.dynamic_score.mean_dissimilarity),
        "n_exits": sol.dynamic_score.n_exits,
        "mean_exit_score": repr(sol.dynamic_score.mean_exit_score),
    }


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
    backbone = BackboneGenome(int(row["resolution_idx"]),
                              _blocks_from_str(row["blocks"]))
    exits = ExitGenome(tuple(int(c) for c in row["exit_bits"]))
    emc = row["emc_idx"]
    dvfs = DvfsGenome(row["device"], int(row["compute_idx"]),
                      None if emc == "" else int(emc))
    return FinalSolution(
        backbone, exits, dvfs,
        StaticScore(float(row["acc"]), float(row["latency_ms"]),
                    float(row["energy_mj"])),
        DynamicScore(float(row["mean_exit_score"]), float(row["mean_correct"]),
                     float(row["energy_ratio"]), float(row["latency_ratio"]),
                     float(row["mean_dissimilarity"]), int(row["n_exits"])),
    )
