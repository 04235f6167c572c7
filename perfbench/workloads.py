"""The benchmark's workloads: the configs they run, the commands that run
them, the lookup table the table workload needs, and the checks on every
command's output.

Every config is derived from the checkout's `configs/default.yaml`, so a
change to the paper configuration reaches the benchmark without an edit here.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np
import yaml

WORK_DIR = ".perfbench_work"
# One fixed path for every run: the config digest hashes the table's path,
# not its bytes, so a path that varied per run would change the digest.
TABLE_PATH = os.path.join(WORK_DIR, "carmel-cpu-table.csv")
TABLE_DEVICE = "carmel-cpu"
# Flops buckets 10^3 .. 10^10 in quarter decades; every prefix of every
# backbone in the default space lies inside this range.
TABLE_BUCKET_FLOPS = tuple(10.0 ** (3 + k / 4) for k in range(29))
# Memory traffic per flop used when tabulating the synthetic model.
TABLE_BYTES_PER_FLOP = 0.01

# The ablation's backbone: sampled from the default config's seed, the same
# for every input, so that inputs differ only in the search's own seed.
ABLATE_BACKBONE_SEED = 2024

# Outer combined objectives in archive.json: accuracy max, latency min,
# energy min, inner-front hypervolume max.
OUTER_SIGNS = (1.0, -1.0, -1.0, 1.0)
# Inner component objectives of ablation.json: correct max, energy min,
# latency min.
COMPONENT_SIGNS = (1.0, -1.0, -1.0)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: str                  # "search" or "ablate-dissim"
    sub_seeds: int                # distinct inputs per run
    ooe: dict = field(default_factory=dict)
    ioe: dict = field(default_factory=dict)
    device: str | None = None
    table: bool = False
    gammas: tuple[float, ...] = ()


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "search-default",
            "the paper configuration with fewer generations (outer 2, inner "
            "10): every layer carries weight, the inner engine most",
            "search", sub_seeds=5, ooe={"generations": 2},
            ioe={"generations": 10},
        ),
        Workload(
            "search-outer",
            "wide outer population, no pruning, tiny inner runs: the outer "
            "archive grows to thousands of rows over few distinct vectors",
            "search", sub_seeds=3,
            ooe={"generations": 3, "population": 40, "prune_fraction": 1.0},
            ioe={"generations": 4, "population": 25},
        ),
        Workload(
            "ablate-table",
            "gamma sweep on one backbone through the lookup-table backend: "
            "inner engine, table lookups and ratio of dominance, no outer "
            "archive",
            "ablate-dissim", sub_seeds=7, ioe={"generations": 8},
            device=TABLE_DEVICE, table=True, gammas=(0.0, 0.5, 1.0, 2.0),
        ),
    )
}

# Toy sizes for --smoke: every code path, seconds per command.
SMOKE_SIZES = {
    "search-default": {"ooe": {"generations": 1, "population": 8},
                       "ioe": {"generations": 3, "population": 20}},
    "search-outer": {"ooe": {"generations": 2, "population": 8,
                             "prune_fraction": 1.0},
                     "ioe": {"generations": 2, "population": 10}},
    "ablate-table": {"ioe": {"generations": 2, "population": 20}},
}


@dataclass(frozen=True)
class Input:
    """One generated input of a run: a config file and the nestevo seed."""

    index: int
    seed: int
    config_path: str
    doc: dict

    def expected_counters(self) -> dict:
        ooe, ioe = self.doc["ooe"], self.doc["ioe"]
        forwarded = ooe["generations"] * max(
            1, math.ceil(ooe["prune_fraction"] * ooe["population"]))
        return {
            "static_evals": ooe["generations"] * ooe["population"],
            "forwarded_backbones": forwarded,
            "dynamic_evals": forwarded * ioe["generations"] * ioe["population"],
        }


def sub_seeds(workload: Workload, seed: int) -> list[int]:
    """The run's nestevo seeds, a pure function of (workload, --seed)."""
    rng = random.Random(f"{workload.name}:{seed}")
    return [rng.randrange(1, 2**31) for _ in range(workload.sub_seeds)]


def make_inputs(root: str, run_dir: str, workload: Workload, seed: int,
                smoke: bool) -> list[Input]:
    with open(os.path.join(root, "configs", "default.yaml"),
              encoding="utf-8") as fh:
        base = yaml.safe_load(fh)
    sizes = SMOKE_SIZES[workload.name] if smoke else {}
    ooe = {**base.get("ooe", {}), **workload.ooe, **sizes.get("ooe", {})}
    ioe = {**base.get("ioe", {}), **workload.ioe, **sizes.get("ioe", {})}
    ooe["budget"] = ooe["generations"] * ooe["population"]
    ioe["budget"] = ioe["generations"] * ioe["population"]
    inputs = []
    for i, s in enumerate(sub_seeds(workload, seed)):
        doc = dict(base, seed=s, ooe=ooe, ioe=ioe)
        if workload.device:
            doc["device"] = workload.device
        if workload.table:
            doc["evaluator"] = dict(base.get("evaluator", {}),
                                    backend="table", table_csv=TABLE_PATH)
        if workload.command == "ablate-dissim":
            doc["ablate"] = {"backbone_seed": ABLATE_BACKBONE_SEED}
        path = os.path.join(run_dir, f"input_{i}.yaml")
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(doc, fh, sort_keys=True)
        inputs.append(Input(i, s, path, doc))
    return inputs


def command_args(workload: Workload, inp: Input, out_dir: str) -> list[str]:
    args = [workload.command, "--config", inp.config_path,
            "--seed", str(inp.seed), "--out", out_dir]
    if workload.gammas:
        args += ["--gammas", ",".join(repr(g) for g in workload.gammas)]
    return args


# ---------------------------------------------------------------------------
# Lookup table


def write_table(root: str) -> list[str]:
    """Tabulate the synthetic model for TABLE_DEVICE at TABLE_PATH, then look
    every row up through the table backend.  Returns the rows whose lookup
    did not return that row's values (empty when the table is sound)."""
    from nestevo.config import default_devices
    from nestevo.evaluator import (HardwareModelParams, TableHardwareModel,
                                   Workload as NWorkload, hw_latency_energy)
    from nestevo.genome import DvfsGenome

    device = next(d for d in default_devices() if d.name == TABLE_DEVICE)
    params = HardwareModelParams()
    rows = []
    for c_idx, f_c in enumerate(device.compute_freq_ghz):
        dvfs = DvfsGenome(device.name, c_idx, None)
        for flops in TABLE_BUCKET_FLOPS:
            lat, energy = hw_latency_energy(
                NWorkload(flops, flops * TABLE_BYTES_PER_FLOP), device, dvfs,
                params)
            rows.append((dvfs, flops, f_c, lat, energy))
    path = os.path.join(root, TABLE_PATH)
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("device", "bucket_log10_flops", "f_compute_ghz",
                         "f_emc_ghz", "latency_ms", "energy_mj"))
        for _, flops, f_c, lat, energy in rows:
            writer.writerow((device.name, repr(math.log10(flops)), repr(f_c),
                             "", repr(lat), repr(energy)))
    backend = TableHardwareModel.from_csv(path)
    bad = []
    for dvfs, flops, _, lat, energy in rows:
        got = backend.latency_energy(NWorkload(flops, 0.0), device, dvfs)
        if got != (lat, energy):
            bad.append(f"compute_idx={dvfs.compute_idx} flops={flops!r}: "
                       f"{got} != {(lat, energy)}")
    return bad


# ---------------------------------------------------------------------------
# Output checks


@dataclass
class Outcome:
    """What one command produced, and every check it failed."""

    problems: list[str] = field(default_factory=list)
    digests: dict[str, str] = field(default_factory=dict)
    evals: int = 0
    front_hv: float = 0.0
    out_bytes: int = 0


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(d, f))
               for d, _, files in os.walk(path) for f in files)


def _dominance(a, b, signs) -> np.ndarray:
    """[i, j] is True iff point a[i] dominates point b[j], by comparing every
    pair."""
    a = np.asarray(a, dtype=float).reshape(len(a), len(signs)) * signs
    b = np.asarray(b, dtype=float).reshape(len(b), len(signs)) * signs
    ge = (a[:, None, :] >= b[None, :, :]).all(axis=-1)
    gt = (a[:, None, :] > b[None, :, :]).any(axis=-1)
    return ge & gt


def _nondominated(points, signs) -> list:
    """Distinct points that no other point dominates."""
    distinct = list(dict.fromkeys(points))
    if not distinct:
        return []
    dominated = _dominance(distinct, distinct, signs).any(axis=0)
    return [p for p, d in zip(distinct, dominated) if not d]


def hv_correct_energy(points) -> float:
    """2-D hypervolume of (correct fraction: max, energy ratio: min) points
    against the reference (0, 1); points costing more than break-even
    energy lie outside the box and add nothing."""
    hv = 0.0
    best_gain = 0.0
    for correct, energy_ratio in sorted(points, reverse=True):
        gain = 1.0 - energy_ratio
        if correct > 0.0 and gain > best_gain:
            hv += correct * (gain - best_gain)
            best_gain = gain
    return hv


def _front_matches_archive(rows: list[dict], final: list[dict]) -> str | None:
    if len(rows) != len(final):
        return f"front.csv has {len(rows)} rows, archive.json {len(final)}"
    for n, (row, sol) in enumerate(zip(rows, final)):
        emc = sol["dvfs"]["emc_idx"]
        expected = {
            "resolution_idx": str(sol["backbone"]["resolution_idx"]),
            "blocks": sol["backbone"]["blocks"],
            "exit_bits": sol["exit_bits"],
            "device": sol["dvfs"]["device"],
            "compute_idx": str(sol["dvfs"]["compute_idx"]),
            "emc_idx": "" if emc is None else str(emc),
            "n_exits": str(sol["dynamic"]["n_exits"]),
        }
        floats = {
            "acc": sol["static"]["acc"],
            "latency_ms": sol["static"]["latency_ms"],
            "energy_mj": sol["static"]["energy_mj"],
            "mean_correct": sol["dynamic"]["mean_correct"],
            "energy_ratio": sol["dynamic"]["mean_energy_ratio"],
            "latency_ratio": sol["dynamic"]["mean_latency_ratio"],
            "mean_dissimilarity": sol["dynamic"]["mean_dissimilarity"],
            "mean_exit_score": sol["dynamic"]["mean_exit_score"],
        }
        if any(row.get(k) != v for k, v in expected.items()) or any(
                float(row.get(k, "nan")) != v for k, v in floats.items()):
            return f"front.csv row {n} differs from archive.json entry {n}"
    return None


def check_search(inp: Input, out_dir: str) -> Outcome:
    out = Outcome(out_bytes=_dir_bytes(out_dir))
    archive_path = os.path.join(out_dir, "archive.json")
    front_path = os.path.join(out_dir, "front.csv")
    with open(archive_path, encoding="utf-8") as fh:
        doc = json.load(fh)
    with open(front_path, newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    out.digests = {"archive.json": _sha256(archive_path),
                   "front.csv": _sha256(front_path)}

    counters = doc["counters"]
    expected = inp.expected_counters()
    if counters != expected:
        out.problems.append(f"counters {counters} != budget arithmetic {expected}")
    out.evals = counters["static_evals"] + counters["dynamic_evals"]

    final = doc["final"]
    if not final:
        out.problems.append("archive.json holds no solutions")
    vectors = list(dict.fromkeys(tuple(s["objectives"]) for s in final))
    if len(_nondominated(vectors, OUTER_SIGNS)) != len(vectors):
        out.problems.append("archive holds a dominated objective vector")
    mismatch = _front_matches_archive(rows, final)
    if mismatch:
        out.problems.append(mismatch)
    out.front_hv = hv_correct_energy(
        [(float(r["mean_correct"]), float(r["energy_ratio"])) for r in rows])
    return out


def check_ablate(workload: Workload, inp: Input, out_dir: str) -> Outcome:
    out = Outcome(out_bytes=_dir_bytes(out_dir))
    path = os.path.join(out_dir, "ablation.json")
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    out.digests = {"ablation.json": _sha256(path)}
    arms = doc["arms"]
    ioe = inp.doc["ioe"]
    out.evals = len(arms) * ioe["generations"] * ioe["population"]

    if [a["gamma"] for a in arms] != list(workload.gammas):
        out.problems.append("arms do not follow the gamma sweep")
    fronts = {}
    hvs = []
    for arm in arms:
        if arm["archive_size"] != len(arm["archive"]) or not arm["archive"]:
            out.problems.append(f"arm {arm['gamma']}: bad archive size")
        hv = hv_correct_energy([(s["mean_correct"], s["energy_ratio"])
                                for s in arm["archive"]])
        if abs(hv - arm["hypervolume"]) > 1e-12:
            out.problems.append(f"arm {arm['gamma']}: hypervolume "
                                f"{arm['hypervolume']!r} != recomputed {hv!r}")
        hvs.append(hv)
        fronts[arm["gamma"]] = _nondominated(
            [(s["mean_correct"], s["energy_ratio"], s["latency_ratio"])
             for s in arm["archive"]], COMPONENT_SIGNS)
    reported = {(r["gamma_a"], r["gamma_b"]): r["rod_a_over_b"]
                for r in doc["rod"]}
    for ga, gb in combinations(workload.gammas, 2):
        for a, b in ((ga, gb), (gb, ga)):
            fa, fb = fronts.get(a, []), fronts.get(b, [])
            rod = 0.0
            if fa and fb:
                hits = _dominance(fa, fb, COMPONENT_SIGNS).any(axis=1)
                rod = int(hits.sum()) / len(fa)
            if reported.get((a, b)) != rod:
                out.problems.append(f"ratio of dominance {a} over {b}: "
                                    f"{reported.get((a, b))!r} != {rod!r}")
    out.front_hv = sum(hvs) / len(hvs) if hvs else 0.0
    return out


def check_output(workload: Workload, inp: Input, out_dir: str) -> Outcome:
    try:
        if workload.command == "search":
            return check_search(inp, out_dir)
        return check_ablate(workload, inp, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Outcome(problems=[f"unreadable output: {exc!r}"])
