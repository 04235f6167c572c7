"""Identity gate: the output bytes of fixed searches and of a fixed
ablation are pinned.

The toy digests were recorded before the outer archive became an archive
of backbone visits with an incremental merge.  The small-default,
scalar-objective and table-backend ablation digests were re-pinned once
when the inner engine began to sample and breed each generation from one
block of uniforms (ioe._breed), which changed its random stream; the toy
search seeds every inner search with its whole space, so its bytes did not
move.

The small-default and scalar digests were re-pinned again when the outer
engine began to breed its backbones through ioe._breed too, on their keys,
instead of one genome at a time: the outer random stream changed from the
second generation on.  The initial population is still sampled one
backbone at a time, and the inner stream did not move, so the ablation's
digest held.  The toy search sees its whole space either way: only its
archive.json's schema_version line changed (1 to 2, since a checkpoint of
the old stream must not be resumed), and its front.csv held.

The truth_front.csv that `nestevo enumerate` writes is pinned too, for the
toy space and for a space whose backbones hold several thousand candidates
each, recorded before the exhaustive front came to be filtered block by
block.

The JSON outputs are pinned by their content too: the sha256 of the
parsed document spelled compactly with sorted keys (content_digests).  A
change to the layout of the JSON files alone re-pins only their bytes.
The byte digests of every JSON output were re-pinned once when save_json
began to write one record per line (an archive.json row, an ablation
archive entry, a checkpoint's gene string on its own compact line) in
place of json.dumps(indent=2): the content digests held, and so did every
front.csv and truth_front.csv.

A speed-up must keep these digests; a change that alters results on purpose
re-pins them and says why.  The benchmark's own output checks
(perfbench/workloads.py) must find no problem in any of these outputs.
"""

import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import yaml
from click.testing import CliRunner

import nestevo.ooe as ooe
from nestevo.cli import main, run_search
from nestevo.config import default_devices, load_config, parse_config
from nestevo.evaluator import (HardwareModelParams, Workload, default_dvfs,
                               hw_latency_energy)
from nestevo.genome import DvfsGenome
import perfbench.workloads as bench

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Default space and device, no pruning, a low mutation rate so that bred
# generations repeat backbones; about a second per run.
SMALL_DEFAULT_DOC = {
    "seed": 1,
    "device": "agx-volta-gpu",
    "ooe": {"generations": 4, "population": 12, "prune_fraction": 1.0,
            "budget": 48},
    "ioe": {"generations": 3, "population": 20, "budget": 60},
    "variation": {"mutation_prob_per_gene": 0.02},
}

# The same run with the single averaged exit score as the inner objective.
SCALAR_DOC = dict(SMALL_DEFAULT_DOC,
                  ioe=dict(SMALL_DEFAULT_DOC["ioe"], objective_mode="scalar"))

# A gamma sweep on one sampled backbone of the default space through the
# lookup-table backend (no memory-clock gene).  The table's buckets span
# 10^6..10^8 flops, so prefix workloads both interpolate and clamp.
ABLATE_DOC = {
    "seed": 5,
    "device": "carmel-cpu",
    "ioe": {"generations": 4, "population": 30, "budget": 120},
    "ablate": {"backbone_seed": 3},
}
ABLATE_GAMMAS = "0,0.5,1,2"

# An enumerable space on the default space's device, which has a memory
# clock: 4 backbones with 5 or 6 exit positions, 3,906 or 7,938 candidates
# each.
ENUMERATE_DOC = {
    "seed": 11,
    "device": "agx-volta-gpu",
    "space": {"n_block": 1, "resolution": [32], "depth": [10, 11],
              "width": [16, 32], "kernel": [3], "expand": [1],
              "exit_min_position": 5},
}
TABLE_BUCKETS = tuple(10.0 ** (6 + k / 8) for k in range(17))

PINNED = {
    "toy": {
        "archive.json":
            "e781c49948fd02ae83e6741ea8c8dde8573126dcc531445e75d9143390b0f84b",
        "front.csv":
            "3258efa1d983b94f62cbed312f5bcdc8d65a3a7e8c4521eb5c36ba7a2d125ecd",
    },
    "small-default": {
        "archive.json":
            "cce781daea8dc0928286c411bf070eb8b6ccc98fd7501ca7432b615f5442ca08",
        "front.csv":
            "5072781a2477b1cbe4d5dfe59976ed4380ce799c75f7835551e3a5b740317876",
    },
    "scalar": {
        "archive.json":
            "d64f7e84bcba03b0ca65ca7108ed7455a5d021c4126e60c679652fdbfc5827e2",
        "front.csv":
            "928f3292f97eed6aea6686458a401f72b39515403f10c0d3cb67db313a3a59a8",
    },
    "ablate-table": {
        "ablation.json":
            "03ddb705110caef3553da2ceb0a3dca17c533d7563e55e1dcf56f259ccd0e972",
    },
    "enumerate-toy": {
        "truth_front.csv":
            "3258efa1d983b94f62cbed312f5bcdc8d65a3a7e8c4521eb5c36ba7a2d125ecd",
    },
    "enumerate": {
        "truth_front.csv":
            "00e12a7329772ba8650417b0225af6c28c666bc7920ac074c7a84f673ff8c364",
    },
}

# The content of each pinned JSON output, whatever its layout.
CONTENT_PINNED = {
    "toy": {"archive.json":
            "9025e63320a90d39f5d24c3dc7545c766a528199702998b21faf40849fb67de6"},
    "small-default": {
        "archive.json":
            "a223785b526cd94677e803a298c2eb14beb7c83a0f9ea59837ed2b516ca393c7"},
    "scalar": {"archive.json":
               "b3c824b9c73786e55db1134634744357fcad5c01f2fed51e636e4ff5f4f60cff"},
    "ablate-table": {
        "ablation.json":
            "d70d059733786aeffe9f29962525e54d2b98fd28afcf474e05130fdf1a13e905"},
}


def digests(out_dir: Path, names=("archive.json", "front.csv")) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


def content_digests(out_dir: Path, names=("archive.json",)) -> dict:
    """The sha256 of each JSON file's document, spelled compactly with
    sorted keys: the same for any layout of the same content."""
    out = {}
    for name in names:
        with open(out_dir / name, encoding="utf-8") as fh:
            text = json.dumps(json.load(fh), sort_keys=True,
                              separators=(",", ":"))
        out[name] = hashlib.sha256(text.encode()).hexdigest()
    return out


def write_table(path: Path, device_name: str) -> None:
    """Tabulate the synthetic model at TABLE_BUCKETS for one device."""
    device = next(d for d in default_devices() if d.name == device_name)
    params = HardwareModelParams()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("device", "bucket_log10_flops", "f_compute_ghz",
                         "f_emc_ghz", "latency_ms", "energy_mj"))
        for c_idx, f_c in enumerate(device.compute_freq_ghz):
            dvfs = DvfsGenome(device.name, c_idx, None)
            for flops in TABLE_BUCKETS:
                lat, energy = hw_latency_energy(
                    Workload(flops, 0.01 * flops), device, dvfs, params)
                writer.writerow((device.name, repr(math.log10(flops)),
                                 repr(f_c), "", repr(lat), repr(energy)))


def assert_search_checks_pass(cfg, out_dir: Path) -> None:
    """perfbench's check of a search's outputs: counters, a non-dominated
    archive, and front.csv matching archive.json row for row."""
    ooe_cfg, ioe_cfg = cfg.ooe, cfg.ooe.ioe
    doc = {"ooe": {"generations": ooe_cfg.generations,
                   "population": ooe_cfg.population,
                   "prune_fraction": ooe_cfg.prune_fraction},
           "ioe": {"generations": ioe_cfg.generations,
                   "population": ioe_cfg.population}}
    inp = bench.Input(0, cfg.seed, "", doc)
    assert bench.check_search(inp, str(out_dir)).problems == []


def test_toy_digests(tmp_path):
    cfg = load_config(str(CONFIGS / "toy.yaml"), out_override=str(tmp_path))
    run_search(cfg)
    assert content_digests(tmp_path) == CONTENT_PINNED["toy"]
    assert digests(tmp_path) == PINNED["toy"]
    assert_search_checks_pass(cfg, tmp_path)


def test_small_default_digests(tmp_path, monkeypatch):
    # The main process looks up one exit profile per forwarded backbone.
    forwarded = []
    exit_profile = ooe.exit_profile

    def recording_profile(b, *args):
        forwarded.append(b.key())
        return exit_profile(b, *args)

    monkeypatch.setattr(ooe, "exit_profile", recording_profile)
    cfg = parse_config(SMALL_DEFAULT_DOC, out_override=str(tmp_path))
    run_search(cfg)
    assert content_digests(tmp_path) == CONTENT_PINNED["small-default"]
    assert digests(tmp_path) == PINNED["small-default"]
    assert_search_checks_pass(cfg, tmp_path)

    # The run must keep exercising both paths the gate protects: a backbone
    # forwarded twice in one generation, and archive rows sharing vectors.
    # Nothing is pruned, so each generation forwards its whole population.
    size = cfg.ooe.population
    assert len(forwarded) == cfg.ooe.generations * size
    assert any(len(set(forwarded[i:i + size])) < size
               for i in range(0, len(forwarded), size))
    final = json.loads((tmp_path / "archive.json").read_text())["final"]
    distinct = {tuple(row["objectives"]) for row in final}
    assert len(final) > len(distinct)


def test_small_default_builds_genomes_only_for_statics(tmp_path, monkeypatch,
                                                     genome_objects):
    # In one process, so that every inner search is seen: the only genome
    # objects built are the default settings of the static evaluations,
    # one per evaluation.
    monkeypatch.setattr(ooe, "_cpus", lambda: 1)
    cfg = parse_config(SMALL_DEFAULT_DOC, out_override=str(tmp_path))
    default = default_dvfs(cfg.device_spec())
    genome_objects.clear()
    run_search(cfg)
    n_static = cfg.ooe.generations * cfg.ooe.population
    assert genome_objects == [default] * n_static
    assert digests(tmp_path) == PINNED["small-default"]


# The probes that perfbench/trace.py cannot find in the package; none may
# go missing besides these, and ioe.breed must find ioe._breed.  The outer
# archive merge is ooe.merge_visits, which no probe patches yet.
TRACE_MISSING = {
    "ioe.eval (nestevo.ioe:_DynamicEvaluator.evaluate)",
    "ioe.rank (nestevo.ioe:rank_population)",
    "moea.mask (nestevo.moea:nondominated_mask)",
    "moea.sort (nestevo.moea:fast_nondominated_sort)",
    "ooe.merge / ioe.merge (nestevo.moea:ParetoArchive.merge_batch)",
}


def test_benchmark_probes_run_on_the_toy_search(tmp_path):
    # The benchmark's tracer swallows the errors of its hooks and reads a
    # probe that no longer matches as 0: a renamed callable or result field
    # would zero a metric without failing anything else.
    trace = tmp_path / "trace.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "trace.py"), str(trace),
         "--", "search", "--config", str(CONFIGS / "toy.yaml"),
         "--out", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(trace.read_text())
    assert doc["exit_code"] == 0
    assert doc["errors"] == []
    assert doc["metrics"]["ioe.archive_size_mean"] > 0
    assert doc["metrics"]["ioe.breed_s"] > 0
    assert set(doc["missing"]) <= TRACE_MISSING


def test_scalar_objective_digests(tmp_path):
    cfg = parse_config(SCALAR_DOC, out_override=str(tmp_path))
    assert cfg.ooe.ioe.objective_mode == "scalar"
    run_search(cfg)
    assert content_digests(tmp_path) == CONTENT_PINNED["scalar"]
    assert digests(tmp_path) == PINNED["scalar"]


def test_ablate_table_digests(tmp_path):
    table = tmp_path / "carmel-cpu-table.csv"
    write_table(table, "carmel-cpu")
    doc = dict(ABLATE_DOC, output_dir=str(tmp_path / "out"),
               evaluator={"backend": "table", "table_csv": str(table)})
    config = tmp_path / "ablate.yaml"
    config.write_text(yaml.safe_dump(doc), encoding="utf-8")
    res = CliRunner().invoke(main, ["ablate-dissim", "--config", str(config),
                                    "--gammas", ABLATE_GAMMAS])
    assert res.exit_code == 0, res.output
    out = tmp_path / "out"
    assert content_digests(out, ("ablation.json",)) == \
        CONTENT_PINNED["ablate-table"]
    assert digests(out, ("ablation.json",)) == PINNED["ablate-table"]
    report = json.loads((out / "ablation.json").read_text())
    assert [arm["gamma"] for arm in report["arms"]] == [0.0, 0.5, 1.0, 2.0]
    workload = bench.Workload("ablate-table", "", "ablate-dissim", sub_seeds=1,
                        gammas=(0, 0.5, 1, 2))
    inp = bench.Input(0, ABLATE_DOC["seed"], str(config),
                      {"ioe": ABLATE_DOC["ioe"]})
    assert bench.check_ablate(workload, inp, str(out)).problems == []


def test_enumerate_toy_digest(tmp_path):
    res = CliRunner().invoke(main, ["enumerate", "--config",
                                    str(CONFIGS / "toy.yaml"),
                                    "--out", str(tmp_path)])
    assert res.exit_code == 0, res.output
    assert digests(tmp_path, ("truth_front.csv",)) == PINNED["enumerate-toy"]


def test_enumerate_digest(tmp_path):
    config = tmp_path / "enumerate.yaml"
    config.write_text(yaml.safe_dump(
        dict(ENUMERATE_DOC, output_dir=str(tmp_path / "out"))),
        encoding="utf-8")
    res = CliRunner().invoke(main, ["enumerate", "--config", str(config)])
    assert res.exit_code == 0, res.output
    out = tmp_path / "out"
    assert digests(out, ("truth_front.csv",)) == PINNED["enumerate"]
    assert len((out / "truth_front.csv").read_text().splitlines()) == 1 + 308
