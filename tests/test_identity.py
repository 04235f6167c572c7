"""Identity gate: the output bytes of fixed searches and of a fixed
ablation are pinned.

The toy and small-default digests were recorded before the outer archive
became an archive of backbone visits with an incremental merge; the
scalar-objective and table-backend ablation digests before the inner engine
evaluated and ranked each generation as arrays.  A speed-up must keep them;
a change that alters results on purpose re-pins them and says why.
"""

import csv
import hashlib
import json
import math
from pathlib import Path

import yaml
from click.testing import CliRunner

import nestevo.ooe as ooe
from nestevo.cli import main, run_search
from nestevo.config import default_devices, load_config, parse_config
from nestevo.evaluator import HardwareModelParams, Workload, hw_latency_energy
from nestevo.genome import DvfsGenome

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
TABLE_BUCKETS = tuple(10.0 ** (6 + k / 8) for k in range(17))

PINNED = {
    "toy": {
        "archive.json":
            "0a34edc7bb19590dbede403749e8870190af572a75b6383d3488623b6dc99cf5",
        "front.csv":
            "3258efa1d983b94f62cbed312f5bcdc8d65a3a7e8c4521eb5c36ba7a2d125ecd",
    },
    "small-default": {
        "archive.json":
            "101c8d033416ab538e8f633fef9c964e45abe63cd425274982d7d19d894d57b1",
        "front.csv":
            "4b2330d767ece1482a500c031eacf82ca853638512f333e4728a81b357af9af3",
    },
    "scalar": {
        "archive.json":
            "c133e31bbe3dc8b03b656eea7102de0a69873875eb6201a42bd03b1b06a4d495",
        "front.csv":
            "3ff806566e7526f739275302ded65c4615201d39216d1c84c270aaa6496aead9",
    },
    "ablate-table": {
        "ablation.json":
            "2fe4c76a3eba24f4481c5d31cfb9a64a0b9d8f2926793ff70c3cace8585c0747",
    },
}


def digests(out_dir: Path, names=("archive.json", "front.csv")) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in names}


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


def test_toy_digests(tmp_path):
    cfg = load_config(str(CONFIGS / "toy.yaml"), out_override=str(tmp_path))
    run_search(cfg)
    assert digests(tmp_path) == PINNED["toy"]


def test_small_default_digests(tmp_path, monkeypatch):
    forwarded_keys = []
    combined_rank = ooe.combined_rank

    def recording_rank(candidates, statics, gamma):
        forwarded_keys.append([b.key() for b, _ in candidates])
        return combined_rank(candidates, statics, gamma)

    monkeypatch.setattr(ooe, "combined_rank", recording_rank)
    cfg = parse_config(SMALL_DEFAULT_DOC, out_override=str(tmp_path))
    run_search(cfg)
    assert digests(tmp_path) == PINNED["small-default"]

    # The run must keep exercising both paths the gate protects: a backbone
    # forwarded twice in one generation, and archive rows sharing vectors.
    assert any(len(set(keys)) < len(keys) for keys in forwarded_keys)
    final = json.loads((tmp_path / "archive.json").read_text())["final"]
    distinct = {tuple(row["objectives"]) for row in final}
    assert len(final) > len(distinct)


def test_scalar_objective_digests(tmp_path):
    cfg = parse_config(SCALAR_DOC, out_override=str(tmp_path))
    assert cfg.ooe.ioe.objective_mode == "scalar"
    run_search(cfg)
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
    assert digests(out, ("ablation.json",)) == PINNED["ablate-table"]
    report = json.loads((out / "ablation.json").read_text())
    assert [arm["gamma"] for arm in report["arms"]] == [0.0, 0.5, 1.0, 2.0]
