"""Identity gate: the output bytes of two fixed searches are pinned.

The digests were recorded before the outer archive became an archive of
backbone visits with an incremental merge.  A speed-up must keep them; a
change that alters results on purpose re-pins them and says why.
"""

import hashlib
import json
from pathlib import Path

import nestevo.ooe as ooe
from nestevo.cli import run_search
from nestevo.config import load_config, parse_config

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
}


def digests(out_dir: Path) -> dict:
    return {name: hashlib.sha256((out_dir / name).read_bytes()).hexdigest()
            for name in ("archive.json", "front.csv")}


def test_toy_digests(tmp_path):
    cfg = load_config(str(CONFIGS / "toy.yaml"), out_override=str(tmp_path))
    run_search(cfg, threads=1)
    assert digests(tmp_path) == PINNED["toy"]


def test_small_default_digests(tmp_path, monkeypatch):
    forwarded_keys = []
    combined_rank = ooe.combined_rank

    def recording_rank(candidates, statics, gamma):
        forwarded_keys.append([b.key() for b, _ in candidates])
        return combined_rank(candidates, statics, gamma)

    monkeypatch.setattr(ooe, "combined_rank", recording_rank)
    cfg = parse_config(SMALL_DEFAULT_DOC, out_override=str(tmp_path))
    run_search(cfg, threads=1)
    assert digests(tmp_path) == PINNED["small-default"]

    # The run must keep exercising both paths the gate protects: a backbone
    # forwarded twice in one generation, and archive rows sharing vectors.
    assert any(len(set(keys)) < len(keys) for keys in forwarded_keys)
    final = json.loads((tmp_path / "archive.json").read_text())["final"]
    distinct = {tuple(row["objectives"]) for row in final}
    assert len(final) > len(distinct)


def test_small_default_digests_with_threads(tmp_path):
    cfg = parse_config(SMALL_DEFAULT_DOC, out_override=str(tmp_path))
    run_search(cfg, threads=2)
    assert digests(tmp_path) == PINNED["small-default"]
