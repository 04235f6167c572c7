"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` for one line per criterion.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import random
import time

import numpy as np
import pytest
import yaml
from click.testing import CliRunner

from nestevo import archive as ar
from nestevo.ablation import run_ablation
from nestevo.cli import main as cli_main
from nestevo.config import AblateSpec, RunConfig, default_devices
from nestevo.evaluator import (
    HardwareModelParams,
    SurrogateParams,
    SyntheticHardwareModel,
    Workload,
    eval_static,
    exit_profile,
    hw_latency_energy,
    hybrid_loss,
    layer_workloads,
)
from nestevo.genome import (
    DeviceSpec,
    DvfsGenome,
    SearchSpaceSpec,
    VariationParams,
    sample_backbone,
    sample_dvfs,
    sample_exit_genome,
)
from nestevo.ioe import IoeConfig, dynamic_fitness
from nestevo.metrics import Front, hypervolume, ratio_of_dominance
from nestevo.moea import Direction, ObjectiveVector, dominates
from nestevo.ooe import OoeConfig, run_ooe

from oracles import (
    dissimilarity,
    exit_score,
    fast_nondominated_sort,
    merge_nondominated,
)

MAX = Direction.MAXIMIZE
MIN = Direction.MINIMIZE


def ok(criterion: str) -> None:
    print(f"[acceptance] {criterion}: PASS")


# ---------------------------------------------------------------------------
# 1. Non-dominated sorting vs brute-force oracle


def brute_force_fronts(rows, dirs):
    """O(n^2 m) oracle: explicit dominance matrix, then peel by counts."""
    n = len(rows)
    norm = [tuple(v if d == "max" else -v for v, d in zip(r, dirs)) for r in rows]

    def dom(i, j):
        ge = all(a >= b for a, b in zip(norm[i], norm[j]))
        gt = any(a > b for a, b in zip(norm[i], norm[j]))
        return ge and gt

    dominators = [[j for j in range(n) if j != i and dom(j, i)] for i in range(n)]
    counts = [len(d) for d in dominators]
    dominated_by = [[j for j in range(n) if j != i and dom(i, j)] for i in range(n)]
    fronts = []
    assigned = [False] * n
    while not all(assigned):
        current = [i for i in range(n) if not assigned[i] and counts[i] == 0]
        for i in current:
            assigned[i] = True
        for i in current:
            for j in dominated_by[i]:
                counts[j] -= 1
        fronts.append(current)
    return fronts


def test_criterion_01_nondominated_sorting_oracle():
    rng = random.Random(101)
    start = time.perf_counter()
    mismatches = 0
    for _ in range(1000):
        n = rng.randint(1, 64)
        m = rng.choice((2, 3, 4))
        dirs = tuple(rng.choice(("max", "min")) for _ in range(m))
        if rng.random() < 0.5:
            rows = [tuple(float(rng.randint(0, 4)) for _ in range(m))
                    for _ in range(n)]
        else:
            rows = [tuple(rng.uniform(-1, 1) for _ in range(m))
                    for _ in range(n)]
        directions = tuple(MAX if d == "max" else MIN for d in dirs)
        pop = [ObjectiveVector(r, directions) for r in rows]
        if fast_nondominated_sort(pop) != brute_force_fronts(rows, dirs):
            mismatches += 1
    elapsed = time.perf_counter() - start
    assert mismatches == 0
    assert elapsed < 10.0, f"sorting oracle sweep took {elapsed:.1f}s"
    ok("criterion 1 (non-dominated sorting, 1000 populations, "
       f"{elapsed:.1f}s)")


# ---------------------------------------------------------------------------
# 2. Dominance relation properties


def test_criterion_02_dominance_properties():
    rng = random.Random(202)
    violations = 0
    for _ in range(100_000):
        m = rng.randint(2, 4)
        directions = tuple(rng.choice((MAX, MIN)) for _ in range(m))
        a, b, c = (
            ObjectiveVector(tuple(float(rng.randint(-2, 2)) for _ in range(m)),
                            directions)
            for _ in range(3)
        )
        if dominates(a, a):
            violations += 1
        if dominates(a, b) and dominates(b, a):
            violations += 1
        if dominates(a, b) and dominates(b, c) and not dominates(a, c):
            violations += 1
    assert violations == 0
    ok("criterion 2 (dominance irreflexive/antisymmetric/transitive, 10^5 triples)")


# ---------------------------------------------------------------------------
# 3. Hypervolume


def mc_oracle_2d(points, samples, seed):
    pts = np.asarray(points, dtype=float)
    hi = pts.max(axis=0)
    box = float(hi[0] * hi[1])
    rng = np.random.default_rng(seed)
    draws = rng.uniform((0.0, 0.0), hi, size=(samples, 2))
    hits = (pts[None, :, :] >= draws[:, None, :]).all(-1).any(-1)
    frac = float(hits.mean())
    return box * frac, box * math.sqrt(frac * (1 - frac) / samples)


def test_criterion_03_hypervolume():
    ref = ObjectiveVector((0.0, 0.0), (MAX, MAX))
    single = Front([ObjectiveVector((0.5, 0.5), (MAX, MAX))], ref)
    assert abs(hypervolume(single) - 0.25) <= 1e-12
    pair = Front([ObjectiveVector((0.8, 0.2), (MAX, MAX)),
                  ObjectiveVector((0.2, 0.8), (MAX, MAX))], ref)
    assert abs(hypervolume(pair) - 0.28) <= 1e-12

    rng = random.Random(303)
    for trial in range(100):
        n = rng.randint(1, 12)
        xs = sorted(rng.uniform(0.05, 1.0) for _ in range(n))
        ys = sorted((rng.uniform(0.05, 1.0) for _ in range(n)), reverse=True)
        points = list(zip(xs, ys))
        front = Front([ObjectiveVector(p, (MAX, MAX)) for p in points], ref)
        exact = hypervolume(front)
        est, se = mc_oracle_2d(points, 1_000_000, seed=trial)
        assert abs(exact - est) <= 3 * se, (
            f"front {trial}: exact {exact} vs MC {est} +- {se}")

    violations = 0
    for i in range(10_000):
        n = rng.randint(1, 8)
        xs = sorted(rng.uniform(0.05, 1.0) for _ in range(n))
        ys = sorted((rng.uniform(0.05, 1.0) for _ in range(n)), reverse=True)
        front = Front([ObjectiveVector(p, (MAX, MAX)) for p in zip(xs, ys)], ref)
        before = hypervolume(front)
        extra = ObjectiveVector((rng.uniform(0, 1.2), rng.uniform(0, 1.2)),
                                (MAX, MAX))
        after = hypervolume(merge_nondominated(front.points, [extra], ref))
        if after < before - 1e-12:
            violations += 1
    assert violations == 0
    ok("criterion 3 (hypervolume: hand cases 1e-12, 100 MC cross-checks, "
       "10^4 monotone insertions)")


# ---------------------------------------------------------------------------
# 4. Dynamic-fitness arithmetic vs straight-line oracle


def oracle_dynamic(b, x, f, profile, static, space, device, hw, gamma):
    """Independent straight-line recomputation with plain loops."""
    flops, byts = layer_workloads(b, space)
    positions = [space.exit_min_position + i
                 for i, bit in enumerate(x.indicators) if bit]
    f_c = device.compute_freq_ghz[f.compute_idx]
    f_m = device.emc_freq_ghz[f.emc_idx] if device.has_emc else f_c
    power = hw.p0 + hw.p1 * f_c**3 + hw.p2 * f_m
    best = 0.0
    overhead = 0.0
    scores, ns, ers, lrs, ds = [], [], [], [], []
    for pos in positions:
        overhead += hw.exit_overhead_fraction * flops[pos - 1]
        lat = ((sum(flops[:pos]) + overhead) / (hw.kappa_compute * f_c)
               + sum(byts[:pos]) / (hw.kappa_memory * f_m))
        energy = power * lat / 1e3
        n = profile.fraction_at(pos)
        d = 1.0 - best
        best = max(best, n)
        er, lr = energy / static.energy_mj, lat / static.latency_ms
        scores.append(n * er * lr * d**gamma)
        ns.append(n); ers.append(er); lrs.append(lr); ds.append(d)
    k = len(positions)
    return (sum(scores) / k, sum(ns) / k, sum(ers) / k, sum(lrs) / k,
            sum(ds) / k)


def test_criterion_04_dynamic_fitness_oracle():
    rng = random.Random(404)
    device_plain = DeviceSpec("p", (0.4, 0.9, 1.7), (), default_compute_idx=2)
    device_emc = DeviceSpec("m", (0.5, 1.1), (0.3, 0.9), default_compute_idx=1,
                            default_emc_idx=1)
    space = SearchSpaceSpec(
        n_block=2, resolution_domain=(32, 64), depth_domain=(3, 4, 5),
        width_domain=(16, 48), kernel_domain=(3, 5), expand_domain=(1, 4),
        exit_min_position=5, device_specs=(device_plain, device_emc),
    )
    hw = HardwareModelParams()
    backend = SyntheticHardwareModel(hw)
    sur = SurrogateParams()

    # Standalone oracle checks for the dissimilarity and score primitives.
    for _ in range(2000):
        vals = sorted(rng.uniform(0.0, 0.9) for _ in range(rng.randint(1, 6)))
        from nestevo.evaluator import ExitProfile
        prof = ExitProfile(tuple(range(5, 5 + len(vals))), tuple(vals),
                           max(vals) + 0.05)
        positions = list(prof.positions)
        i = rng.randrange(len(positions))
        expected = 1.0 - (max(vals[:i]) if i else 0.0)
        assert abs(dissimilarity(prof, positions, i) - expected) <= 1e-12
        n, er, lr = (rng.uniform(0.01, 1.0) for _ in range(3))
        d, g = rng.uniform(0.0, 1.0), rng.choice((0.0, 0.5, 1.0, 2.0))
        assert abs(exit_score(n, er, lr, d, g) - n * er * lr * d**g) <= 1e-12

    max_err = 0.0
    checked = 0
    for trial in range(10_000):
        device = device_plain if trial % 2 == 0 else device_emc
        gamma = rng.choice((0.0, 0.5, 1.0, 2.0))
        b = sample_backbone(space, rng)
        static = eval_static(b, space, device, backend, sur, seed=trial)
        profile = exit_profile(b, space, sur, seed=trial)
        x = sample_exit_genome(b, space, rng)
        f = sample_dvfs(device, rng)
        score = dynamic_fitness(b, x, f, profile, static, space, device,
                                backend, hw, gamma)
        expected = oracle_dynamic(b, x, f, profile, static, space, device,
                                  hw, gamma)
        got = (score.mean_exit_score, score.mean_correct,
               score.mean_energy_ratio, score.mean_latency_ratio,
               score.mean_dissimilarity)
        max_err = max(max_err, max(abs(a - e) for a, e in zip(got, expected)))
        checked += 1
        # Single sampled exit: the mean collapses to that exit's score.
        if score.n_exits == 1:
            assert score.mean_exit_score == pytest.approx(
                score.mean_correct * score.mean_energy_ratio
                * score.mean_latency_ratio * 1.0**gamma, abs=1e-12)
        # Gamma 0 neutrality holds exactly.
        if gamma == 0.0:
            s1 = dynamic_fitness(b, x, f, profile, static, space, device,
                                 backend, hw, 0.0)
            assert s1.mean_exit_score == pytest.approx(
                score.mean_exit_score, abs=0.0)
    assert checked == 10_000
    assert max_err <= 1e-12, f"max abs error {max_err}"
    ok(f"criterion 4 (dynamic fitness arithmetic, 10^4 candidates, "
       f"max err {max_err:.2e})")


# ---------------------------------------------------------------------------
# 5. End-to-end oracle equivalence on the enumerable toy space


TOY_DOC = {
    "device": "toy-dev",
    "space": {
        "n_block": 1,
        "resolution": [32],
        "depth": [6, 7],
        "width": [16, 32],
        "kernel": [3, 5],
        "expand": [1],
        "exit_min_position": 5,
        "devices": [
            {"name": "toy-dev", "compute_freq_ghz": [0.5, 1.0],
             "default_compute_idx": 1},
        ],
    },
    "ooe": {"generations": 2, "population": 8, "prune_fraction": 1.0,
            "budget": 16},
    "ioe": {"generations": 2, "population": 6, "budget": 12},
}

ROW_DIRECTIONS = (MAX, MIN, MIN, MAX, MIN, MIN)


def row_identity(row):
    return (row["resolution_idx"], row["blocks"], row["exit_bits"],
            row["device"], row["compute_idx"], row["emc_idx"])


def row_vector(row, gamma=1.0):
    eff = float(row["mean_correct"]) * float(row["mean_dissimilarity"])**gamma
    return ObjectiveVector(
        (float(row["acc"]), float(row["latency_ms"]), float(row["energy_mj"]),
         eff, float(row["energy_ratio"]), float(row["latency_ratio"])),
        ROW_DIRECTIONS,
    )


def test_criterion_05_end_to_end_oracle(tmp_path):
    runner = CliRunner()
    for seed in (1, 2, 3, 4, 5):
        start = time.perf_counter()
        doc = json.loads(json.dumps(TOY_DOC))
        doc["seed"] = seed
        doc["output_dir"] = str(tmp_path / f"seed{seed}")
        cfg_path = tmp_path / f"toy_{seed}.yaml"
        cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")

        res = runner.invoke(cli_main, ["search", "--config", str(cfg_path)])
        assert res.exit_code == 0, res.output
        res = runner.invoke(cli_main, ["enumerate", "--config", str(cfg_path)])
        assert res.exit_code == 0, res.output

        out = tmp_path / f"seed{seed}"
        archive_rows = ar.read_front_csv(str(out / "front.csv"))
        truth_rows = ar.read_front_csv(str(out / "truth_front.csv"))
        archive_ids = {row_identity(r) for r in archive_rows}
        truth_ids = {row_identity(r) for r in truth_rows}
        assert archive_ids <= truth_ids, "archive contains off-front rows"

        truth_front = Front([row_vector(r) for r in truth_rows])
        archive_front = Front([row_vector(r) for r in archive_rows])
        rod = ratio_of_dominance(truth_front, archive_front)
        assert rod == 0.0, f"seed {seed}: truth dominates archive (RoD {rod})"
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
    ok("criterion 5 (end-to-end oracle equivalence, 5 seeds)")


# ---------------------------------------------------------------------------
# 6. Budget accounting at the default budgets


def test_criterion_06_budget_accounting():
    device = DeviceSpec("quad", (0.5, 1.0, 1.5, 2.0), (), default_compute_idx=3)
    space = SearchSpaceSpec(
        n_block=2, resolution_domain=(32, 64), depth_domain=(3, 4, 5),
        width_domain=(16, 32, 64), kernel_domain=(3, 5), expand_domain=(1, 4),
        exit_min_position=5, device_specs=(device,),
    )
    config = OoeConfig(generations=15, population=30, prune_fraction=0.25,
                       budget=450,
                       ioe=IoeConfig(generations=35, population=100, budget=3500),
                       seed=606)
    hw = HardwareModelParams()
    result = run_ooe(space, device, SyntheticHardwareModel(hw), hw,
                     SurrogateParams(), config, VariationParams())
    c = result.counters
    g_out, p_out = config.generations, config.population
    per_gen_forwarded = math.ceil(config.prune_fraction * p_out)
    g_in, p_in = config.ioe.generations, config.ioe.population
    assert c.static_evals == g_out * p_out == 450
    assert c.forwarded_backbones == g_out * per_gen_forwarded == 120
    assert c.dynamic_evals == c.forwarded_backbones * g_in * p_in == 420_000
    assert config.generations * config.population <= config.budget
    assert g_in * p_in <= config.ioe.budget
    ok("criterion 6 (budget accounting: 450 static + 120x3500 dynamic, exact)")


# ---------------------------------------------------------------------------
# 7. Dissimilarity ablation direction


def test_criterion_07_dissim_ablation_direction():
    space = SearchSpaceSpec(device_specs=default_devices())
    wins = 0
    for seed in range(10):
        cfg = RunConfig(
            seed=seed, space=space, device="agx-volta-gpu",
            ooe=OoeConfig(ioe=IoeConfig(), seed=seed),
            ablate=AblateSpec(backbone_seed=seed),
        )
        report = run_ablation(cfg, SyntheticHardwareModel(cfg.hw), [0.0, 1.0])
        spread = {arm.gamma: arm.spread for arm in report.arms}
        if spread[1.0] >= spread[0.0]:
            wins += 1
    assert wins >= 8, f"gamma=1 spread won only {wins}/10 seeds"
    ok(f"criterion 7 (dissimilarity ablation direction, {wins}/10 seeds)")


# ---------------------------------------------------------------------------
# 8. Surrogate physics on every device grid


def test_criterion_08_surrogate_physics():
    params = HardwareModelParams()
    assert params.p1 > 0
    rng = random.Random(808)
    workloads = [Workload(rng.uniform(1e4, 1e9), rng.uniform(1e2, 1e7))
                 for _ in range(100)]
    violations = 0
    for device in default_devices():
        emc_levels = (list(range(len(device.emc_freq_ghz)))
                      if device.has_emc else [None])
        for w in workloads:
            for emc in emc_levels:
                series = [hw_latency_energy(w, device,
                                            DvfsGenome(device.name, c, emc),
                                            params)
                          for c in range(len(device.compute_freq_ghz))]
                lats = [s[0] for s in series]
                energies = [s[1] for s in series]
                violations += sum(1 for a, b in zip(lats, lats[1:]) if not a > b)
                violations += sum(1 for a, b in zip(energies, energies[1:])
                                  if not a < b)
            if device.has_emc:
                for c in range(len(device.compute_freq_ghz)):
                    lats = [hw_latency_energy(w, device,
                                              DvfsGenome(device.name, c, e),
                                              params)[0]
                            for e in emc_levels]
                    violations += sum(1 for a, b in zip(lats, lats[1:])
                                      if not a > b)
    assert violations == 0
    ok("criterion 8 (latency/energy monotone on every device grid, "
       "100 workloads)")


# ---------------------------------------------------------------------------
# 9. Loss utility


def test_criterion_09_loss_utility():
    rec = hybrid_loss([[0.5, 0.5]], [0.5, 0.5], label=0)
    assert abs(rec.nll - math.log(2.0)) <= 1e-12

    rng = random.Random(909)
    for _ in range(200):
        k = rng.randint(2, 8)
        raw = [-math.log(rng.random()) for _ in range(k)]
        z = sum(raw)
        p = [v / z for v in raw]
        rec = hybrid_loss([p], p, label=rng.randrange(k),
                          temperature=rng.choice((0.5, 1.0, 2.0)))
        assert abs(rec.kd) <= 1e-12

    violations = 0
    for _ in range(10_000):
        k = rng.randint(2, 6)
        def draw():
            raw = [-math.log(rng.random()) for _ in range(k)]
            z = sum(raw)
            return [v / z for v in raw]
        rec = hybrid_loss([draw() for _ in range(rng.randint(1, 4))], draw(),
                          label=rng.randrange(k),
                          temperature=rng.choice((0.5, 1.0, 2.0, 4.0)))
        if rec.nll < 0 or rec.kd < 0 or rec.total < 0:
            violations += 1
    assert violations == 0
    ok("criterion 9 (loss: ln2 case, KD identity, 10^4 nonnegative draws)")


# ---------------------------------------------------------------------------
# 10. Byte-identical artifacts


def test_criterion_10_byte_identical_runs(tmp_path):
    runner = CliRunner()
    doc = json.loads(json.dumps(TOY_DOC))
    doc["seed"] = 77
    artifacts = []
    for run_id in ("a", "b"):
        out = tmp_path / run_id
        doc["output_dir"] = str(out)
        cfg_path = tmp_path / f"cfg_{run_id}.yaml"
        cfg_path.write_text(yaml.safe_dump(doc), encoding="utf-8")
        res = runner.invoke(cli_main, ["search", "--config", str(cfg_path)])
        assert res.exit_code == 0, res.output
        artifacts.append(((out / "archive.json").read_bytes(),
                          (out / "front.csv").read_bytes()))
    assert artifacts[0] == artifacts[1]
    ok("criterion 10 (byte-identical JSON and CSV across reruns)")
