import math
import random

import numpy as np
import pytest

from nestevo.config import default_devices
from nestevo.evaluator import (
    HardwareModelParams,
    HardwareTable,
    SurrogateParams,
    SyntheticHardwareModel,
    TableHardwareModel,
    Workload,
    accuracy_surrogate,
    default_dvfs,
    eval_static,
    exit_correct_fraction,
    exit_profile,
    hw_latency_energy,
    hybrid_loss,
    layer_workloads,
    reference_flops,
    running_sums,
    workload_of,
)
from nestevo.genome import (
    BackboneGenome,
    BlockGenes,
    DeviceSpec,
    DvfsGenome,
    SearchSpaceSpec,
    sample_backbone,
    total_layers,
)


def single_block_space(**kwargs):
    defaults = dict(n_block=1, resolution_domain=(32,), depth_domain=(2, 10),
                    width_domain=(16,), kernel_domain=(3,), expand_domain=(1,),
                    exit_min_position=1)
    defaults.update(kwargs)
    return SearchSpaceSpec(**defaults)


class TestWorkload:
    def test_single_block_prefix_hand_values(self):
        # One block: d=2, w=16, e=1, k=3, r=32.  Block flops 2*16*1*9*1 = 288,
        # block bytes 4*2*16*1 = 128, and the block is the whole model.
        space = single_block_space()
        b = BackboneGenome(0, (BlockGenes(0, 0, 0, 0),))
        w = workload_of(b, space)
        assert w.flops == pytest.approx(288.0, abs=1e-12)
        assert w.bytes == pytest.approx(128.0, abs=1e-12)

    def test_full_model_is_block_sum(self, full_space):
        rng = random.Random(0)
        for _ in range(20):
            b = sample_backbone(full_space, rng)
            flops, byts = layer_workloads(b, full_space)
            w = workload_of(b, full_space)
            assert w.flops == pytest.approx(sum(flops), rel=1e-12)
            assert w.bytes == pytest.approx(sum(byts), rel=1e-12)

    def test_running_sums_add_left_to_right(self):
        # Compensated summation (sum() from Python 3.12 on) gives 1.0.
        assert running_sums([1e16, 1.0, -1e16]) == [0.0, 1e16, 1e16, 0.0]
        assert running_sums([1e16, 1.0, -1e16])[-1] == 0.0
        assert running_sums([]) == [0.0]
        assert math.copysign(1.0, running_sums([-0.0])[-1]) == 1.0


class TestAccuracySurrogate:
    def test_reference_point_value(self, full_space):
        # The mid-domain genome sits exactly at the reference compute, so
        # with the jitter off the curve value is ceiling * (1 - e^-1).
        from nestevo.evaluator import _mid_genome

        params = SurrogateParams(noise_scale=0.0)
        mid = _mid_genome(full_space)
        assert workload_of(mid, full_space).flops == reference_flops(full_space)
        acc = accuracy_surrogate(mid, full_space, params, seed=0)
        assert acc == pytest.approx(0.9 * (1.0 - math.exp(-1.0)), abs=1e-12)

    def test_monotone_in_compute_without_noise(self, full_space):
        params = SurrogateParams(noise_scale=0.0)
        rng = random.Random(2)
        pairs = []
        for _ in range(200):
            a = sample_backbone(full_space, rng)
            g = a.blocks[0]
            if g.width_idx + 1 < len(full_space.width_domain):
                bigger = BackboneGenome(a.resolution_idx, (
                    BlockGenes(g.depth_idx, g.width_idx + 1, g.kernel_idx,
                               g.expand_idx),) + a.blocks[1:])
                pairs.append((a, bigger))
        assert pairs
        for a, bigger in pairs:
            assert (accuracy_surrogate(bigger, full_space, params, 0)
                    > accuracy_surrogate(a, full_space, params, 0))

    def test_deterministic_per_genome_and_seed(self, full_space, rng):
        params = SurrogateParams()
        b = sample_backbone(full_space, rng)
        assert (accuracy_surrogate(b, full_space, params, 7)
                == accuracy_surrogate(b, full_space, params, 7))
        # Different seed shifts the jitter.
        values = {accuracy_surrogate(b, full_space, params, s) for s in range(20)}
        assert len(values) > 1

    def test_clamped_range(self, full_space):
        rng = random.Random(3)
        params = SurrogateParams()
        for _ in range(200):
            acc = accuracy_surrogate(sample_backbone(full_space, rng),
                                     full_space, params, 11)
            assert 0.02 <= acc <= 0.98


class TestExitProfile:
    def test_midpoint_gives_half_accuracy(self):
        # Single block of 10 uniform layers: prefix ratio at layer 5 is
        # exactly 0.5; with the midpoint at 0.5 the fraction is half the
        # backbone accuracy.
        space = single_block_space(exit_min_position=5)
        b = BackboneGenome(0, (BlockGenes(1, 0, 0, 0),))  # depth 10
        params = SurrogateParams(noise_scale=0.0, exit_midpoint=0.5)
        profile = exit_profile(b, space, params, seed=0)
        assert profile.positions[0] == 5
        assert profile.correct_fractions[0] == pytest.approx(
            profile.final_accuracy / 2.0, abs=1e-12)

    def test_full_depth_fraction_formula(self):
        # Independent straight-line evaluation of the logistic share at
        # relative compute 1.0 with the default slope and midpoint.
        params = SurrogateParams()
        expected = 0.9 / (1.0 + math.exp(-6.0 * (1.0 - 0.35)))
        assert exit_correct_fraction(0.9, 1.0, params) == pytest.approx(
            expected, abs=1e-15)
        assert expected == pytest.approx(0.882, abs=5e-4)

    def test_monotone_and_bounded(self, full_space):
        params = SurrogateParams()
        rng = random.Random(5)
        for _ in range(10_000):
            b = sample_backbone(full_space, rng)
            profile = exit_profile(b, full_space, params, seed=1)
            fracs = profile.correct_fractions
            assert all(a <= b for a, b in zip(fracs, fracs[1:]))
            assert all(f <= profile.final_accuracy for f in fracs)
            assert profile.positions == tuple(
                range(5, total_layers(b, full_space)))


class TestHardwareModel:
    def test_hand_values(self):
        params = HardwareModelParams(kappa_compute=1000.0, kappa_memory=1.0,
                                     p0=100.0, p1=0.0, p2=0.0)
        device = DeviceSpec("d", (1.0,), (), default_compute_idx=0)
        lat, energy = hw_latency_energy(Workload(1000.0, 0.0), device,
                                        DvfsGenome("d", 0), params)
        assert lat == pytest.approx(1.0, abs=1e-15)
        assert energy == pytest.approx(0.1, abs=1e-15)

    def test_doubling_compute_frequency_halves_latency(self):
        params = HardwareModelParams()
        device = DeviceSpec("d", (0.7, 1.4), (), default_compute_idx=1)
        w = Workload(5e6, 0.0)
        lat1, _ = hw_latency_energy(w, device, DvfsGenome("d", 0), params)
        lat2, _ = hw_latency_energy(w, device, DvfsGenome("d", 1), params)
        assert lat2 == pytest.approx(lat1 / 2.0, rel=1e-12)

    def test_pure_dynamic_power_energy_quadratic(self):
        # p0 = p2 = 0 and no memory traffic: energy scales with f^2 while
        # latency scales with 1/f, the tension the frequency search exploits.
        params = HardwareModelParams(p0=0.0, p1=123.0, p2=0.0)
        device = DeviceSpec("d", (0.5, 1.0), (), default_compute_idx=1)
        w = Workload(1e6, 0.0)
        lat1, e1 = hw_latency_energy(w, device, DvfsGenome("d", 0), params)
        lat2, e2 = hw_latency_energy(w, device, DvfsGenome("d", 1), params)
        assert e2 / e1 == pytest.approx(4.0, rel=1e-12)
        assert lat2 / lat1 == pytest.approx(0.5, rel=1e-12)

    def test_emc_fallback_to_compute_clock(self):
        params = HardwareModelParams()
        no_emc = DeviceSpec("a", (1.0,), (), default_compute_idx=0)
        with_emc = DeviceSpec("b", (1.0,), (1.0,), default_compute_idx=0,
                              default_emc_idx=0)
        w = Workload(1e6, 1e4)
        la, ea = hw_latency_energy(w, no_emc, DvfsGenome("a", 0), params)
        lb, eb = hw_latency_energy(w, with_emc, DvfsGenome("b", 0, 0), params)
        assert la == pytest.approx(lb, rel=1e-12)

    def test_sweeps_on_default_devices(self):
        params = HardwareModelParams()
        rng = random.Random(6)
        for device in default_devices():
            for _ in range(10):
                w = Workload(rng.uniform(1e5, 1e9), rng.uniform(1e3, 1e6))
                emc_levels = (range(len(device.emc_freq_ghz))
                              if device.has_emc else (None,))
                for emc in emc_levels:
                    series = [
                        hw_latency_energy(w, device,
                                          DvfsGenome(device.name, c, emc), params)
                        for c in range(len(device.compute_freq_ghz))
                    ]
                    lats = [s[0] for s in series]
                    energies = [s[1] for s in series]
                    assert all(a > b for a, b in zip(lats, lats[1:]))
                    assert all(a < b for a, b in zip(energies, energies[1:]))


class TestEvalStatic:
    def test_composition(self, full_space):
        params = SurrogateParams()
        hw = HardwareModelParams()
        backend = SyntheticHardwareModel(hw)
        device = full_space.device("agx-volta-gpu")
        rng = random.Random(7)
        b = sample_backbone(full_space, rng)
        score = eval_static(b, full_space, device, backend, params, seed=3)
        assert score.accuracy == accuracy_surrogate(b, full_space, params, 3)
        lat, energy = hw_latency_energy(workload_of(b, full_space), device,
                                        default_dvfs(device), hw)
        assert score.latency_ms == lat
        assert score.energy_mj == energy

    def test_deterministic(self, full_space, rng):
        backend = SyntheticHardwareModel()
        device = full_space.device("tx2-pascal-gpu")
        b = sample_backbone(full_space, rng)
        s1 = eval_static(b, full_space, device, backend, SurrogateParams(), 5)
        s2 = eval_static(b, full_space, device, backend, SurrogateParams(), 5)
        assert s1 == s2

    def test_monotone_under_gene_increase(self, full_space):
        # Bump one gene upward (all domains ascend): latency and energy
        # never decrease under the synthetic backend.
        backend = SyntheticHardwareModel()
        device = full_space.device("agx-volta-gpu")
        params = SurrogateParams(noise_scale=0.0)
        rng = random.Random(8)
        checked = 0
        for _ in range(300):
            b = sample_backbone(full_space, rng)
            gene = rng.randrange(4)
            blk = b.blocks[0]
            fields = [blk.depth_idx, blk.width_idx, blk.kernel_idx, blk.expand_idx]
            domains = [full_space.depth_domain, full_space.width_domain,
                       full_space.kernel_domain, full_space.expand_domain]
            if fields[gene] + 1 >= len(domains[gene]):
                continue
            fields[gene] += 1
            bigger = BackboneGenome(b.resolution_idx,
                                    (BlockGenes(*fields),) + b.blocks[1:])
            s_small = eval_static(b, full_space, device, backend, params, 0)
            s_big = eval_static(bigger, full_space, device, backend, params, 0)
            assert s_big.latency_ms >= s_small.latency_ms
            assert s_big.energy_mj >= s_small.energy_mj
            checked += 1
        assert checked > 100


def lookup(table, device, f_c, f_m, flops):
    """One query through HardwareTable.lookup_rows, as Python floats."""
    queries = [(device, f_c, f_m)]
    latency, energy = table.lookup_rows(queries, table.query_rows(queries),
                                        np.zeros(1, dtype=int),
                                        np.array([flops], dtype=float))
    return float(latency[0]), float(energy[0])


class TestHardwareTable:
    def test_exact_hit_verbatim(self):
        table = HardwareTable([("dev", 1.0, None, 3.0, 12.5, 80.0)])
        assert lookup(table, "dev", 1.0, None, 10.0**3) == (12.5, 80.0)

    def test_midway_log_flops_geometric_mean(self):
        table = HardwareTable([("dev", 1.0, None, 2.0, 10.0, 5.0),
                               ("dev", 1.0, None, 4.0, 40.0, 45.0)])
        lat, energy = lookup(table, "dev", 1.0, None, 10.0**3)
        assert lat == pytest.approx(math.sqrt(10.0 * 40.0), rel=1e-12)
        assert energy == pytest.approx(math.sqrt(5.0 * 45.0), rel=1e-12)

    def test_extrapolation_clamps(self):
        table = HardwareTable([("dev", 1.0, None, 2.0, 10.0, 5.0),
                               ("dev", 1.0, None, 4.0, 40.0, 45.0)])
        assert lookup(table, "dev", 1.0, None, 10.0) == (10.0, 5.0)
        assert lookup(table, "dev", 1.0, None, 10.0**9) == (40.0, 45.0)

    def test_absent_frequency_errors(self):
        table = HardwareTable([("dev", 1.0, None, 2.0, 10.0, 5.0)])
        with pytest.raises(KeyError):
            lookup(table, "dev", 2.0, None, 100.0)
        with pytest.raises(KeyError):
            lookup(table, "other", 1.0, None, 100.0)

    def test_csv_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        path.write_text(
            "device,bucket_log10_flops,f_compute_ghz,f_emc_ghz,latency_ms,energy_mj\n"
            "dev,2.0,1.0,,10.0,5.0\n"
            "dev,4.0,1.0,,40.0,45.0\n"
            "emcdev,3.0,0.5,0.8,7.0,2.0\n",
            encoding="utf-8",
        )
        table = HardwareTable.from_csv(str(path))
        assert lookup(table, "dev", 1.0, None, 100.0) == (10.0, 5.0)
        assert lookup(table, "emcdev", 0.5, 0.8, 1000.0) == (7.0, 2.0)

    def test_missing_columns_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("device,latency_ms\ndev,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            HardwareTable.from_csv(str(path))

    def test_backend_reproduces_synthetic_at_buckets(self, full_space):
        # Build the table from the synthetic model on a bucket grid; at
        # bucket points the two backends must agree.
        hw = HardwareModelParams()
        device = full_space.device("agx-volta-gpu")
        synthetic = SyntheticHardwareModel(hw)
        rows = []
        buckets = [5.0, 6.0, 7.0, 8.0, 9.0]
        for c_idx, f_c in enumerate(device.compute_freq_ghz):
            for e_idx, f_m in enumerate(device.emc_freq_ghz):
                for lb in buckets:
                    w = Workload(10.0**lb, 0.0)
                    lat, energy = synthetic.latency_energy(
                        w, device, DvfsGenome(device.name, c_idx, e_idx))
                    rows.append((device.name, f_c, f_m, lb, lat, energy))
        backend = TableHardwareModel(HardwareTable(rows))
        f = DvfsGenome(device.name, 3, 2)
        w = Workload(10.0**7, 0.0)
        assert backend.latency_energy(w, device, f) == pytest.approx(
            synthetic.latency_energy(w, device, f), rel=1e-12)


class TestHybridLoss:
    def test_one_hot_exit_equal_to_final(self):
        rec = hybrid_loss([[0.0, 1.0, 0.0]], [0.0, 1.0, 0.0], label=1)
        assert rec.nll == pytest.approx(0.0, abs=1e-12)
        assert rec.kd == pytest.approx(0.0, abs=1e-12)
        assert rec.total == rec.nll + rec.kd

    def test_uniform_two_class_nll_is_ln2(self):
        rec = hybrid_loss([[0.5, 0.5]], [0.5, 0.5], label=0)
        assert rec.nll == pytest.approx(math.log(2.0), abs=1e-12)
        assert rec.kd == pytest.approx(0.0, abs=1e-12)

    def test_kd_zero_iff_equal_distributions(self):
        p = [0.2, 0.3, 0.5]
        rec = hybrid_loss([p], p, label=2)
        assert rec.kd == pytest.approx(0.0, abs=1e-12)
        rec2 = hybrid_loss([[0.3, 0.3, 0.4]], p, label=2)
        assert rec2.kd > 0.0

    def test_zero_probability_clamped(self):
        rec = hybrid_loss([[1.0, 0.0]], [0.5, 0.5], label=1)
        assert math.isfinite(rec.nll) and math.isfinite(rec.kd)
        assert rec.nll == pytest.approx(-math.log(1e-12), rel=1e-12)

    def test_nonnegative_on_random_simplex_draws(self):
        rng = random.Random(10)
        for _ in range(2000):
            k = rng.randint(2, 6)
            def draw():
                raw = [-math.log(rng.random()) for _ in range(k)]
                z = sum(raw)
                return [v / z for v in raw]
            n_exits = rng.randint(1, 3)
            rec = hybrid_loss([draw() for _ in range(n_exits)], draw(),
                              label=rng.randrange(k),
                              temperature=rng.choice([0.5, 1.0, 2.0]))
            assert rec.nll >= 0.0
            assert rec.kd >= 0.0

    def test_temperature_scaling_matches_straight_line(self):
        # Straight-line recomputation, coded independently of the module.
        exit_p = [0.6, 0.4]
        final_p = [0.3, 0.7]
        t = 2.0
        def soften(p):
            powered = [v ** (1.0 / t) for v in p]
            z = sum(powered)
            return [v / z for v in powered]
        teacher, student = soften(final_p), soften(exit_p)
        kd = sum(a * math.log(a / b) for a, b in zip(teacher, student)) * t * t
        nll = -math.log(exit_p[0])
        rec = hybrid_loss([exit_p], final_p, label=0, temperature=t)
        assert rec.nll == pytest.approx(nll, abs=1e-12)
        assert rec.kd == pytest.approx(kd, abs=1e-12)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            hybrid_loss([[0.5, 0.6]], [0.5, 0.5], 0)
        with pytest.raises(ValueError):
            hybrid_loss([[0.5, 0.5]], [0.5, 0.5], 2)
        with pytest.raises(ValueError):
            hybrid_loss([], [1.0], 0)
        with pytest.raises(ValueError):
            hybrid_loss([[0.5, 0.5]], [0.5, 0.5], 0, temperature=0.0)
