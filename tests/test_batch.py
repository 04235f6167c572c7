"""Whole-generation array paths against the per-object code they replaced
(kept in tests/oracles.py): matrix ranking, batch dynamic evaluation, the
batched hardware backends and the errors each path raises.  Every
comparison is exact (==), infinities included."""

import math
import random

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nestevo.config import default_devices
from nestevo.evaluator import (
    ExitProfile,
    HardwareModelParams,
    HardwareTable,
    StaticScore,
    SurrogateParams,
    SyntheticHardwareModel,
    TableHardwareModel,
    Workload,
    eval_static,
    exit_profile,
)
from nestevo.genome import (
    DeviceSpec,
    DvfsGenome,
    ExitGenome,
    SearchSpaceSpec,
    indicator_length,
    sample_backbone,
    sample_dvfs,
    sample_exit_genome,
)
from nestevo.ioe import (
    _DynamicEvaluator,
    dynamic_fitness,
    ioe_objective_matrix,
    ioe_objectives,
)
from nestevo.moea import Direction, ObjectiveVector

from oracles import (
    ScalarDynamicEvaluator,
    crowding_distance,
    fast_nondominated_sort,
    object_crowding,
    object_fronts,
    object_rank,
    rank_population,
)

MAX = Direction.MAXIMIZE
MIN = Direction.MINIMIZE

# ---------------------------------------------------------------------------
# Matrix ranking

# A few values with many ties (signed zeros included), or any finite float.
grid_value = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 1.0, 2.0])
any_value = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def populations(draw):
    m = draw(st.sampled_from([1, 2, 3]))
    n = draw(st.integers(1, 24))
    value = draw(st.sampled_from([grid_value, any_value]))
    rows = draw(st.lists(st.tuples(*(value,) * m), min_size=n, max_size=n))
    if m > 1 and draw(st.booleans()):
        col = draw(st.integers(0, m - 1))          # one constant objective
        rows = [r[:col] + (1.5,) + r[col + 1:] for r in rows]
    if draw(st.booleans()):                        # duplicate rows
        rows = rows + draw(st.lists(st.sampled_from(rows), max_size=6))
    directions = tuple(draw(st.sampled_from([MAX, MIN])) for _ in range(m))
    return [ObjectiveVector(r, directions) for r in rows]


def same(a, b):
    """== elementwise; NaN matches nothing, so a NaN crowding fails."""
    return len(a) == len(b) and all(x == y for x, y in zip(a, b))


def pop_of(rows, directions):
    return [ObjectiveVector(tuple(map(float, r)), directions) for r in rows]


@settings(max_examples=300, deadline=None)
@given(populations())
@example(pop_of([(1, 1)], (MAX, MAX)))                         # one member
@example(pop_of([(0, 1), (1, 0), (2, 2)], (MAX, MAX)))         # fronts of 1 and 2
@example(pop_of([(3,), (3,), (1,), (2,), (2,)], (MIN,)))       # one objective
@example(pop_of([(1, 5, 0), (2, 5, 1), (3, 5, 2), (0, 5, 3)],  # constant column
                (MAX, MIN, MAX)))
@example(pop_of([(10, 0, 0), (0, 0, 1e308), (5, 1, -1e308)],  # gap inf/inf at
                (MAX, MAX, MAX)))                               # a +inf member
@example(pop_of([(-1e308, 1e308), (0, 0), (1e308, -1e308)],   # span inf at
                (MAX, MAX)))                                    # an interior one
def test_matrix_ranking_equals_object_path(pop):
    ranks, crowd = object_rank(pop)
    ranked = rank_population(list(range(len(pop))), pop)
    assert list(ranked.ranks) == ranks
    assert same(ranked.crowding, crowd)
    assert fast_nondominated_sort(pop) == object_fronts(pop)
    assert same(crowding_distance(pop), object_crowding(pop))


# ---------------------------------------------------------------------------
# Batch dynamic evaluation

PLAIN = DeviceSpec("plain", (0.4, 0.9, 1.7), (), default_compute_idx=2)
EMC = DeviceSpec("emc", (0.5, 1.1), (0.3, 0.9), default_compute_idx=1,
                 default_emc_idx=1)
SPACE = SearchSpaceSpec(
    n_block=2, resolution_domain=(32, 64), depth_domain=(3, 4, 5),
    width_domain=(16, 48), kernel_domain=(3, 5), expand_domain=(1, 4),
    exit_min_position=5, device_specs=(PLAIN, EMC),
)
HW = HardwareModelParams()
SYNTHETIC = SyntheticHardwareModel(HW)


def tabulate(devices, buckets):
    """A table of the synthetic model: every setting of every device at the
    given log10-flops buckets."""
    rows = []
    for device in devices:
        emc = range(len(device.emc_freq_ghz)) if device.has_emc else (None,)
        for c in range(len(device.compute_freq_ghz)):
            for e in emc:
                f = DvfsGenome(device.name, c, e)
                f_m = device.emc_freq_ghz[e] if device.has_emc else None
                for x in buckets:
                    lat, energy = SYNTHETIC.latency_energy(
                        Workload(10.0**x, 0.0), device, f)
                    rows.append((device.name, device.compute_freq_ghz[c], f_m,
                                 x, lat, energy))
    return HardwareTable(rows)


# Prefix workloads of SPACE span about 10^2..10^5 flops: these buckets make
# queries clamp below and above and interpolate in between.
TABLE = TableHardwareModel(tabulate((PLAIN, EMC), [2.5 + k / 4 for k in range(9)]))

# The default space, for genomes of up to ~50 exit positions, with one device
# with and one without a memory clock; its prefixes span ~10^6..10^10 flops.
FULL_SPACE = SearchSpaceSpec(device_specs=default_devices())
FULL_DEVICES = (FULL_SPACE.device("agx-volta-gpu"), FULL_SPACE.device("carmel-cpu"))
FULL_TABLE = TableHardwareModel(tabulate(FULL_DEVICES,
                                         [6.5 + k / 4 for k in range(12)]))


def falling(profile: ExitProfile) -> ExitProfile:
    """The profile with every second fraction 1e-15 below its predecessor,
    the largest fall ExitProfile accepts."""
    fr = list(profile.correct_fractions)
    for j in range(1, len(fr), 2):
        fr[j] = fr[j - 1] - 1e-15
    return ExitProfile(profile.positions, tuple(fr), profile.final_accuracy)


@st.composite
def batches(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    if draw(st.booleans()):
        space, devices, table = SPACE, (PLAIN, EMC), TABLE
    else:
        space, devices, table = FULL_SPACE, FULL_DEVICES, FULL_TABLE
    device = draw(st.sampled_from(devices))
    backend = draw(st.sampled_from([SYNTHETIC, table]))
    gamma = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 1.7]))
    b = sample_backbone(space, rng)
    seed = rng.randrange(100)
    profile = exit_profile(b, space, SurrogateParams(), seed)
    if draw(st.booleans()):
        profile = falling(profile)
    static = eval_static(b, space, device, SYNTHETIC, SurrogateParams(), seed)
    n_cols = indicator_length(b, space)
    candidates = []
    for kind in draw(st.lists(st.sampled_from(["random", "single", "all"]),
                              min_size=1, max_size=30)):
        if kind == "random":
            x = sample_exit_genome(b, space, rng)
        elif kind == "single":
            bits = [0] * n_cols
            bits[rng.randrange(n_cols)] = 1
            x = ExitGenome(tuple(bits))
        else:
            x = ExitGenome((1,) * n_cols)
        candidates.append((x, sample_dvfs(device, rng)))
    return b, space, device, backend, profile, static, gamma, candidates


@settings(max_examples=150, deadline=None)
@given(batches(), st.sampled_from(["vector", "scalar"]))
def test_batch_evaluator_equals_scalar_oracle(batch, mode):
    b, space, device, backend, profile, static, gamma, candidates = batch
    args = (b, space, device, backend, HW, profile, static, gamma)
    oracle = ScalarDynamicEvaluator(*args)
    expected = [oracle.evaluate(x, f) for x, f in candidates]
    scores = _DynamicEvaluator(*args).evaluate_batch(candidates)
    assert [scores.score(i) for i in range(len(candidates))] == expected
    x, f = candidates[0]
    assert dynamic_fitness(b, x, f, profile, static, space, device, backend,
                           HW, gamma) == expected[0]
    values, directions = ioe_objective_matrix(scores, mode, gamma)
    vectors = [ioe_objectives(s, mode, gamma) for s in expected]
    assert [tuple(row) for row in values.tolist()] == [v.values for v in vectors]
    assert directions == vectors[0].directions


def test_evaluation_blocks_concatenate(monkeypatch):
    import nestevo.ioe as ioe

    rng = random.Random(3)
    b = sample_backbone(SPACE, rng)
    profile = exit_profile(b, SPACE, SurrogateParams(), 0)
    static = eval_static(b, SPACE, EMC, SYNTHETIC, SurrogateParams(), 0)
    candidates = [(sample_exit_genome(b, SPACE, rng), sample_dvfs(EMC, rng))
                  for _ in range(23)]
    ev = _DynamicEvaluator(b, SPACE, EMC, SYNTHETIC, HW, profile, static, 1.0)
    whole = ev.evaluate_batch(candidates)
    monkeypatch.setattr(ioe, "_BLOCK_ROWS", 5)
    blocks = ev.evaluate_batch(candidates)
    assert blocks.means.tolist() == whole.means.tolist()
    assert blocks.n_exits.tolist() == whole.n_exits.tolist()


def setting(device, i):
    emc = i % len(device.emc_freq_ghz) if device.has_emc else None
    return DvfsGenome(device.name, i % len(device.compute_freq_ghz), emc)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([PLAIN, EMC]),
       st.lists(st.tuples(st.integers(0, 5),
                          st.one_of(st.sampled_from([10.0**2.5, 10.0**3, 1e-3]),
                                    st.floats(1e-3, 1e8))),
                min_size=1, max_size=40))
def test_table_batch_lookup_equals_scalar(device, queries):
    settings_ = [setting(device, i) for i in range(6)]
    rows = np.array([i for i, _ in queries])
    flops = np.array([v for _, v in queries])
    lat, energy = TABLE.latency_energy_batch(flops, np.zeros(len(flops)), rows,
                                             device, settings_)
    expected = [TABLE.latency_energy(Workload(v, 0.0), device, settings_[i])
                for i, v in queries]
    assert list(zip(lat.tolist(), energy.tolist())) == expected


def test_table_batch_exact_hits_duplicates_and_domain_errors():
    buckets = [math.log10(v) for v in (100.0, 1000.0, 1000.0, 5e4)]
    rows = [("d", 1.0, None, x, 10.0 + i, 20.0 + i) for i, x in enumerate(buckets)]
    rows.append(("z", 1.0, None, 2.0, 0.0, 1.0))
    rows.append(("z", 1.0, None, 4.0, 3.0, 1.0))
    table = HardwareTable(rows)
    flops = np.array([100.0, 1000.0, 5e4, 10.0, 1e6, 300.0, 2e4])
    got = table.lookup_batch([("d", 1.0, None)], np.zeros(len(flops), dtype=int),
                             flops)
    expected = [table.lookup("d", 1.0, None, v) for v in flops.tolist()]
    assert list(zip(*(a.tolist() for a in got))) == expected
    # Zero latency: exact hits and clamps read it; interpolation raises.
    assert table.lookup_batch([("z", 1.0, None)], np.zeros(2, dtype=int),
                              np.array([100.0, 1.0])
                              )[0].tolist() == [0.0, 0.0]
    for lookup in (lambda: table.lookup("z", 1.0, None, 1000.0),
                   lambda: table.lookup_batch([("z", 1.0, None)],
                                              np.zeros(1, dtype=int),
                                              np.array([1000.0]))):
        with pytest.raises(ValueError, match="math domain error"):
            lookup()
    with pytest.raises(KeyError):
        table.lookup_batch([("d", 2.0, None)], np.zeros(1, dtype=int),
                           np.array([100.0]))


# ---------------------------------------------------------------------------
# Errors the batch path keeps


def both_paths(b, space, device, backend, hw, profile, static, gamma, candidates):
    """The scalar loop and the batch evaluator as two thunks, each ending in
    the objective vectors."""
    args = (b, space, device, backend, hw, profile, static, gamma)

    def scalar():
        oracle = ScalarDynamicEvaluator(*args)
        scores = [oracle.evaluate(x, f) for x, f in candidates]
        return [ioe_objectives(s, "vector", gamma) for s in scores]

    def batch():
        scores = _DynamicEvaluator(*args).evaluate_batch(candidates)
        return ioe_objective_matrix(scores, "vector", gamma)

    return scalar, batch


@pytest.mark.parametrize("width, overhead, message", [
    (-16, 0.05, "workload must be nonnegative"),
    (16, math.inf, "workload must be finite"),
    (1e306, 0.05, "workload must be finite"),
])
def test_bad_workload_raises_on_both_paths(width, overhead, message):
    space = SearchSpaceSpec(n_block=1, resolution_domain=(32,), depth_domain=(7,),
                            width_domain=(width,), kernel_domain=(3,),
                            expand_domain=(4,), exit_min_position=5,
                            device_specs=(PLAIN,))
    b = sample_backbone(space, random.Random(0))
    profile = ExitProfile((5, 6), (0.2, 0.4), 0.5)
    static = StaticScore(0.5, 1.0, 1.0)
    hw = HardwareModelParams(exit_overhead_fraction=overhead)
    candidates = [(ExitGenome((0, 1)), DvfsGenome("plain", 1)),
                  (ExitGenome((1, 1)), DvfsGenome("plain", 0))]
    for path in both_paths(b, space, PLAIN, SyntheticHardwareModel(hw), hw,
                           profile, static, 1.0, candidates):
        with pytest.raises(ValueError, match=message):
            path()


@pytest.mark.parametrize("gamma", [-1.0, math.nan])
def test_bad_gamma_raises_on_every_path(gamma):
    b = sample_backbone(SPACE, random.Random(1))
    profile = exit_profile(b, SPACE, SurrogateParams(), 1)
    static = eval_static(b, SPACE, PLAIN, SYNTHETIC, SurrogateParams(), 1)
    x = sample_exit_genome(b, SPACE, random.Random(2))
    f = DvfsGenome("plain", 1)
    for path in both_paths(b, SPACE, PLAIN, SYNTHETIC, HW, profile, static,
                           gamma, [(x, f)]):
        with pytest.raises(ValueError, match="gamma must be nonnegative"):
            path()
    with pytest.raises(ValueError, match="gamma must be nonnegative"):
        dynamic_fitness(b, x, f, profile, static, SPACE, PLAIN, SYNTHETIC, HW,
                        gamma)


class InfiniteAtSetting:
    """The synthetic model, except that one compute level costs inf energy."""

    def __init__(self, compute_idx):
        self.compute_idx = compute_idx

    def latency_energy(self, w, device, f):
        lat, energy = SYNTHETIC.latency_energy(w, device, f)
        return lat, math.inf if f.compute_idx == self.compute_idx else energy

    def latency_energy_batch(self, flops, bytes_, rows, device, settings):
        lat, energy = SYNTHETIC.latency_energy_batch(flops, bytes_, rows,
                                                     device, settings)
        bad = np.array([f.compute_idx == self.compute_idx for f in settings])
        return lat, np.where(bad[rows], math.inf, energy)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=12), st.integers(0, 2))
def test_nonfinite_objective_in_any_row_raises(levels, bad_level):
    b = sample_backbone(SPACE, random.Random(1))
    profile = exit_profile(b, SPACE, SurrogateParams(), 1)
    static = eval_static(b, SPACE, PLAIN, SYNTHETIC, SurrogateParams(), 1)
    rng = random.Random(2)
    candidates = [(sample_exit_genome(b, SPACE, rng), DvfsGenome("plain", c))
                  for c in levels]
    scalar, batch = both_paths(b, SPACE, PLAIN, InfiniteAtSetting(bad_level), HW,
                               profile, static, 1.0, candidates)
    if bad_level not in levels:
        values, _ = batch()
        assert [tuple(r) for r in values.tolist()] == [v.values for v in scalar()]
        return
    for path in (scalar, batch):
        with pytest.raises(ValueError, match="objective value inf is not finite"):
            path()


@pytest.mark.parametrize("delta", [-1, 1])
def test_wrong_length_genome_raises(delta):
    rng = random.Random(4)
    b = sample_backbone(SPACE, rng)
    profile = exit_profile(b, SPACE, SurrogateParams(), 0)
    static = eval_static(b, SPACE, PLAIN, SYNTHETIC, SurrogateParams(), 0)
    n_cols = indicator_length(b, SPACE)
    wrong = ExitGenome((1,) * (n_cols + delta))
    candidates = [(sample_exit_genome(b, SPACE, rng), DvfsGenome("plain", 0)),
                  (wrong, DvfsGenome("plain", 1))]
    ev = _DynamicEvaluator(b, SPACE, PLAIN, SYNTHETIC, HW, profile, static, 1.0)
    with pytest.raises(ValueError, match="not conditioned on this backbone"):
        ev.evaluate_batch(candidates)
    with pytest.raises(ValueError, match="not conditioned on this backbone"):
        dynamic_fitness(b, wrong, DvfsGenome("plain", 0), profile, static, SPACE,
                        PLAIN, SYNTHETIC, HW, 1.0)
