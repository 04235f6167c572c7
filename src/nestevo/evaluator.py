"""Deterministic fitness surrogates: workload accounting, accuracy and
per-exit correctness profiles, analytic latency/energy under frequency
scaling, a CSV lookup-table hardware backend, and the hybrid
classification/distillation loss utility.

Every function here is a pure function of its inputs plus an explicit seed,
so population members can be evaluated in parallel and runs replayed
bit for bit.  No training loops, no datasets, no device drivers.
"""

from __future__ import annotations

import csv
import functools
import hashlib
import math
import struct
from dataclasses import dataclass
from itertools import accumulate
from typing import Any, Iterable, Protocol, Sequence

import numpy as np

from .genome import (
    BackboneGenome,
    DeviceSpec,
    DvfsGenome,
    SearchSpaceSpec,
    admissible_positions,
    frequency_settings,
    require_finite_fields,
    validate_backbone,
)


@dataclass(frozen=True)
class Workload:
    """Abstract compute and memory-traffic units of (part of) a model."""

    flops: float
    bytes: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.flops) and math.isfinite(self.bytes)):
            raise ValueError("workload must be finite")
        if self.flops < 0 or self.bytes < 0:
            raise ValueError("workload must be nonnegative")


@dataclass(frozen=True)
class StaticScore:
    accuracy: float
    latency_ms: float
    energy_mj: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.accuracy <= 1.0:
            raise ValueError("accuracy must lie in [0, 1]")
        if self.latency_ms <= 0 or self.energy_mj <= 0:
            raise ValueError("latency and energy must be positive")


@dataclass(frozen=True)
class ExitProfile:
    """Per-position fraction of inputs classifiable correctly at each
    admissible exit, under the ideal first-correct-exit mapping."""

    positions: tuple[int, ...]
    correct_fractions: tuple[float, ...]
    final_accuracy: float

    def __post_init__(self) -> None:
        if len(self.positions) != len(self.correct_fractions):
            raise ValueError("positions / fractions length mismatch")
        prev = 0.0
        for f in self.correct_fractions:
            if f < prev - 1e-15 or f > self.final_accuracy + 1e-15:
                raise ValueError("exit fractions must be nondecreasing and "
                                 "bounded by the final accuracy")
            prev = f


@dataclass(frozen=True)
class HardwareModelParams:
    """Coefficients of the synthetic latency/power model.

    Latency: flops/(kappa_compute * f_c) + bytes/(kappa_memory * f_m).
    Power (mW): p0 + p1 * f_c^3 + p2 * f_m, approximating V^2 f scaling with
    voltage proportional to frequency.  Energy (mJ) = power * latency / 1e3.
    Each attached exit inflates its host layer's flops by
    exit_overhead_fraction.
    """

    kappa_compute: float = 1.0e7
    kappa_memory: float = 1.0e5
    p0: float = 2.0
    p1: float = 1500.0
    p2: float = 1.0
    exit_overhead_fraction: float = 0.05

    def __post_init__(self) -> None:
        require_finite_fields(self, *self.__dataclass_fields__)
        if self.kappa_compute <= 0 or self.kappa_memory <= 0:
            raise ValueError("throughput coefficients must be positive")
        if self.p0 < 0 or self.p1 < 0 or self.p2 < 0:
            raise ValueError("power coefficients must be nonnegative")
        if self.exit_overhead_fraction < 0:
            raise ValueError("exit overhead must be nonnegative")


@dataclass(frozen=True)
class SurrogateParams:
    """Shape of the accuracy and exit-correctness surrogates."""

    accuracy_ceiling: float = 0.9       # asymptote of the accuracy curve
    accuracy_rate: float = 1.0          # exponential saturation rate
    noise_scale: float = 0.01           # amplitude of the deterministic jitter
    exit_slope: float = 6.0             # logistic slope over relative depth
    exit_midpoint: float = 0.35         # relative compute at half correctness

    def __post_init__(self) -> None:
        require_finite_fields(self, *self.__dataclass_fields__)
        if not 0 < self.accuracy_ceiling <= 1:
            raise ValueError("accuracy_ceiling must lie in (0, 1]")
        if self.accuracy_rate <= 0 or self.exit_slope <= 0:
            raise ValueError("rates must be positive")
        if self.noise_scale < 0:
            raise ValueError("noise_scale must be nonnegative")


@dataclass(frozen=True)
class LossRecord:
    nll: float
    kd: float

    @property
    def total(self) -> float:
        return self.nll + self.kd


# ---------------------------------------------------------------------------
# Workload model


def running_sums(values: Iterable[float]) -> list[float]:
    """0.0 followed by each prefix sum of `values`, added left to right.

    Float lists are summed here rather than with sum(): from Python 3.12 on
    sum() of floats is compensated, so its last bit would depend on the
    interpreter."""
    return list(accumulate(values, initial=0.0))


def layer_workloads(b: BackboneGenome,
                    space: SearchSpaceSpec) -> tuple[list[float], list[float]]:
    """Per-layer (flops, bytes) shares, layer 1 first.

    Block j contributes d*w*e*k^2*(r/32)^2 flops and 4*d*w*e bytes, spread
    equally over its d layers.
    """
    res = space.resolution_domain[b.resolution_idx]
    scale = (res / 32.0) ** 2
    flops: list[float] = []
    bytes_: list[float] = []
    for blk in b.blocks:
        d = space.depth_domain[blk.depth_idx]
        w = space.width_domain[blk.width_idx]
        k = space.kernel_domain[blk.kernel_idx]
        e = space.expand_domain[blk.expand_idx]
        block_flops = d * w * e * k * k * scale
        block_bytes = 4.0 * d * w * e
        flops.extend([block_flops / d] * d)
        bytes_.extend([block_bytes / d] * d)
    return flops, bytes_


def workload_of(b: BackboneGenome, space: SearchSpaceSpec) -> Workload:
    """Workload of the whole model, without exits."""
    flops, bytes_ = layer_workloads(b, space)
    return Workload(running_sums(flops)[-1], running_sums(bytes_)[-1])


def _mid_genome(space: SearchSpaceSpec) -> BackboneGenome:
    from .genome import BlockGenes  # local import to keep module load light

    mid = lambda domain: len(domain) // 2
    blk = BlockGenes(mid(space.depth_domain), mid(space.width_domain),
                     mid(space.kernel_domain), mid(space.expand_domain))
    return BackboneGenome(mid(space.resolution_domain), (blk,) * space.n_block)


def reference_flops(space: SearchSpaceSpec) -> float:
    """Full-model flops of the genome sitting mid-way in every domain."""
    return workload_of(_mid_genome(space), space).flops


# ---------------------------------------------------------------------------
# Accuracy and exit-correctness surrogates


def _unit_noise(b: BackboneGenome, seed: int) -> float:
    """Deterministic hash of (genome, seed) mapped to [-1, 1]."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", seed & (2**64 - 1)))
    h.update(",".join(str(g) for g in b.key()).encode())
    v = int.from_bytes(h.digest(), "little")
    return 2.0 * v / (2**64 - 1) - 1.0


def accuracy_surrogate(b: BackboneGenome, space: SearchSpaceSpec,
                       params: SurrogateParams, seed: int) -> float:
    """Saturating function of full-model compute plus a tiny deterministic
    jitter, clamped to [0.02, 0.98]."""
    validate_backbone(b, space)
    c = workload_of(b, space).flops
    c_ref = reference_flops(space)
    acc = params.accuracy_ceiling * (1.0 - math.exp(-params.accuracy_rate * c / c_ref))
    acc += params.noise_scale * _unit_noise(b, seed)
    return min(0.98, max(0.02, acc))


def exit_correct_fraction(accuracy: float, compute_ratio: float,
                          params: SurrogateParams) -> float:
    """Logistic share of the backbone accuracy reachable at a prefix that
    performs `compute_ratio` of the full model's flops."""
    z = params.exit_slope * (compute_ratio - params.exit_midpoint)
    return accuracy / (1.0 + math.exp(-z))


def exit_profile(b: BackboneGenome, space: SearchSpaceSpec,
                 params: SurrogateParams, seed: int) -> ExitProfile:
    acc = accuracy_surrogate(b, space, params, seed)
    cum_flops = running_sums(layer_workloads(b, space)[0])
    positions = admissible_positions(b, space)
    fractions = [exit_correct_fraction(acc, cum_flops[pos] / cum_flops[-1], params)
                 for pos in positions]
    return ExitProfile(tuple(positions), tuple(fractions), acc)


# ---------------------------------------------------------------------------
# Hardware backends


def frequency_genes(device: DeviceSpec, f: DvfsGenome) -> tuple[int, ...]:
    """f as the frequency genes of a setting on `device`: (compute_idx,), or
    (compute_idx, emc_idx) on a device with a memory clock.  An index
    outside its table raises ValueError: a setting code would not."""
    if f.device != device.name:
        raise ValueError(f"dvfs genome targets {f.device!r}, device is {device.name!r}")
    genes: tuple[int, ...] = (f.compute_idx,)
    if device.has_emc:
        if f.emc_idx is None:
            raise ValueError(f"{device.name} needs an emc index")
        genes += (f.emc_idx,)
    tables = (device.compute_freq_ghz, device.emc_freq_ghz)
    if not all(0 <= g < len(t) for g, t in zip(genes, tables)):
        raise ValueError(f"{device.name}: frequency index out of range in {f!r}")
    return genes


def resolved_frequencies(device: DeviceSpec,
                         setting: Sequence[int]) -> tuple[float, float]:
    """(compute GHz, memory GHz) of a setting given as its frequency genes;
    memory falls back to the compute clock on devices without an EMC knob."""
    f_c = device.compute_freq_ghz[setting[0]]
    return f_c, device.emc_freq_ghz[setting[1]] if device.has_emc else f_c


def setting_codes(device: DeviceSpec, genes: np.ndarray) -> np.ndarray:
    """The code of each row of a matrix of frequency genes: the row's place
    in genome.frequency_settings(device), which indexes a price table."""
    if device.has_emc:
        return genes[:, 0] * len(device.emc_freq_ghz) + genes[:, 1]
    return genes[:, 0]


def hw_latency_energy(w: Workload, device: DeviceSpec, f: DvfsGenome,
                      params: HardwareModelParams) -> tuple[float, float]:
    """Analytic latency (ms) and energy (mJ) at the given frequency setting."""
    f_c, f_m = resolved_frequencies(device, frequency_genes(device, f))
    latency = w.flops / (params.kappa_compute * f_c) + w.bytes / (params.kappa_memory * f_m)
    power = params.p0 + params.p1 * f_c**3 + params.p2 * f_m
    return latency, power * latency / 1e3


class HardwareBackend(Protocol):
    """A hardware cost model.  A backend implements price_table and
    latency_energy_batch; latency_energy, inherited by subclasses, is the
    batch path's one-row call."""

    def price_table(self, device: DeviceSpec) -> Any:
        """What latency_energy_batch needs to price every frequency setting
        of `device`, indexed by setting code (see setting_codes).  A
        device's prices never change, so a backend builds them once."""
        ...

    def latency_energy_batch(self, flops: np.ndarray, bytes_: np.ndarray,
                             codes: np.ndarray, prices: Any
                             ) -> tuple[np.ndarray, np.ndarray]:
        """Latency (ms) and energy (mJ) of each workload (flops[i],
        bytes_[i]) at the setting whose code is codes[i], on the device
        that `prices` (price_table) was built for.  The workloads are
        already validated."""
        ...

    def latency_energy(self, w: Workload, device: DeviceSpec,
                       f: DvfsGenome) -> tuple[float, float]:
        latency, energy = self.latency_energy_batch(
            np.array([w.flops]), np.array([w.bytes]),
            setting_codes(device, np.array([frequency_genes(device, f)])),
            self.price_table(device))
        return float(latency[0]), float(energy[0])


class SyntheticHardwareModel(HardwareBackend):
    """Closed-form backend; the default."""

    def __init__(self, params: HardwareModelParams | None = None) -> None:
        self.params = params or HardwareModelParams()

    @functools.lru_cache(maxsize=16)
    def price_table(self, device: DeviceSpec) -> np.ndarray:
        """Per setting code, hw_latency_energy's factors in Python floats:
        the compute and memory throughputs and the power.  Built once per
        backend and device, and never written to."""
        params = self.params
        return np.array([
            (params.kappa_compute * f_c, params.kappa_memory * f_m,
             params.p0 + params.p1 * f_c**3 + params.p2 * f_m)
            for f_c, f_m in (resolved_frequencies(device, s)
                             for s in frequency_settings(device))])

    def latency_energy_batch(self, flops: np.ndarray, bytes_: np.ndarray,
                             codes: np.ndarray, prices: np.ndarray
                             ) -> tuple[np.ndarray, np.ndarray]:
        # hw_latency_energy's operations, elementwise.
        c = prices[codes]
        latency = flops / c[:, 0] + bytes_ / c[:, 1]
        return latency, c[:, 2] * latency / 1e3


TABLE_CSV_COLUMNS = ("device", "bucket_log10_flops", "f_compute_ghz",
                     "f_emc_ghz", "latency_ms", "energy_mj")


def _table_key(device: str, f_c: float, f_m: float | None) -> tuple:
    return (device, round(f_c, 9), round(f_m, 9) if f_m is not None else None)


class HardwareTable:
    """Measurement lookup table keyed by (device, frequency pair, flops bucket).

    Frequencies are discrete and never interpolated; flops queries between two
    buckets interpolate log-linearly (so a query midway in log-flops returns
    the geometric mean of the bucket values), and queries outside the bucket
    range clamp to the nearest bucket.  Built from rows of (device, f_c, f_m
    or None, bucket log10 flops, latency, energy).
    """

    def __init__(self, rows: Iterable[tuple] = ()) -> None:
        # (device, f_c, f_m or None) -> sorted list of (log10_flops, lat, energy)
        self._rows: dict[tuple, list[tuple[float, float, float]]] = {}
        for device, f_c, f_m, bucket, latency, energy in rows:
            self._rows.setdefault(_table_key(device, f_c, f_m), []).append(
                (bucket, latency, energy))
        for bucket_rows in self._rows.values():
            bucket_rows.sort()
        # The same rows padded into matrices with one row per key: buckets
        # past a key's count read +inf.  Interpolating in logs needs
        # positive values, so a value <= 0 reads NaN here and lookup_rows
        # raises when it would interpolate from it.
        self._index = {key: k for k, key in enumerate(self._rows)}
        width = max(map(len, self._rows.values()), default=0)
        self._counts = np.array([len(r) for r in self._rows.values()], dtype=int)
        self._buckets = np.full((len(self._rows), width), math.inf)
        self._values = np.zeros((len(self._rows), width, 2))
        self._logs = np.zeros((len(self._rows), width, 2))
        for k, bucket_rows in enumerate(self._rows.values()):
            n = len(bucket_rows)
            self._buckets[k, :n] = [r[0] for r in bucket_rows]
            self._values[k, :n] = [r[1:] for r in bucket_rows]
            self._logs[k, :n] = [[math.log(v) if v > 0 else math.nan
                                  for v in r[1:]] for r in bucket_rows]

    @classmethod
    def from_csv(cls, path: str) -> "HardwareTable":
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh, restval="")
            missing = set(TABLE_CSV_COLUMNS) - set(reader.fieldnames or ())
            if missing:
                raise ValueError(f"lookup table missing columns: {sorted(missing)}")
            rows = []
            for row in reader:
                f_m = row["f_emc_ghz"].strip()
                rows.append((row["device"], float(row["f_compute_ghz"]),
                             float(f_m) if f_m else None,
                             float(row["bucket_log10_flops"]),
                             float(row["latency_ms"]), float(row["energy_mj"])))
        return cls(rows)

    def query_rows(self, queries: Sequence[tuple[str, float, float | None]]
                   ) -> np.ndarray:
        """The row of each (device, f_c, f_m or None) query in the padded
        matrices, -1 for a frequency pair without rows."""
        return np.array([self._index.get(_table_key(*q), -1) for q in queries],
                        dtype=int)

    def lookup_rows(self, queries: Sequence[tuple[str, float, float | None]],
                    rows: np.ndarray, which: np.ndarray,
                    flops: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Latency and energy of flops[i] under the frequency pair
        queries[which[i]] = (device, f_c, f_m or None), whose rows are
        `rows` = query_rows(queries), as arrays.

        Each query's place among the buckets is a count of the buckets
        below it; log10 and exp are the math module's.  A pair without rows
        raises KeyError, and an interpolation from a value <= 0 raises
        ValueError ("math domain error")."""
        keys = rows[which]
        missing = np.flatnonzero(keys < 0)
        if len(missing):
            device, f_c, f_m = queries[which[missing[0]]]
            raise KeyError(f"no table rows for device={device!r} f_c={f_c} f_m={f_m}")
        counts = self._counts[keys]
        xs = self._buckets[keys]
        q = np.array([math.log10(v) for v in flops.tolist()])
        i = (xs < q[:, None]).sum(axis=1)
        nearest = np.minimum(i, counts - 1)
        hit = (i < counts) & (xs[np.arange(len(q)), nearest] == q)
        out = self._values[keys, np.where(hit | (i > 0), nearest, 0)]
        inner = np.flatnonzero(~hit & (i > 0) & (i < counts))
        if len(inner):
            k, hi = keys[inner], i[inner]
            lo = hi - 1
            if (self._values[k, lo] <= 0).any() or (self._values[k, hi] <= 0).any():
                raise ValueError("math domain error")
            x0 = self._buckets[k, lo]
            t = ((q[inner] - x0) / (self._buckets[k, hi] - x0))[:, None]
            mixed = (1 - t) * self._logs[k, lo] + t * self._logs[k, hi]
            out[inner] = np.array([math.exp(v) for v in mixed.ravel().tolist()]
                                  ).reshape(-1, 2)
        return out[:, 0], out[:, 1]


class TableHardwareModel(HardwareBackend):
    def __init__(self, table: HardwareTable) -> None:
        self.table = table

    @classmethod
    def from_csv(cls, path: str) -> "TableHardwareModel":
        return cls(HardwareTable.from_csv(path))

    @functools.lru_cache(maxsize=16)
    def price_table(self, device: DeviceSpec
                    ) -> tuple[tuple[tuple[str, float, float | None], ...],
                               np.ndarray]:
        """Per setting code, the table query (device, f_c, f_m or None) and
        its row (HardwareTable.query_rows).  Built once per backend and
        device, and never written to."""
        queries = tuple((device.name, f_c, f_m if device.has_emc else None)
                        for f_c, f_m in (resolved_frequencies(device, s)
                                         for s in frequency_settings(device)))
        return queries, self.table.query_rows(queries)

    def latency_energy_batch(self, flops: np.ndarray, bytes_: np.ndarray,
                             codes: np.ndarray, prices: tuple
                             ) -> tuple[np.ndarray, np.ndarray]:
        return self.table.lookup_rows(*prices, codes, flops)


def default_dvfs(device: DeviceSpec) -> DvfsGenome:
    return DvfsGenome(device.name, device.default_compute_idx, device.default_emc_idx)


def eval_static(b: BackboneGenome, space: SearchSpaceSpec, device: DeviceSpec,
                backend: HardwareBackend, surrogate: SurrogateParams,
                seed: int) -> StaticScore:
    """Accuracy plus full-model latency/energy at the device's default
    frequency setting, with no exits attached."""
    acc = accuracy_surrogate(b, space, surrogate, seed)
    w = workload_of(b, space)
    latency, energy = backend.latency_energy(w, device, default_dvfs(device))
    return StaticScore(acc, latency, energy)


# ---------------------------------------------------------------------------
# Hybrid classification + distillation loss (desk-scale formula utility)

_PROB_FLOOR = 1e-12


def _soften(p: Sequence[float], temperature: float) -> list[float]:
    powered = [max(v, 0.0) ** (1.0 / temperature) for v in p]
    z = running_sums(powered)[-1]
    return [v / z for v in powered]


def _check_simplex(p: Sequence[float], name: str) -> None:
    if abs(running_sums(p)[-1] - 1.0) > 1e-9:
        raise ValueError(f"{name} must sum to 1")
    if any(v < 0 for v in p):
        raise ValueError(f"{name} must be nonnegative")


def hybrid_loss(exit_probs: Sequence[Sequence[float]],
                final_probs: Sequence[float], label: int,
                temperature: float = 1.0) -> LossRecord:
    """Mean over exits of cross-entropy at the label plus temperature-scaled
    KL from the final classifier to the exit (times T^2), for one sample.

    Zero probabilities are clamped to 1e-12 inside the logarithms, so the
    result is always finite.
    """
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    _check_simplex(final_probs, "final_probs")
    if not 0 <= label < len(final_probs):
        raise ValueError("label out of range")
    if not exit_probs:
        raise ValueError("need at least one exit prediction")
    nll_sum = 0.0
    kd_sum = 0.0
    teacher = _soften(final_probs, temperature)
    for probs in exit_probs:
        _check_simplex(probs, "exit_probs")
        if len(probs) != len(final_probs):
            raise ValueError("exit and final distributions differ in length")
        nll_sum += -math.log(max(probs[label], _PROB_FLOOR))
        student = _soften(probs, temperature)
        kl = running_sums(
            t * (math.log(t) - math.log(max(s, _PROB_FLOOR)))
            for t, s in zip(teacher, student)
            if t > 0
        )[-1]
        kd_sum += max(kl, 0.0) * temperature**2
    n_exits = len(exit_probs)
    return LossRecord(nll_sum / n_exits, kd_sum / n_exits)
