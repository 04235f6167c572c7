"""Search subspaces, their integer-coded genomes, and variation operators.

Three subspaces are searched: backbone architectures (resolution plus
per-block depth/width/kernel/expand choices), early-exit placements
(an indicator bit per admissible layer), and per-device frequency settings.
All encodings are index-based so the value domains can be swapped in config
without touching any operator.  Genomes are immutable; operators never touch
their inputs and draw exclusively from the caller's RNG stream.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence


def require_counts(obj: object, *names: str) -> None:
    """Raise ValueError unless each named field of `obj` is an int; a bool
    is not a count."""
    for name in names:
        value = getattr(obj, name)
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class DeviceSpec:
    """Discrete frequency tables of one device.

    `emc_freq_ghz` may be empty for devices without a separate
    memory-controller knob; such devices run memory traffic at the compute
    frequency.
    """

    name: str
    compute_freq_ghz: tuple[float, ...]
    emc_freq_ghz: tuple[float, ...] = ()
    default_compute_idx: int = 0
    default_emc_idx: int | None = None

    def __post_init__(self) -> None:
        # A name is one front.csv field, and the CSV writer leaves a bare \r
        # unquoted: no line break may appear in it.
        if (not isinstance(self.name, str) or not self.name
                or "\r" in self.name or "\n" in self.name):
            raise ValueError(f"device name {self.name!r} must be a non-empty "
                             "string without line breaks")
        require_counts(self, "default_compute_idx")
        if self.default_emc_idx is not None:
            require_counts(self, "default_emc_idx")
        for label, levels in (("compute", self.compute_freq_ghz), ("emc", self.emc_freq_ghz)):
            if any(f <= 0 for f in levels):
                raise ValueError(f"{self.name}: {label} frequencies must be positive")
            if any(b <= a for a, b in zip(levels, levels[1:])):
                raise ValueError(f"{self.name}: {label} frequencies must be strictly increasing")
        if not self.compute_freq_ghz:
            raise ValueError(f"{self.name}: compute frequency table is empty")
        if not 0 <= self.default_compute_idx < len(self.compute_freq_ghz):
            raise ValueError(f"{self.name}: default compute index out of range")
        if self.emc_freq_ghz:
            if self.default_emc_idx is None or not 0 <= self.default_emc_idx < len(self.emc_freq_ghz):
                raise ValueError(f"{self.name}: default emc index out of range")
        elif self.default_emc_idx is not None:
            raise ValueError(f"{self.name}: default emc index given but no emc table")

    @property
    def has_emc(self) -> bool:
        return bool(self.emc_freq_ghz)


def default_width_domain() -> tuple[int, ...]:
    """16 evenly spaced channel widths spanning [16, 1984], rounded to ints."""
    return tuple(round(16 + i * (1984 - 16) / 15) for i in range(16))


@dataclass(frozen=True)
class SearchSpaceSpec:
    """Value domains of the backbone subspace plus exit-placement bounds."""

    n_block: int = 7
    resolution_domain: tuple[int, ...] = (192, 224, 256, 288)
    depth_domain: tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8)
    width_domain: tuple[int, ...] = field(default_factory=default_width_domain)
    kernel_domain: tuple[int, ...] = (3, 5)
    expand_domain: tuple[int, ...] = (1, 4, 5, 6)
    exit_min_position: int = 5
    device_specs: tuple[DeviceSpec, ...] = ()

    def __post_init__(self) -> None:
        require_counts(self, "n_block", "exit_min_position")
        if self.n_block < 1:
            raise ValueError("n_block must be >= 1")
        if self.exit_min_position < 1:
            raise ValueError("exit_min_position must be >= 1")
        for name in ("resolution_domain", "depth_domain", "width_domain",
                     "kernel_domain", "expand_domain"):
            if not getattr(self, name):
                raise ValueError(f"{name} is empty")
        if self.n_block * max(self.depth_domain) < self.exit_min_position + 1:
            raise ValueError(
                "space admits no exits: even the deepest backbone is shallower "
                f"than exit_min_position + 1 = {self.exit_min_position + 1}"
            )

    def device(self, name: str) -> DeviceSpec:
        for d in self.device_specs:
            if d.name == name:
                return d
        raise KeyError(f"unknown device {name!r}")

    def n_backbones(self) -> int:
        per_block = (len(self.depth_domain) * len(self.width_domain)
                     * len(self.kernel_domain) * len(self.expand_domain))
        return len(self.resolution_domain) * per_block ** self.n_block


@dataclass(frozen=True)
class BlockGenes:
    depth_idx: int
    width_idx: int
    kernel_idx: int
    expand_idx: int


@dataclass(frozen=True)
class BackboneGenome:
    """Index-coded architecture point: one resolution gene plus n_block blocks."""

    resolution_idx: int
    blocks: tuple[BlockGenes, ...]

    def key(self) -> tuple[int, ...]:
        flat = [self.resolution_idx]
        for b in self.blocks:
            flat += [b.depth_idx, b.width_idx, b.kernel_idx, b.expand_idx]
        return tuple(flat)


_BIT_CHARS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class ExitGenome:
    """Indicator bits over a backbone's admissible exit layers.

    Bit p corresponds to an exit after layer exit_min_position + p; at least
    one bit is always set.
    """

    indicators: tuple[int, ...]

    def __post_init__(self) -> None:
        bits = self.indicators
        if bits.count(0) + bits.count(1) != len(bits):
            raise ValueError("indicators must be 0/1")

    @property
    def n_exits(self) -> int:
        return sum(self.indicators)

    def key(self) -> str:
        return bytes(self.indicators).translate(_BIT_CHARS).decode()


@dataclass(frozen=True)
class DvfsGenome:
    """Indices into one device's frequency tables; emc_idx is None when the
    device has no memory-controller knob."""

    device: str
    compute_idx: int
    emc_idx: int | None = None

    def key(self) -> tuple:
        return (self.device, self.compute_idx, self.emc_idx)


@dataclass(frozen=True)
class VariationParams:
    mutation_prob_per_gene: float = 0.1
    crossover_prob: float = 0.5
    tournament_size: int = 2

    def __post_init__(self) -> None:
        require_counts(self, "tournament_size")
        for p in (self.mutation_prob_per_gene, self.crossover_prob):
            if not 0.0 <= p <= 1.0:
                raise ValueError("probabilities must lie in [0, 1]")
        if self.tournament_size < 1:
            raise ValueError("tournament_size must be >= 1")


# ---------------------------------------------------------------------------
# Structural helpers


def total_layers(b: BackboneGenome, space: SearchSpaceSpec) -> int:
    return sum(space.depth_domain[blk.depth_idx] for blk in b.blocks)


def validate_backbone(b: BackboneGenome, space: SearchSpaceSpec) -> None:
    if len(b.blocks) != space.n_block:
        raise ValueError(f"expected {space.n_block} blocks, got {len(b.blocks)}")
    if not 0 <= b.resolution_idx < len(space.resolution_domain):
        raise ValueError("resolution index out of range")
    for blk in b.blocks:
        if not (0 <= blk.depth_idx < len(space.depth_domain)
                and 0 <= blk.width_idx < len(space.width_domain)
                and 0 <= blk.kernel_idx < len(space.kernel_domain)
                and 0 <= blk.expand_idx < len(space.expand_domain)):
            raise ValueError("block gene index out of range")
    if total_layers(b, space) < space.exit_min_position + 1:
        raise ValueError("backbone too shallow to host an exit")


def admissible_positions(b: BackboneGenome, space: SearchSpaceSpec) -> list[int]:
    """Layer indices that may host an exit: exit_min_position through the
    next-to-last layer (the last layer carries the backbone classifier)."""
    return list(range(space.exit_min_position, total_layers(b, space)))


def indicator_length(b: BackboneGenome, space: SearchSpaceSpec) -> int:
    return total_layers(b, space) - space.exit_min_position


def sampled_positions(x: ExitGenome, space: SearchSpaceSpec) -> list[int]:
    """Layer indices of the set indicator bits, ascending."""
    return [space.exit_min_position + p for p, bit in enumerate(x.indicators) if bit]


# ---------------------------------------------------------------------------
# Sampling and repair


def _repair_backbone(b: BackboneGenome, space: SearchSpaceSpec,
                     rng: random.Random) -> BackboneGenome:
    # Re-draw the shallowest growable block upward until the genome admits
    # at least one exit.  Strictly-increasing redraws guarantee termination.
    blocks = list(b.blocks)
    need = space.exit_min_position + 1
    while sum(space.depth_domain[blk.depth_idx] for blk in blocks) < need:
        growable = [
            (space.depth_domain[blk.depth_idx], i)
            for i, blk in enumerate(blocks)
            if space.depth_domain[blk.depth_idx] < max(space.depth_domain)
        ]
        depth_val, i = min(growable)
        choices = [j for j, v in enumerate(space.depth_domain) if v > depth_val]
        blocks[i] = BlockGenes(rng.choice(choices), blocks[i].width_idx,
                               blocks[i].kernel_idx, blocks[i].expand_idx)
    return BackboneGenome(b.resolution_idx, tuple(blocks))


def sample_backbone(space: SearchSpaceSpec, rng: random.Random) -> BackboneGenome:
    """Uniform independent draw per gene, repaired to admit at least one exit."""
    blocks = tuple(
        BlockGenes(
            rng.randrange(len(space.depth_domain)),
            rng.randrange(len(space.width_domain)),
            rng.randrange(len(space.kernel_domain)),
            rng.randrange(len(space.expand_domain)),
        )
        for _ in range(space.n_block)
    )
    b = BackboneGenome(rng.randrange(len(space.resolution_domain)), blocks)
    return _repair_backbone(b, space, rng)


def _repair_exit(bits: list[int], rng: random.Random) -> tuple[int, ...]:
    if not any(bits):
        bits[rng.randrange(len(bits))] = 1
    return tuple(bits)


def sample_exit_genome(b: BackboneGenome, space: SearchSpaceSpec,
                       rng: random.Random) -> ExitGenome:
    """Bernoulli(0.5) per admissible position; an all-zero draw gets one
    uniformly chosen bit forced on."""
    n = indicator_length(b, space)
    bits = [1 if rng.random() < 0.5 else 0 for _ in range(n)]
    return ExitGenome(_repair_exit(bits, rng))


def sample_dvfs(device: DeviceSpec, rng: random.Random) -> DvfsGenome:
    emc = rng.randrange(len(device.emc_freq_ghz)) if device.has_emc else None
    return DvfsGenome(device.name, rng.randrange(len(device.compute_freq_ghz)), emc)


# ---------------------------------------------------------------------------
# Mutation


def mutate_backbone(b: BackboneGenome, space: SearchSpaceSpec,
                    params: VariationParams, rng: random.Random) -> BackboneGenome:
    p = params.mutation_prob_per_gene

    def maybe(idx: int, domain_len: int) -> int:
        return rng.randrange(domain_len) if rng.random() < p else idx

    res = maybe(b.resolution_idx, len(space.resolution_domain))
    blocks = tuple(
        BlockGenes(
            maybe(blk.depth_idx, len(space.depth_domain)),
            maybe(blk.width_idx, len(space.width_domain)),
            maybe(blk.kernel_idx, len(space.kernel_domain)),
            maybe(blk.expand_idx, len(space.expand_domain)),
        )
        for blk in b.blocks
    )
    return _repair_backbone(BackboneGenome(res, blocks), space, rng)


def mutate_exit(x: ExitGenome, params: VariationParams,
                rng: random.Random) -> ExitGenome:
    p = params.mutation_prob_per_gene
    bits = [rng.randrange(2) if rng.random() < p else bit for bit in x.indicators]
    return ExitGenome(_repair_exit(bits, rng))


def mutate_dvfs(f: DvfsGenome, device: DeviceSpec, params: VariationParams,
                rng: random.Random) -> DvfsGenome:
    p = params.mutation_prob_per_gene
    compute = (rng.randrange(len(device.compute_freq_ghz))
               if rng.random() < p else f.compute_idx)
    emc = f.emc_idx
    if device.has_emc and rng.random() < p:
        emc = rng.randrange(len(device.emc_freq_ghz))
    return DvfsGenome(f.device, compute, emc)


# ---------------------------------------------------------------------------
# Crossover (uniform: each gene swapped between the parents with
# probability crossover_prob; children repaired afterwards)


def _swap(a, b, prob: float, rng: random.Random):
    return (b, a) if rng.random() < prob else (a, b)


def crossover_backbone(parent_a: BackboneGenome, parent_b: BackboneGenome,
                       space: SearchSpaceSpec, params: VariationParams,
                       rng: random.Random) -> tuple[BackboneGenome, BackboneGenome]:
    if len(parent_a.blocks) != len(parent_b.blocks):
        raise ValueError("parents have different block counts")
    p = params.crossover_prob
    res_a, res_b = _swap(parent_a.resolution_idx, parent_b.resolution_idx, p, rng)
    blocks_a, blocks_b = [], []
    for blk_a, blk_b in zip(parent_a.blocks, parent_b.blocks):
        d = _swap(blk_a.depth_idx, blk_b.depth_idx, p, rng)
        w = _swap(blk_a.width_idx, blk_b.width_idx, p, rng)
        k = _swap(blk_a.kernel_idx, blk_b.kernel_idx, p, rng)
        e = _swap(blk_a.expand_idx, blk_b.expand_idx, p, rng)
        blocks_a.append(BlockGenes(d[0], w[0], k[0], e[0]))
        blocks_b.append(BlockGenes(d[1], w[1], k[1], e[1]))
    child_a = _repair_backbone(BackboneGenome(res_a, tuple(blocks_a)), space, rng)
    child_b = _repair_backbone(BackboneGenome(res_b, tuple(blocks_b)), space, rng)
    return child_a, child_b


def crossover_exit(parent_a: ExitGenome, parent_b: ExitGenome,
                   params: VariationParams,
                   rng: random.Random) -> tuple[ExitGenome, ExitGenome]:
    if len(parent_a.indicators) != len(parent_b.indicators):
        raise ValueError("exit genomes have different lengths")
    p = params.crossover_prob
    draw = rng.random
    bits_a, bits_b = [], []
    for ba, bb in zip(parent_a.indicators, parent_b.indicators):
        if draw() < p:
            ba, bb = bb, ba
        bits_a.append(ba)
        bits_b.append(bb)
    return (ExitGenome(_repair_exit(bits_a, rng)),
            ExitGenome(_repair_exit(bits_b, rng)))


def crossover_dvfs(parent_a: DvfsGenome, parent_b: DvfsGenome,
                   params: VariationParams,
                   rng: random.Random) -> tuple[DvfsGenome, DvfsGenome]:
    if parent_a.device != parent_b.device:
        raise ValueError("dvfs genomes belong to different devices")
    p = params.crossover_prob
    c_a, c_b = _swap(parent_a.compute_idx, parent_b.compute_idx, p, rng)
    e_a, e_b = parent_a.emc_idx, parent_b.emc_idx
    if e_a is not None and e_b is not None:
        e_a, e_b = _swap(e_a, e_b, p, rng)
    return (DvfsGenome(parent_a.device, c_a, e_a),
            DvfsGenome(parent_b.device, c_b, e_b))


# ---------------------------------------------------------------------------
# Exhaustive enumeration (tiny spaces only; used by the oracle front and by
# initial-population seeding when the whole subspace fits in one population)


def enumerate_backbones(space: SearchSpaceSpec) -> Iterator[BackboneGenome]:
    block_ranges = (range(len(space.depth_domain)), range(len(space.width_domain)),
                    range(len(space.kernel_domain)), range(len(space.expand_domain)))
    per_block = list(itertools.product(*block_ranges))
    for res in range(len(space.resolution_domain)):
        for combo in itertools.product(per_block, repeat=space.n_block):
            b = BackboneGenome(res, tuple(BlockGenes(*g) for g in combo))
            if total_layers(b, space) >= space.exit_min_position + 1:
                yield b


def enumerate_exit_genomes(b: BackboneGenome,
                           space: SearchSpaceSpec) -> Iterator[ExitGenome]:
    n = indicator_length(b, space)
    for bits in itertools.product((0, 1), repeat=n):
        if any(bits):
            yield ExitGenome(bits)


def enumerate_dvfs(device: DeviceSpec) -> Iterator[DvfsGenome]:
    emc_range: Sequence[int | None] = (
        range(len(device.emc_freq_ghz)) if device.has_emc else (None,)
    )
    for c in range(len(device.compute_freq_ghz)):
        for e in emc_range:
            yield DvfsGenome(device.name, c, e)


def n_inner_candidates(b: BackboneGenome, space: SearchSpaceSpec,
                       device: DeviceSpec) -> int:
    n_patterns = 2 ** indicator_length(b, space) - 1
    n_freq = len(device.compute_freq_ghz) * max(1, len(device.emc_freq_ghz))
    return n_patterns * n_freq
