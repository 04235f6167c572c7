"""Search subspaces, their integer-coded genomes, and variation operators.

Three subspaces are searched: backbone architectures (resolution plus
per-block depth/width/kernel/expand choices), early-exit placements
(an indicator bit per admissible layer), and per-device frequency settings.
All encodings are index-based so the value domains can be swapped in config
without touching any operator.  Variation is not here: both engines breed
matrices of gene indices through nestevo.ioe._breed, the outer one with a
row per backbone key() and each gene's domain size from backbone_sizes.
Genomes are immutable; sampling and repair draw exclusively from the
caller's RNG stream.
"""

from __future__ import annotations

import itertools
import math
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


def require_finite_fields(obj: object, *names: str) -> None:
    """Raise ValueError unless each named field of `obj` is a finite number;
    a bool is not a number."""
    for name in names:
        value = getattr(obj, name)
        if (not isinstance(value, (int, float)) or isinstance(value, bool)
                or not math.isfinite(value)):
            raise ValueError(f"{name} must be a finite number, got {value!r}")


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
        # front.csv is UTF-8, which has no spelling for a lone surrogate.
        try:
            self.name.encode("utf-8")
        except UnicodeEncodeError:
            raise ValueError(f"device name {self.name!r} is not valid "
                             "Unicode: UTF-8 cannot encode it") from None
        require_counts(self, "default_compute_idx")
        if self.default_emc_idx is not None:
            require_counts(self, "default_emc_idx")
        for label, levels in (("compute", self.compute_freq_ghz), ("emc", self.emc_freq_ghz)):
            if not all(isinstance(f, (int, float)) and math.isfinite(f) for f in levels):
                raise ValueError(f"{self.name}: {label} frequencies must be finite numbers")
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


def bits_key(bits: Sequence[int]) -> str:
    """Exit bits as a string of 0s and 1s."""
    return bytes(bits).translate(_BIT_CHARS).decode()


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

    def key(self) -> str:
        return bits_key(self.indicators)


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
        require_finite_fields(self, "mutation_prob_per_gene", "crossover_prob")
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


# ---------------------------------------------------------------------------
# Sampling and repair


def repair_backbone(b: BackboneGenome, space: SearchSpaceSpec,
                    rng: random.Random) -> BackboneGenome:
    """`b`, or, when it is too shallow to host an exit, `b` with its
    shallowest growable block redrawn deeper (rng.choice) until it can; a
    backbone deep enough draws nothing.  Strictly increasing redraws
    guarantee termination."""
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
    return repair_backbone(b, space, rng)


# ---------------------------------------------------------------------------
# Backbones as gene rows: a backbone's key() is its resolution gene, then
# each block's depth, width, kernel and expand genes.


def backbone_sizes(space: SearchSpaceSpec) -> tuple[int, ...]:
    """The domain size of each gene of a backbone's key()."""
    block = (len(space.depth_domain), len(space.width_domain),
             len(space.kernel_domain), len(space.expand_domain))
    return (len(space.resolution_domain),) + block * space.n_block


def backbone_of_key(genes: Sequence[int]) -> BackboneGenome:
    """The backbone whose key() is `genes`."""
    return BackboneGenome(genes[0], tuple(BlockGenes(*genes[i:i + 4])
                                          for i in range(1, len(genes), 4)))


def backbone_in_space(key, space: SearchSpaceSpec) -> BackboneGenome:
    """The backbone whose key() is `key`, as read back from a file; a key
    that is not that of a valid backbone of `space` raises ValueError."""
    n_genes = len(backbone_sizes(space))
    try:
        if not (isinstance(key, (list, tuple)) and len(key) == n_genes
                and all(type(g) is int for g in key)):
            raise ValueError(f"not {n_genes} integer genes")
        b = backbone_of_key(key)
        validate_backbone(b, space)
    except ValueError as exc:
        raise ValueError(f"backbone {key}: {exc}") from exc
    return b


# ---------------------------------------------------------------------------
# Exhaustive enumeration (tiny spaces only; used by the oracle front and by
# initial-population seeding when the whole subspace fits in one
# population): backbones as genomes, frequency settings as gene tuples


def enumerate_backbones(space: SearchSpaceSpec) -> Iterator[BackboneGenome]:
    block_ranges = (range(len(space.depth_domain)), range(len(space.width_domain)),
                    range(len(space.kernel_domain)), range(len(space.expand_domain)))
    per_block = list(itertools.product(*block_ranges))
    for res in range(len(space.resolution_domain)):
        for combo in itertools.product(per_block, repeat=space.n_block):
            b = BackboneGenome(res, tuple(BlockGenes(*g) for g in combo))
            if total_layers(b, space) >= space.exit_min_position + 1:
                yield b


def frequency_settings(device: DeviceSpec) -> list[tuple[int, ...]]:
    """Every frequency setting of `device` as its genes, compute index
    outer.  A setting's place in this list is its code, compute_idx *
    len(emc_freq_ghz) + emc_idx (compute_idx without a memory clock)."""
    return list(itertools.product(
        range(len(device.compute_freq_ghz)),
        *([range(len(device.emc_freq_ghz))] if device.has_emc else [])))


def n_inner_candidates(n_bits: int, device: DeviceSpec) -> int:
    return (2 ** n_bits - 1) * len(frequency_settings(device))
