"""Run configuration: YAML schema, validation, defaults, and digesting.

A config file is a nested key/value document.  Every section is optional
except `seed`; omitted values fall back to the defaults below, which mirror
the reference search spaces and budgets.  Seeds are always explicit; nothing
is ever seeded from the clock.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass, field, replace
from typing import Any

import numpy as np
import yaml

from .evaluator import HardwareModelParams, SurrogateParams, SyntheticHardwareModel
from .genome import (BackboneGenome, BlockGenes, DeviceSpec, SearchSpaceSpec,
                     VariationParams, require_counts)
from .ioe import IoeConfig
from .ooe import OoeConfig


class ConfigError(Exception):
    """Invalid or inconsistent run configuration."""


def _levels(lo: float, hi: float, n: int) -> tuple[float, ...]:
    return tuple(round(lo + i * (hi - lo) / (n - 1), 9) for i in range(n))


def default_devices() -> tuple[DeviceSpec, ...]:
    """Four edge-device frequency grids; defaults sit at the top levels."""
    return (
        DeviceSpec("agx-volta-gpu", _levels(0.1, 1.4, 14), _levels(0.2, 2.1, 9),
                   default_compute_idx=13, default_emc_idx=8),
        DeviceSpec("carmel-cpu", _levels(0.1, 2.3, 29), (),
                   default_compute_idx=28),
        DeviceSpec("tx2-pascal-gpu", _levels(0.1, 1.4, 13), _levels(0.2, 1.8, 11),
                   default_compute_idx=12, default_emc_idx=10),
        DeviceSpec("denver-cpu", _levels(0.3, 2.1, 12), (),
                   default_compute_idx=11),
    )


@dataclass(frozen=True)
class AblateSpec:
    """Target of an ablation run: an explicit backbone or a sampling seed."""

    backbone: BackboneGenome | None = None
    backbone_seed: int | None = None

    def __post_init__(self) -> None:
        if (self.backbone is None) == (self.backbone_seed is None):
            raise ConfigError("ablate needs exactly one of backbone / backbone_seed")
        if self.backbone_seed is not None:
            require_counts(self, "backbone_seed")


@dataclass(frozen=True)
class RunConfig:
    seed: int
    space: SearchSpaceSpec
    device: str
    backend: str = "synthetic"            # "synthetic" | "table"
    table_csv: str | None = None
    hw: HardwareModelParams = field(default_factory=HardwareModelParams)
    surrogate: SurrogateParams = field(default_factory=SurrogateParams)
    ooe: OoeConfig = field(default_factory=OoeConfig)
    variation: VariationParams = field(default_factory=VariationParams)
    output_dir: str = "runs"
    enumerate_cap: int = 1_000_000
    ablate: AblateSpec | None = None

    def __post_init__(self) -> None:
        require_counts(self, "seed", "enumerate_cap")

    def device_spec(self) -> DeviceSpec:
        return self.space.device(self.device)


def _expect_mapping(node: Any, name: str) -> dict:
    if node is None:
        return {}
    if not isinstance(node, dict):
        raise ConfigError(f"section {name!r} must be a mapping")
    return node


def _pick(node: Any, cls: type, where: str) -> dict:
    """kwargs for the dataclass `cls` from the mapping `node`, every key of
    which must be a field of `cls`; errors name the entry `where`."""
    if not isinstance(node, dict):
        raise ConfigError(f"{where} must be a mapping")
    known = set(cls.__dataclass_fields__)
    unknown = set(node) - known
    if unknown:
        raise ConfigError(f"{where}: unknown keys {sorted(unknown)}; "
                          f"expected a subset of {sorted(known)}")
    return dict(node)


def _parse_device(i: int, d: Any) -> DeviceSpec:
    where = f"space.devices[{i}]"
    kwargs = _pick(d, DeviceSpec, where)
    for key in ("name", "compute_freq_ghz"):
        if key not in d:
            named = f" ({d['name']!r})" if "name" in d else ""
            raise ConfigError(f"{where}{named} has no {key!r}")
    kwargs["compute_freq_ghz"] = tuple(d["compute_freq_ghz"])
    kwargs["emc_freq_ghz"] = tuple(d.get("emc_freq_ghz", ()))
    return DeviceSpec(**kwargs)


def _parse_space(node: dict) -> SearchSpaceSpec:
    node = dict(node)
    devices_node = node.pop("devices", None)
    if devices_node is None:
        devices = default_devices()
    else:
        devices = tuple(_parse_device(i, d) for i, d in enumerate(devices_node))
    kwargs: dict[str, Any] = {"device_specs": devices}
    domains = {"resolution": "resolution_domain", "depth": "depth_domain",
               "width": "width_domain", "kernel": "kernel_domain",
               "expand": "expand_domain"}
    for key, value in node.items():
        if key in domains:
            # A bool is not an integer here, and a value below 1 would make
            # a block without workload or divide by a zero depth.
            if not isinstance(value, (list, tuple)) or not all(
                    isinstance(v, int) and not isinstance(v, bool) and v > 0
                    for v in value):
                raise ConfigError(f"space.{key} must be a list of positive "
                                  f"integers, got {value!r}")
            kwargs[domains[key]] = tuple(value)
        elif key in ("n_block", "exit_min_position"):
            kwargs[key] = value
        else:
            raise ConfigError(f"unknown space key {key!r}")
    space = SearchSpaceSpec(**kwargs)
    # The evaluator builds per-layer lists; no edge model comes near 10,000.
    if (layers := space.n_block * max(space.depth_domain)) > 10_000:
        raise ConfigError("space.depth: space.n_block x max(space.depth) = "
                          f"{layers} layers, more than 10000")
    return space


def _finite_prices(device: DeviceSpec, hw: HardwareModelParams) -> bool:
    """Whether the device's synthetic price table under `hw` is finite."""
    try:
        return bool(np.isfinite(SyntheticHardwareModel(hw).price_table(device)).all())
    except OverflowError:  # f_c**3 of a huge frequency
        return False


def _parse_backbone(node: Any) -> BackboneGenome:
    _pick(node, BackboneGenome, "ablate.backbone")
    try:
        blocks = tuple(
            BlockGenes(**_pick(blk, BlockGenes, f"ablate.backbone.blocks[{j}]"))
            for j, blk in enumerate(node["blocks"])
        )
        backbone = BackboneGenome(node["resolution_idx"], blocks)
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed backbone genome: {exc}") from exc
    require_counts(backbone, "resolution_idx")
    for blk in blocks:
        require_counts(blk, "depth_idx", "width_idx", "kernel_idx", "expand_idx")
    return backbone


def parse_config(doc: dict, *, seed_override: int | None = None,
                 out_override: str | None = None) -> RunConfig:
    doc = dict(doc or {})
    try:
        space = _parse_space(_expect_mapping(doc.get("space"), "space"))

        seed = seed_override if seed_override is not None else doc.get("seed")
        if seed is None:
            raise ConfigError("seed is mandatory (wall-clock seeding is not supported)")

        ev = dict(_expect_mapping(doc.get("evaluator"), "evaluator"))
        backend = ev.pop("backend", "synthetic")
        table_csv = ev.pop("table_csv", None)
        if backend not in ("synthetic", "table"):
            raise ConfigError(f"unknown evaluator backend {backend!r}")
        if backend == "table" and not table_csv:
            raise ConfigError("table backend needs evaluator.table_csv")
        hw_node = {k: ev.pop(k) for k in list(ev)
                   if k in HardwareModelParams.__dataclass_fields__}
        sur_node = {k: ev.pop(k) for k in list(ev)
                    if k in SurrogateParams.__dataclass_fields__}
        if ev:
            raise ConfigError(f"unknown evaluator keys {sorted(ev)}")
        hw = HardwareModelParams(**hw_node)
        for i, d in enumerate(space.device_specs):
            # Prices grow with both clocks: a table not finite even at the
            # lowest compute level blames the emc.
            low = replace(d, compute_freq_ghz=d.compute_freq_ghz[:1], default_compute_idx=0)
            if not _finite_prices(d, hw):
                key = ("emc_freq_ghz" if d.has_emc and not _finite_prices(low, hw)
                       else "compute_freq_ghz")
                raise ConfigError(f"space.devices[{i}] ({d.name!r}): {key} prices "
                                  "to a throughput or power that is not finite")
        surrogate = SurrogateParams(**sur_node)

        ioe_node = _expect_mapping(doc.get("ioe"), "ioe")
        ioe = IoeConfig(**_pick(ioe_node, IoeConfig, "ioe"))
        ooe_node = _expect_mapping(doc.get("ooe"), "ooe")
        ooe_kwargs = _pick(ooe_node, OoeConfig, "ooe")
        for reserved in ("ioe", "seed"):
            if reserved in ooe_kwargs:
                raise ConfigError(f"{reserved!r} is configured at the top level, "
                                  "not inside the ooe section")
        ooe = OoeConfig(ioe=ioe, seed=seed, **ooe_kwargs)

        var_node = _expect_mapping(doc.get("variation"), "variation")
        variation = VariationParams(**_pick(var_node, VariationParams, "variation"))

        device = doc.get("device")
        if not device:
            raise ConfigError("device selection is mandatory")
        space.device(device)  # raises KeyError for unknown names

        ablate = None
        ab_node = doc.get("ablate")
        if ab_node is not None:
            ab_node = _pick(_expect_mapping(ab_node, "ablate"), AblateSpec,
                            "ablate")
            backbone = (_parse_backbone(ab_node["backbone"])
                        if "backbone" in ab_node else None)
            ablate = AblateSpec(backbone=backbone,
                                backbone_seed=ab_node.get("backbone_seed"))

        out_dir = out_override or os.environ.get("NESTEVO_OUTPUT_DIR") \
            or doc.get("output_dir", "runs")

        unknown = set(doc) - {"space", "seed", "evaluator", "ioe", "ooe",
                              "variation", "device", "ablate", "output_dir",
                              "enumerate_cap"}
        if unknown:
            raise ConfigError(f"unknown top-level keys {sorted(unknown)}")

        return RunConfig(
            seed=seed, space=space, device=device, backend=backend,
            table_csv=table_csv, hw=hw, surrogate=surrogate, ooe=ooe,
            variation=variation, output_dir=str(out_dir),
            enumerate_cap=doc.get("enumerate_cap", 1_000_000),
            ablate=ablate,
        )
    except ConfigError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def load_config(path: str, *, seed_override: int | None = None,
                out_override: str | None = None) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = yaml.safe_load(fh)
    except FileNotFoundError as exc:
        raise ConfigError(f"config file not found: {path}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if doc is not None and not isinstance(doc, dict):
        raise ConfigError("config root must be a mapping")
    return parse_config(doc or {}, seed_override=seed_override,
                        out_override=out_override)


def config_digest(config: RunConfig) -> str:
    """sha256 over everything that affects results (output paths excluded),
    including the bytes of the lookup table for the table backend."""
    doc = asdict(config)
    doc.pop("output_dir", None)
    if config.backend == "table":
        try:
            with open(config.table_csv or "", "rb") as fh:
                doc["table_sha256"] = hashlib.sha256(fh.read()).hexdigest()
        except OSError as exc:
            raise ConfigError(f"lookup table not found: {config.table_csv}") from exc
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()
