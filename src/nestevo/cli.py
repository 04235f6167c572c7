"""Batch command-line front end.

Subcommands: `search` runs the nested engine and persists the archive;
`enumerate` writes the exhaustive ground-truth front for tiny spaces;
`metrics` compares two front CSVs (hypervolume and ratio of dominance);
`ablate-dissim` compares inner-engine runs across regularizer exponents.
All commands are deterministic given (config, seed).
"""

from __future__ import annotations

import json
import os
import re

import click

from . import archive as ar
from .ablation import run_ablation
from .config import ConfigError, RunConfig, config_digest, load_config
from .evaluator import SyntheticHardwareModel, TableHardwareModel
from .exhaustive import enumerate_truth, space_cardinality
from .metrics import Front, compare_fronts
from .moea import Direction, ObjectiveVector
from .ooe import fork_map, run_ooe


def build_backend(cfg: RunConfig):
    if cfg.backend == "table":
        if not os.path.exists(cfg.table_csv or ""):
            raise ConfigError(f"lookup table not found: {cfg.table_csv}")
        return TableHardwareModel.from_csv(cfg.table_csv)
    return SyntheticHardwareModel(cfg.hw)


def _load(config_path: str, seed: int | None, out: str | None) -> RunConfig:
    try:
        return load_config(config_path, seed_override=seed, out_override=out)
    except ConfigError as exc:
        raise click.ClickException(f"invalid config: {exc}") from exc


_CHECKPOINT = re.compile(r"checkpoint_gen_(\d+)\.json")


def _checkpoints(out_dir: str) -> list[str]:
    """Paths of the checkpoints in `out_dir`, oldest generation first."""
    if not os.path.isdir(out_dir):
        return []
    found = sorted((int(m.group(1)), name) for name in os.listdir(out_dir)
                   if (m := _CHECKPOINT.fullmatch(name)))
    return [os.path.join(out_dir, name) for _, name in found]


# Line 2 of every document save_json writes with a config digest: it sorts
# keys, and no key of archive.json or of a checkpoint sorts before this one.
_DIGEST_LINE = re.compile(rb'  "config_digest": "([^"\\]*)",\n')


def _config_digest_of(path: str) -> str | None:
    """The config_digest of an earlier output, read from its first two
    lines; None for a file that is not such an output."""
    with open(path, "rb") as fh:
        fh.readline(256)
        match = _DIGEST_LINE.fullmatch(fh.readline(256))
    return match.group(1).decode("ascii", "replace") if match else None


def run_search(cfg: RunConfig, force: bool = False) -> tuple[str, str]:
    """Execute the search and write archive.json / front.csv plus one
    checkpoint per completed generation.  Returns the two output paths.

    The output directory must not hold another config's run: its
    archive.json, or without one its newest checkpoint, must carry this
    config's digest.  With `force` the earlier outputs are removed instead."""
    digest = config_digest(cfg)
    out_dir = cfg.output_dir
    archive_path = os.path.join(out_dir, "archive.json")
    front_path = os.path.join(out_dir, "front.csv")
    checkpoints = _checkpoints(out_dir)
    prior = archive_path if os.path.exists(archive_path) else (
        checkpoints[-1] if checkpoints else None)
    if prior is not None and not force:
        existing = _config_digest_of(prior)
        if existing != digest:
            raise click.ClickException(
                f"{prior} was produced by a different config "
                f"(digest {existing}); rerun with --force to overwrite"
            )
    backend = build_backend(cfg)
    if force:
        for path in [archive_path, front_path] + checkpoints:
            if os.path.exists(path):
                os.remove(path)
    rows = ar.RowEncoder()

    def checkpoint(gen: int, entries, counters) -> None:
        doc = {
            "schema_version": ar.SCHEMA_VERSION,
            "config_digest": digest,
            "generation": gen,
        }
        ar.save_json(os.path.join(out_dir, f"checkpoint_gen_{gen:03d}.json"),
                     doc, rows.final_json(entries))

    result = run_ooe(cfg.space, cfg.device_spec(), backend, cfg.hw,
                     cfg.surrogate, cfg.ooe, cfg.variation,
                     on_generation=checkpoint)
    # archive.json here and front.csv in a forked process, given two CPUs.
    fork_map(lambda write: write(), (
        lambda: ar.save_json(archive_path,
                             ar.archive_header(result, digest, cfg.seed),
                             rows.final_json(result.entries)),
        lambda: ar.write_front_csv(front_path, result.entries)))
    return archive_path, front_path


@click.group()
def main() -> None:
    """Nested evolutionary search over backbone / exit / frequency spaces."""


_config_opt = click.option("--config", "config_path", required=True,
                           type=click.Path(), help="Run configuration (YAML).")
_seed_opt = click.option("--seed", type=int, default=None,
                         help="Override the config seed.")
_out_opt = click.option("--out", type=click.Path(), default=None,
                        help="Override the output directory "
                             "(NESTEVO_OUTPUT_DIR is honored too).")


@main.command()
@_config_opt
@_seed_opt
@_out_opt
@click.option("--force", is_flag=True,
              help="Remove the outputs of an earlier run (archive.json, "
                   "front.csv, checkpoints) first, even one of a different "
                   "config.")
def search(config_path: str, seed: int | None, out: str | None,
           force: bool) -> None:
    """Run the nested search and persist the final archive."""
    cfg = _load(config_path, seed, out)
    try:
        archive_path, front_path = run_search(cfg, force=force)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"archive: {archive_path}")
    click.echo(f"front:   {front_path}")


@main.command("enumerate")
@_config_opt
@_seed_opt
@_out_opt
def enumerate_cmd(config_path: str, seed: int | None, out: str | None) -> None:
    """Exhaustively evaluate every candidate and write the true front."""
    cfg = _load(config_path, seed, out)
    card = space_cardinality(cfg.space, cfg.device_spec())
    if card.total > cfg.enumerate_cap:
        raise click.ClickException(
            f"search space holds {card.total} (backbone, exits, frequency) "
            f"candidates, above the enumeration cap {cfg.enumerate_cap}"
        )
    try:
        backend = build_backend(cfg)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    entries = enumerate_truth(cfg.space, cfg.device_spec(), backend, cfg.hw,
                              cfg.surrogate, cfg.seed, cfg.ooe.ioe.gamma,
                              cfg.ooe.ioe.objective_mode)
    path = os.path.join(cfg.output_dir, "truth_front.csv")
    ar.write_front_csv(path, entries)
    click.echo(f"evaluated {card.total} candidates; front: {path}")


def _parse_objectives(specs: tuple[str, ...]) -> list[tuple[str, Direction]]:
    out = []
    for spec in specs:
        try:
            column, direction = spec.rsplit(":", 1)
            out.append((column, {"max": Direction.MAXIMIZE,
                                 "min": Direction.MINIMIZE}[direction]))
        except (ValueError, KeyError):
            raise click.ClickException(
                f"bad objective {spec!r}; expected COLUMN:max or COLUMN:min"
            )
    return out


def load_front_csv(path: str, objectives: list[tuple[str, Direction]],
                   reference: ObjectiveVector | None) -> Front:
    rows = ar.read_front_csv(path)
    directions = tuple(d for _, d in objectives)
    points = []
    for row in rows:
        try:
            values = tuple(float(row[c]) for c, _ in objectives)
        except KeyError as exc:
            raise click.ClickException(f"{path}: missing column {exc}")
        points.append(ObjectiveVector(values, directions))
    return Front(points, reference)


@main.command()
@click.argument("front_a", type=click.Path(exists=True))
@click.argument("front_b", type=click.Path(exists=True))
@click.option("--objective", "objectives", multiple=True,
              default=("mean_correct:max", "energy_ratio:min"),
              show_default=True, help="CSV column and direction, repeatable.")
@click.option("--reference", default=None,
              help="Comma-separated reference point (required for hypervolume).")
@click.option("--mc-samples", type=int, default=0,
              help="Monte Carlo samples for >3 objectives.")
@click.option("--mc-seed", type=int, default=0)
@click.option("--out", "report_path", type=click.Path(), default=None,
              help="Also write the report as JSON.")
def metrics(front_a: str, front_b: str, objectives: tuple[str, ...],
            reference: str | None, mc_samples: int, mc_seed: int,
            report_path: str | None) -> None:
    """Hypervolume and ratio-of-dominance comparison of two front CSVs."""
    objs = _parse_objectives(objectives)
    ref = None
    try:
        if reference is not None:
            values = tuple(float(v) for v in reference.split(","))
            if len(values) != len(objs):
                raise click.ClickException("reference length must match objectives")
            ref = ObjectiveVector(values, tuple(d for _, d in objs))
        a = load_front_csv(front_a, objs, ref)
        b = load_front_csv(front_b, objs, ref)
        report = compare_fronts(a, b, mc_samples, mc_seed)
    except (ValueError, KeyError) as exc:
        raise click.ClickException(str(exc)) from exc
    doc = {
        "front_a": front_a,
        "front_b": front_b,
        "objectives": [f"{c}:{d.value}" for c, d in objs],
        "hv_a": report.hv_a,
        "hv_b": report.hv_b,
        "hv_stderr_a": report.hv_stderr_a,
        "hv_stderr_b": report.hv_stderr_b,
        "rod_a_over_b": report.rod_a_over_b,
        "rod_b_over_a": report.rod_b_over_a,
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    if report_path:
        ar.save_json(report_path, doc)


@main.command("ablate-dissim")
@_config_opt
@_seed_opt
@_out_opt
@click.option("--gammas", default="0,1", show_default=True,
              help="Comma-separated regularizer exponents, one arm each.")
def ablate_dissim(config_path: str, seed: int | None, out: str | None,
                  gammas: str) -> None:
    """Compare inner-engine archives with and without the dissimilarity term."""
    cfg = _load(config_path, seed, out)
    try:
        gamma_values = [float(g) for g in gammas.split(",") if g.strip() != ""]
        report = run_ablation(cfg, build_backend(cfg), gamma_values)
    except (ConfigError, ValueError) as exc:
        raise click.ClickException(str(exc)) from exc
    doc = {
        "backbone": {
            "resolution_idx": report.backbone.resolution_idx,
            "blocks": [[b.depth_idx, b.width_idx, b.kernel_idx, b.expand_idx]
                       for b in report.backbone.blocks],
        },
        "arms": [
            {
                "gamma": arm.gamma,
                "archive_size": len(arm.solutions),
                "hypervolume": arm.hypervolume,
                "exit_fraction_spread": arm.spread,
                "archive": [
                    {
                        "exit_bits": s.exits.key(),
                        "compute_idx": s.dvfs.compute_idx,
                        "emc_idx": s.dvfs.emc_idx,
                        "mean_correct": s.score.mean_correct,
                        "energy_ratio": s.score.mean_energy_ratio,
                        "latency_ratio": s.score.mean_latency_ratio,
                        "mean_exit_score": s.score.mean_exit_score,
                    }
                    for s in arm.solutions
                ],
            }
            for arm in report.arms
        ],
        "rod": [
            {"gamma_a": ga, "gamma_b": gb, "rod_a_over_b": value}
            for (ga, gb), value in sorted(report.rod.items())
        ],
    }
    click.echo(json.dumps(doc, indent=2, sort_keys=True))
    path = os.path.join(cfg.output_dir, "ablation.json")
    ar.save_json(path, doc)


if __name__ == "__main__":
    main()
