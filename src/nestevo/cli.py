"""Batch command-line front end.

Subcommands: `search` runs the nested engine and persists the archive,
writing one checkpoint per generation, and continues an interrupted run of
the same config from its checkpoints; its front.csv joins the lines the
engine's workers rendered, and its archive.json spells each row's text from
its line while the file is written, so no row's JSON text is ever held;
`enumerate` writes the exhaustive ground-truth front for tiny spaces;
`metrics` compares two front CSVs (hypervolume and ratio of dominance);
`ablate-dissim` compares inner-engine runs across regularizer exponents.
All commands are deterministic given (config, seed).
"""

from __future__ import annotations

import os
import re
from dataclasses import asdict

import click
import numpy as np

from . import archive as ar
from .ablation import run_ablation
from .config import ConfigError, RunConfig, config_digest, load_config
from .evaluator import SyntheticHardwareModel, TableHardwareModel
from .exhaustive import enumerate_truth, space_cardinality
from .genome import backbone_in_space
from .metrics import Front, compare_fronts
from .moea import Direction
from .ooe import OoeState, run_ooe
from .rows import archive_text


def build_backend(cfg: RunConfig):
    if cfg.backend != "table":
        return SyntheticHardwareModel(cfg.hw)
    try:
        backend = TableHardwareModel.from_csv(cfg.table_csv)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"lookup table {cfg.table_csv}: {exc}") from exc
    queries, rows = backend.price_table(cfg.device_spec())
    if (rows < 0).any():
        device, f_c, f_m = queries[rows.argmin()]
        raise ConfigError(f"lookup table {cfg.table_csv} has no rows for "
                          f"device={device!r} f_c={f_c} f_m={f_m}")
    return backend


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


def _require_digest(path: str, digest: str) -> None:
    existing = _config_digest_of(path)
    if existing != digest:
        raise click.ClickException(
            f"{path} was produced by a different config "
            f"(digest {existing}); rerun with --force to overwrite"
        )


def _check_resume(state: OoeState, cfg: RunConfig) -> None:
    """Raise ValueError unless a replayed state can go on as a run of `cfg`:
    its population holds as many backbones as a generation breeds (none
    after the last), each the key of a valid backbone of the space, and its
    counters are those of its generation's record."""
    size = cfg.ooe.population if state.generation < cfg.ooe.generations else 0
    if len(state.population) != size:
        raise ValueError(f"the resume state holds {len(state.population)} "
                         f"backbones, not {size}")
    for key in state.population:
        backbone_in_space(list(key), cfg.space)
    counters = asdict(state.counters)
    record = asdict(state.snapshots[-1])
    if any(record[name] != count for name, count in counters.items()):
        raise ValueError(f"the resume counters {counters} differ from "
                         f"generation {state.generation}'s record {record}")


def run_search(cfg: RunConfig, force: bool = False) -> tuple[str, str]:
    """Execute the search and write archive.json / front.csv plus one
    checkpoint per completed generation.  Returns the two output paths.

    The output directory must not hold another config's run: its
    archive.json, or without one its newest checkpoint, must carry this
    config's digest.  Its checkpoints of generations 1..k, each of which
    must carry this config's digest, are then replayed, each stored row
    evaluated again on this config's backend, and the run goes on from
    generation k + 1; the outputs are those of an uninterrupted run.
    With `force` the earlier outputs are removed instead and the run starts
    from generation 1."""
    digest = config_digest(cfg)
    backend = build_backend(cfg)
    out_dir = cfg.output_dir
    archive_path = os.path.join(out_dir, "archive.json")
    front_path = os.path.join(out_dir, "front.csv")
    checkpoints = _checkpoints(out_dir)
    prior = archive_path if os.path.exists(archive_path) else (
        checkpoints[-1] if checkpoints else None)
    start = None
    if prior is not None and not force:
        _require_digest(prior, digest)
        for path in checkpoints:
            _require_digest(path, digest)
        try:
            if len(checkpoints) > cfg.ooe.generations:
                raise ValueError(f"{len(checkpoints)} checkpoints for "
                                 f"{cfg.ooe.generations} generations")
            if checkpoints:
                start = ar.replay_checkpoints(checkpoints, cfg, backend)
                _check_resume(start, cfg)
        except (ValueError, KeyError, TypeError) as exc:
            raise click.ClickException(
                f"cannot resume: {exc}; rerun with --force to start over"
            ) from exc
    if force:
        for path in [archive_path, front_path] + checkpoints:
            if os.path.exists(path):
                os.remove(path)

    def checkpoint(state) -> None:
        ar.save_checkpoint(
            os.path.join(out_dir, f"checkpoint_gen_{state.generation:03d}.json"),
            state, digest)

    result = run_ooe(cfg.space, cfg.device_spec(), backend, cfg.hw,
                     cfg.surrogate, cfg.ooe, cfg.variation,
                     on_generation=checkpoint, start=start)
    ar.save_json(archive_path, ar.archive_header(result, digest, cfg.seed),
                 (archive_text(line, objectives)
                  for _, line, objectives in result.rows))
    ar.write_front_csv(front_path, [line for _, line, _ in result.rows])
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
                   "config, and start from generation 1.")
def search(config_path: str, seed: int | None, out: str | None,
           force: bool) -> None:
    """Run the nested search and persist the final archive; an interrupted
    run of the same config goes on from its checkpoints."""
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
    total = space_cardinality(cfg.space, cfg.device_spec())
    if total > cfg.enumerate_cap:
        raise click.ClickException(
            f"search space holds up to {total} (backbone, exits, frequency) "
            f"candidates, above the enumeration cap {cfg.enumerate_cap}"
        )
    try:
        backend = build_backend(cfg)
    except ConfigError as exc:
        raise click.ClickException(str(exc)) from exc
    rows, evaluated = enumerate_truth(
        cfg.space, cfg.device_spec(), backend, cfg.hw, cfg.surrogate, cfg.seed,
        cfg.ooe.ioe.gamma, cfg.ooe.ioe.objective_mode)
    path = os.path.join(cfg.output_dir, "truth_front.csv")
    ar.write_front_csv(path, [line for _, line in rows])
    click.echo(f"evaluated {evaluated} candidates; front: {path}")


def _parse_objectives(specs: tuple[str, ...]) -> list[tuple[str, Direction]]:
    out = []
    for spec in specs:
        try:
            column, direction = spec.rsplit(":", 1)
            out.append((column, Direction(direction)))
        except ValueError:
            raise click.ClickException(
                f"bad objective {spec!r}; expected COLUMN:max or COLUMN:min"
            )
    return out


def load_front_csv(path: str, objectives: list[tuple[str, Direction]],
                   reference: tuple[float, ...] | None) -> Front:
    try:
        values = [[float(row[c]) for c, _ in objectives]
                  for row in ar.read_front_csv(path)]
    except KeyError as exc:
        raise click.ClickException(f"{path}: missing column {exc}")
    return Front(np.array(values).reshape(len(values), len(objectives)),
                 [d for _, d in objectives], reference)


def _report(doc: dict, path: str | None) -> None:
    """Print a report document as save_json writes it, encoding it once:
    with `path`, the text written there."""
    if path is None:
        click.echo("".join(ar.json_text(doc)), nl=False)
        return
    ar.save_json(path, doc)
    with open(path, encoding="utf-8") as fh:
        click.echo(fh.read(), nl=False)


@main.command()
@click.argument("front_a", type=click.Path(exists=True))
@click.argument("front_b", type=click.Path(exists=True))
@click.option("--objective", "objectives", multiple=True,
              default=("mean_correct:max", "energy_ratio:min"),
              show_default=True, help="CSV column and direction, repeatable.")
@click.option("--reference", default=None,
              help="Comma-separated reference point (required for hypervolume).")
@click.option("--mc-samples", type=click.IntRange(min=0), default=0,
              help="Monte Carlo samples for >3 objectives.")
@click.option("--mc-seed", type=int, default=0)
@click.option("--out", "report_path", type=click.Path(), default=None,
              help="Also write the report as JSON.")
def metrics(front_a: str, front_b: str, objectives: tuple[str, ...],
            reference: str | None, mc_samples: int, mc_seed: int,
            report_path: str | None) -> None:
    """Hypervolume and ratio-of-dominance comparison of two front CSVs."""
    objs = _parse_objectives(objectives)
    if len(objs) not in (2, 3) and mc_samples == 0:
        raise click.ClickException(
            f"exact hypervolume supports 2 or 3 objectives, got {len(objs)}; "
            "give --mc-samples for a Monte Carlo estimate")
    ref = None
    try:
        if reference is not None:
            ref = tuple(float(v) for v in reference.split(","))
            if len(ref) != len(objs):
                raise click.ClickException("reference length must match objectives")
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
    _report(doc, report_path)


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
    device = cfg.device_spec()
    doc = {
        "backbone": {
            "resolution_idx": report.backbone.resolution_idx,
            "blocks": [[b.depth_idx, b.width_idx, b.kernel_idx, b.expand_idx]
                       for b in report.backbone.blocks],
        },
        "arms": [
            {
                "gamma": arm.gamma,
                "archive_size": len(arm.result.solutions),
                "hypervolume": arm.hypervolume,
                "exit_fraction_spread": arm.spread,
                "archive": [
                    {
                        "exit_bits": bits,
                        "compute_idx": compute,
                        "emc_idx": emc,
                        "mean_correct": correct,
                        "energy_ratio": energy_ratio,
                        "latency_ratio": latency_ratio,
                        "mean_exit_score": exit_score,
                    }
                    for (bits, _, compute, emc, exit_score, correct,
                         energy_ratio, latency_ratio, _, _)
                    in arm.result.solution_fields(device)
                ],
            }
            for arm in report.arms
        ],
        "rod": [
            {"gamma_a": ga, "gamma_b": gb, "rod_a_over_b": value}
            for (ga, gb), value in sorted(report.rod.items())
        ],
    }
    _report(doc, os.path.join(cfg.output_dir, "ablation.json"))


if __name__ == "__main__":
    main()
