"""Per-generation checkpoints and resumed searches: a run aborted after any
generation, or killed, and run again writes the bytes of an uninterrupted
run, replaying checkpoints 1..k rebuilds generation k's archive row for row,
and a rerun refuses checkpoints it cannot continue from."""

import copy
import hashlib
import json
import os
import re
import signal
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

import nestevo
import nestevo.cli as cli_mod
import nestevo.ooe as ooe
from nestevo import archive as ar
from nestevo.cli import build_backend, main, run_search
from nestevo.config import load_config, parse_config

import test_identity
from oracles import (VISIT_FIELDS, archive_text, final_rows, layout_text,
                     read_entries, read_lines, state_rows)
from test_cli import TOY_DOC, write_toy_config


class Abort(Exception):
    pass


def files(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())}


def run_aborted(cfg, k: int) -> None:
    """run_search, stopped right after generation k's checkpoint."""
    original = cli_mod.run_ooe

    def aborting_run_ooe(*args, **kwargs):
        inner_cb = kwargs["on_generation"]

        def wrapper(state):
            inner_cb(state)
            if state.generation == k:
                raise Abort

        kwargs["on_generation"] = wrapper
        return original(*args, **kwargs)

    cli_mod.run_ooe = aborting_run_ooe
    try:
        with pytest.raises(Abort):
            run_search(cfg)
    finally:
        cli_mod.run_ooe = original


def table_search_doc(tmp_path: Path) -> dict:
    """A small search of the default space through the lookup-table backend."""
    table = tmp_path / "carmel-cpu-table.csv"
    test_identity.write_table(table, "carmel-cpu")
    return {
        "seed": 3,
        "device": "carmel-cpu",
        "evaluator": {"backend": "table", "table_csv": str(table)},
        "ooe": {"generations": 3, "population": 8, "prune_fraction": 0.5,
                "budget": 24},
        "ioe": {"generations": 3, "population": 16, "budget": 48},
    }


def search_config(name: str, tmp_path: Path, out: Path):
    if name == "toy":
        return load_config(str(test_identity.CONFIGS / "toy.yaml"),
                           out_override=str(out))
    doc = (test_identity.SMALL_DEFAULT_DOC if name == "small-default"
           else table_search_doc(tmp_path))
    return parse_config(doc, out_override=str(out))


@pytest.mark.parametrize("cpus", [1, 3])
@pytest.mark.parametrize("name", ["toy", "small-default", "table"])
def test_resume_after_any_generation_is_exact(name, cpus, tmp_path,
                                              monkeypatch):
    monkeypatch.setattr(ooe, "_cpus", lambda: cpus)
    cfg = search_config(name, tmp_path, tmp_path / "full")
    run_search(cfg)
    expected = files(tmp_path / "full")
    if name in test_identity.PINNED:
        assert {n: expected[n] for n in ("archive.json", "front.csv")} \
            == test_identity.PINNED[name]
    generations = cfg.ooe.generations
    for k in range(1, generations + 1):
        out = tmp_path / f"aborted_{k}"
        cfg = search_config(name, tmp_path, out)
        run_aborted(cfg, k)
        assert sorted(files(out)) == [f"checkpoint_gen_{g:03d}.json"
                                      for g in range(1, k + 1)]
        run_search(cfg)
        assert files(out) == expected, k


def test_device_name_that_csv_quotes_resumes_exactly(tmp_path):
    # The name's cell is CSV-quoted inside a JSON-escaped checkpoint line.
    name = 'toy,"dev" \u00e9'
    device = dict(TOY_DOC["space"]["devices"][0], name=name)
    config = write_toy_config(tmp_path, device=name,
                              ooe={"generations": 3, "budget": 24},
                              space={"devices": [device]})
    cfg = load_config(str(config), out_override=str(tmp_path / "full"))
    run_search(cfg)
    expected = files(tmp_path / "full")
    cell = '"toy,""dev"" \u00e9"'
    assert cell in (tmp_path / "full" / "front.csv").read_text("utf-8")
    # A checkpoint stores genes only: the replay spells the cell anew.
    assert "toy," not in \
        (tmp_path / "full" / "checkpoint_gen_001.json").read_text("utf-8")
    for k in range(1, cfg.ooe.generations + 1):
        out = tmp_path / f"aborted_{k}"
        cfg = load_config(str(config), out_override=str(out))
        run_aborted(cfg, k)
        run_search(cfg)
        assert files(out) == expected, k


def test_checkpoints_in_the_indented_layout_resume(tmp_path):
    # Checkpoints written as json.dumps(doc, indent=2, sort_keys=True) laid
    # them out before save_json wrote one record per line.  The replay
    # parses them, and the integrity check reads the digest from line 2 of
    # either layout: a rerun over checkpoints 1..k in the old layout writes
    # the uninterrupted run's archive.json, front.csv and later checkpoints.
    full = tmp_path / "full"
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC,
                       out_override=str(full))
    run_search(cfg)
    expected = files(full)
    digest = json.loads((full / "archive.json").read_text())["config_digest"]
    generations = cfg.ooe.generations
    for k in range(1, generations + 1):
        out = tmp_path / f"indented_{k}"
        out.mkdir()
        for g in range(1, k + 1):
            name = f"checkpoint_gen_{g:03d}.json"
            assert cli_mod._config_digest_of(str(full / name)) == digest
            doc = json.loads((full / name).read_text())
            text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
            assert text != (full / name).read_text()
            (out / name).write_text(text)
            assert cli_mod._config_digest_of(str(out / name)) == digest
        run_search(parse_config(test_identity.SMALL_DEFAULT_DOC,
                                out_override=str(out)))
        rewritten = {f"checkpoint_gen_{g:03d}.json" for g in range(1, k + 1)}
        assert {n: d for n, d in files(out).items() if n not in rewritten} \
            == {n: d for n, d in expected.items() if n not in rewritten}, k
    # An archive.json in the indented layout names its digest too.
    doc = json.loads((full / "archive.json").read_text())
    indented = tmp_path / "archive.json"
    indented.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    assert cli_mod._config_digest_of(str(indented)) == digest


def test_checkpoints_hold_at_most_half_the_archive_bytes(tmp_path):
    # Each new row is stored once, as its genes, beside one list of
    # objectives and one backbone key per visit: with the resume state, at
    # most a sixth of the archive.json bytes (rows stored as their front.csv
    # lines took over two fifths).
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC,
                       out_override=str(tmp_path))
    run_search(cfg)
    checkpoints = sum(p.stat().st_size
                      for p in tmp_path.glob("checkpoint_gen_*.json"))
    assert checkpoints <= (tmp_path / "archive.json").stat().st_size / 6


def test_replay_rebuilds_each_generation_row_for_row(tmp_path):
    # The oracle is the full-archive "final" list the checkpoints held before
    # they became deltas: the live run's entries laid out by layout_text.  Each
    # checkpoint is checked against its own oracle document: the added
    # visits' rows as the genes of their solution objects, and per visit its
    # objectives and backbone key.
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC,
                       out_override=str(tmp_path))
    states = []
    original = cli_mod.run_ooe

    def recording_run_ooe(*args, **kwargs):
        inner_cb = kwargs["on_generation"]

        def wrapper(state):
            inner_cb(state)
            entries = read_entries(state_rows(state))
            states.append((state, archive_text({}, entries)))

        kwargs["on_generation"] = wrapper
        return original(*args, **kwargs)

    cli_mod.run_ooe = recording_run_ooe
    try:
        run_search(cfg)
    finally:
        cli_mod.run_ooe = original
    paths = [str(tmp_path / f"checkpoint_gen_{g:03d}.json")
             for g in range(1, cfg.ooe.generations + 1)]
    assert len(states) == len(paths)
    for k, (state, archive) in enumerate(states, 1):
        # Each checkpoint is its document as layout_text lays it out, whose
        # rows are the genes of the visits the generation added.
        text = Path(paths[k - 1]).read_text(encoding="utf-8")
        added = [read_entries(final_rows(*state.visits[v]))
                 for v in state.added]
        doc = dict(json.loads(text), final=[
            "".join(map(str, e.payload.exits.indicators)) + ","
            + ",".join("" if g is None else str(g)
                       for g in e.payload.dvfs.key()[1:])
            for entries in added for e in entries],
            visits=[[v, len(entries), list(entries[0].vector.values),
                     list(entries[0].payload.backbone.key())]
                    for v, entries in zip(state.added, added)])
        assert text == layout_text(doc)
        replayed = ar.replay_checkpoints(paths[:k], cfg, build_backend(cfg))
        assert archive_text({}, read_entries(state_rows(replayed))) == archive
        assert list(replayed.visits) == list(state.visits)
        assert [len(rows) for _, rows in replayed.visits.values()] == \
            [len(rows) for _, rows in state.visits.values()]
        assert replayed.visits == state.visits
        # As in the live run, a visit's rows share one backbone, static
        # score and objective vector.
        for objectives, rows in replayed.visits.values():
            values = read_lines([line[:-1] for _, line in rows])
            assert all(len({row[i] for row in values}) == 1
                       for i in VISIT_FIELDS)
            entries = read_entries(final_rows(objectives, rows))
            assert all(e.vector.values == objectives for e in entries)
        for name in ("added", "evicted", "snapshots", "counters", "n_visits",
                     "population", "rng_state"):
            assert getattr(replayed, name) == getattr(state, name), (k, name)
    # The run exercises evictions and several new visits per generation.
    assert any(state.evicted for state, _ in states)
    assert all(len(state.added) > 1 for state, _ in states)


def test_states_handed_out_are_never_changed(monkeypatch):
    # Each generation makes a new archive dict and edits none: the state a
    # generation hands to on_generation, and the state a resumed run starts
    # from, keep their visits, in order, while later generations evict some.
    monkeypatch.setattr(ooe, "_cpus", lambda: 1)
    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC)
    args = (cfg.space, cfg.device_spec(), build_backend(cfg), cfg.hw,
            cfg.surrogate, cfg.ooe, cfg.variation)

    def fields(state):
        return list(state.visits.items()), state.added, state.evicted

    handed = []
    whole = ooe.run_ooe(*args, on_generation=lambda state: handed.append(
        (state, copy.deepcopy(fields(state)))))
    for state, taken in handed:
        assert fields(state) == taken
    start = handed[0][0]
    assert any(set(start.visits) & set(state.evicted)
               for state, _ in handed[1:])
    taken = copy.deepcopy(fields(start))
    resumed = ooe.run_ooe(*args, start=start)
    assert fields(start) == taken
    assert resumed.rows == whole.rows


def test_resume_over_visits_that_ceded_keys(tmp_path, monkeypatch):
    # Inner runs of 3 candidates a generation leave a revisited backbone with
    # a front that overlaps its live one: the new visit keeps only the keys
    # that are not live yet, a strict subset of its front.  Its checkpoint
    # holds just those rows; the replay must rebuild them, and the resumed
    # run write the uninterrupted bytes.
    monkeypatch.setattr(ooe, "_cpus", lambda: 1)
    device = dict(TOY_DOC["space"]["devices"][0],
                  compute_freq_ghz=[0.5, 1.0, 1.5])
    config = write_toy_config(
        tmp_path, seed=1, space={"devices": [device]},
        ooe={"generations": 3, "budget": 24},
        ioe={"generations": 2, "population": 3, "budget": 6})
    cfg = load_config(str(config), out_override=str(tmp_path / "full"))
    fronts, states = [], []
    visit_rows, save_checkpoint = ooe.visit_rows, ar.save_checkpoint

    def recording_rows(*args):
        rows = visit_rows(*args)
        fronts.append(set(rows))
        return rows

    def recording_checkpoint(path, state, digest):
        states.append((state, len(fronts)))
        save_checkpoint(path, state, digest)

    monkeypatch.setattr(ooe, "visit_rows", recording_rows)
    monkeypatch.setattr(ar, "save_checkpoint", recording_checkpoint)
    run_search(cfg)
    monkeypatch.setattr(ooe, "visit_rows", visit_rows)
    monkeypatch.setattr(ar, "save_checkpoint", save_checkpoint)
    expected = files(tmp_path / "full")
    paths = [str(tmp_path / "full" / f"checkpoint_gen_{g:03d}.json")
             for g in range(1, cfg.ooe.generations + 1)]
    backend = build_backend(cfg)
    ceded = []  # the generations that added a visit which ceded keys
    start = 0
    for k, (state, end) in enumerate(states, 1):
        generation, start = fronts[start:end], end
        ceded += [k for v in state.added
                  if any(set(state.visits[v][1]) < front
                         for front in generation)]
        assert ar.replay_checkpoints(paths[:k], cfg, backend).visits == \
            state.visits
    assert ceded
    for k in sorted(set(ceded)):
        out = tmp_path / f"aborted_{k}"
        cfg = load_config(str(config), out_override=str(out))
        run_aborted(cfg, k)
        run_search(cfg)
        assert files(out) == expected, k


@pytest.fixture
def runner():
    return CliRunner()


def toy_run(tmp_path, runner, **overrides):
    tmp_path.mkdir(exist_ok=True)
    cfg = write_toy_config(tmp_path, ooe={"generations": 3, "budget": 24},
                           **overrides)
    res = runner.invoke(main, ["search", "--config", str(cfg)])
    assert res.exit_code == 0, res.output
    return cfg, tmp_path / "out"


class TestResumeRefusals:
    def test_gap_in_checkpoint_numbers(self, tmp_path, runner):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        (out / "checkpoint_gen_002.json").unlink()
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "cannot resume: the checkpoint of generation 2 is missing" \
            in res.output
        assert not (out / "archive.json").exists()

    def test_more_checkpoints_than_generations(self, tmp_path, runner):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        doc = json.loads((out / "checkpoint_gen_003.json").read_text())
        doc["generation"] = 4
        (out / "checkpoint_gen_004.json").write_text(
            json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "cannot resume: 4 checkpoints for 3 generations" in res.output
        assert not (out / "archive.json").exists()

    def test_checkpoint_of_another_schema_version(self, tmp_path, runner):
        # A version-1 checkpoint was bred by the outer engine's own
        # operators: resumed, it would go on in another random stream and
        # write bytes that no uninterrupted run writes.
        self.refuse_version(tmp_path, runner, 1)

    def test_checkpoint_of_the_archive_schema_version(self, tmp_path, runner):
        # A version-2 checkpoint holds archive.json rows, which the replay
        # does not read.
        self.refuse_version(tmp_path, runner, 2)

    def test_checkpoint_of_the_line_schema_version(self, tmp_path, runner):
        # A version-3 checkpoint holds each row as its front.csv line, which
        # the replay no longer reads back.
        self.refuse_version(tmp_path, runner, 3)

    @staticmethod
    def refuse_version(tmp_path, runner, version: int) -> None:
        cfg, out = toy_run(tmp_path, runner)
        expected = files(out)
        assert json.loads((out / "archive.json").read_text())[
            "schema_version"] == ar.SCHEMA_VERSION == 2
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_002.json"
        doc = json.loads(path.read_text())
        assert doc["schema_version"] == ar.CHECKPOINT_VERSION == 4
        doc["schema_version"] = version
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert (f"cannot resume: {path} has schema_version {version}, not 4"
                in res.output)
        assert "rerun with --force to start over" in res.output
        assert not (out / "archive.json").exists()
        res = runner.invoke(main, ["search", "--config", str(cfg), "--force"])
        assert res.exit_code == 0, res.output
        assert files(out) == expected

    def test_checkpoint_without_resume_state(self, tmp_path, runner):
        # A full-archive checkpoint, as written before checkpoints held the
        # state to resume from: its digest line is intact.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_002.json"
        doc = json.loads(path.read_text())
        del doc["resume"]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "checkpoint_gen_002.json holds no resume state" in res.output
        assert not (out / "archive.json").exists()

    def test_checkpoint_of_another_config(self, tmp_path, runner):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        # The newest checkpoint is refused, as archive.json would be ...
        res = runner.invoke(main, ["search", "--config", str(cfg), "--seed", "8"])
        assert res.exit_code == 1
        assert "checkpoint_gen_003.json was produced by a different config" \
            in res.output
        # ... and so is an older one, though the newest carries the digest.
        _, other = toy_run(tmp_path / "other", runner, seed=8)
        first = (other / "checkpoint_gen_001.json").read_bytes()
        (out / "checkpoint_gen_001.json").write_bytes(first)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "checkpoint_gen_001.json was produced by a different config" \
            in res.output
        assert not (out / "archive.json").exists()

    def test_row_counts_that_do_not_match_the_rows(self, tmp_path, runner):
        cfg, out = toy_run(tmp_path, runner)
        expected = files(out)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        doc["visits"][-1][1] += 1
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "checkpoint_gen_001.json lists" in res.output
        assert "rerun with --force to start over" in res.output
        assert not (out / "archive.json").exists()
        # --force starts from generation 1 and rewrites every checkpoint.
        res = runner.invoke(main, ["search", "--config", str(cfg), "--force"])
        assert res.exit_code == 0, res.output
        assert files(out) == expected

    @staticmethod
    def edit_record(path: Path, name: str, edit) -> None:
        doc = json.loads(path.read_text())
        doc["record"][name] = edit(doc["record"][name])
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    def test_archive_size_that_is_not_the_live_row_count(self, tmp_path,
                                                         runner):
        # Replayed as it stands, the record would be written into
        # archive.json's generations.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        self.edit_record(out / "checkpoint_gen_002.json", "archive_size",
                         lambda n: n + 5)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "checkpoint_gen_002.json records archive_size" in res.output
        assert res.output.rstrip().endswith(
            "rerun with --force to start over")
        assert "cannot resume" in res.output
        assert not (out / "archive.json").exists()

    def test_record_of_another_generation(self, tmp_path, runner):
        # The last checkpoint's record names the generation the run resumes
        # after.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        self.edit_record(out / "checkpoint_gen_003.json", "generation",
                         lambda n: 7)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "checkpoint_gen_003.json records generation 7, not 3" \
            in res.output
        assert "cannot resume" in res.output
        assert res.output.rstrip().endswith(
            "rerun with --force to start over")
        assert not (out / "archive.json").exists()

    @pytest.mark.parametrize("name", ["static_evals", "dynamic_evals",
                                      "forwarded_backbones"])
    def test_counters_that_decrease(self, tmp_path, runner, name):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        first = json.loads((out / "checkpoint_gen_001.json").read_text())
        self.edit_record(out / "checkpoint_gen_002.json", name,
                         lambda n: first["record"][name] - 1)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert f"checkpoint_gen_002.json records {name}" in res.output
        assert "cannot resume" in res.output
        assert res.output.rstrip().endswith(
            "rerun with --force to start over")
        assert not (out / "archive.json").exists()

    @staticmethod
    def edit_genes(path: Path, edit) -> int:
        """Replace the genes of the second row of the checkpoint's first
        visit that holds more than one row by edit(genes); the visit's
        number."""
        doc = json.loads(path.read_text())
        first = 0
        for visit, count, _, _ in doc["visits"]:
            if count > 1:
                break
            first += count
        assert count > 1
        doc["final"][first + 1] = edit(doc["final"][first + 1])
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return visit

    def test_rows_of_one_visit_that_differ(self, tmp_path, runner):
        # A visit's backbone is stored once: a row one exit bit longer than
        # its visit's others is not a row of that backbone.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        visit = self.edit_genes(out / "checkpoint_gen_001.json",
                                lambda genes: "1" + genes)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert f"a row of visit {visit} holds genes '1" in res.output
        assert "exit bits, a compute_idx and no emc_idx" in res.output
        assert not (out / "archive.json").exists()

    # Genes that are not those of a row the live run could have written are
    # refused, never evaluated into other bytes or a traceback.
    @pytest.mark.parametrize("edit, why", [
        (lambda genes: genes + "1.0", "holds genes"),
        (lambda genes: genes[:-1], "holds genes"),
        (lambda genes: genes.replace(",", ",0", 1), "holds genes"),
        (lambda genes: genes.replace("1", "2", 1), "holds genes"),
        (lambda genes: genes.split(",")[0] + ",7,",
         "does not evaluate: gene index outside its domain"),
        (lambda genes: genes.split(",")[0] + "," + "9" * 30 + ",",
         "does not evaluate: "),
        (lambda genes: genes.replace("1", "0"),
         "does not evaluate: exit genome samples no exit"),
    ], ids=["emc-float", "no-emc-cell", "leading-zero", "bit-2",
            "compute-outside", "compute-huge", "no-exit-bit"])
    def test_genes_that_do_not_read_back(self, tmp_path, runner, edit, why):
        cfg, out = toy_run(tmp_path, runner)
        expected = files(out)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_001.json"
        visit = self.edit_genes(path, edit)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert f"cannot resume: {path}: a row of visit {visit} " in res.output
        assert why in res.output
        assert "rerun with --force to start over" in res.output
        assert "Traceback" not in res.output
        assert not (out / "archive.json").exists()
        res = runner.invoke(main, ["search", "--config", str(cfg), "--force"])
        assert res.exit_code == 0, res.output
        assert files(out) == expected

    def test_row_repeated_within_its_visit(self, tmp_path, runner):
        # A live run never holds one key twice: resumed, the repeat would be
        # written as a second front.csv row.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        for later in (2, 3):
            (out / f"checkpoint_gen_{later:03d}.json").unlink()
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        visit = doc["visits"][0][0]
        doc["final"].insert(0, doc["final"][0])
        doc["visits"][0][1] += 1
        doc["record"]["archive_size"] += 1
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert (f"cannot resume: {path}: a row of visit {visit} repeats the "
                "live key ") in res.output
        assert not (out / "archive.json").exists()

    def test_row_whose_key_another_visit_holds(self, tmp_path, runner):
        # Two visits of one generation that share a backbone and a row: the
        # later one's row takes a key that is already live.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        texts = iter(doc["final"])
        genes = [set(islice(texts, count)) for _, count, _, _ in doc["visits"]]
        a, b = next((a, b) for b in range(len(genes)) for a in range(b)
                    if genes[a] & genes[b])
        doc["visits"][b][3] = doc["visits"][a][3]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert (f"cannot resume: {path}: a row of visit {doc['visits'][b][0]} "
                "repeats the live key ") in res.output
        assert not (out / "archive.json").exists()

    @pytest.mark.parametrize("key, why", [
        ([0, 9, 9, 9, 9], "backbone [0, 9, 9, 9, 9]: block gene index out of "
         "range"),
        ([0, 1, 0, 1], "backbone [0, 1, 0, 1]: not 5 integer genes"),
        ("abcde", "backbone abcde: not 5 integer genes"),
        (None, "backbone None: not 5 integer genes"),
    ], ids=["out-of-range", "short", "text", "null"])
    def test_visit_backbone_outside_the_space(self, tmp_path, runner, key,
                                              why):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        doc["visits"][0][3] = key
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert f"cannot resume: {path}: {why}" in res.output
        assert "Traceback" not in res.output
        assert not (out / "archive.json").exists()

    @pytest.mark.parametrize("objectives", [[0.5, 1.0, 2.0], "abcd",
                                            [0.5, 1.0, 2.0, True]])
    def test_objectives_that_are_not_numbers(self, tmp_path, runner,
                                             objectives):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        doc["visits"][0][2] = objectives
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert (f"cannot resume: {path}: visit {doc['visits'][0][0]} has "
                f"objectives {objectives!r}, not 4 numbers") in res.output
        assert not (out / "archive.json").exists()

    # The replay's merge refuses them; the replay used to take them, and the
    # resumed run ended in a traceback from the archive merge.
    @pytest.mark.parametrize("value, why", [
        (float("nan"), "objective value nan is not finite"),
        (float("-inf"), "objective value -inf is not finite"),
        (10**400, "int too large to convert to float"),
    ], ids=["nan", "-inf", "huge-int"])
    def test_objectives_that_are_not_finite(self, tmp_path, runner, value,
                                            why):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        doc["visits"][0][2][1] = value
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert f"cannot resume: {path}: {why}" in res.output
        assert "Traceback" not in res.output
        assert not (out / "archive.json").exists()

    def test_visit_count_below_its_visits(self, tmp_path, runner):
        # New visits are numbered from the count: with a count that is too
        # low they would take the numbers of live visits.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        (out / "checkpoint_gen_003.json").unlink()
        path = out / "checkpoint_gen_002.json"
        doc = json.loads(path.read_text())
        assert doc["resume"]["n_visits"] > 0
        doc["resume"]["n_visits"] = 0
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "cannot resume: " in res.output
        assert "checkpoint_gen_002.json lists visits" in res.output
        assert not (out / "archive.json").exists()

    def test_visit_number_already_live(self, tmp_path, runner):
        # A visit that took a live visit's number would replace it.
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        assert len(doc["visits"]) > 1
        doc["visits"][1][0] = doc["visits"][0][0]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "cannot resume: " in res.output
        assert "checkpoint_gen_001.json lists visits" in res.output
        assert not (out / "archive.json").exists()

    def test_evicted_visit_not_live(self, tmp_path, runner):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_002.json"
        doc = json.loads(path.read_text())
        doc["evicted"].append(10**6)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "cannot resume: " in res.output
        assert "evicts visit 1000000, which is not live" in res.output
        assert not (out / "archive.json").exists()

    @staticmethod
    def small_default_run(tmp_path, runner):
        """The small-default search, run to its end with the CLI: its config
        path and output directory, archive.json and front.csv removed."""
        out = tmp_path / "out"
        config = tmp_path / "small.yaml"
        config.write_text(yaml.safe_dump(dict(test_identity.SMALL_DEFAULT_DOC,
                                              output_dir=str(out))),
                          encoding="utf-8")
        res = runner.invoke(main, ["search", "--config", str(config)])
        assert res.exit_code == 0, res.output
        (out / "archive.json").unlink()
        (out / "front.csv").unlink()
        return config, out

    def test_added_visit_that_dominates_another(self, tmp_path, runner):
        # The evictions follow from the objectives: a visit raised until it
        # dominates another one added beside it would have evicted it, and
        # the replay used to take both.
        config, out = self.small_default_run(tmp_path, runner)
        path = out / "checkpoint_gen_001.json"
        doc = json.loads(path.read_text())
        (_, _, first, _), (other, _, second, _) = doc["visits"][:2]
        better = (max, min, min, max)  # per COMBINED_DIRECTIONS
        doc["visits"][0][2] = [pick(a, b) for pick, a, b
                               in zip(better, first, second)]
        doc["visits"][0][2][0] = max(first[0], second[0]) + 0.01
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(config)])
        assert res.exit_code == 1
        assert re.search(
            rf"cannot resume: {re.escape(str(path))} evicts visits \[\], but "
            rf"the merge of its visits' objectives drops \[{other}[,\]]",
            res.output), res.output
        assert "Traceback" not in res.output
        assert not (out / "archive.json").exists()

    def test_evicted_visit_that_no_added_one_dominates(self, tmp_path,
                                                       runner):
        config, out = self.small_default_run(tmp_path, runner)
        path = out / "checkpoint_gen_002.json"
        doc = json.loads(path.read_text())
        first = json.loads((out / "checkpoint_gen_001.json").read_text())
        kept = [v for v, _, _, _ in first["visits"]
                if v not in doc["evicted"]]
        assert kept
        doc["evicted"].append(kept[0])
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(config)])
        assert res.exit_code == 1
        assert (f"cannot resume: {path} evicts visits {doc['evicted']}, but "
                "the merge of its visits' objectives drops ") in res.output
        assert "Traceback" not in res.output
        assert not (out / "archive.json").exists()

    def test_bad_rng_state(self, tmp_path, runner):
        cfg, out = toy_run(tmp_path, runner)
        (out / "archive.json").unlink()
        path = out / "checkpoint_gen_003.json"
        doc = json.loads(path.read_text())
        doc["resume"]["rng_state"][1] = doc["resume"]["rng_state"][1][:5]
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "cannot resume:" in res.output
        assert not (out / "archive.json").exists()


    @staticmethod
    def refuse_resume_state(tmp_path, runner, generation, edit, why):
        """Edit the resume state of checkpoint `generation`, drop the later
        checkpoints, and expect the rerun to refuse it for `why`; --force
        then writes the uninterrupted bytes."""
        cfg, out = toy_run(tmp_path, runner)
        expected = files(out)
        (out / "archive.json").unlink()
        for later in range(generation + 1, 4):
            (out / f"checkpoint_gen_{later:03d}.json").unlink()
        path = out / f"checkpoint_gen_{generation:03d}.json"
        doc = json.loads(path.read_text())
        edit(doc["resume"])
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert f"cannot resume: {why}" in res.output
        assert "rerun with --force to start over" in res.output
        assert not (out / "archive.json").exists()
        res = runner.invoke(main, ["search", "--config", str(cfg), "--force"])
        assert res.exit_code == 0, res.output
        assert files(out) == expected

    @pytest.mark.parametrize("key, why", [
        ([0, 9, 9, 9, 9],
         "backbone [0, 9, 9, 9, 9]: block gene index out of range"),
        ([0, 1, 0, 1, 0, 1, 0, 1, 0],
         "backbone [0, 1, 0, 1, 0, 1, 0, 1, 0]: not 5 integer genes"),
        ([0, 1, 0, 1, 0, 1], "backbone [0, 1, 0, 1, 0, 1]: not 5 integer genes"),
        ([0, 1, 0], "backbone [0, 1, 0]: not 5 integer genes"),
        ([], "backbone []: not 5 integer genes"),
        ([0, 1, 0, 1, 0.5], "backbone [0, 1, 0, 1, 0.5]: not 5 integer genes"),
        ([0, 1, 0, 1, True],
         "backbone [0, 1, 0, 1, True]: not 5 integer genes"),
    ], ids=["out-of-range", "extra-block", "extra-gene", "short", "empty",
            "float", "bool"])
    def test_population_key_outside_the_space(self, tmp_path, runner, key,
                                              why):
        def edit(resume):
            resume["population"][0] = key
        self.refuse_resume_state(tmp_path, runner, 1, edit, why)

    @pytest.mark.parametrize("generation, size, why", [
        (1, 7, "the resume state holds 7 backbones, not 8"),
        (3, 1, "the resume state holds 1 backbones, not 0"),
    ], ids=["short", "after-the-last"])
    def test_population_of_the_wrong_size(self, tmp_path, runner, generation,
                                          size, why):
        def edit(resume):
            resume["population"] = ([[0, 1, 0, 1, 0]] * 8)[:size]
        self.refuse_resume_state(tmp_path, runner, generation, edit, why)

    @pytest.mark.parametrize("counter", ["static_evals", "dynamic_evals",
                                         "forwarded_backbones"])
    def test_counters_that_differ_from_the_record(self, tmp_path, runner,
                                                  counter):
        def edit(resume):
            resume["counters"][counter] += 1
        self.refuse_resume_state(tmp_path, runner, 2, edit,
                                 "the resume counters ")


def test_digest_line_key_sorts_first(tmp_path, runner):
    # The integrity check reads line 2 only: every other top-level key of
    # archive.json and of a checkpoint must sort after config_digest.
    _, out = toy_run(tmp_path, runner)
    names = sorted(p.name for p in out.glob("*.json"))
    assert names == ["archive.json", "checkpoint_gen_001.json",
                     "checkpoint_gen_002.json", "checkpoint_gen_003.json"]
    for name in names:
        doc = json.loads((out / name).read_text())
        assert sorted(doc)[0] == "config_digest", name
        assert cli_mod._config_digest_of(str(out / name)) == \
            doc["config_digest"]



def live_group_members(pgid: int) -> list[int]:
    """The processes of group `pgid` that have not exited (zombies, which
    whoever adopted them may not have reaped yet, excluded)."""
    pids = []
    for name in os.listdir("/proc"):
        if name.isdigit():
            try:
                with open(f"/proc/{name}/stat", encoding="ascii",
                          errors="replace") as fh:
                    stat = fh.read()
            except OSError:
                continue
            state, _, pgrp = stat.rpartition(")")[2].split()[:3]
            if int(pgrp) == pgid and state not in ("Z", "X"):
                pids.append(int(name))
    return pids


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads the process table from /proc")
@pytest.mark.parametrize("whole_group", [False, True])
def test_killed_search_resumes_to_the_pinned_bytes(tmp_path, whole_group):
    # A search in its own session is SIGKILLed once its first checkpoint is
    # on disk: only the search process, whose forked workers then find no
    # reader, or its whole process group.
    out = tmp_path / "out"
    config = tmp_path / "small-default.yaml"
    config.write_text(yaml.safe_dump(dict(test_identity.SMALL_DEFAULT_DOC,
                                          output_dir=str(out))))
    src = str(Path(nestevo.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.Popen(
        [sys.executable, "-m", "nestevo.cli", "search", "--config", str(config)],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 120
        while (not (out / "checkpoint_gen_001.json").exists()
               and proc.poll() is None and time.monotonic() < deadline):
            time.sleep(0.002)
        assert proc.poll() is None, "the search ended before it was killed"
        if whole_group:
            os.killpg(proc.pid, signal.SIGKILL)
        else:
            proc.kill()
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=60)
    deadline = time.monotonic() + 60
    while live_group_members(proc.pid):
        assert time.monotonic() < deadline, "a killed search's worker runs on"
        time.sleep(0.05)
    names = [p.name for p in out.iterdir()]
    assert "checkpoint_gen_001.json" in names and "archive.json" not in names
    assert not [name for name in names if name.endswith(".tmp")]

    cfg = parse_config(test_identity.SMALL_DEFAULT_DOC, out_override=str(out))
    run_search(cfg)
    assert test_identity.digests(out) == test_identity.PINNED["small-default"]
    assert not [p for p in out.iterdir() if p.name.endswith(".tmp")]
