import json

import pytest
import yaml
from click.testing import CliRunner

from nestevo import archive as ar
from nestevo.cli import main
from nestevo.config import ConfigError, config_digest, load_config

TOY_DOC = {
    "seed": 7,
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
    "ablate": {"backbone_seed": 3},
}


def write_toy_config(tmp_path, out_dir=None, **overrides):
    doc = json.loads(json.dumps(TOY_DOC))
    doc["output_dir"] = str(out_dir or tmp_path / "out")
    for key, value in overrides.items():
        if key in ("space", "ooe", "ioe") and isinstance(value, dict):
            doc[key].update(value)
        else:
            doc[key] = value
    path = tmp_path / "toy.yaml"
    path.write_text(yaml.safe_dump(doc), encoding="utf-8")
    return path


@pytest.fixture
def runner():
    return CliRunner()


class TestConfigLoading:
    def test_defaults_fill_in(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\ndevice: agx-volta-gpu\n", encoding="utf-8")
        cfg = load_config(str(path))
        assert cfg.ooe.generations == 15
        assert cfg.ooe.population == 30
        assert cfg.ooe.ioe.generations == 35
        assert cfg.ooe.ioe.population == 100
        assert cfg.space.n_block == 7
        assert len(cfg.space.width_domain) == 16
        assert cfg.space.width_domain[0] == 16
        assert cfg.space.width_domain[-1] == 1984

    def test_missing_seed_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("device: agx-volta-gpu\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="seed"):
            load_config(str(path))

    def test_unknown_keys_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\ndevice: agx-volta-gpu\nbogus: 1\n",
                        encoding="utf-8")
        with pytest.raises(ConfigError, match="bogus"):
            load_config(str(path))

    def test_unknown_device_rejected(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        path.write_text("seed: 5\ndevice: nope\n", encoding="utf-8")
        with pytest.raises(ConfigError):
            load_config(str(path))

    @pytest.mark.parametrize("name", ["toy\rdev", "toy\ndev", "", 5])
    def test_bad_device_name_rejected(self, tmp_path, name):
        device = {"name": name, "compute_freq_ghz": [0.5, 1.0],
                  "default_compute_idx": 1}
        path = write_toy_config(tmp_path, device=name,
                                space={"devices": [device]})
        assert yaml.safe_load(path.read_text(encoding="utf-8"))["device"] == name
        with pytest.raises(ConfigError, match="device name"):
            load_config(str(path))

    # Each count fits the toy budgets, so only its type is wrong; a float or a
    # bool count used to pass validation and fail or run on in the engine.
    @pytest.mark.parametrize("section, node", [
        ("ioe", {"generations": 1.5}),
        ("ooe", {"population": 2.5}),
        ("ooe", {"generations": True}),
        ("ioe", {"budget": 12.0}),
        ("variation", {"tournament_size": 1.5}),
        # These used to be truncated by int(): seed 7.9 ran as seed 7.
        ("seed", 7.9),
        ("seed", True),
        ("enumerate_cap", 10.7),
        ("space", {"n_block": 1.5}),
        ("space", {"exit_min_position": 5.0}),
        ("ablate", {"backbone": {"resolution_idx": 0.0, "blocks": [
            {"depth_idx": 1, "width_idx": 0, "kernel_idx": 0,
             "expand_idx": 0}]}}),
        ("ablate", {"backbone": {"resolution_idx": 0, "blocks": [
            {"depth_idx": 1, "width_idx": 0.5, "kernel_idx": 0,
             "expand_idx": 0}]}}),
        ("ablate", {"backbone_seed": 2.5}),
        ("ablate", {"backbone_seed": True}),
        # A float default index passed the range check and failed mid-search.
        ("space", {"devices": [{"name": "toy-dev",
                                "compute_freq_ghz": [0.5, 1.0],
                                "default_compute_idx": 0.5}]}),
        ("space", {"devices": [{"name": "toy-dev",
                                "compute_freq_ghz": [0.5, 1.0],
                                "emc_freq_ghz": [0.4, 0.8],
                                "default_compute_idx": 1,
                                "default_emc_idx": 1.0}]}),
    ])
    def test_non_integer_count_rejected(self, tmp_path, runner, section, node):
        path = write_toy_config(tmp_path, **{section: node})
        with pytest.raises(ConfigError, match="must be an integer"):
            load_config(str(path))
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code == 1
        assert "Error: invalid config" in res.output
        assert not (tmp_path / "out").exists()

    def test_nan_gamma_rejected(self, tmp_path):
        path = write_toy_config(tmp_path, ioe={"gamma": float("nan")})
        assert "gamma: .nan" in path.read_text(encoding="utf-8")
        with pytest.raises(ConfigError, match="gamma must be nonnegative"):
            load_config(str(path))

    def test_digest_changes_with_seed_only(self, tmp_path):
        p1 = write_toy_config(tmp_path)
        cfg_a = load_config(str(p1))
        cfg_b = load_config(str(p1), seed_override=8)
        cfg_c = load_config(str(p1), out_override=str(tmp_path / "elsewhere"))
        assert config_digest(cfg_a) != config_digest(cfg_b)
        assert config_digest(cfg_a) == config_digest(cfg_c)


TOY_TABLE = (
    "device,bucket_log10_flops,f_compute_ghz,f_emc_ghz,latency_ms,energy_mj\n"
    + "".join(f"toy-dev,{lb}.0,{f_c},,{10.0 ** (lb - 6) / f_c},"
              f"{2.0 * 10.0 ** (lb - 6) * f_c}\n"
              for f_c in (0.5, 1.0) for lb in range(3, 11))
)


def write_table_config(tmp_path):
    table = tmp_path / "table.csv"
    table.write_text(TOY_TABLE, encoding="utf-8")
    cfg = write_toy_config(tmp_path, evaluator={"backend": "table",
                                                "table_csv": str(table)})
    return cfg, table


def edit_one_byte(path):
    data = bytearray(path.read_bytes())
    i = data.rindex(b"1")
    data[i:i + 1] = b"2"
    path.write_bytes(bytes(data))


class TestTableDigest:
    def test_table_bytes_change_digest(self, tmp_path):
        cfg_path, table = write_table_config(tmp_path)
        before = config_digest(load_config(str(cfg_path)))
        assert config_digest(load_config(str(cfg_path))) == before
        edit_one_byte(table)
        assert config_digest(load_config(str(cfg_path))) != before

    def test_missing_table_rejected(self, tmp_path):
        cfg_path, table = write_table_config(tmp_path)
        cfg = load_config(str(cfg_path))
        table.unlink()
        with pytest.raises(ConfigError, match="lookup table"):
            config_digest(cfg)

    def test_search_refuses_edited_table(self, tmp_path, runner):
        cfg_path, table = write_table_config(tmp_path)
        args = ["search", "--config", str(cfg_path)]
        res = runner.invoke(main, args)
        assert res.exit_code == 0, res.output
        edit_one_byte(table)
        res = runner.invoke(main, args)
        assert res.exit_code != 0
        assert "different config" in res.output
        res = runner.invoke(main, args + ["--force"])
        assert res.exit_code == 0, res.output


class TestSearchCommand:
    def test_outputs_and_determinism(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        archive_1 = (out / "archive.json").read_bytes()
        front_1 = (out / "front.csv").read_bytes()

        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert (out / "archive.json").read_bytes() == archive_1
        assert (out / "front.csv").read_bytes() == front_1

    def test_csv_rows_match_archive_size(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        doc = json.loads((out / "archive.json").read_text())
        rows = ar.read_front_csv(str(out / "front.csv"))
        assert len(rows) == len(doc["final"])
        assert doc["schema_version"] == 1

    def test_checkpoint_per_generation(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        checkpoints = sorted(p.name for p in out.glob("checkpoint_gen_*.json"))
        assert checkpoints == ["checkpoint_gen_001.json", "checkpoint_gen_002.json"]
        for name in checkpoints:
            doc = json.loads((out / name).read_text())
            assert doc["config_digest"] == json.loads(
                (out / "archive.json").read_text())["config_digest"]

    def test_seed_override_changes_digest(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        digest_1 = json.loads((out / "archive.json").read_text())["config_digest"]
        res = runner.invoke(main, ["search", "--config", str(cfg), "--seed", "8",
                                   "--out", str(tmp_path / "out2")])
        assert res.exit_code == 0, res.output
        digest_2 = json.loads(
            (tmp_path / "out2" / "archive.json").read_text())["config_digest"]
        assert digest_1 != digest_2

    def test_digest_drift_guard(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        # Same output directory, different seed: integrity check trips.
        res = runner.invoke(main, ["search", "--config", str(cfg), "--seed", "8"])
        assert res.exit_code != 0
        assert "different config" in res.output
        res = runner.invoke(main, ["search", "--config", str(cfg), "--seed", "8",
                                   "--force"])
        assert res.exit_code == 0, res.output

    def test_checkpoint_of_another_config_refused(self, tmp_path, runner):
        # An interrupted run leaves checkpoints but no archive.json; another
        # config must not overwrite them without --force.
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        (out / "archive.json").unlink()
        (out / "front.csv").unlink()
        newest = (out / "checkpoint_gen_002.json").read_bytes()
        res = runner.invoke(main, ["search", "--config", str(cfg), "--seed", "8"])
        assert res.exit_code == 1
        assert "checkpoint_gen_002.json was produced by a different config" \
            in res.output
        assert (out / "checkpoint_gen_002.json").read_bytes() == newest
        assert not (out / "archive.json").exists()
        # The same config may run on.
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output

    def test_force_removes_outputs_of_another_config(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        cfg = write_toy_config(tmp_path, ooe={"generations": 1})
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert "different config" in res.output
        res = runner.invoke(main, ["search", "--config", str(cfg), "--force"])
        assert res.exit_code == 0, res.output
        assert sorted(p.name for p in out.iterdir()) == [
            "archive.json", "checkpoint_gen_001.json", "front.csv"]
        digest = json.loads((out / "archive.json").read_text())["config_digest"]
        assert json.loads((out / "checkpoint_gen_001.json").read_text()
                          )["config_digest"] == digest

    # Only the first two lines of an earlier output are read: a file whose
    # line 2 is not this program's digest line counts as another config's.
    @pytest.mark.parametrize("damage", ["empty", "line 1", "mid line 2",
                                        "garbage"])
    def test_damaged_archive_refused(self, tmp_path, runner, damage):
        cfg = write_toy_config(tmp_path)
        archive = tmp_path / "out" / "archive.json"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        data = archive.read_bytes()
        archive.write_bytes({"empty": b"", "line 1": data[:2],
                             "mid line 2": data[:30],
                             "garbage": b"\xff\xfe\x00 not json\n" * 1000,
                             }[damage])
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 1
        assert ("archive.json was produced by a different config "
                "(digest None)") in res.output
        res = runner.invoke(main, ["search", "--config", str(cfg), "--force"])
        assert res.exit_code == 0, res.output
        assert archive.read_bytes() == data

    def test_archive_cut_after_its_digest_line_reruns(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        archive = tmp_path / "out" / "archive.json"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        data = archive.read_bytes()
        head = b"".join(data.splitlines(keepends=True)[:2])
        assert head.startswith(b'{\n  "config_digest": "')
        archive.write_bytes(head)
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert archive.read_bytes() == data

    def test_force_keeps_other_files(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        out.mkdir()
        (out / "notes.txt").write_text("kept", encoding="utf-8")
        (out / "checkpoint_gen_7.json.bak").write_text("{}", encoding="utf-8")
        res = runner.invoke(main, ["search", "--config", str(cfg), "--force"])
        assert res.exit_code == 0, res.output
        assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
        assert (out / "checkpoint_gen_7.json.bak").exists()

    def test_env_var_output_override(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        env_out = tmp_path / "env_out"
        res = runner.invoke(main, ["search", "--config", str(cfg)],
                            env={"NESTEVO_OUTPUT_DIR": str(env_out)})
        assert res.exit_code == 0, res.output
        assert (env_out / "archive.json").exists()

    def test_invalid_config_diagnostic(self, tmp_path, runner):
        path = tmp_path / "bad.yaml"
        path.write_text("device: toy\n", encoding="utf-8")
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code != 0
        assert "invalid config" in res.output

    def test_archive_round_trip(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        doc = ar.load_json(str(out / "archive.json"))
        result = ar.archive_doc_result(doc)
        ar.save_json(str(out / "archive2.json"),
                     ar.archive_header(result, doc["config_digest"], doc["seed"]),
                     ar.RowEncoder().final_json(result.entries))
        assert (out / "archive2.json").read_bytes() == \
            (out / "archive.json").read_bytes()

    def test_front_csv_round_trip(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        rows = ar.read_front_csv(str(out / "front.csv"))
        entries = []
        for row in rows:
            sol = ar.front_solution_from_row(row)
            entries.append(type("E", (), {"key": sol.key(), "payload": sol})())
        ar.write_front_csv(str(out / "front2.csv"), entries)
        assert (out / "front.csv").read_bytes() == (out / "front2.csv").read_bytes()


class TestInterruption:
    def test_completed_checkpoints_survive_an_interrupt(self, tmp_path):
        # Abort the engine after the first generation; the generation-1
        # checkpoint must already be on disk and parse cleanly.
        from nestevo.cli import run_search
        from nestevo import ooe as ooe_mod

        cfg = load_config(str(write_toy_config(tmp_path)))

        original = ooe_mod.run_ooe

        def aborting_run_ooe(*args, **kwargs):
            inner_cb = kwargs.get("on_generation")

            def wrapper(gen, entries, counters):
                inner_cb(gen, entries, counters)
                if gen == 1:
                    raise KeyboardInterrupt

            kwargs["on_generation"] = wrapper
            return original(*args, **kwargs)

        import nestevo.cli as cli_mod
        cli_mod_run_ooe = cli_mod.run_ooe
        cli_mod.run_ooe = aborting_run_ooe
        try:
            with pytest.raises(KeyboardInterrupt):
                run_search(cfg)
        finally:
            cli_mod.run_ooe = cli_mod_run_ooe

        out = tmp_path / "out"
        assert not (out / "archive.json").exists()
        checkpoint = json.loads((out / "checkpoint_gen_001.json").read_text())
        assert checkpoint["generation"] == 1
        assert checkpoint["final"]


class TestEnumerateCommand:
    def test_toy_front_written(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["enumerate", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        assert "48" in res.output  # 8 backbones * 3 patterns * 2 levels
        rows = ar.read_front_csv(str(out / "truth_front.csv"))
        assert rows

    def test_single_candidate_space(self, tmp_path, runner):
        cfg = write_toy_config(
            tmp_path,
            space={"depth": [6], "width": [16], "kernel": [3],
                   "devices": [{"name": "toy-dev", "compute_freq_ghz": [1.0],
                                "default_compute_idx": 0}]},
            ooe={"generations": 1, "population": 1, "prune_fraction": 1.0,
                 "budget": 1},
            ioe={"generations": 1, "population": 1, "budget": 1},
        )
        res = runner.invoke(main, ["enumerate", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        rows = ar.read_front_csv(str(tmp_path / "out" / "truth_front.csv"))
        assert len(rows) == 1
        assert rows[0]["exit_bits"] == "1"

    def test_cap_refusal_names_cardinality(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path, enumerate_cap=10)
        res = runner.invoke(main, ["enumerate", "--config", str(cfg)])
        assert res.exit_code != 0
        assert "48" in res.output
        assert "10" in res.output


class TestMetricsCommand:
    def test_identical_fronts(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        assert runner.invoke(main, ["search", "--config", str(cfg)]).exit_code == 0
        front = str(out / "front.csv")
        res = runner.invoke(main, [
            "metrics", front, front, "--reference", "0,1",
            "--out", str(out / "report.json"),
        ])
        assert res.exit_code == 0, res.output
        report = json.loads((out / "report.json").read_text())
        assert report["rod_a_over_b"] == 0.0
        assert report["rod_b_over_a"] == 0.0
        assert report["hv_a"] == report["hv_b"]

    def test_hand_front_pass_through(self, tmp_path, runner):
        # Single point (0.5, 0.5) against reference (0, 1) in a
        # (max, min) space: volume 0.5 * 0.5.
        path = tmp_path / "tiny.csv"
        header = ",".join(ar.FRONT_CSV_COLUMNS)
        row = {c: "0" for c in ar.FRONT_CSV_COLUMNS}
        row.update({"blocks": "0-0-0-0", "exit_bits": "1", "device": "d",
                    "acc": "0.5", "latency_ms": "1", "energy_mj": "1",
                    "mean_correct": "0.5", "energy_ratio": "0.5",
                    "latency_ratio": "0.5", "mean_dissimilarity": "1",
                    "n_exits": "1", "mean_exit_score": "0.125"})
        path.write_text(header + "\n" + ",".join(row[c] for c in
                                                 ar.FRONT_CSV_COLUMNS) + "\n",
                        encoding="utf-8")
        res = runner.invoke(main, ["metrics", str(path), str(path),
                                   "--reference", "0,1"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert report["hv_a"] == pytest.approx(0.25, abs=1e-12)

    def test_schema_mismatch_nonzero_exit(self, tmp_path, runner):
        good = tmp_path / "good.csv"
        header = ",".join(ar.FRONT_CSV_COLUMNS)
        good.write_text(header + "\n", encoding="utf-8")
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n", encoding="utf-8")
        res = runner.invoke(main, ["metrics", str(good), str(bad)])
        assert res.exit_code != 0

    def test_bad_objective_spec(self, tmp_path, runner):
        path = tmp_path / "f.csv"
        path.write_text(",".join(ar.FRONT_CSV_COLUMNS) + "\n", encoding="utf-8")
        res = runner.invoke(main, ["metrics", str(path), str(path),
                                   "--objective", "acc:upward"])
        assert res.exit_code != 0

    def test_malformed_reference(self, tmp_path, runner):
        path = tmp_path / "f.csv"
        path.write_text(",".join(ar.FRONT_CSV_COLUMNS) + "\n", encoding="utf-8")
        res = runner.invoke(main, ["metrics", str(path), str(path),
                                   "--reference", "0,abc"])
        assert res.exit_code != 0
        assert "Error:" in res.output
        assert isinstance(res.exception, SystemExit)


class TestAblateCommand:
    def test_single_arm_no_comparisons(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                   "--gammas", "0"])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert len(doc["arms"]) == 1
        assert doc["arms"][0]["gamma"] == 0.0
        assert doc["rod"] == []

    def test_two_arms_one_pair(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                   "--gammas", "0,1"])
        assert res.exit_code == 0, res.output
        doc = json.loads((tmp_path / "out" / "ablation.json").read_text())
        assert [arm["gamma"] for arm in doc["arms"]] == [0.0, 1.0]
        assert len(doc["rod"]) == 2  # both directions of the single pair
        for arm in doc["arms"]:
            assert arm["archive_size"] >= 1
            assert arm["exit_fraction_spread"] >= 0.0

    @pytest.mark.parametrize("gammas", ["0,x", "-1", "nan"])
    def test_malformed_gammas(self, tmp_path, runner, gammas):
        cfg = write_toy_config(tmp_path)
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                   "--gammas", gammas])
        assert res.exit_code != 0
        assert "Error:" in res.output
        assert isinstance(res.exception, SystemExit)
        assert not (tmp_path / "out" / "ablation.json").exists()

    def test_requires_ablate_section(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path, ablate=None)
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg)])
        assert res.exit_code != 0

    def test_deterministic_report(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        outputs = []
        for _ in range(2):
            res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                       "--gammas", "0,1"])
            assert res.exit_code == 0, res.output
            outputs.append((tmp_path / "out" / "ablation.json").read_bytes())
        assert outputs[0] == outputs[1]

    def test_explicit_backbone(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path, ablate={
            "backbone": {
                "resolution_idx": 0,
                "blocks": [{"depth_idx": 1, "width_idx": 0, "kernel_idx": 0,
                            "expand_idx": 0}],
            },
        })
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                   "--gammas", "0,1"])
        assert res.exit_code == 0, res.output
