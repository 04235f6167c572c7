import json
import math
from pathlib import Path

import pytest
import yaml
from click.testing import CliRunner

from nestevo import archive as ar
from nestevo.cli import main
from nestevo.config import ConfigError, config_digest, load_config, parse_config
from nestevo.rows import archive_text, render_rows

from oracles import (
    archive_doc_result,
    front_solution_from_row,
    layout_text,
    lists_by_line,
    load_json,
    solution_values,
)

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

    @pytest.mark.parametrize("name", ["toy\rdev", "toy\ndev", "", 5,
                                      "toy\ud800"])
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

    # A non-finite number used to pass every bound it was checked against
    # (or had none, as exit_midpoint): NaN noise wrote an archive with every
    # acc at 0.02, an infinite exit_midpoint one with every mean_correct at
    # 0.0, and a NaN kappa_compute ended in the inner engine's traceback.
    NUMBERS = ["kappa_compute", "kappa_memory", "p0", "p1", "p2",
               "exit_overhead_fraction", "accuracy_ceiling", "accuracy_rate",
               "noise_scale", "exit_slope", "exit_midpoint",
               "compute_freq_ghz", "emc_freq_ghz"]

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("name", NUMBERS)
    def test_non_finite_number_rejected(self, name, value):
        doc = json.loads(json.dumps(TOY_DOC))
        if name.endswith("_freq_ghz"):
            doc["space"]["devices"] = [{
                "name": "toy-dev", "compute_freq_ghz": [0.5, 1.0],
                "emc_freq_ghz": [0.4, 0.8], "default_compute_idx": 1,
                "default_emc_idx": 1}]
            doc["space"]["devices"][0][name][1] = value
        else:
            doc["evaluator"] = {name: value}
        with pytest.raises(ConfigError, match="must be (a )?finite"):
            parse_config(doc)

    def test_number_read_as_text_is_named(self):
        # PyYAML reads 1.0e7, without a sign in the exponent, as a string.
        doc = dict(json.loads(json.dumps(TOY_DOC)),
                   evaluator=yaml.safe_load("kappa_compute: 1.0e7"))
        with pytest.raises(ConfigError, match="kappa_compute must be a finite "
                                              "number, got '1.0e7'"):
            parse_config(doc)
        doc = json.loads(json.dumps(TOY_DOC))
        doc["space"]["devices"][0]["compute_freq_ghz"] = [0.5, "1.0"]
        with pytest.raises(ConfigError, match="toy-dev: compute frequencies "
                                              "must be finite numbers"):
            parse_config(doc)

    def test_non_finite_number_refused_before_search(self, tmp_path, runner):
        path = write_toy_config(tmp_path, evaluator={"noise_scale": math.nan})
        assert "noise_scale: .nan" in path.read_text(encoding="utf-8")
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code == 1
        assert ("Error: invalid config: noise_scale must be a finite number"
                in res.output)
        assert not (tmp_path / "out" / "archive.json").exists()

    def test_lone_surrogate_device_name_refused_before_search(self, tmp_path,
                                                              runner):
        # front.csv is UTF-8, which cannot encode the name: the search used
        # to run every generation and then fail while writing it.
        toy = Path(__file__).resolve().parent.parent / "configs" / "toy.yaml"
        path = tmp_path / "toy.yaml"
        path.write_text(toy.read_text(encoding="utf-8").replace(
            "toy-dev", '"toy\\ud800"').replace(
            "runs/toy", str(tmp_path / "out")), encoding="utf-8")
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code == 1
        assert ("Error: invalid config: device name 'toy\\ud800' is not "
                "valid Unicode" in res.output)
        assert not (tmp_path / "out").exists()

    # A domain value that is not a positive integer used to fail mid-search
    # (a zero depth divides by zero, a fractional one indexes a list, a
    # negative width fails the workload check, a string multiplies) or to
    # run on blocks without workload (a zero resolution or expansion, a
    # bool kernel).
    @pytest.mark.parametrize("key, values", [
        ("depth", [0, 6, 7]),
        ("depth", [6.5, 7]),
        ("width", [-16, 32]),
        ("width", "16"),
        ("resolution", [0, 32]),
        ("expand", [0, 1]),
        ("kernel", [True, 3]),
    ])
    def test_domain_values_must_be_positive_integers(self, tmp_path, runner,
                                                     key, values):
        path = write_toy_config(tmp_path, space={key: values})
        message = (f"space.{key} must be a list of positive integers, "
                   f"got {values!r}")
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == message
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code == 1
        assert f"Error: invalid config: {message}" in res.output
        assert not (tmp_path / "out").exists()

    # A value the evaluator cannot turn into finite workloads and prices
    # used to end in a traceback: a depth of 10^30 in an OverflowError of
    # layer_workloads (search, ablate-dissim) or a MemoryError (enumerate),
    # a compute frequency of 1e308 in one of f_c**3 (every command), and a
    # huge resolution, width, kernel or expand value in an OverflowError of
    # layer_workloads (every command).
    @pytest.mark.parametrize("space, message", [
        ({"depth": [6, 10**30]}, "space.depth: space.n_block x "
         f"max(space.depth) = {10**30} layers, more than 10000"),
        ({"depth": [6, 10**8]}, "space.depth: space.n_block x "
         f"max(space.depth) = {10**8} layers, more than 10000"),
        ({"n_block": 2, "depth": [6, 5001]}, "space.depth: space.n_block x "
         "max(space.depth) = 10002 layers, more than 10000"),
        ({"devices": [{"name": "toy-dev", "compute_freq_ghz": [0.5, 1.0e308],
                       "default_compute_idx": 1}]},
         "space.devices[0] ('toy-dev'): compute_freq_ghz prices to a "
         "throughput or power that is not finite"),
        ({"devices": [{"name": "toy-dev", "compute_freq_ghz": [0.5, 1.0],
                       "emc_freq_ghz": [0.4, 1.0e308],
                       "default_compute_idx": 1, "default_emc_idx": 0}]},
         "space.devices[0] ('toy-dev'): emc_freq_ghz prices to a "
         "throughput or power that is not finite"),
        ({"devices": [{"name": "toy-dev", "compute_freq_ghz": [0.5, 1.0]},
                      {"name": "far", "compute_freq_ghz": [1.0e200]}]},
         "space.devices[1] ('far'): compute_freq_ghz prices to a "
         "throughput or power that is not finite"),
        *(({key: [values[0], big]}, f"space.{key}: the largest backbone, "
           "every gene at its domain's maximum, has layer workloads that are "
           "not finite")
          for key, values, big in [("resolution", [32], 10**200),
                                   ("width", [16], 10**400),
                                   ("kernel", [3], 10**400),
                                   ("expand", [1], 10**400)]),
    ], ids=["depth-1e30", "depth-1e8", "layers", "compute-1e308",
            "emc-1e308", "other-device", "resolution-1e200", "width-1e400",
            "kernel-1e400", "expand-1e400"])
    @pytest.mark.parametrize("command", [["search"], ["enumerate"],
                                         ["ablate-dissim", "--gammas", "0"]])
    def test_value_that_cannot_be_priced_refused_at_parse(
            self, tmp_path, runner, space, message, command):
        path = write_toy_config(tmp_path, space=space)
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == message
        res = runner.invoke(main, [*command, "--config", str(path)])
        assert res.exit_code == 1
        assert res.output == f"Error: invalid config: {message}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("space", [
        {"width": [16, 10**300]}, {"resolution": [32, 10**150]},
        {"kernel": [3, 10**150]}, {"expand": [1, 10**300]}])
    def test_huge_value_with_finite_workloads_runs(self, tmp_path, runner,
                                                   space):
        path = write_toy_config(tmp_path, space=space)
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code == 0, res.output

    def test_deepest_space_within_the_bound_parses(self, tmp_path):
        path = write_toy_config(tmp_path, space={"n_block": 2,
                                                 "depth": [6, 5000]})
        assert load_config(str(path)).space.depth_domain == (6, 5000)

    @pytest.mark.parametrize("devices, message", [
        ([{"compute_freq_ghz": [0.5, 1.0]}],
         "space.devices[0] has no 'name'"),
        ([{"name": "toy-dev", "compute_freq_ghz": [0.5, 1.0]},
          {"name": "other", "emc_freq_ghz": [0.4]}],
         "space.devices[1] ('other') has no 'compute_freq_ghz'"),
        ([{"name": "toy-dev", "compute_freq_ghz": [0.5, 1.0]}, ["other"]],
         "space.devices[1] must be a mapping"),
    ])
    def test_device_entry_errors_name_the_entry(self, tmp_path, runner,
                                                devices, message):
        path = write_toy_config(tmp_path, space={"devices": devices})
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value) == message
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code == 1
        assert f"Error: invalid config: {message}" in res.output

    # Each mapping refuses a key it does not know; a misspelt device default
    # used to run silently at index 0.
    BLOCK = {"depth_idx": 1, "width_idx": 0, "kernel_idx": 0, "expand_idx": 0}

    @pytest.mark.parametrize("section, node, where, key", [
        ("space", {"devices": [{"name": "toy-dev", "compute_freq_ghz": [0.5, 1.0],
                                "default_compute": 1}]},
         "space.devices[0]", "default_compute"),
        ("ablate", {"backbone_seed": 3, "backbone_sed": 4}, "ablate",
         "backbone_sed"),
        ("ablate", {"backbone": {"resolution_idx": 0, "blocks": [BLOCK],
                                 "depth": 7}}, "ablate.backbone", "depth"),
        ("ablate", {"backbone": {"resolution_idx": 0,
                                 "blocks": [BLOCK, dict(BLOCK, kernel=3)]}},
         "ablate.backbone.blocks[1]", "kernel"),
    ])
    def test_unknown_keys_name_the_entry(self, tmp_path, section, node, where,
                                         key):
        path = write_toy_config(tmp_path, **{section: node})
        with pytest.raises(ConfigError) as info:
            load_config(str(path))
        assert str(info.value).startswith(f"{where}: unknown keys [{key!r}]")

    def test_nan_gamma_rejected(self, tmp_path):
        path = write_toy_config(tmp_path, ioe={"gamma": float("nan")})
        assert "gamma: .nan" in path.read_text(encoding="utf-8")
        with pytest.raises(ConfigError, match="gamma must be nonnegative"):
            load_config(str(path))

    # An infinite gamma used to run, and wrote an archive whose combined
    # hypervolumes all read 0.0; a number PyYAML reads as text failed on a
    # comparison that named no field.
    @pytest.mark.parametrize("section, name", [
        ("ioe", "gamma"), ("ioe", "keep_fraction"), ("ooe", "prune_fraction"),
        ("variation", "mutation_prob_per_gene"), ("variation", "crossover_prob"),
    ])
    @pytest.mark.parametrize("value", [math.inf, -math.inf, "5e-1", True])
    def test_engine_number_must_be_finite(self, section, name, value):
        doc = json.loads(json.dumps(TOY_DOC))
        doc.setdefault(section, {})[name] = value
        message = ("gamma must be nonnegative" if value == -math.inf
                   and name == "gamma" else f"{name} must be a finite number")
        with pytest.raises(ConfigError, match=message):
            parse_config(doc)

    @pytest.mark.parametrize("line, message", [
        ("gamma: .inf", "gamma must be a finite number, got inf"),
        # PyYAML reads 5e-1, without a dot, as a string.
        ("keep_fraction: 5e-1",
         "keep_fraction must be a finite number, got '5e-1'"),
    ])
    def test_ioe_number_refused_before_search(self, tmp_path, runner, line,
                                              message):
        name = line.split(":")[0]
        path = write_toy_config(tmp_path, ioe={name: "X"})
        path.write_text(path.read_text(encoding="utf-8").replace(
            f"{name}: X", line), encoding="utf-8")
        assert line in path.read_text(encoding="utf-8")
        res = runner.invoke(main, ["search", "--config", str(path)])
        assert res.exit_code == 1
        assert f"Error: invalid config: {message}" in res.output
        assert not (tmp_path / "out" / "archive.json").exists()

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


def table_without_fast_rows():
    # No row for the 1.0 GHz setting of toy-dev.
    return "".join(line for line in TOY_TABLE.splitlines(keepends=True)
                   if ",1.0,," not in line)


def table_with_a_cell(cell):
    header, first, *rest = TOY_TABLE.splitlines(keepends=True)
    fields = first.split(",")
    fields[4] = cell
    return "".join([header, ",".join(fields)] + rest)


BAD_TABLES = {
    "missing-setting": (table_without_fast_rows(),
                        "has no rows for device='toy-dev' f_c=1.0 f_m=None"),
    "unreadable-cell": (table_with_a_cell("abc"),
                        "could not convert string to float: 'abc'"),
    "short-row": (TOY_TABLE + "toy-dev,3.0,0.5\n",
                  "could not convert string to float: ''"),
}


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


class TestBadTable:
    @pytest.mark.parametrize("command", ["search", "enumerate",
                                         "ablate-dissim"])
    @pytest.mark.parametrize("table_name", sorted(BAD_TABLES))
    def test_refused_before_any_output(self, tmp_path, runner, command,
                                       table_name):
        text, message = BAD_TABLES[table_name]
        cfg_path, table = write_table_config(tmp_path)
        table.write_text(text, encoding="utf-8")
        res = runner.invoke(main, [command, "--config", str(cfg_path)])
        assert res.exit_code == 1
        assert isinstance(res.exception, SystemExit)
        assert f"Error: lookup table {table}" in res.output
        assert message in res.output
        assert "Traceback" not in res.output
        assert not (tmp_path / "out").exists()


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
        assert doc["schema_version"] == ar.SCHEMA_VERSION

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
        doc = load_json(str(out / "archive.json"))
        result = archive_doc_result(doc)
        ar.save_json(str(out / "archive2.json"),
                     ar.archive_header(result, doc["config_digest"], doc["seed"]),
                     [archive_text(line, objectives)
                      for _, line, objectives in result.rows])
        assert (out / "archive2.json").read_bytes() == \
            (out / "archive.json").read_bytes()

    def test_front_csv_round_trip(self, tmp_path, runner):
        cfg = write_toy_config(tmp_path)
        out = tmp_path / "out"
        res = runner.invoke(main, ["search", "--config", str(cfg)])
        assert res.exit_code == 0, res.output
        rows = ar.read_front_csv(str(out / "front.csv"))
        lines = []
        for row in rows:
            sol = front_solution_from_row(row)
            lines += [line for _, line in render_rows([solution_values(sol)])]
        ar.write_front_csv(str(out / "front2.csv"), lines)
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

            def wrapper(state):
                inner_cb(state)
                if state.generation == 1:
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
        # 4 backbones of 1 exit bit and 4 of 2, each pattern at 2 levels:
        # 4 * 1 * 2 + 4 * 3 * 2, not the cap's bound of 8 * 3 * 2 = 48.
        assert "evaluated 32 candidates" in res.output
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
        # What is printed is the text written to the file.
        assert res.output == (out / "report.json").read_text(encoding="utf-8")
        report = json.loads((out / "report.json").read_text())
        assert report["rod_a_over_b"] == 0.0
        assert report["rod_b_over_a"] == 0.0
        assert report["hv_a"] == report["hv_b"]

    @staticmethod
    def hand_front(path, energy_ratio="0.5"):
        """A one-row front.csv whose (mean_correct, energy_ratio) is
        (0.5, energy_ratio)."""
        header = ",".join(ar.FRONT_CSV_COLUMNS)
        row = {c: "0" for c in ar.FRONT_CSV_COLUMNS}
        row.update({"blocks": "0-0-0-0", "exit_bits": "1", "device": "d",
                    "acc": "0.5", "latency_ms": "1", "energy_mj": "1",
                    "mean_correct": "0.5", "energy_ratio": energy_ratio,
                    "latency_ratio": "0.5", "mean_dissimilarity": "1",
                    "n_exits": "1", "mean_exit_score": "0.125"})
        path.write_text(header + "\n" + ",".join(row[c] for c in
                                                 ar.FRONT_CSV_COLUMNS) + "\n",
                        encoding="utf-8")
        return str(path)

    def test_hand_front_pass_through(self, tmp_path, runner):
        # Single point (0.5, 0.5) against reference (0, 1) in a
        # (max, min) space: volume 0.5 * 0.5.
        path = self.hand_front(tmp_path / "tiny.csv")
        res = runner.invoke(main, ["metrics", path, path, "--reference", "0,1"])
        assert res.exit_code == 0, res.output
        report = json.loads(res.output)
        assert res.output == layout_text(report)
        assert report["hv_a"] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("cell, reference, value", [
        ("nan", "0,1", "nan"),
        ("0.5", "0,inf", "inf"),
    ])
    def test_non_finite_value_rejected(self, tmp_path, runner, cell,
                                       reference, value):
        path = self.hand_front(tmp_path / "f.csv", energy_ratio=cell)
        res = runner.invoke(main, ["metrics", path, path,
                                   "--reference", reference])
        assert res.exit_code == 1
        assert f"Error: objective value {value} is not finite" in res.output

    def test_overflowing_hypervolume_rejected(self, tmp_path, runner):
        # Both sides of the box are 1e308 wide: its volume is not a float.
        path = self.hand_front(tmp_path / "f.csv")
        res = runner.invoke(main, ["metrics", path, path,
                                   "--reference", "-1e308,1e308"])
        assert res.exit_code == 1
        assert ("Error: the box from the reference (-1e+308, 1e+308) to the "
                "front's upper corner has no finite volume") in res.output

    def test_one_objective_needs_mc_samples(self, tmp_path, runner):
        path = self.hand_front(tmp_path / "f.csv")
        args = ["metrics", path, path, "--objective", "mean_correct:max",
                "--reference", "0"]
        res = runner.invoke(main, args)
        assert res.exit_code == 1
        assert ("Error: exact hypervolume supports 2 or 3 objectives, got 1; "
                "give --mc-samples for a Monte Carlo estimate") in res.output
        res = runner.invoke(main, args + ["--mc-samples", "100"])
        assert res.exit_code == 0, res.output
        assert json.loads(res.output)["hv_a"] == 0.5

    def test_negative_mc_samples_rejected(self, tmp_path, runner):
        path = self.hand_front(tmp_path / "f.csv")
        res = runner.invoke(main, ["metrics", path, path, "--reference", "0,1",
                                   "--mc-samples", "-5"])
        assert res.exit_code == 2
        assert "Invalid value for '--mc-samples'" in res.output

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
        # What is printed is the text written to the file.
        text = (tmp_path / "out" / "ablation.json").read_text(encoding="utf-8")
        assert res.output == text
        doc = json.loads(text)
        assert [arm["gamma"] for arm in doc["arms"]] == [0.0, 1.0]
        assert len(doc["rod"]) == 2  # both directions of the single pair
        for arm in doc["arms"]:
            assert arm["archive_size"] >= 1
            assert arm["exit_fraction_spread"] >= 0.0

    def test_each_archive_entry_and_rod_pair_on_one_line(self, tmp_path,
                                                         runner):
        cfg = write_toy_config(tmp_path)
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                   "--gammas", "0,0.5,1"])
        assert res.exit_code == 0, res.output
        text = (tmp_path / "out" / "ablation.json").read_text(encoding="utf-8")
        doc = json.loads(text)
        assert text == layout_text(doc)
        assert lists_by_line(text, "archive") == \
            [arm["archive"] for arm in doc["arms"]]
        assert lists_by_line(text, "rod") == [doc["rod"]]
        assert len(doc["rod"]) == 6

    @pytest.mark.parametrize("gammas", ["0,x", "-1", "nan", "inf"])
    def test_malformed_gammas(self, tmp_path, runner, gammas):
        cfg = write_toy_config(tmp_path)
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                   "--gammas", gammas])
        assert res.exit_code != 0
        assert "Error:" in res.output
        assert isinstance(res.exception, SystemExit)
        assert not (tmp_path / "out" / "ablation.json").exists()

    # Ratios of dominance are keyed by gamma pair, so a repeated exponent
    # would run an arm whose comparisons the report cannot hold.
    @pytest.mark.parametrize("gammas", ["1,1", "0,-0", "0,1,0.0"])
    def test_repeated_gammas_rejected(self, tmp_path, runner, gammas):
        cfg = write_toy_config(tmp_path)
        res = runner.invoke(main, ["ablate-dissim", "--config", str(cfg),
                                   "--gammas", gammas])
        assert res.exit_code == 1
        assert "Error: gammas must be distinct" in res.output
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
