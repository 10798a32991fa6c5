"""End-to-end CLI workflows on a synthetic dataset."""

import json
import shutil

import pytest
from click.testing import CliRunner

from goe.cli import main


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A prepared dataset directory: synth + prepare already ran."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    runner = CliRunner()
    result = runner.invoke(main, ["synth", str(data), "--seed", "0"])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, [
        "prepare", str(data), "--id-classes", "0,1",
        "--test-id", "150", "--test-ood", "150",
    ])
    assert result.exit_code == 0, result.output
    assert (data / "split.json").exists()
    return data


def test_prepare_reports_ratio_and_sizes(workspace):
    runner = CliRunner()
    result = runner.invoke(main, [
        "prepare", str(workspace), "--id-classes", "0,1",
        "--test-id", "150", "--test-ood", "150",
    ])
    assert result.exit_code == 0
    assert "ID ratio: 0.6667" in result.output
    assert "train 40" in result.output


def test_annotate_writes_cache_and_pseudo_set(workspace):
    runner = CliRunner()
    result = runner.invoke(main, [
        "annotate", str(workspace), "--sample", "60", "--mock",
    ])
    assert result.exit_code == 0, result.output
    assert "flagged pseudo-OOD" in result.output
    assert "accuracy" in result.output
    assert (workspace / "annotations.jsonl").exists()
    assert (workspace / "pseudo_ood.json").exists()


def test_train_identifier_writes_run_artifacts(workspace, tmp_path):
    runner = CliRunner()
    out = tmp_path / "run-ident"
    result = runner.invoke(main, [
        "train", str(workspace), "--method", "goe_identifier",
        "--out", str(out), "--sample", "60",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["method"] == "goe_identifier"
    assert len(report["per_seed"]) == 1
    assert (out / "scores.csv").exists()
    assert (out / "params.bin").exists()


def test_generate_then_train_generator(workspace, tmp_path):
    runner = CliRunner()
    result = runner.invoke(main, ["generate", str(workspace), "--per-class", "10",
                                  "--mock"])
    assert result.exit_code == 0, result.output
    generated = (workspace / "generated.jsonl").read_text().strip().splitlines()
    assert len(generated) == 10

    out = tmp_path / "run-gen"
    result = runner.invoke(main, [
        "train", str(workspace), "--method", "goe_generator",
        "--out", str(out), "--provider", "centroid",
    ])
    assert result.exit_code == 0, result.output
    report = json.loads((out / "report.json").read_text())
    assert report["per_seed"][0]["pseudo_count"] == 10


def test_eval_recomputes_metrics(workspace, tmp_path):
    runner = CliRunner()
    out = tmp_path / "run-energy"
    result = runner.invoke(main, [
        "train", str(workspace), "--method", "energy", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["eval", str(out)])
    assert result.exit_code == 0, result.output
    assert "auroc" in result.output
    assert "stored means" in result.output


def test_export_scores_histogram(workspace, tmp_path):
    runner = CliRunner()
    out = tmp_path / "run-msp"
    result = runner.invoke(main, [
        "train", str(workspace), "--method", "msp", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    result = runner.invoke(main, ["export-scores", str(out), "--bins", "25"])
    assert result.exit_code == 0, result.output
    lines = (out / "hist.csv").read_text().strip().splitlines()
    assert len(lines) == 26


def test_compare_writes_results_table(workspace, tmp_path):
    runner = CliRunner()
    out = tmp_path / "compare"
    result = runner.invoke(main, [
        "compare", str(workspace), "--methods", "msp,energy",
        "--seeds", "0", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    table = (out / "results.md").read_text()
    assert "| msp |" in table
    assert "| energy |" in table


def test_sweep_count_cli(workspace, tmp_path):
    runner = CliRunner()
    out = tmp_path / "sweep"
    result = runner.invoke(main, [
        "sweep-count", str(workspace), "--counts", "0,5", "--seeds", "0",
        "--provider", "centroid", "--out", str(out),
    ])
    assert result.exit_code == 0, result.output
    rows = json.loads((out / "sweep.json").read_text())
    assert [row["count"] for row in rows] == [0, 5]


def test_train_without_split_fails_cleanly(tmp_path):
    runner = CliRunner()
    data = tmp_path / "fresh"
    result = runner.invoke(main, ["synth", str(data)])
    assert result.exit_code == 0
    result = runner.invoke(main, ["train", str(data), "--method", "energy"])
    assert result.exit_code != 0
    assert "goe prepare" in result.output


def test_replay_pipeline_is_byte_identical(tmp_path):
    """annotate --replay + train twice must produce identical report.json."""
    runner = CliRunner()
    data = tmp_path / "data"
    assert runner.invoke(main, ["synth", str(data)]).exit_code == 0
    assert runner.invoke(main, [
        "prepare", str(data), "--id-classes", "0,1",
        "--test-id", "150", "--test-ood", "150",
    ]).exit_code == 0

    # build the replay fixture with the offline mock, then forget the cache
    assert runner.invoke(main, [
        "annotate", str(data), "--sample", "60", "--mock",
    ]).exit_code == 0
    fixtures = tmp_path / "fixtures"
    fixtures.mkdir()
    shutil.copy(data / "annotations.jsonl", fixtures / "annotations.jsonl")
    (data / "annotations.jsonl").unlink()

    reports = []
    for run in ("one", "two"):
        result = runner.invoke(main, [
            "annotate", str(data), "--sample", "60",
            "--replay", str(fixtures / "annotations.jsonl"),
        ])
        assert result.exit_code == 0, result.output
        result = runner.invoke(main, [
            "train", str(data), "--method", "goe_identifier",
            "--out", str(tmp_path / f"run-{run}"), "--sample", "60",
        ])
        assert result.exit_code == 0, result.output
        reports.append((tmp_path / f"run-{run}" / "report.json").read_bytes())
    assert reports[0] == reports[1]


def test_synth_files_are_pinned(tmp_path):
    """Every file `goe synth --seed 0` writes, hashed as the per-node loop wrote them."""
    import hashlib

    data = tmp_path / "data"
    result = CliRunner().invoke(main, ["synth", str(data), "--seed", "0"])
    assert result.exit_code == 0, result.output
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(data.iterdir())}
    assert digests == {
        "edges.tsv": "30bf747c2866db45286b4b400075d4a15219cab324748378d86c7407ff6ecf89",
        "embeddings.bin": "9a496c59f4fddf6cfa3056d02ef7894ab1ab63868c9f344dc8f68503ea12f669",
        "manifest.json": "dfca1099e97ec91e8e7ada6701ba2be6cbae7c7468f83317a5847c3b5fbc15b3",
        "nodes.jsonl": "ea4018ab140026cd276057bdb983dc3f5067c155d17f105a4b7909d11e884873",
    }


@pytest.mark.parametrize("args", [["--dim", "1"], ["--dim", "0"], ["--nodes-per-class", "2"],
                                  ["--nodes-per-class", "-3"], ["--nodes-per-class", "0"]])
def test_synth_rejects_bad_arguments_in_one_line(tmp_path, args):
    data = tmp_path / "data"
    result = CliRunner().invoke(main, ["synth", str(data), *args])
    assert result.exit_code == 1
    assert result.output.startswith("Error: planted graph needs ")
    assert result.output.count("\n") == 1
    assert not data.exists()


@pytest.fixture(scope="module")
def small_workspace(tmp_path_factory):
    """A small planted dataset at ``<root>/data``, prepared with ID classes 0,1."""
    root = tmp_path_factory.mktemp("cli-small")
    runner = CliRunner()
    data = str(root / "data")
    assert runner.invoke(main, ["synth", data, "--nodes-per-class", "100"]).exit_code == 0
    assert runner.invoke(main, ["prepare", data, "--id-classes", "0,1",
                                "--test-id", "60", "--test-ood", "60"]).exit_code == 0
    return root


def _train_digests(root, method, out, *extra):
    """sha256 of report.json, scores.csv and params.bin of one `goe train` in ``root``.

    The dataset path is relative, so the config hash is machine-independent.
    """
    import hashlib
    import os

    cwd = os.getcwd()
    os.chdir(root)
    try:
        result = CliRunner().invoke(main, [
            "train", "data", "--method", method, "--out", str(out), "--sample", "60",
            "--provider", "centroid", "--max-epochs", "30", "--patience", "10", *extra])
    finally:
        os.chdir(cwd)
    assert result.exit_code == 0, result.output
    return [hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in ("report.json", "scores.csv", "params.bin")]


TRAIN_PINS = {   # report.json, scores.csv, params.bin
    "msp": ["8e1d28a23e3074c87e0733b950552faa155d7d79d464a5e12dedf4eb7e711ef3",
            "ad0da8a23ba8286ddfa8b313c428cdcdea163b5a291accda34a4c72e7136cc97",
            "85f3bc5e36c543521812ea35260aa463a3075d2d252b698b5d6bbf1ec027a1d2"],
    "entropy": ["d2c17bfc287cea08ccbda195925c73a5a59843aebbdd0c85d299340dcdb95e21",
                "d8a3d67d60d08768a82ebb94a31d0ca9ef376fd53c72d85a93ee72d0898323f5",
                "85f3bc5e36c543521812ea35260aa463a3075d2d252b698b5d6bbf1ec027a1d2"],
    "energy": ["a379457fcd9193d683e08d2dfdf41064abc9d38fc0a0f1f5604a9e622c07b8b2",
               "5c36acd7b90285d77a105a07f6baa0536d32fefd758c4e37c7f9430fc4ee476d",
               "4c56609b3d6a904e31b9f69dc860969db75eb3ca51e0e1e216e6a1bd3c3889dd"],
    "energy_prop": ["2926d855523a9bb0175434d7fe166f391f4bbcb753e193c19c10577c30d1323b",
                    "a9952a6988e69555d1d8bde4ef0f24a516a2b38e28bb7b755e81c9683f088711",
                    "05d5007b383659bbb7ab40b70fad994aab2357da095853c0a1a584bebda0eeea"],
    "goe_identifier": ["f25a5b571f5e505a22510381889178779f1d8bc8043e0fcc094e4f28e808ef7e",
                       "03ae61150b2d57c79b36d894cdad117a1139195222c37a19d26f131fd8579d76",
                       "6a778b61418539050e115f63bf86ca7793745aa87aeb1944d3616e8aaf909197"],
    "goe_generator": ["35302efb3efa0d46d1f9cce72f08b6e4cda33cc5dc0e74f8e02b2a53b50bb182",
                      "3f4e82e8b67a6d0e1eb031e94c613af2b552caedc330f5b8cdb0240dada66046",
                      "35b0f6676a69000570de721c710e9d6e1ee67ccf74961d45354565a96a006e2d"],
    "kplus1": ["93257ecaf998190da1c97274363bd2ceceebcdc4f19d4a3087666e0076be2b4d",
               "057788162483d6d6029acd39831e1453e12e8f92276059ba667eaf40fba19ea4",
               "c6513e5e70249cc6a2b801b7fe1803182a4b6037b127a365493d756589e70d61"],
    "binary_head": ["45f5379c0ef5e594d63a4fad0f0d5e03070cb536c23e2a0652bf8ec999cd82cc",
                    "13d7e23cc066967e0fcbcb3e72d75adf880a28edeb39c38bdf622fe08625f6a8",
                    "4c56609b3d6a904e31b9f69dc860969db75eb3ca51e0e1e216e6a1bd3c3889dd"],
    "binary_head --pseudo-val": ["aa137290a8c9650e4cd28dd32e39ddb4021f27568a0c1b3ca30953026d12fca6",
                                 "8e5c0e0747bf3c294f27e5afa1c103c0b32e90a9d06cad2d03e7dc5c3f2c04b4",
                                 "21f10572490c10664edf42cca1b14c8f7cefa5eb51bb515df0f51ea9514e81c7"],
}


@pytest.mark.parametrize("method", list(TRAIN_PINS))
def test_train_files_are_pinned(small_workspace, tmp_path, method):
    """`goe train` files for every method, hashed as its own copy of the run writer wrote them."""
    name, *extra = method.split()
    assert _train_digests(small_workspace, name, tmp_path / "run", *extra) == TRAIN_PINS[method]


def _write_config(path, **overrides):
    config = {"dataset_dir": "ignored", "id_classes": [0, 1], "method": "energy",
              "output_dir": "ignored", **overrides}
    path.write_text(json.dumps(config))
    return str(path)


@pytest.mark.parametrize("command", [["train", "--method", "energy"],
                                     ["compare", "--methods", "energy", "--seeds", "0"],
                                     ["sweep-count", "--counts", "0", "--seeds", "0"]])
def test_config_with_other_id_classes_fails_in_one_line(small_workspace, tmp_path, command):
    """The run trains on the split's classes, so a config naming others would mislabel it."""
    config = _write_config(tmp_path / "config.json", id_classes=[0, 2])
    name, *options = command
    result = CliRunner().invoke(main, [name, str(small_workspace / "data"), *options,
                                       "--config", config, "--out", str(tmp_path / "run")])
    assert result.exit_code == 1
    assert result.output.count("\n") == 1
    assert "id_classes [0, 2]" in result.output and "[0, 1]" in result.output
    assert not (tmp_path / "run").exists()


def test_config_with_an_unknown_key_fails_in_one_line(small_workspace, tmp_path):
    config = _write_config(tmp_path / "config.json", train={"hiden_dim": 8})
    result = CliRunner().invoke(main, ["train", str(small_workspace / "data"), "--method",
                                       "energy", "--config", config])
    assert result.exit_code == 1
    assert result.output == f"Error: {config}: unknown train key 'hiden_dim'\n"


@pytest.mark.parametrize("command", [["train", "--method", "energy"],
                                     ["compare", "--methods", "energy", "--seeds", "0"],
                                     ["sweep-count", "--counts", "0", "--seeds", "0"]])
def test_config_may_leave_out_the_fields_the_run_sets(small_workspace, tmp_path, command):
    """The run's dataset, method and output directory stand in for the file's."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"id_classes": [0, 1], "test_id_size": 60, "test_ood_size": 60,
                                  "train": {"max_epochs": 5, "patience": 5}}))
    name, *options = command
    out = tmp_path / "run"
    result = CliRunner().invoke(main, [name, str(small_workspace / "data"), *options,
                                       "--config", str(config), "--out", str(out)])
    assert result.exit_code == 0, result.output
    record = json.loads(next(out.rglob("config.json")).read_text())["config"]
    assert record["dataset_dir"] == str(small_workspace / "data")
    assert record["method"] == "energy"
    assert record["train"]["max_epochs"] == 5


def _edit_split(path, edit):
    split = json.loads(path.read_text())
    edit(split)
    path.write_text(json.dumps(split))


@pytest.mark.parametrize("edit, message", [
    (lambda s: s.update(test_id=s["test_id"] + s["train_id"][:10]),
     "split sets are not pairwise disjoint"),
    (lambda s: s["val_ood"].append(s["val_ood"][0] + 0.5),
     "val_ood is not a list of integer node ids"),
    (lambda s: s["test_ood"].append(10 ** 6), "split holds a node id outside the graph"),
    (lambda s: s["train_id"].append(s["test_ood"][0] + 0.0),
     "train_id is not a list of integer node ids"),
], ids=["overlapping", "fractional", "out_of_range", "float"])
@pytest.mark.parametrize("command", [["train", "--method", "energy", "--out"],
                                     ["annotate", "--sample", "10", "--cache"],
                                     ["compare", "--methods", "energy", "--seeds", "0", "--out"]])
def test_split_that_does_not_fit_the_dataset_fails_in_one_line(small_workspace, tmp_path,
                                                               edit, message, command):
    """Each command's last option names the file or directory it would write."""
    data = tmp_path / "data"
    shutil.copytree(small_workspace / "data", data)
    _edit_split(data / "split.json", edit)
    name, *options = command
    result = CliRunner().invoke(main, [name, str(data), *options, str(tmp_path / "run")])
    assert result.exit_code == 1
    assert result.output == f"Error: {data / 'split.json'}: {message}\n"
    assert not (tmp_path / "run").exists()
