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
                "12e13d18400f12f67546e7600e41d0e5f66d5a7c2911c0bbd472e98d3a598b81",
                "85f3bc5e36c543521812ea35260aa463a3075d2d252b698b5d6bbf1ec027a1d2"],
    "energy": ["a379457fcd9193d683e08d2dfdf41064abc9d38fc0a0f1f5604a9e622c07b8b2",
               "25e147b7f48fc658246acb972ff80378c8b685c5359b87bec3bf8559a9e986bc",
               "4c56609b3d6a904e31b9f69dc860969db75eb3ca51e0e1e216e6a1bd3c3889dd"],
    "energy_prop": ["2926d855523a9bb0175434d7fe166f391f4bbcb753e193c19c10577c30d1323b",
                    "817f447c327e5144825ec90c241d6a2073d2423d910256c60da4c56de34d73e4",
                    "05d5007b383659bbb7ab40b70fad994aab2357da095853c0a1a584bebda0eeea"],
    "goe_identifier": ["f25a5b571f5e505a22510381889178779f1d8bc8043e0fcc094e4f28e808ef7e",
                       "845985f446122d718eccbf637531f2d9445814772ad30c39763f7a62f9e78556",
                       "6a778b61418539050e115f63bf86ca7793745aa87aeb1944d3616e8aaf909197"],
    "goe_generator": ["35302efb3efa0d46d1f9cce72f08b6e4cda33cc5dc0e74f8e02b2a53b50bb182",
                      "334c3595f0ef252352790aa70d9a179676f7a2c9a35a40aab3e271164778550f",
                      "35b0f6676a69000570de721c710e9d6e1ee67ccf74961d45354565a96a006e2d"],
    "kplus1": ["93257ecaf998190da1c97274363bd2ceceebcdc4f19d4a3087666e0076be2b4d",
               "414ca86457adb2aa3a5a8ba5cad4fdff519d6a2bf9d798f8796ae9c022fa6d7c",
               "c6513e5e70249cc6a2b801b7fe1803182a4b6037b127a365493d756589e70d61"],
    "binary_head": ["45f5379c0ef5e594d63a4fad0f0d5e03070cb536c23e2a0652bf8ec999cd82cc",
                    "db8065f36414ef5762700731a91bc6ac4990122784614ff1a9b171759e4f16fd",
                    "4c56609b3d6a904e31b9f69dc860969db75eb3ca51e0e1e216e6a1bd3c3889dd"],
    "binary_head --pseudo-val": ["aa137290a8c9650e4cd28dd32e39ddb4021f27568a0c1b3ca30953026d12fca6",
                                 "88f5fcdac52453c7aee7566f1544dc19f03c3a231c7438e6ad4e0f1711e47379",
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


def _edit_json(path, edit):
    data = json.loads(path.read_text())
    edit(data)
    path.write_text(json.dumps(data))
    return path


_QUICK = ["--max-epochs", "5", "--patience", "5"]


def _train_run(data, out):
    """A finished `goe train` run in ``out``; returns ``out``."""
    result = CliRunner().invoke(main, ["train", str(data), "--method", "energy",
                                       "--out", str(out), *_QUICK])
    assert result.exit_code == 0, result.output
    return out


def _config_file(tmp, **fields):
    path = tmp / "config.json"
    path.write_text(json.dumps({"id_classes": [0, 1], **fields}))
    return str(path)


def _train_on_edited(name, edit):
    """A setup that edits the dataset copy's ``name`` and trains on it."""
    return lambda d, t: ["train", _edit_json(d / name, edit).parent, "--method", "energy"]


def _train_generator_on_a_numeric_title(data, tmp):
    (data / "generated.jsonl").write_text(
        json.dumps({"category": "Gamma Morphology", "title": "t", "abstract": "a"}) + "\n"
        + json.dumps({"category": "Gamma Morphology", "title": 7, "abstract": "a"}) + "\n")
    return ["train", data, "--method", "goe_generator", *_QUICK]


def _train_generator_on_an_empty_file(data, tmp):
    (data / "generated.jsonl").write_text("")
    return ["train", data, "--method", "goe_generator", *_QUICK]


_LATIN1_LINE = '{"category": "Gamma Morphology", "title": "\u00e9", "abstract": "a"}\n'.encode(
    "latin-1")


def _train_generator_on_latin1(name):
    """A setup that trains goe_generator after writing ``name`` in the dataset copy in latin-1."""
    def setup(data, tmp):
        (data / "generated.jsonl").write_text(json.dumps(
            {"category": "Gamma Morphology", "title": "t", "abstract": "a"}) + "\n")
        (data / name).write_bytes(_LATIN1_LINE)
        return ["train", data, "--method", "goe_generator", *_QUICK]
    return setup


def _train_generator_on_foreign_vectors(data, tmp):
    """goe_generator on a precomputed file that holds no vector for the generated text."""
    (data / "generated.jsonl").write_text(json.dumps(
        {"category": "Gamma Morphology", "title": "t", "abstract": "a"}) + "\n")
    (data / "vectors.jsonl").write_text(json.dumps({"key": "0" * 64, "vector": [1.0] * 16}) + "\n")
    return ["train", data, "--method", "goe_generator", *_QUICK,
            "--provider", "precomputed", "--provider-path", data / "vectors.jsonl"]


def _replay_from(name, content: bytes):
    """A setup that annotates, replaying from a file ``name`` holding ``content``."""
    def setup(data, tmp):
        (tmp / name).write_bytes(content)
        return ["annotate", data, "--sample", "10", "--replay", tmp / name]
    return setup


def _generator_config(**fields):
    """A setup that trains goe_generator with a config file holding ``fields``."""
    return lambda d, t: ["train", d, "--method", "goe_generator", "--config",
                         _config_file(t, **fields)]


def _eval_with_a_listed_file_missing(data, tmp):
    run = _train_run(data, tmp / "run")
    (run / "scores.csv").unlink()
    return ["eval", run]


def _eval_with_the_last_seed_empty(data, tmp):
    """A three-seed run whose last listed scores.csv holds only its header."""
    result = CliRunner().invoke(main, ["compare", str(data), "--methods", "energy",
                                       "--seeds", "0,1,2", "--out", str(tmp / "runs"), *_QUICK])
    assert result.exit_code == 0, result.output
    run = tmp / "runs" / "energy"
    (run / "seed-2" / "scores.csv").write_text("node_id,is_ood_truth,method,score\n")
    return ["eval", run]


def _nodes_not_utf8(data, tmp):
    raw = bytearray((data / "nodes.jsonl").read_bytes())
    raw[raw.index(b'"text"') + 10] = 0xE9
    (data / "nodes.jsonl").write_bytes(bytes(raw))
    return ["prepare", data, "--id-classes", "0,1"]


def _run_with_edited(command, name, content: str):
    """A setup that trains a run, overwrites its file ``name`` and runs ``command`` on it."""
    def setup(data, tmp):
        run = _train_run(data, tmp / "run")
        (run / name).write_text(content)
        return [command, run]
    return setup


# (case id, setup(data, tmp) -> argv, a fragment of the one error line)
INPUT_FAULTS = [
    ("prepare-unknown-class", lambda d, t: ["prepare", d, "--id-classes", "0,9"],
     "Error: unknown label value 9"),
    ("prepare-test-set-too-large",
     lambda d, t: ["prepare", d, "--id-classes", "0,1", "--test-id", "100000"],
     "insufficient ID nodes"),
    ("annotate-sample-too-large", lambda d, t: ["annotate", d, "--sample", "100000"],
     "smaller than sample size (100000)"),
    ("annotate-sample-zero", lambda d, t: ["annotate", d, "--sample", "0"],
     "llm.sample_size must be at least 1"),
    ("annotate-replay-not-a-cache",
     lambda d, t: ["annotate", d, "--replay", d / "nodes.jsonl"], "line 1 is not a chat record"),
    ("annotate-unknown-class", lambda d, t: ["annotate", d, "--id-classes", "0,9"],
     "Error: unknown label value 9"),   # the flag's fault, so split.json goes unnamed
    ("generate-per-class-zero", lambda d, t: ["generate", d, "--per-class", "0"],
     "llm.per_class must be at least 1"),
    ("train-dropout", lambda d, t: ["train", d, "--method", "energy", "--dropout", "0.99999999"],
     "keep probability"),
    ("compare-dropout", lambda d, t: ["compare", d, "--methods", "energy", "--seeds", "0",
                                      "--dropout", "0.99999999"], "keep probability"),
    ("sweep-count-dropout", lambda d, t: ["sweep-count", d, "--counts", "0", "--seeds", "0",
                                          "--dropout", "0.99999999"], "keep probability"),
    ("patience-over-max-epochs",
     lambda d, t: ["train", d, "--method", "energy", "--patience", "300"],
     "patience must not exceed max_epochs"),
    ("remote-without-endpoint",
     lambda d, t: ["train", d, "--method", "goe_identifier", "--remote"], "GOE_LLM_BASE_URL"),
    ("config-sizes-too-large",
     lambda d, t: ["compare", d, "--methods", "energy", "--seeds", "0",
                   "--config", _config_file(t, test_id_size=100000)], "insufficient ID nodes"),
    ("zero-epochs", lambda d, t: ["train", d, "--method", "energy", "--max-epochs", "0",
                                  "--patience", "0"], "max_epochs must be at least 1"),
    ("negative-weight-decay",
     lambda d, t: ["train", d, "--method", "energy", "--weight-decay", "-1"],
     "weight_decay must be at least 0"),
    ("zero-hidden-dim", lambda d, t: ["train", d, "--method", "energy", "--hidden-dim", "0"],
     "hidden_dim must be at least 1"),
    ("repeated-seeds", lambda d, t: ["compare", d, "--methods", "energy", "--seeds", "0,0"],
     "seeds must be distinct"),
    ("seeds-not-integers",
     lambda d, t: ["compare", d, "--methods", "energy", "--seeds", "0,a"],
     "'0,a' is not a comma-separated list of integers"),
    ("no-exposure-weights",
     lambda d, t: ["train", d, "--method", "goe_identifier",
                   "--config", _config_file(t, exposure_weights=[])],
     "exposure_weights must be a non-empty list"),
    ("negative-exposure-weight",
     lambda d, t: ["train", d, "--method", "goe_identifier",
                   "--config", _config_file(t, exposure_weights=[-0.5])],
     "exposure_weights must be a non-empty list of weights >= 0, got [-0.5]"),
    ("identifier-sample-zero",
     lambda d, t: ["train", d, "--method", "goe_identifier", "--sample", "0"],
     "llm.sample_size must be at least 1"),
    ("manifest-float-dim", _train_on_edited("manifest.json",
                                            lambda m: m.update(embedding_dim=16.9)),
     "manifest.json: embedding_dim must be an integer, got 16.9"),
    ("manifest-string-count", _train_on_edited("manifest.json",
                                               lambda m: m.update(node_count="300")),
     'manifest.json: node_count must be an integer, got "300"'),
    ("manifest-string-names", _train_on_edited("manifest.json",
                                               lambda m: m.update(category_names="Alpha")),
     'manifest.json: category_names must be a list of strings, got "Alpha"'),
    ("manifest-without-object-kind", _train_on_edited("manifest.json",
                                                      lambda m: m.pop("object_kind")),
     "manifest.json: object_kind must be a string, got nothing"),
    ("split-float-seed", _train_on_edited("split.json", lambda s: s.update(seed=1.7)),
     "split.json: seed is not an integer"),
    ("split-without-seed", _train_on_edited("split.json", lambda s: s.pop("seed")),
     "split.json: seed is not an integer"),
    ("split-boolean-seed", _train_on_edited("split.json", lambda s: s.update(seed=True)),
     "split.json: seed is not an integer"),
    ("split-float-class", _train_on_edited("split.json",
                                           lambda s: s.update(id_classes=[0, 1.9])),
     "split.json: id_classes is not a list of integer label values"),
    ("generated-numeric-title", _train_generator_on_a_numeric_title,
     "generated.jsonl: line 2 is not a generated node: no 'title' of type str"),
    ("eval-without-run-record", lambda d, t: ["eval", t], "config.json"),
    ("export-without-run-record", lambda d, t: ["export-scores", t], "config.json"),
    ("eval-listed-file-missing", _eval_with_a_listed_file_missing, "scores.csv"),
    ("generated-empty-file", _train_generator_on_an_empty_file,
     "generated.jsonl holds no generated nodes"),
    ("config-unknown-edge-mode", _generator_config(edge_mode="bogus"),
     "edge_mode must be 'none' or 'knn', got 'bogus'"),
    ("config-negative-knn-k", _generator_config(edge_mode="knn", knn_k=-3),
     "knn_k must be at least 0, got -3"),
    ("config-prop-alpha-above-one", _generator_config(prop_alpha=1.5),
     "prop_alpha must be in [0, 1], got 1.5"),
    ("config-negative-prop-iterations", _generator_config(prop_iterations=-1),
     "prop_iterations must be at least 0, got -1"),
    ("config-knn-k-not-below-node-count", _generator_config(edge_mode="knn", knn_k=300),
     "knn_k must be at least 0 and below the graph's 300 nodes, got 300"),
    ("annotate-replay-not-utf8", _replay_from("latin1.jsonl", _LATIN1_LINE),
     "latin1.jsonl is not UTF-8 text"),
    ("generated-not-utf8", _train_generator_on_latin1("generated.jsonl"),
     "generated.jsonl is not UTF-8 text"),
    ("precomputed-not-utf8",
     lambda d, t: _train_generator_on_latin1("vectors.jsonl")(d, t) + [
         "--provider", "precomputed", "--provider-path", d / "vectors.jsonl"],
     "vectors.jsonl is not UTF-8 text"),
    ("precomputed-without-a-generated-text", _train_generator_on_foreign_vectors,
     "vectors.jsonl: no embedding for text hash "),
    ("annotate-replay-miss", _replay_from("empty.jsonl", b""),
     "empty.jsonl: no cached response for prompt in replay mode"),
    ("export-zero-bins", lambda d, t: ["export-scores", _train_run(d, t / "run"), "--bins", "0"],
     "--bins must be at least 1, got 0"),
    ("annotate-mock-and-remote", lambda d, t: ["annotate", d, "--mock", "--remote"],
     "give at most one of --mock, --replay and --remote"),
    ("train-replay-and-remote",
     lambda d, t: ["train", d, "--method", "goe_identifier", "--remote",
                   "--replay", d / "nodes.jsonl"],
     "give at most one of --mock, --replay and --remote"),
    ("dataset-nodes-not-utf8", _nodes_not_utf8, "nodes.jsonl is not UTF-8 text"),
    ("eval-run-record-not-json", _run_with_edited("eval", "config.json", "{not json"),
     "config.json is not JSON"),
    ("export-run-record-without-artifacts",
     _run_with_edited("export-scores", "config.json", '{"config": {}}'),
     "config.json is not a run record: it has no list of artifacts"),
    ("export-run-record-lists-no-scores",
     _run_with_edited("export-scores", "config.json", '{"artifacts": ["report.json"]}'),
     "config.json lists no scores.csv"),
    ("eval-report-not-json", _run_with_edited("eval", "report.json", "{not json"),
     "report.json is not JSON"),
    ("eval-report-without-means", _run_with_edited("eval", "report.json", "[1]"),
     "report.json is not a report: it has no object of means"),
    ("eval-empty-scores-file", _run_with_edited("eval", "scores.csv", ""),
     "scores.csv holds no scores"),
    ("eval-later-seed-empty", _eval_with_the_last_seed_empty,
     "seed-2/scores.csv holds no scores"),
    ("eval-non-numeric-score",
     _run_with_edited("eval", "scores.csv",
                      "node_id,is_ood_truth,method,score\n0,0,energy,1.5\n1,1,energy,abc\n"),
     "scores.csv: line 3 is not a score row: could not convert string to float: 'abc'"),
    ("eval-scores-without-truth-column",
     _run_with_edited("eval", "scores.csv", "node_id,method,score\n0,energy,1.5\n"),
     "scores.csv: line 1 has no 'is_ood_truth' column"),
    ("export-non-numeric-score",
     _run_with_edited("export-scores", "scores.csv",
                      "node_id,is_ood_truth,method,score\n0,0,energy,abc\n"),
     "scores.csv: line 2 is not a score row: could not convert string to float: 'abc'"),
]


@pytest.mark.parametrize("setup, fragment", [case[1:] for case in INPUT_FAULTS],
                         ids=[case[0] for case in INPUT_FAULTS])
def test_input_fault_fails_in_one_line(small_workspace, tmp_path, monkeypatch, setup, fragment):
    """A bad flag, config value or input file prints one `Error:` line and exits 1."""
    monkeypatch.delenv("GOE_LLM_BASE_URL", raising=False)
    data = tmp_path / "data"
    shutil.copytree(small_workspace / "data", data)
    work = tmp_path / "work"
    work.mkdir()
    argv = [str(arg) for arg in setup(data, work)]
    result = CliRunner().invoke(main, argv)
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: ")
    assert result.output.count("\n") == 1
    assert fragment in result.output


def test_a_fault_inside_a_run_keeps_its_traceback(small_workspace, tmp_path, monkeypatch):
    """Only input faults become one line; a plain ValueError from the run is a bug in goe."""
    from goe import InputError, harness

    def broken(*args, **kwargs):
        raise ValueError("a bug inside the run")

    monkeypatch.setattr(harness, "run_seed", broken)
    result = CliRunner().invoke(main, ["train", str(small_workspace / "data"), "--method",
                                       "energy", "--out", str(tmp_path / "run")])
    assert type(result.exception) is ValueError and not isinstance(result.exception, InputError)
    assert str(result.exception) == "a bug inside the run"
    assert result.exc_info[2] is not None
    assert "Error:" not in result.output


def test_config_without_sizes_takes_them_from_the_split(small_workspace, tmp_path):
    out = tmp_path / "run"
    result = CliRunner().invoke(main, [
        "compare", str(small_workspace / "data"), "--methods", "energy", "--seeds", "0",
        "--config", _config_file(tmp_path, train={"max_epochs": 5, "patience": 5}),
        "--out", str(out)])
    assert result.exit_code == 0, result.output
    record = json.loads((out / "energy" / "config.json").read_text())["config"]
    assert [record[name] for name in ("train_per_class", "val_per_class", "test_id_size",
                                      "test_ood_size")] == [20, 10, 60, 60]


def test_eval_reads_only_the_seeds_of_the_last_run(small_workspace, tmp_path):
    """A rerun into the same directory leaves the earlier seeds' files; eval skips them."""
    runner = CliRunner()
    out = tmp_path / "rr"
    for seeds in ("0,1", "5"):
        result = runner.invoke(main, ["compare", str(small_workspace / "data"), "--methods",
                                      "energy", "--seeds", seeds, "--out", str(out), *_QUICK])
        assert result.exit_code == 0, result.output
    assert (out / "energy" / "seed-0" / "scores.csv").exists()
    result = runner.invoke(main, ["eval", str(out / "energy")])
    assert result.exit_code == 0, result.output
    assert [line.split(":")[0] for line in result.output.splitlines()] == ["seed-5",
                                                                          "stored means"]
    result = runner.invoke(main, ["export-scores", str(out / "energy")])
    assert result.exit_code == 0, result.output
    assert "seed-5" in result.output


def test_a_failed_rerun_leaves_no_run_record(small_workspace, tmp_path):
    """A train that fails into an earlier run's directory leaves eval nothing to report."""
    data = tmp_path / "data"
    shutil.copytree(small_workspace / "data", data)
    run = _train_run(data, tmp_path / "r")
    (data / "generated.jsonl").write_text("{not json\n")
    result = CliRunner().invoke(main, ["train", str(data), "--method", "goe_generator",
                                       "--out", str(run), *_QUICK])
    assert result.exit_code == 1 and "generated.jsonl" in result.output
    result = CliRunner().invoke(main, ["eval", str(run)])
    assert result.exit_code == 1, result.output
    assert result.output.startswith("Error: ") and result.output.count("\n") == 1
    assert (run / "scores.csv").exists()   # listed artifacts are never deleted


def test_a_failed_experiment_clears_the_earlier_record(small_workspace, tmp_path, monkeypatch):
    from goe import harness

    out = tmp_path / "rr"
    argv = ["compare", str(small_workspace / "data"), "--methods", "energy", "--seeds", "0",
            "--out", str(out), *_QUICK]
    assert CliRunner().invoke(main, argv).exit_code == 0
    assert (out / "energy" / "report.json").exists()

    def broken(*args, **kwargs):
        raise ValueError("a bug inside the run")

    monkeypatch.setattr(harness, "run_seed", broken)
    assert isinstance(CliRunner().invoke(main, argv).exception, ValueError)
    assert sorted(path.name for path in (out / "energy").iterdir()) == ["seed-0"]


def test_generator_on_a_generated_file_never_parses_the_chat_cache(small_workspace, tmp_path,
                                                                   monkeypatch):
    """With generated.jsonl on disk, goe_generator asks no chat model, so it opens no cache."""
    from goe import llm

    data = tmp_path / "data"
    shutil.copytree(small_workspace / "data", data)
    runner = CliRunner()
    for argv in (["annotate", str(data), "--sample", "60", "--mock"],
                 ["generate", str(data), "--per-class", "10", "--mock"]):
        assert runner.invoke(main, argv).exit_code == 0
    loads = []
    real_load = llm.ChatCache._load

    def counted(cache):
        loads.append(cache.path)
        real_load(cache)

    monkeypatch.setattr(llm.ChatCache, "_load", counted)
    result = runner.invoke(main, ["compare", str(data), "--methods", "goe_generator",
                                  "--seeds", "0,1,2", "--provider", "centroid",
                                  "--out", str(tmp_path / "cmp"), *_QUICK])
    assert result.exit_code == 0, result.output
    assert loads == []


@pytest.mark.parametrize("command", sorted(main.commands))
def test_every_command_renders_its_help(command):
    """Each option a command takes, shared declarations included, is listed once."""
    import re

    result = CliRunner().invoke(main, [command, "--help"])
    assert result.exit_code == 0, result.output
    for param in main.commands[command].params:
        for name in param.opts:
            if name.startswith("--"):
                assert len(re.findall(rf"(?<![\w-]){name}(?![\w-])", result.output)) == 1, name
