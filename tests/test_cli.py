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
