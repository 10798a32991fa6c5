"""Experiment orchestration: configs, reports, reproducibility, sweeps."""

import json

import numpy as np
import pytest

from goe.gcn import TrainConfig
from goe.graph import make_class_split, save_dataset
from goe.harness import (
    ExperimentConfig,
    LlmSettings,
    aggregate_report,
    export_histogram,
    format_results_table,
    read_scores_csv,
    run_experiment,
    run_seed,
    sweep_pseudo_count,
    write_scores_csv,
)


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory, planted):
    graph, manifest = planted
    directory = tmp_path_factory.mktemp("planted-data")
    save_dataset(graph, manifest, directory)
    return directory


def _config(dataset_dir, out_dir, method="energy", seeds=(0,), **overrides):
    cfg = ExperimentConfig(
        dataset_dir=str(dataset_dir), id_classes=[0, 1], method=method,
        output_dir=str(out_dir), seeds=list(seeds),
        llm=LlmSettings(client="mock", sample_size=60, provider="centroid"),
        test_id_size=150, test_ood_size=150,
    )
    for key, value in overrides.items():
        setattr(cfg, key, value)
    return cfg


class TestExperimentConfig:
    def test_dict_roundtrip(self, dataset_dir, tmp_path):
        cfg = _config(dataset_dir, tmp_path, method="goe_identifier", seeds=(0, 1))
        clone = ExperimentConfig.from_dict(cfg.to_dict())
        assert clone.to_dict() == cfg.to_dict()

    def test_hash_ignores_output_dir(self, dataset_dir, tmp_path):
        a = _config(dataset_dir, tmp_path / "a")
        b = _config(dataset_dir, tmp_path / "b")
        assert a.config_hash() == b.config_hash()

    def test_hash_sensitive_to_method(self, dataset_dir, tmp_path):
        a = _config(dataset_dir, tmp_path, method="energy")
        b = _config(dataset_dir, tmp_path, method="msp")
        assert a.config_hash() != b.config_hash()

    def test_unknown_method_rejected(self, dataset_dir, tmp_path):
        with pytest.raises(ValueError):
            _config(dataset_dir, tmp_path, method="noscore").validate()

    def test_json_roundtrip(self, dataset_dir, tmp_path):
        cfg = _config(dataset_dir, tmp_path)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg.to_dict()))
        assert ExperimentConfig.from_json(path).to_dict() == cfg.to_dict()


def test_config_hash_is_pinned():
    """The hashes of the hand-listed ``TrainConfig.to_dict``: deriving the dict
    from the dataclass fields must not move a recorded ``config_hash``."""
    default = ExperimentConfig(dataset_dir="data/planted", id_classes=[0, 1],
                               method="goe_identifier", output_dir="out")
    custom = ExperimentConfig(
        dataset_dir="data/planted", id_classes=[0, 2], method="energy_prop",
        output_dir="elsewhere", seeds=[3, 4],
        train=TrainConfig(hidden_dim=16, dropout=0.25, max_epochs=50, patience=10, seed=7),
        llm=LlmSettings(client="replay", per_class=5), exposure_weights=[0.1],
    )
    assert default.config_hash() == "4c98e4884227a1d8"
    assert custom.config_hash() == "a3fa6c343418f0c3"
    assert ExperimentConfig.from_dict(custom.to_dict()).train == custom.train


class TestAggregateReport:
    def test_mean_and_sample_std(self):
        per_seed = [
            {"seed": 0, "id_acc": 0.9, "auroc": 0.8, "aupr": 0.7, "fpr_at_95": 0.3},
            {"seed": 1, "id_acc": 0.8, "auroc": 0.6, "aupr": 0.5, "fpr_at_95": 0.5},
        ]
        report = aggregate_report("energy", "h", per_seed)
        assert report.mean["auroc"] == pytest.approx(0.7)
        assert report.std["auroc"] == pytest.approx(np.std([0.8, 0.6], ddof=1))

    def test_std_absent_for_single_seed(self):
        per_seed = [{"seed": 0, "id_acc": 1, "auroc": 1, "aupr": 1, "fpr_at_95": 0}]
        report = aggregate_report("energy", "h", per_seed)
        assert report.std is None
        assert "std" not in report.to_dict()


def test_scores_csv_roundtrip(tmp_path):
    rows = [
        {"node_id": 1, "is_ood_truth": 0, "method": "energy", "score": -3.25},
        {"node_id": 2, "is_ood_truth": 1, "method": "energy", "score": 0.125},
    ]
    path = tmp_path / "scores.csv"
    write_scores_csv(rows, path)
    assert read_scores_csv(path) == rows


def test_export_histogram(tmp_path):
    rows = [{"node_id": i, "is_ood_truth": int(i >= 50), "method": "energy",
             "score": float(i)} for i in range(100)]
    path = tmp_path / "scores.csv"
    write_scores_csv(rows, path)
    hist = export_histogram(path, tmp_path / "hist.csv", bins=10)
    assert len(hist) == 10
    assert sum(r["count_id"] for r in hist) == 50
    assert sum(r["count_ood"] for r in hist) == 50
    lines = (tmp_path / "hist.csv").read_text().strip().splitlines()
    assert lines[0] == "bin_lo,bin_hi,count_id,count_ood"
    assert len(lines) == 11


class TestRunSeed:
    def test_baseline_records_no_exposure_weight(self, dataset_dir, planted, tmp_path):
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        cfg = _config(dataset_dir, tmp_path, method="energy")
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        assert outcome.record["exposure_weight"] is None
        assert outcome.record["pseudo_count"] == 0
        assert 0.0 <= outcome.record["auroc"] <= 1.0
        assert len(outcome.test_rows) == 300

    def test_exposure_selects_a_candidate_weight(self, dataset_dir, planted, tmp_path):
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        cfg = _config(dataset_dir, tmp_path, method="goe_identifier")
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        assert outcome.record["exposure_weight"] in (0.01, 0.05)
        assert outcome.record["pseudo_count"] > 0

    def test_pseudo_validation_holds_out_pseudo_nodes(self, dataset_dir, planted,
                                                      tmp_path):
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        cfg = _config(dataset_dir, tmp_path, method="goe_identifier")
        cfg.pseudo_validation = True
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        default_cfg = _config(dataset_dir, tmp_path, method="goe_identifier")
        default_outcome = run_seed(graph, manifest, class_split, default_cfg, seed=0)
        # both modes share the pseudo set but early-stop on different signals
        assert outcome.record["pseudo_count"] == default_outcome.record["pseudo_count"]
        assert 0.0 <= outcome.record["auroc"] <= 1.0
        assert cfg.config_hash() != default_cfg.config_hash()

    def test_generator_reports_augmented_pseudo_nodes(self, dataset_dir, planted,
                                                      tmp_path):
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        cfg = _config(dataset_dir, tmp_path, method="goe_generator")
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        assert outcome.record["pseudo_count"] == 10  # one OOD class, per_class=10
        # scores cover the augmented graph, test rows only original nodes
        assert len(outcome.scores) == graph.node_count + 10
        assert max(r["node_id"] for r in outcome.test_rows) < graph.node_count

    def _with_generated_file(self, planted, tmp_path, categories):
        graph, manifest = planted
        directory = tmp_path / "data"
        save_dataset(graph, manifest, directory)
        (directory / "generated.jsonl").write_text("".join(
            json.dumps({"category": c, "title": f"t{i}", "abstract": f"a{i}"}) + "\n"
            for i, c in enumerate(categories)))
        cfg = _config(directory, tmp_path / "out", method="goe_generator")
        return graph, manifest, make_class_split(graph.labels, [0, 1]), cfg

    def test_generated_file_with_a_foreign_category_is_rejected(self, planted, tmp_path):
        id_category = planted[1].category_names[0]
        graph, manifest, class_split, cfg = self._with_generated_file(
            planted, tmp_path, [planted[1].category_names[2], id_category])
        with pytest.raises(ValueError, match=f"category '{id_category}' is not an OOD "
                                             "category of this run"):
            run_seed(graph, manifest, class_split, cfg, seed=0)

    def test_generated_file_over_per_class_is_rejected(self, planted, tmp_path):
        graph, manifest, class_split, cfg = self._with_generated_file(
            planted, tmp_path, [planted[1].category_names[2]] * 11)
        with pytest.raises(ValueError, match="11 nodes for category .* more than "
                                             "llm.per_class = 10"):
            run_seed(graph, manifest, class_split, cfg, seed=0)

    def test_generated_file_short_of_per_class_is_used(self, planted, tmp_path):
        graph, manifest, class_split, cfg = self._with_generated_file(
            planted, tmp_path, [planted[1].category_names[2]] * 3)
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        assert outcome.record["pseudo_count"] == 3

    def test_kplus1_scores_are_probabilities(self, dataset_dir, planted, tmp_path):
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        cfg = _config(dataset_dir, tmp_path, method="kplus1")
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        assert np.all(outcome.scores > 0.0) and np.all(outcome.scores < 1.0)
        assert outcome.params.output_dim == class_split.num_id_classes + 1

    def test_binary_head_returns_head_weights(self, dataset_dir, planted, tmp_path):
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        cfg = _config(dataset_dir, tmp_path, method="binary_head")
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        assert outcome.head_weights is not None
        assert outcome.head_weights.shape == (cfg.train.hidden_dim,)
        assert np.all((outcome.scores > 0.0) & (outcome.scores < 1.0))
        assert "head_best_epoch" in outcome.record


class TestRunExperiment:
    def test_report_written_and_reproducible(self, dataset_dir, tmp_path):
        cfg_a = _config(dataset_dir, tmp_path / "a", method="goe_identifier",
                        seeds=(0, 1))
        cfg_b = _config(dataset_dir, tmp_path / "b", method="goe_identifier",
                        seeds=(0, 1))
        report_a = run_experiment(cfg_a)
        report_b = run_experiment(cfg_b)
        assert report_a.to_dict() == report_b.to_dict()
        assert (tmp_path / "a" / "report.json").exists()
        assert (tmp_path / "a" / "seed-0" / "scores.csv").exists()
        assert (tmp_path / "a" / "seed-1" / "scores.csv").exists()
        bytes_a = (tmp_path / "a" / "report.json").read_bytes()
        bytes_b = (tmp_path / "b" / "report.json").read_bytes()
        assert bytes_a == bytes_b

    def test_exposure_beats_plain_energy(self, dataset_dir, tmp_path):
        base = run_experiment(_config(dataset_dir, tmp_path / "energy",
                                      method="energy", seeds=(0, 1)))
        expo = run_experiment(_config(dataset_dir, tmp_path / "ident",
                                      method="goe_identifier", seeds=(0, 1)))
        assert expo.mean["auroc"] > base.mean["auroc"]

    def test_failed_seed_preserves_partial_results(self, dataset_dir, tmp_path,
                                                   monkeypatch):
        import goe.harness as hn

        cfg = _config(dataset_dir, tmp_path / "partial", method="energy",
                      seeds=(0, 1))
        original = hn.run_seed
        calls = {"n": 0}

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                raise RuntimeError("synthetic failure")
            return original(*args, **kwargs)

        monkeypatch.setattr(hn, "run_seed", flaky)
        with pytest.raises(RuntimeError, match="synthetic failure"):
            run_experiment(cfg)
        assert (tmp_path / "partial" / "report.partial.json").exists()
        assert (tmp_path / "partial" / "seed-0" / "scores.csv").exists()


def test_format_results_table():
    per_seed = [{"seed": 0, "id_acc": 1.0, "auroc": 0.9, "aupr": 0.8,
                 "fpr_at_95": 0.1}]
    table = format_results_table([aggregate_report("energy", "h", per_seed)])
    assert "| Method |" in table
    assert "| energy |" in table
    assert "0.9000" in table


def test_results_table_is_pinned():
    one = aggregate_report("energy", "h", [{"seed": 0, "id_acc": 1.0, "auroc": 0.9,
                                            "aupr": 0.8, "fpr_at_95": 0.1}])
    two = aggregate_report("msp", "h", [
        {"seed": 0, "id_acc": 0.5, "auroc": 0.75, "aupr": 0.25, "fpr_at_95": 0.0},
        {"seed": 1, "id_acc": 0.75, "auroc": 0.5, "aupr": 0.5, "fpr_at_95": 0.5},
    ])
    assert format_results_table([one, two]) == (
        "| Method | ID ACC | AUROC | AUPR | FPR@95 |\n"
        "|---|---|---|---|---|\n"
        "| energy | 1.0000 | 0.9000 | 0.8000 | 0.1000 |\n"
        "| msp | 0.6250 ± 0.1768 | 0.6250 ± 0.1768 | 0.3750 ± 0.1768 | 0.2500 ± 0.3536 |\n"
    )


def test_sweep_table_is_pinned(tmp_path, monkeypatch):
    import goe.harness as hn

    rows = {0: {"id_acc": 0.5, "auroc": 0.625, "aupr": 0.75, "fpr_at_95": 1.0},
            20: {"id_acc": 0.96875, "auroc": 0.12345, "aupr": 0.0, "fpr_at_95": 0.33333}}

    def fixed(config, total_generated=0):
        per_seed = [{"seed": 0, **rows[total_generated]},
                    {"seed": 1, **rows[total_generated]}]
        return aggregate_report(config.method, "h", per_seed)

    monkeypatch.setattr(hn, "run_experiment", fixed)
    cfg = ExperimentConfig(dataset_dir="unused", id_classes=[0, 1],
                           method="goe_generator", output_dir=str(tmp_path))
    sweep_pseudo_count(cfg, counts=[0, 20])
    assert (tmp_path / "sweep.md").read_text() == (
        "| Pseudo-OOD count | ID ACC | AUROC | AUPR | FPR@95 |\n"
        "|---|---|---|---|---|\n"
        "| 0 | 0.5000 | 0.6250 | 0.7500 | 1.0000 |\n"
        "| 20 | 0.9688 | 0.1235 | 0.0000 | 0.3333 |\n"
    )


def test_sweep_count_zero_matches_energy_baseline(dataset_dir, tmp_path):
    cfg = _config(dataset_dir, tmp_path / "sweep", method="goe_generator",
                  seeds=(0,))
    rows = sweep_pseudo_count(cfg, counts=[0, 5])
    energy_cfg = _config(dataset_dir, tmp_path / "plain-energy",
                         method="energy", seeds=(0,))
    baseline = run_experiment(energy_cfg)
    assert rows[0]["count"] == 0
    assert rows[0]["auroc"] == pytest.approx(baseline.mean["auroc"], abs=1e-12)
    assert rows[1]["count"] == 5
    assert (tmp_path / "sweep" / "sweep.md").exists()
    assert (tmp_path / "sweep" / "sweep.json").exists()
