"""Experiment orchestration: configs, reports, reproducibility, sweeps."""

import json

import numpy as np
import pytest
import scipy.sparse as sp

from goe.gcn import TrainConfig
from goe.graph import make_class_split, save_dataset
from goe import scoring
from goe.harness import (
    ALL_METHODS,
    EXPOSURE_METHODS,
    METHODS,
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


def _run_digests(planted, root, method):
    """sha256 of report.json and both seeds' scores.csv for a two-seed run in ``root``.

    The dataset path is relative, so the config hash inside report.json is the
    same on every machine.
    """
    import hashlib
    import os

    cwd = os.getcwd()
    os.chdir(root)
    try:
        save_dataset(*planted, "data")
        run_experiment(ExperimentConfig(
            dataset_dir="data", id_classes=[0, 1], method=method, output_dir="run",
            seeds=[0, 1], train=TrainConfig(max_epochs=30, patience=10),
            llm=LlmSettings(client="mock", sample_size=60, provider="centroid"),
            test_id_size=150, test_ood_size=150))
        return [hashlib.sha256((root / "run" / name).read_bytes()).hexdigest()
                for name in ("report.json", "seed-0/scores.csv", "seed-1/scores.csv")]
    finally:
        os.chdir(cwd)


RUN_PINS = {   # report.json, seed-0/scores.csv, seed-1/scores.csv
    "msp": ["f5731411ab29b5209680d0b1261a2258e0b6cb8b75deb1746564811b4e46b2a2",
            "682e1113942bba96dc8ca8f172bc4152d1a277a53256376cdec315c139874cc6",
            "1de7f837f5c9095be88b1e013b8eeb114d480b2c15bbc1f775a09c7e556cacba"],
    "entropy": ["c3fd37dd373833d4529a99b199b8ab97a62fbea8a0cd2f7d0b4cf8eb963efed6",
                "b38cc247b8ed440c48a141f3695fac450537cdb73e23a4cfb523cf6947a3d15f",
                "e91ff262e9d3304233d3d30d9d42840f87c18bf3592eab7b41a14c17633c56b3"],
    "energy": ["668d7003ba63e4b10ee998246260d26e1fdeedf590c5332c313f8f8d139c4f24",
               "6146bbe7113475e79ffc63ef707c34f898126447a417356a77050cbf1b04f7ec",
               "7e8b6f4140f7453a6d40dad39dbd049dc7d5614ec6af30318954ae50b8b99f5e"],
    "energy_prop": ["91f2d29372b7ecdfb4736c81cf88c5c69c0fea1c92f85d67a76dad7666e9cd65",
                    "f7124459a07e71273029449658bdefe340eb6404178cde9631564f695416e447",
                    "d539e11705e9879868de727c21c8d8e31c36a45d8e091423ec8592ec56a920f5"],
    "goe_identifier": ["a743008f05c4e2fcfe47a0aadede24fa3a32b9868cc677263f85904710d017f9",
                       "ea809c34d2ad69e24c327ef0dafb927289dbae3ee2bd71e733c151675d35e2b3",
                       "170182d00437257e4ce5bf758b20f3bf517caee67438d714fcd1fa28a5fdc8aa"],
    "goe_generator": ["5347f56c4532d08a95bade042f36cf7499a79a764ccfedaad09d3d814609a063",
                      "d55f6ffb5aec7b573fce13e6ddbc01c1168745d9db2e09a73ab7e69157bb743d",
                      "fad4fd932f064ec52c9f3e1e5e85ddefa1ca92628edd0e6e2c52f9ee2cd2b31c"],
    "kplus1": ["c158aebdae35d6927cd2416fd25f00d113090c564cdbe76fca36fbd99c541294",
               "5cfc9ab8a006e5c3ecabbb599c7fd1fb06962d4b557b55e9cc3d6eb6c86609d3",
               "a208485f924f629e8b1d44b42ab17f45fcf4d855d9f1e8934fd7f7154432c368"],
    "binary_head": ["6c0260238319318410cae619785f1e34c5199c1c4a681ac7b9952225045bc181",
                    "a7ebc4c29c3324a063335735eab0f67770f77ae046c3676140308ed483e90970",
                    "35f73e27c606d262b01bd1d9662ed3658b4ba2e5c403beaf24628979c3f5b341"],
}


@pytest.mark.parametrize("method", list(RUN_PINS))
def test_run_experiment_files_are_pinned(planted, tmp_path, method):
    """Every method's files, hashed as run_seed wrote them with one branch per method."""
    assert _run_digests(planted, tmp_path, method) == RUN_PINS[method]


def test_method_table_order_and_scorers():
    """compare and the benchmark iterate the table in this order; every scorer is known."""
    assert ALL_METHODS == ("msp", "entropy", "energy", "energy_prop", "goe_identifier",
                           "goe_generator", "kplus1", "binary_head")
    assert EXPOSURE_METHODS == ("goe_identifier", "goe_generator")
    logits = np.random.default_rng(0).normal(size=(5, 3))
    for row in METHODS.values():
        scores = scoring.score_nodes(logits, row.scorer,
                                     row_stochastic=sp.identity(5, format="csr"))
        assert scores.shape == (5,)


@pytest.mark.parametrize("data, message", [
    ({"seedz": [0]}, "unknown top-level key 'seedz'"),
    ({"train": {"hiden_dim": 8}}, "unknown train key 'hiden_dim'"),
    ({"llm": {"modle": "m"}}, "unknown llm key 'modle'"),
])
def test_config_rejects_an_unknown_key(data, message):
    base = {"dataset_dir": "data", "id_classes": [0, 1], "method": "energy", "output_dir": "out"}
    with pytest.raises(ValueError, match=f"^{message}$"):
        ExperimentConfig.from_dict({**base, **data})
