"""Experiment orchestration: configs, reports, reproducibility, sweeps."""

import json
import os
import re
import subprocess
import sys
import types

import numpy as np
import pytest
import scipy.sparse as sp

from goe.gcn import TrainConfig
from goe.graph import InputError, make_class_split, sample_data_split, save_dataset
from goe.synthetic import make_planted_tag
import goe
from goe import gcn, harness, llm, scoring
from goe.harness import (
    ALL_METHODS,
    EXPOSURE_METHODS,
    METHODS,
    ExperimentConfig,
    LlmSettings,
    aggregate_report,
    blas_threads_in_use,
    build_chat_client,
    default_cache_path,
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
        assert ExperimentConfig.from_dict(json.loads(path.read_text())).to_dict() == cfg.to_dict()


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
        # the test rows hold only original nodes
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
        scores = np.array([row["score"] for row in outcome.test_rows])
        assert np.all(scores > 0.0) and np.all(scores < 1.0)
        assert outcome.params.output_dim == class_split.num_id_classes + 1

    def test_binary_head_scores_are_probabilities(self, dataset_dir, planted, tmp_path):
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        cfg = _config(dataset_dir, tmp_path, method="binary_head")
        outcome = run_seed(graph, manifest, class_split, cfg, seed=0)
        scores = np.array([row["score"] for row in outcome.test_rows])
        assert np.all((scores > 0.0) & (scores < 1.0))
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

    @pytest.mark.parametrize("threads", [1, 2])
    def test_run_record_names_the_blas_thread_count(self, dataset_dir, tmp_path, threads):
        """config.json records the OpenBLAS thread count that made the run's
        bits; report.json does not, so it stays comparable across machines."""
        script = ("import sys\n"
                  "from goe.gcn import TrainConfig\n"
                  "from goe.harness import ExperimentConfig, run_experiment\n"
                  "run_experiment(ExperimentConfig(dataset_dir=sys.argv[1], id_classes=[0, 1],\n"
                  "    method='energy', output_dir=sys.argv[2], seeds=[0],\n"
                  "    train=TrainConfig(max_epochs=2, patience=2),\n"
                  "    test_id_size=150, test_ood_size=150))\n")
        src = os.path.dirname(os.path.dirname(goe.__file__))
        env = {**os.environ, "OPENBLAS_NUM_THREADS": str(threads),
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = tmp_path / "run"
        result = subprocess.run([sys.executable, "-c", script, str(dataset_dir), str(out)],
                                env=env, capture_output=True, timeout=120)
        assert result.returncode == 0, result.stderr.decode("utf-8", "replace")
        environment = json.loads((out / "config.json").read_text())["environment"]
        expected = None if blas_threads_in_use() is None else threads
        assert environment["blas_threads"] == expected
        assert "blas" not in (out / "report.json").read_text()

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


class TestReplayClient:
    """``build_chat_client`` for a replay run, beside the run's own ``ChatCache``."""

    @staticmethod
    def _annotated(planted, tmp_path):
        """The identification inputs, and a cache file holding a mock pass over them."""
        graph, manifest = planted
        class_split = make_class_split(graph.labels, [0, 1])
        split = sample_data_split(graph, class_split, seed=0,
                                  test_id_size=150, test_ood_size=150)
        inputs = (graph, manifest, class_split, split)
        cache_path = tmp_path / "annotations.jsonl"
        llm.identify_pseudo_ood(*inputs, client=llm.MockChatClient(),
                                cache=llm.ChatCache(cache_path), sample_size=60, seed=0)
        return inputs, cache_path

    @staticmethod
    def _replay_config(tmp_path, replay_path):
        return ExperimentConfig(
            dataset_dir=str(tmp_path), id_classes=[0, 1], method="goe_identifier",
            output_dir=str(tmp_path / "out"),
            llm=LlmSettings(client="replay", replay_path=replay_path, sample_size=60))

    @pytest.mark.parametrize("replay_path", [None, "absolute", "annotations.jsonl"],
                             ids=["defaulted", "absolute", "relative"])
    def test_replaying_the_runs_own_cache_parses_it_once(self, planted, tmp_path,
                                                         monkeypatch, replay_path):
        inputs, cache_path = self._annotated(planted, tmp_path)
        logged = cache_path.read_bytes()
        monkeypatch.chdir(tmp_path)
        if replay_path == "absolute":
            replay_path = str(cache_path)
        loads = []
        real_load = llm.ChatCache._load

        def counted(cache):
            loads.append(cache.path)
            real_load(cache)

        monkeypatch.setattr(llm.ChatCache, "_load", counted)
        config = self._replay_config(tmp_path, replay_path)
        pseudo, annotations = llm.identify_pseudo_ood(
            *inputs, client=build_chat_client(config),
            cache=llm.ChatCache(default_cache_path(config)), sample_size=60, seed=0)
        assert loads == [cache_path]
        assert len(annotations) == 60 and len(pseudo) > 0
        assert cache_path.read_bytes() == logged

    def test_a_bad_replay_file_fails_before_the_runs_cache_answers(self, planted, tmp_path):
        _, cache_path = self._annotated(planted, tmp_path)
        bad = tmp_path / "replay.jsonl"
        bad.write_bytes(cache_path.read_bytes() + b"not a record\n")
        with pytest.raises(InputError, match=re.escape(f"{bad}: line 61 is not a chat record")):
            build_chat_client(self._replay_config(tmp_path, str(bad)))


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
            "418c26ae996e89ae74ca87ac6af762075db0e1a0e63528950a4084e58c2d6b7e",
            "32392fdd4dae077df679c6b6e0d758844999d7968e5b94480692d021cbe4103f"],
    "entropy": ["c3fd37dd373833d4529a99b199b8ab97a62fbea8a0cd2f7d0b4cf8eb963efed6",
                "58b865e29c2bdcb74978abab9c2dd9cfa26ed596032f50b9d45e28888f9fb45d",
                "007a68ff49bc792d73841f4ee6ff4436ee27e3b95e3aa8f629de27c77ad103c6"],
    "energy": ["668d7003ba63e4b10ee998246260d26e1fdeedf590c5332c313f8f8d139c4f24",
               "84a82c127ece6872ce9032c72463a4e331934068f8b0f0daa0c0f1741bf8683b",
               "ef4f769abfe00c8639c698a9a80226240a1adda00d034d31b71342499137ac6e"],
    "energy_prop": ["91f2d29372b7ecdfb4736c81cf88c5c69c0fea1c92f85d67a76dad7666e9cd65",
                    "7ce4d3dbe5fa7c6a2d538beb8997eee22e6aab51eeaab0fece60eb2ca5ed96d5",
                    "f18294810f3f85f83a414f7662a6c07f1918f8a5bb1d4aa7af9e6be799b38811"],
    "goe_identifier": ["a743008f05c4e2fcfe47a0aadede24fa3a32b9868cc677263f85904710d017f9",
                       "a89efd17c314ff1031d5b36d8e64bcb4d5c952c06fc12d38d0dbc610d6e2426e",
                       "360b30a027329981d415ac3c54d4fcf921e1b494aff40a02bca8c40bf3349ac0"],
    "goe_generator": ["5347f56c4532d08a95bade042f36cf7499a79a764ccfedaad09d3d814609a063",
                      "0224741d101e041d2c185cd9c6a88eb5a7be5b0f64e309e5c93b643ef183fd09",
                      "43de4b41778882b2d8442a78b1e6a0616d2370b2a6f1679e98db7a827c8e25bb"],
    "kplus1": ["c158aebdae35d6927cd2416fd25f00d113090c564cdbe76fca36fbd99c541294",
               "3fe192048d87627a0cf5411d05596a5449ed1002222d09c29e661ea05c2ead72",
               "ca6f8f5214f54e078fa54cc68503f6d08c4b26ccac4e4a69028861d98abe8032"],
    "binary_head": ["6c0260238319318410cae619785f1e34c5199c1c4a681ac7b9952225045bc181",
                    "2c5323f0df3fd6b7f84f9dd90e025b22807b23c11557f950f728072b3f734cf8",
                    "d8d62dfb7cbac0c0d1d394a99b1b8e29deae51d77ef6613fe2dde0c3d781c3a6"],
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


@pytest.fixture(scope="module")
def field_graphs():
    """6,000-node planted graphs on which the test nodes' scoring field leaves
    nodes out of F2: the default degree, and degree 1 for energy_prop, whose
    field grows two hops more. Keyed by (propagates, dim); dim 64 is wider
    than the hidden layer, so layer 1 projects before it propagates."""
    return {(prop, dim): make_planted_tag(seed=0, nodes_per_class=2000, dim=dim,
                                          intra_degree=1 if prop else 4)
            for prop in (False, True) for dim in (16, 64)}


def _gcn_with(receptive_field):
    """A stand-in for ``harness.gcn`` with its own ``receptive_field``."""
    return types.SimpleNamespace(**{**vars(gcn), "receptive_field": receptive_field})


@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("method", ALL_METHODS)
def test_scoring_on_the_test_field_matches_the_whole_graph_pass(field_graphs, tmp_path,
                                                                monkeypatch, method, dim):
    """The final pass on the test nodes' receptive field gives the whole-graph
    pass's record, and its test scores to within 1e-12 in the same order."""
    graph, manifest = field_graphs[METHODS[method].scorer == "energy_prop", dim]
    class_split = make_class_split(graph.labels, [0, 1])
    config = _config(tmp_path, tmp_path / "out", method=method,
                     train=TrainConfig(max_epochs=15, patience=5))
    fields = []

    def recorded(adjacency, targets, hops=0):
        fields.append(gcn.receptive_field(adjacency, targets, hops))
        return fields[-1]

    runs = []
    for receptive_field in (recorded, lambda adjacency, *_: gcn.ReceptiveField.whole(adjacency)):
        monkeypatch.setattr(harness, "gcn", _gcn_with(receptive_field))
        runs.append(run_seed(graph, manifest, class_split, config, seed=0))
    [field] = fields
    assert not isinstance(field.rows[2], slice)   # the field path ran
    assert field.rows[2].size < graph.node_count

    on_field, whole = runs
    assert on_field.record == whole.record
    assert ([row["node_id"] for row in on_field.test_rows]
            == [row["node_id"] for row in whole.test_rows])
    scores, expected = ([row["score"] for row in run.test_rows] for run in runs)
    np.testing.assert_allclose(scores, expected, rtol=0, atol=1e-12)
    assert np.array_equal(np.argsort(scores, kind="stable"),
                          np.argsort(expected, kind="stable"))
