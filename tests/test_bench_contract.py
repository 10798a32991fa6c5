"""The benchmark's contract with goe, checked without running the benchmark.

``bench/tracing.py`` wraps goe functions by name, and ``bench/bench.py``
fails a traced repeat unless ``gcn.epochs`` (training-mode ``forward``
calls) equals the ``gcn.train_classifier`` spans times the epoch budget. A
refactor that renames a wrapped function, or runs more than one training
forward per epoch, breaks the benchmark; these tests break first.
"""

import importlib.util
from pathlib import Path

import pytest

from goe.gcn import TrainConfig
from goe.graph import save_dataset
from goe.harness import ExperimentConfig, LlmSettings, run_experiment

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists(tracing):
    undo, missing = tracing.install(tracing.Tracer("contract"))
    tracing.uninstall(undo)
    assert missing == []


def test_epochs_are_trainings_times_budget(tracing, planted, tmp_path):
    graph, manifest = planted
    save_dataset(graph, manifest, tmp_path / "data")
    budget = 3
    config = ExperimentConfig(
        dataset_dir=str(tmp_path / "data"), id_classes=[0, 1], method="goe_identifier",
        output_dir=str(tmp_path / "run"), seeds=[0],
        train=TrainConfig(max_epochs=budget, patience=budget),
        llm=LlmSettings(client="mock", sample_size=60, provider="centroid"),
        exposure_weights=[0.01, 0.05], test_id_size=150, test_ood_size=150,
    )
    tracer = tracing.Tracer("contract")
    tracer.repeat = "run"
    undo, missing = tracing.install(tracer)
    try:
        report = run_experiment(config)
    finally:
        tracing.uninstall(undo)
    assert missing == []
    trainings = sum(1 for span in tracer.spans
                    if span[6] == "run" and span[2] == "gcn.train_classifier")
    assert trainings == 1          # the two weights train as one stacked model
    assert tracer.counts[("run", "gcn.epochs")] == trainings * budget
    assert report.per_seed[0]["epochs_run"] == budget
