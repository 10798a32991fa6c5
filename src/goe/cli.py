"""Command-line entry points.

Workflow over a dataset directory:

    goe synth data/demo                      # optional: make a planted dataset
    goe prepare data/demo --id-classes 0,1   # sample and save split.json
    goe annotate data/demo --mock            # identify pseudo-OOD nodes
    goe generate data/demo --mock            # or: generate pseudo-OOD nodes
    goe train data/demo --method goe_identifier --out runs/ident
    goe eval runs/ident
    goe compare data/demo --methods msp,energy,goe_identifier
    goe sweep-count data/demo --counts 0,2,5,10,20
    goe export-scores runs/ident
"""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from . import gcn, harness, llm, metrics
from .graph import (
    compute_id_ratio,
    load_dataset,
    load_split,
    make_class_split,
    sample_data_split,
    save_dataset,
    save_split,
)
from .synthetic import make_planted_tag


def _parse_int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part.strip() != ""]


def _client_settings(mock: bool, replay: str | None, remote: bool) -> tuple[str, str | None]:
    # --mock is the default; the flag exists so scripts can be explicit.
    if replay:
        return "replay", replay
    if remote:
        return "remote", None
    return "mock", None


def _chat(directory: Path, mock: bool, replay: str | None, remote: bool,
          cache: str | None) -> tuple:
    """The chat client the flags name and the chat cache (default in ``directory``)."""
    client_kind, replay_path = _client_settings(mock, replay, remote)
    config = harness.ExperimentConfig(   # only the dataset and the llm settings are read
        dataset_dir=str(directory), id_classes=[], method="energy", output_dir=str(directory),
        llm=harness.LlmSettings(client=client_kind, replay_path=replay_path, chat_cache=cache))
    return harness.build_chat_client(config), llm.ChatCache(harness.default_cache_path(config))


def _llm_options(fn):
    fn = click.option("--mock", is_flag=True, default=False,
                      help="Use the deterministic offline chat model (default).")(fn)
    fn = click.option("--replay", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="Replay chat responses from this cache file.")(fn)
    fn = click.option("--remote", is_flag=True, default=False,
                      help="Call the configured remote chat endpoint.")(fn)
    fn = click.option("--model", default=llm.DEFAULT_MODEL, show_default=True,
                      help="Chat model name.")(fn)
    fn = click.option("--cache", type=click.Path(dir_okay=False), default=None,
                      help="Chat cache file (default <dir>/annotations.jsonl).")(fn)
    return fn


def _load_split_or_fail(directory: Path, id_classes: str | None):
    split_path = directory / "split.json"
    if not split_path.exists():
        raise click.ClickException(f"{split_path} not found; run `goe prepare` first")
    split, stored_classes = load_split(split_path)
    if id_classes:
        classes = _parse_int_list(id_classes)
    elif stored_classes:
        classes = stored_classes
    else:
        raise click.ClickException("split.json lacks id_classes; pass --id-classes")
    return split, classes


@click.group()
def main():
    """Graph OOD detection with LLM-derived pseudo-outlier exposure."""


@main.command()
@click.argument("directory", type=click.Path(file_okay=False))
@click.option("--seed", default=0, show_default=True)
@click.option("--nodes-per-class", default=200, show_default=True)
@click.option("--dim", default=16, show_default=True)
def synth(directory: str, seed: int, nodes_per_class: int, dim: int):
    """Write a seeded synthetic planted dataset for offline experiments."""
    try:
        graph, manifest = make_planted_tag(seed=seed, nodes_per_class=nodes_per_class, dim=dim)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from None
    save_dataset(graph, manifest, directory)
    click.echo(f"wrote {manifest.node_count} nodes, {len(graph.edges)} edges, "
               f"{len(manifest.category_names)} classes to {directory}")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--id-classes", required=True,
              help="Comma-separated label values treated as in-distribution.")
@click.option("--seed", default=0, show_default=True)
@click.option("--train-per-class", default=20, show_default=True)
@click.option("--val-per-class", default=10, show_default=True)
@click.option("--test-id", default=500, show_default=True)
@click.option("--test-ood", default=500, show_default=True)
def prepare(directory: str, id_classes: str, seed: int, train_per_class: int,
            val_per_class: int, test_id: int, test_ood: int):
    """Sample the train/val/test node split and save it as split.json."""
    graph, _ = load_dataset(directory)
    classes = _parse_int_list(id_classes)
    class_split = make_class_split(graph.labels, classes)
    split = sample_data_split(
        graph, class_split, seed,
        train_per_class=train_per_class, val_per_class=val_per_class,
        test_id_size=test_id, test_ood_size=test_ood,
    )
    save_split(split, Path(directory) / "split.json", id_classes=classes)
    ratio = compute_id_ratio(graph.labels, class_split)
    click.echo(f"ID classes: {class_split.id_classes} (K={class_split.num_id_classes}), "
               f"OOD classes: {class_split.ood_classes}")
    click.echo(f"ID ratio: {ratio:.4f}")
    click.echo(f"train {len(split.train_id)}, val_id {len(split.val_id)}, "
               f"val_ood {len(split.val_ood)}, test_id {len(split.test_id)}, "
               f"test_ood {len(split.test_ood)} -> {directory}/split.json")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--sample", default=200, show_default=True,
              help="How many unlabeled nodes to annotate.")
@click.option("--id-classes", default=None, help="Override ID classes from split.json.")
@click.option("--seed", default=None, type=int,
              help="Sampling seed (default: the split's seed).")
@click.option("--concurrency", default=4, show_default=True)
@_llm_options
def annotate(directory: str, sample: int, id_classes: str | None, seed: int | None,
             concurrency: int, mock: bool, replay: str | None, remote: bool,
             model: str, cache: str | None):
    """Ask the chat model to flag pseudo-OOD nodes among unlabeled ones."""
    directory = Path(directory)
    graph, manifest = load_dataset(directory)
    split, classes = _load_split_or_fail(directory, id_classes)
    class_split = make_class_split(graph.labels, classes)
    seed = split.seed if seed is None else seed

    client, chat_cache = _chat(directory, mock, replay, remote, cache)
    pseudo, annotations = llm.identify_pseudo_ood(
        graph, manifest, class_split, split,
        client=client, cache=chat_cache, sample_size=sample, seed=seed,
        model=model, concurrency=concurrency,
    )
    llm.save_pseudo_set(pseudo, directory / "pseudo_ood.json")
    accuracy = llm.annotation_accuracy(annotations, graph.labels, class_split)
    click.echo(f"annotated {len(annotations)} nodes; {len(pseudo)} flagged pseudo-OOD")
    click.echo(f"zero-shot annotation accuracy vs ground truth: {accuracy:.4f}")
    click.echo(f"cache: {chat_cache.path} ({len(chat_cache)} entries)")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--per-class", default=10, show_default=True,
              help="Generated nodes per OOD category.")
@click.option("--id-classes", default=None, help="Override ID classes from split.json.")
@_llm_options
def generate(directory: str, per_class: int, id_classes: str | None, mock: bool,
             replay: str | None, remote: bool, model: str, cache: str | None):
    """Ask the chat model to write synthetic OOD texts (generated.jsonl)."""
    directory = Path(directory)
    graph, manifest = load_dataset(directory)
    _, classes = _load_split_or_fail(directory, id_classes)
    class_split = make_class_split(graph.labels, classes)
    ood_names = [manifest.category_names[c] for c in class_split.ood_classes]

    client, chat_cache = _chat(directory, mock, replay, remote, cache)
    nodes, warnings = llm.generate_pseudo_ood(
        ood_names, per_class=per_class, object_kind=manifest.object_kind,
        client=client, cache=chat_cache, model=model,
    )
    llm.save_generated(nodes, directory / "generated.jsonl")
    click.echo(f"generated {len(nodes)} pseudo-OOD nodes "
               f"across {len(ood_names)} categories -> {directory}/generated.jsonl")
    for warning in warnings:
        click.echo(f"warning: {warning['category']} produced {warning['produced']} "
                   f"of {warning['requested']} requested")


def _train_options(fn):
    fn = click.option("--hidden-dim", default=32, show_default=True)(fn)
    fn = click.option("--learning-rate", default=0.01, show_default=True)(fn)
    fn = click.option("--dropout", default=0.5, show_default=True)(fn)
    fn = click.option("--weight-decay", default=5e-4, show_default=True)(fn)
    fn = click.option("--max-epochs", default=200, show_default=True)(fn)
    fn = click.option("--patience", default=20, show_default=True)(fn)
    fn = click.option("--margin-id", default=-5.0, show_default=True)(fn)
    fn = click.option("--margin-ood", default=-1.0, show_default=True)(fn)
    fn = click.option("--exposure-weight", default=None, type=float,
                      help="Pin the exposure weight instead of validating over {0.01, 0.05}.")(fn)
    fn = click.option("--provider", default="hash", show_default=True,
                      type=click.Choice(["hash", "centroid", "precomputed", "remote"]),
                      help="Embedding provider for generated nodes.")(fn)
    fn = click.option("--provider-path", default=None,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Precomputed embedding file.")(fn)
    fn = click.option("--pseudo-source", default="identifier", show_default=True,
                      type=click.Choice(["identifier", "generator"]),
                      help="Pseudo-OOD source for kplus1 / binary_head.")(fn)
    fn = click.option("--pseudo-val", is_flag=True, default=False,
                      help="Early-stop on held-out pseudo-OOD nodes instead of "
                           "real OOD validation nodes.")(fn)
    fn = click.option("--sample", default=200, show_default=True,
                      help="Annotation sample size for identifier-based methods.")(fn)
    fn = click.option("--per-class", default=10, show_default=True,
                      help="Generated nodes per OOD category for generator-based methods.")(fn)
    return fn


def _build_config(directory: Path, classes: list[int], method: str, seeds: list[int],
                  out: str, *, mock, replay, remote, model, cache, hidden_dim,
                  learning_rate, dropout, weight_decay, max_epochs, patience,
                  margin_id, margin_ood, exposure_weight, provider, provider_path,
                  pseudo_source, pseudo_val, sample, per_class,
                  split=None) -> harness.ExperimentConfig:
    client_kind, replay_path = _client_settings(mock, replay, remote)
    train_cfg = gcn.TrainConfig(
        hidden_dim=hidden_dim, learning_rate=learning_rate, dropout=dropout,
        weight_decay=weight_decay, max_epochs=max_epochs, patience=patience,
        margin_id=margin_id, margin_ood=margin_ood,
    )
    weights = [exposure_weight] if exposure_weight is not None else [0.01, 0.05]
    sizes = {}
    if split is not None:
        k = len(classes)
        sizes = {
            "train_per_class": len(split.train_id) // k,
            "val_per_class": len(split.val_id) // k,
            "test_id_size": len(split.test_id),
            "test_ood_size": len(split.test_ood),
        }
    return harness.ExperimentConfig(
        dataset_dir=str(directory), id_classes=classes, method=method,
        output_dir=out, seeds=seeds, train=train_cfg,
        llm=harness.LlmSettings(client=client_kind, replay_path=replay_path,
                                model=model, chat_cache=cache,
                                sample_size=sample, per_class=per_class,
                                provider=provider, provider_path=provider_path),
        exposure_weights=weights, pseudo_source=pseudo_source,
        pseudo_validation=pseudo_val, **sizes,
    )


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--method", required=True, type=click.Choice(harness.ALL_METHODS))
@click.option("--seed", default=None, type=int,
              help="Training seed (default: the split's seed).")
@click.option("--out", default=None, type=click.Path(file_okay=False),
              help="Run directory (default <dir>/runs/<method>).")
@click.option("--id-classes", default=None, help="Override ID classes from split.json.")
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False),
              help="Load a full experiment config JSON instead of flags.")
@_llm_options
@_train_options
def train(directory: str, method: str, seed: int | None, out: str | None,
          id_classes: str | None, config_path: str | None, **flags):
    """Train one seed on the saved split and write report.json + scores.csv."""
    directory = Path(directory)
    split, classes = _load_split_or_fail(directory, id_classes)
    seed = split.seed if seed is None else seed
    out = out or str(directory / "runs" / method)

    if config_path:
        config = harness.ExperimentConfig.from_json(config_path)
        config.dataset_dir = str(directory)
        config.method = method
        config.output_dir = out
    else:
        config = _build_config(directory, classes, method, [seed], out,
                               split=split, **flags)
    config.seeds = [seed]
    config.validate()

    graph, manifest = load_dataset(directory)
    class_split = make_class_split(graph.labels, classes)
    outcome = harness.run_seed(graph, manifest, class_split, config, seed,
                               split=split)
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = harness.aggregate_report(method, config.config_hash(),
                                      [outcome.record])
    harness.write_report(report, out_dir / "report.json")
    harness.write_scores_csv(outcome.test_rows, out_dir / "scores.csv")
    run_record = {"config": config.to_dict(),
                  "environment": harness.environment_info()}
    (out_dir / "config.json").write_text(
        json.dumps(run_record, sort_keys=True, indent=2) + "\n")
    if outcome.params is not None:
        gcn.save_params(outcome.params, out_dir / "params.bin")
    rec = outcome.record
    click.echo(f"{method} seed {seed}: id_acc {rec['id_acc']:.4f} "
               f"auroc {rec['auroc']:.4f} aupr {rec['aupr']:.4f} "
               f"fpr@95 {rec['fpr_at_95']:.4f}")
    click.echo(f"run artifacts in {out_dir}")


@main.command("eval")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def eval_cmd(run_dir: str):
    """Recompute metrics from the score files of a finished run."""
    run_dir = Path(run_dir)
    score_files = sorted(run_dir.glob("seed-*/scores.csv"))
    flat = run_dir / "scores.csv"
    if flat.exists():
        score_files.insert(0, flat)
    if not score_files:
        raise click.ClickException(f"no scores.csv under {run_dir}")
    for path in score_files:
        rows = harness.read_scores_csv(path)
        id_scores = np.array([r["score"] for r in rows if not r["is_ood_truth"]])
        ood_scores = np.array([r["score"] for r in rows if r["is_ood_truth"]])
        label = path.parent.name if path.parent != run_dir else "run"
        click.echo(
            f"{label}: auroc {metrics.auroc(id_scores, ood_scores):.4f} "
            f"aupr {metrics.aupr(id_scores, ood_scores):.4f} "
            f"fpr@95 {metrics.fpr_at_95_tpr(id_scores, ood_scores):.4f}"
        )
    report_path = run_dir / "report.json"
    if report_path.exists():
        stored = json.loads(report_path.read_text())
        click.echo("stored means: " + json.dumps(stored["mean"], sort_keys=True))


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--methods", default="msp,entropy,energy,energy_prop,goe_identifier,goe_generator",
              show_default=True, help="Comma-separated method list.")
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--out", default=None, type=click.Path(file_okay=False))
@click.option("--id-classes", default=None)
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@_llm_options
@_train_options
def compare(directory: str, methods: str, seeds: str, out: str | None,
            id_classes: str | None, config_path: str | None, **flags):
    """Run several methods over the same seeds and write a results table."""
    directory = Path(directory)
    split, classes = _load_split_or_fail(directory, id_classes)
    seed_list = _parse_int_list(seeds)
    out = out or str(directory / "runs" / "compare")
    method_list = [m.strip() for m in methods.split(",") if m.strip()]

    reports = []
    for method in method_list:
        if config_path:
            config = harness.ExperimentConfig.from_json(config_path)
            config.dataset_dir = str(directory)
        else:
            config = _build_config(directory, classes, method, seed_list,
                                   str(Path(out) / method), split=split, **flags)
        config.method = method
        config.seeds = seed_list
        config.output_dir = str(Path(out) / method)
        reports.append(harness.run_experiment(config))
        mean = reports[-1].mean
        click.echo(f"{method}: auroc {mean['auroc']:.4f} id_acc {mean['id_acc']:.4f}")

    table = harness.format_results_table(reports)
    results_path = Path(out) / "results.md"
    results_path.write_text(table)
    click.echo(f"results table -> {results_path}")


@main.command("sweep-count")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--counts", default="0,2,3,5,10,20", show_default=True)
@click.option("--seeds", default="0,1,2,3,4", show_default=True)
@click.option("--out", default=None, type=click.Path(file_okay=False))
@click.option("--id-classes", default=None)
@click.option("--config", "config_path", default=None,
              type=click.Path(exists=True, dir_okay=False))
@_llm_options
@_train_options
def sweep_count(directory: str, counts: str, seeds: str, out: str | None,
                id_classes: str | None, config_path: str | None, **flags):
    """Ablate the number of generated pseudo-OOD nodes (0 = no exposure)."""
    directory = Path(directory)
    split, classes = _load_split_or_fail(directory, id_classes)
    seed_list = _parse_int_list(seeds)
    count_list = _parse_int_list(counts)
    out = out or str(directory / "runs" / "sweep-count")

    if config_path:
        config = harness.ExperimentConfig.from_json(config_path)
        config.dataset_dir = str(directory)
    else:
        config = _build_config(directory, classes, "goe_generator", seed_list,
                               out, split=split, **flags)
    config.seeds = seed_list
    config.output_dir = out
    rows = harness.sweep_pseudo_count(config, count_list)
    for row in rows:
        click.echo(f"count {row['count']:>3}: auroc {row['auroc']:.4f} "
                   f"id_acc {row['id_acc']:.4f}")
    click.echo(f"sweep table -> {Path(out) / 'sweep.md'}")


@main.command("export-scores")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--bins", default=50, show_default=True)
def export_scores(run_dir: str, bins: int):
    """Export per-group score histograms (hist.csv) from a run's scores."""
    run_dir = Path(run_dir)
    candidates = [run_dir / "scores.csv"] + sorted(run_dir.glob("seed-*/scores.csv"))
    source = next((p for p in candidates if p.exists()), None)
    if source is None:
        raise click.ClickException(f"no scores.csv under {run_dir}")
    out_path = run_dir / "hist.csv"
    harness.export_histogram(source, out_path, bins=bins)
    click.echo(f"histogram ({bins} bins) from {source} -> {out_path}")


if __name__ == "__main__":
    main()
