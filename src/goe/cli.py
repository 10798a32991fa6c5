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


def _llm_settings(replay: str | None, remote: bool, **fields) -> harness.LlmSettings:
    """The llm settings with the chat client the flags name. --mock is the
    default; the flag exists so scripts can be explicit."""
    client = "replay" if replay else ("remote" if remote else "mock")
    return harness.LlmSettings(client=client, replay_path=replay, **fields)


def _chat(directory: Path, replay: str | None, remote: bool, cache: str | None) -> tuple:
    """The chat client the flags name and the chat cache (default in ``directory``)."""
    config = harness.ExperimentConfig(   # only the dataset and the llm settings are read
        dataset_dir=str(directory), id_classes=[], method="energy", output_dir=str(directory),
        llm=_llm_settings(replay, remote, chat_cache=cache))
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


def _load_inputs(directory: Path, id_classes: str | None):
    """The dataset, split.json and the class split (``--id-classes``, else the
    split's). A split.json that is malformed or does not fit the dataset fails
    in one line."""
    split_path = directory / "split.json"
    if not split_path.exists():
        raise click.ClickException(f"{split_path} not found; run `goe prepare` first")
    graph, manifest = load_dataset(directory)
    try:
        split, stored_classes = load_split(split_path)
        classes = _parse_int_list(id_classes) if id_classes else stored_classes
        if not classes:
            raise click.ClickException("split.json lacks id_classes; pass --id-classes")
        class_split = make_class_split(graph.labels, classes)
        split.validate(graph.labels, class_split)
    except ValueError as exc:
        raise click.ClickException(f"{split_path}: {exc}") from None
    return graph, manifest, split, class_split


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
    graph, manifest, split, class_split = _load_inputs(directory, id_classes)
    seed = split.seed if seed is None else seed

    client, chat_cache = _chat(directory, replay, remote, cache)
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
    _, manifest, _, class_split = _load_inputs(directory, id_classes)
    ood_names = [manifest.category_names[c] for c in class_split.ood_classes]

    client, chat_cache = _chat(directory, replay, remote, cache)
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


def _run_config(directory: Path, split, classes: list[int], method: str, seeds: list[int],
                out: str, config_path: str | None, flags: dict) -> harness.ExperimentConfig:
    """The ``--config`` file if one is given, else the flags. The run's dataset
    directory, method, seeds and output directory stand in for the file's own,
    so a file may leave them out. A config file must name the ID classes the
    run trains on (from split.json or ``--id-classes``)."""
    if config_path:
        try:
            data = json.loads(Path(config_path).read_text())
            if not isinstance(data, dict):
                raise ValueError("not a JSON object")
            data.update(dataset_dir=str(directory), method=method, seeds=seeds, output_dir=out)
            config = harness.ExperimentConfig.from_dict(data)
        except (TypeError, ValueError) as exc:
            raise click.ClickException(f"{config_path}: {exc}") from None
        if config.id_classes != classes:
            raise click.ClickException(
                f"{config_path} has id_classes {config.id_classes}, but the run trains "
                f"on {classes} from split.json or --id-classes")
    else:
        train_cfg = gcn.TrainConfig(
            hidden_dim=flags["hidden_dim"], learning_rate=flags["learning_rate"],
            dropout=flags["dropout"], weight_decay=flags["weight_decay"],
            max_epochs=flags["max_epochs"], patience=flags["patience"],
            margin_id=flags["margin_id"], margin_ood=flags["margin_ood"],
        )
        weight = flags["exposure_weight"]
        k = len(classes)
        config = harness.ExperimentConfig(
            dataset_dir=str(directory), id_classes=classes, method=method, seeds=seeds,
            output_dir=out, train=train_cfg,
            llm=_llm_settings(flags["replay"], flags["remote"], model=flags["model"],
                              chat_cache=flags["cache"], sample_size=flags["sample"],
                              per_class=flags["per_class"], provider=flags["provider"],
                              provider_path=flags["provider_path"]),
            exposure_weights=[weight] if weight is not None else [0.01, 0.05],
            pseudo_source=flags["pseudo_source"], pseudo_validation=flags["pseudo_val"],
            train_per_class=len(split.train_id) // k, val_per_class=len(split.val_id) // k,
            test_id_size=len(split.test_id), test_ood_size=len(split.test_ood),
        )
    config.validate()
    return config


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
    graph, manifest, split, class_split = _load_inputs(directory, id_classes)
    seed = split.seed if seed is None else seed
    out = out or str(directory / "runs" / method)
    config = _run_config(directory, split, class_split.id_classes, method, [seed], out,
                         config_path, flags)
    outcome = harness.run_seed(graph, manifest, class_split, config, seed,
                               split=split)
    out_dir = Path(out)
    harness.write_scores_csv(outcome.test_rows, out_dir / "scores.csv")   # makes out_dir
    gcn.save_params(outcome.params, out_dir / "params.bin")
    harness.write_run(out_dir, config, [outcome.record], ["scores.csv", "params.bin"])
    rec = outcome.record
    click.echo(f"{method} seed {seed}: id_acc {rec['id_acc']:.4f} "
               f"auroc {rec['auroc']:.4f} aupr {rec['aupr']:.4f} "
               f"fpr@95 {rec['fpr_at_95']:.4f}")
    click.echo(f"run artifacts in {out_dir}")


def _score_files(run_dir: Path) -> list[Path]:
    """A run's score files: `goe train`'s flat scores.csv, then seed-*/scores.csv."""
    flat = run_dir / "scores.csv"
    files = ([flat] if flat.exists() else []) + sorted(run_dir.glob("seed-*/scores.csv"))
    if not files:
        raise click.ClickException(f"no scores.csv under {run_dir}")
    return files


@main.command("eval")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def eval_cmd(run_dir: str):
    """Recompute metrics from the score files of a finished run."""
    run_dir = Path(run_dir)
    for path in _score_files(run_dir):
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
    _, _, split, class_split = _load_inputs(directory, id_classes)
    classes = class_split.id_classes
    seed_list = _parse_int_list(seeds)
    out = out or str(directory / "runs" / "compare")
    method_list = [m.strip() for m in methods.split(",") if m.strip()]

    reports = []
    for method in method_list:
        config = _run_config(directory, split, classes, method, seed_list,
                             str(Path(out) / method), config_path, flags)
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
    _, _, split, class_split = _load_inputs(directory, id_classes)
    classes = class_split.id_classes
    seed_list = _parse_int_list(seeds)
    count_list = _parse_int_list(counts)
    out = out or str(directory / "runs" / "sweep-count")
    config = _run_config(directory, split, classes, "goe_generator", seed_list, out,
                         config_path, flags)
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
    source = _score_files(run_dir)[0]
    out_path = run_dir / "hist.csv"
    harness.export_histogram(source, out_path, bins=bins)
    click.echo(f"histogram ({bins} bins) from {source} -> {out_path}")


if __name__ == "__main__":
    main()
