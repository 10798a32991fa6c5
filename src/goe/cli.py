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

Flag defaults are the config classes' own, and ``_run_config`` alone builds the
run config, from the flags or a ``--config`` file. An input fault (``InputError``
or a missing file) prints one ``Error:`` line and exits 1; any other exception
keeps its traceback.
"""

from __future__ import annotations

import json
from pathlib import Path

import click
import numpy as np

from . import gcn, harness, llm, metrics
from .graph import (
    InputError,
    compute_id_ratio,
    load_dataset,
    load_split,
    make_class_split,
    sample_data_split,
    save_dataset,
    save_split,
)
from .synthetic import make_planted_tag

# The owner of every default a flag shows; a run's own four fields have none.
_DEFAULTS = harness.ExperimentConfig.from_dict(
    {"dataset_dir": "", "id_classes": [], "method": "", "output_dir": ""})
_TRAIN_FLAGS = ("hidden_dim", "learning_rate", "dropout", "weight_decay", "max_epochs",
                "patience", "margin_id", "margin_ood")


def _parse_int_list(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip() != ""]
    except ValueError:
        raise InputError(f"{text!r} is not a comma-separated list of integers") from None


def _load_inputs(directory: Path, id_classes: str | None):
    """The dataset, split.json and the class split (``--id-classes``, else the
    split's). A split.json that is malformed or does not fit the dataset fails
    in one line that names it."""
    split_path = directory / "split.json"
    if not split_path.exists():
        raise InputError(f"{split_path} not found; run `goe prepare` first")
    graph, manifest = load_dataset(directory)
    class_split = make_class_split(graph.labels, _parse_int_list(id_classes)) if id_classes else None
    try:
        split, stored_classes = load_split(split_path)
        if class_split is None:
            if stored_classes is None:
                raise InputError("no id_classes; pass --id-classes")
            class_split = make_class_split(graph.labels, stored_classes)
        split.validate(graph.labels, class_split)
    except ValueError as exc:
        raise InputError(f"{split_path}: {exc}") from None
    return graph, manifest, split, class_split


def _run_config(directory: Path, inputs: tuple, method: str, seeds: list[int], out: str,
                flags: dict) -> harness.ExperimentConfig:
    """The run config, from the ``--config`` file if one is given, else from the
    flags shaped like one. The run's dataset directory, method, seeds and
    output directory stand in for the file's own, and split.json gives the
    four set sizes the file leaves out. A config file must name the ID classes
    the run trains on (from split.json or ``--id-classes``)."""
    _, _, split, class_split = inputs
    classes, path = class_split.id_classes, flags.get("config_path")
    k = len(classes)
    sizes = dict(train_per_class=len(split.train_id) // k, val_per_class=len(split.val_id) // k,
                 test_id_size=len(split.test_id), test_ood_size=len(split.test_ood))
    try:
        given = (json.loads(Path(path).read_text(encoding="utf-8")) if path
                 else _flags_config(classes, flags))
        if not isinstance(given, dict):
            raise InputError("not a JSON object")
        config = harness.ExperimentConfig.from_dict({
            **sizes, **given, "dataset_dir": str(directory), "method": method,
            "seeds": seeds, "output_dir": out})
        config.validate()
    except (TypeError, ValueError) as exc:
        if not path:
            raise
        raise InputError(f"{path}: {exc}") from None
    if config.id_classes != classes:
        raise InputError(f"{path} has id_classes {config.id_classes}, but the run trains "
                         f"on {classes} from split.json or --id-classes")
    return config


def _flags_config(classes: list[int], flags: dict) -> dict:
    """The flags as a config file would give them; a flag left out keeps the
    config's default. At most one chat client flag may be given."""
    def given(names) -> dict:
        return {name: flags[name] for name in names if name in flags}

    clients = [kind for kind, flag in (("replay", "replay_path"), ("remote", "remote"),
                                       ("mock", "mock")) if flags[flag]]
    if len(clients) > 1:
        raise InputError("give at most one of --mock, --replay and --remote")
    data = {"id_classes": classes, "train": given(_TRAIN_FLAGS),
            "llm": given(_DEFAULTS.llm.to_dict()), **given(("pseudo_source", "pseudo_validation"))}
    data["llm"]["client"] = clients[0] if clients else "mock"
    if flags.get("exposure_weight") is not None:
        data["exposure_weights"] = [flags["exposure_weight"]]
    return data


class _Main(click.Group):
    """The one error boundary: an ``InputError`` or a missing file prints one
    ``Error:`` line and exits 1; any other exception keeps its traceback."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except (InputError, FileNotFoundError) as exc:
            raise click.ClickException(str(exc)) from None


@click.group(cls=_Main)
def main():
    """Graph OOD detection with LLM-derived pseudo-outlier exposure."""


_id_classes_option = click.option("--id-classes", default=None,
                                  help="Override ID classes from split.json.")
_sample_option = click.option("--sample", "sample_size", default=_DEFAULTS.llm.sample_size,
                              show_default=True, help="Annotation sample size.")
_per_class_option = click.option("--per-class", default=_DEFAULTS.llm.per_class,
                                 show_default=True, help="Generated nodes per OOD category.")
_seeds_option = click.option("--seeds", default=",".join(map(str, _DEFAULTS.seeds)),
                             show_default=True)


def _llm_options(fn):
    fn = click.option("--mock", is_flag=True, default=False,
                      help="Use the deterministic offline chat model (default).")(fn)
    fn = click.option("--replay", "replay_path", type=click.Path(exists=True, dir_okay=False),
                      default=None, help="Replay chat responses from this cache file.")(fn)
    fn = click.option("--remote", is_flag=True, default=False,
                      help="Call the configured remote chat endpoint.")(fn)
    fn = click.option("--model", default=_DEFAULTS.llm.model, show_default=True,
                      help="Chat model name.")(fn)
    fn = click.option("--cache", "chat_cache", type=click.Path(dir_okay=False), default=None,
                      help="Chat cache file (default <dir>/annotations.jsonl).")(fn)
    return fn


def _run_options(fn):
    """The options of train, compare and sweep-count: the flags a config file
    would give, the chat flags, and the run's config file and output directory."""
    for name in _TRAIN_FLAGS:
        fn = click.option("--" + name.replace("_", "-"), default=getattr(_DEFAULTS.train, name),
                          show_default=True)(fn)
    fn = click.option("--exposure-weight", default=None, type=float,
                      help="Pin the exposure weight instead of validating over "
                           f"{{{', '.join(map(str, _DEFAULTS.exposure_weights))}}}.")(fn)
    fn = click.option("--provider", default=_DEFAULTS.llm.provider, show_default=True,
                      type=click.Choice(["hash", "centroid", "precomputed", "remote"]),
                      help="Embedding provider for generated nodes.")(fn)
    fn = click.option("--provider-path", default=None,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Precomputed embedding file.")(fn)
    fn = click.option("--pseudo-source", default=_DEFAULTS.pseudo_source, show_default=True,
                      type=click.Choice(["identifier", "generator"]),
                      help="Pseudo-OOD source for kplus1 / binary_head.")(fn)
    fn = click.option("--pseudo-val", "pseudo_validation", is_flag=True, default=False,
                      help="Early-stop on held-out pseudo-OOD nodes instead of "
                           "real OOD validation nodes.")(fn)
    fn = _llm_options(_per_class_option(_sample_option(fn)))
    fn = click.option("--config", "config_path", default=None,
                      type=click.Path(exists=True, dir_okay=False),
                      help="Load a full experiment config JSON instead of flags.")(fn)
    fn = _id_classes_option(fn)
    return click.option("--out", default=None, type=click.Path(file_okay=False),
                        help="Run directory (default <dir>/runs/<method> for train, "
                             "else <dir>/runs/<command>).")(fn)


@main.command()
@click.argument("directory", type=click.Path(file_okay=False))
@click.option("--seed", default=0, show_default=True)
@click.option("--nodes-per-class", default=200, show_default=True)
@click.option("--dim", default=16, show_default=True)
def synth(directory: str, seed: int, nodes_per_class: int, dim: int):
    """Write a seeded synthetic planted dataset for offline experiments."""
    graph, manifest = make_planted_tag(seed=seed, nodes_per_class=nodes_per_class, dim=dim)
    save_dataset(graph, manifest, directory)
    click.echo(f"wrote {manifest.node_count} nodes, {len(graph.edges)} edges, "
               f"{len(manifest.category_names)} classes to {directory}")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--id-classes", required=True,
              help="Comma-separated label values treated as in-distribution.")
@click.option("--seed", default=0, show_default=True)
@click.option("--train-per-class", default=_DEFAULTS.train_per_class, show_default=True)
@click.option("--val-per-class", default=_DEFAULTS.val_per_class, show_default=True)
@click.option("--test-id", default=_DEFAULTS.test_id_size, show_default=True)
@click.option("--test-ood", default=_DEFAULTS.test_ood_size, show_default=True)
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
@_sample_option
@_id_classes_option
@click.option("--seed", default=None, type=int,
              help="Sampling seed (default: the split's seed).")
@click.option("--concurrency", default=_DEFAULTS.llm.concurrency, show_default=True,
              help="Chat calls in parallel threads, for a remote endpoint; the "
                   "mock and replay clients answer in the calling thread.")
@_llm_options
def annotate(directory: str, id_classes: str | None, seed: int | None, **flags):
    """Ask the chat model to flag pseudo-OOD nodes among unlabeled ones."""
    directory = Path(directory)
    graph, manifest, split, class_split = inputs = _load_inputs(directory, id_classes)
    seed = split.seed if seed is None else seed
    config = _run_config(directory, inputs, "goe_identifier", [seed], str(directory), flags)
    chat_cache = llm.ChatCache(harness.default_cache_path(config))
    pseudo, annotations = llm.identify_pseudo_ood(
        graph, manifest, class_split, split,
        client=harness.build_chat_client(config), cache=chat_cache,
        sample_size=config.llm.sample_size, seed=seed,
        model=config.llm.model, concurrency=config.llm.concurrency,
    )
    llm.save_pseudo_set(pseudo, directory / "pseudo_ood.json")
    accuracy = llm.annotation_accuracy(annotations, graph.labels, class_split)
    click.echo(f"annotated {len(annotations)} nodes; {len(pseudo)} flagged pseudo-OOD")
    click.echo(f"zero-shot annotation accuracy vs ground truth: {accuracy:.4f}")
    click.echo(f"cache: {chat_cache.path} ({len(chat_cache)} entries)")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@_per_class_option
@_id_classes_option
@_llm_options
def generate(directory: str, id_classes: str | None, **flags):
    """Ask the chat model to write synthetic OOD texts (generated.jsonl)."""
    directory = Path(directory)
    _, manifest, split, class_split = inputs = _load_inputs(directory, id_classes)
    config = _run_config(directory, inputs, "goe_generator", [split.seed], str(directory),
                         flags)
    ood_names = [manifest.category_names[c] for c in class_split.ood_classes]
    nodes, warnings = llm.generate_pseudo_ood(
        ood_names, per_class=config.llm.per_class, object_kind=manifest.object_kind,
        client=harness.build_chat_client(config),
        cache=llm.ChatCache(harness.default_cache_path(config)), model=config.llm.model,
    )
    llm.save_generated(nodes, directory / "generated.jsonl")
    click.echo(f"generated {len(nodes)} pseudo-OOD nodes "
               f"across {len(ood_names)} categories -> {directory}/generated.jsonl")
    for warning in warnings:
        click.echo(f"warning: {warning['category']} produced {warning['produced']} "
                   f"of {warning['requested']} requested")


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--method", required=True, type=click.Choice(harness.ALL_METHODS))
@click.option("--seed", default=None, type=int,
              help="Training seed (default: the split's seed).")
@_run_options
def train(directory: str, method: str, seed: int | None, **flags):
    """Train one seed on the saved split and write report.json + scores.csv."""
    directory = Path(directory)
    graph, manifest, split, class_split = inputs = _load_inputs(directory, flags["id_classes"])
    seed = split.seed if seed is None else seed
    out = flags["out"] or str(directory / "runs" / method)
    config = _run_config(directory, inputs, method, [seed], out, flags)
    out_dir = Path(out)
    harness.clear_run_record(out_dir)
    outcome = harness.run_seed(graph, manifest, class_split, config, seed, split=split)
    harness.write_scores_csv(outcome.test_rows, out_dir / "scores.csv")   # makes out_dir
    gcn.save_params(outcome.params, out_dir / "params.bin")
    harness.write_run(out_dir, config, [outcome.record], ["scores.csv", "params.bin"])
    rec = outcome.record
    click.echo(f"{method} seed {seed}: id_acc {rec['id_acc']:.4f} "
               f"auroc {rec['auroc']:.4f} aupr {rec['aupr']:.4f} "
               f"fpr@95 {rec['fpr_at_95']:.4f}")
    click.echo(f"run artifacts in {out_dir}")


def _read_json(path: Path):
    """The JSON value in ``path``; a file that is not JSON fails in one line."""
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise InputError(f"{path} is not JSON: {exc}") from None


def _score_files(run_dir: Path) -> list[Path]:
    """The score files that the run record config.json lists, not the stale ones
    an earlier run into the directory left. A missing or malformed record, or a
    missing file, fails in one line."""
    path = run_dir / "config.json"
    record = _read_json(path)
    names = record.get("artifacts") if isinstance(record, dict) else None
    if not isinstance(names, list) or not all(isinstance(name, str) for name in names):
        raise InputError(f"{path} is not a run record: it has no list of artifacts")
    files = [run_dir / name for name in names if Path(name).name == "scores.csv"]
    if not files:
        raise InputError(f"{path} lists no scores.csv")
    return files


@main.command("eval")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
def eval_cmd(run_dir: str):
    """Recompute metrics from the score files of a finished run."""
    run_dir = Path(run_dir)
    files = _score_files(run_dir)
    report_path, means = run_dir / "report.json", None
    if report_path.exists():
        stored = _read_json(report_path)
        means = stored.get("mean") if isinstance(stored, dict) else None
        if not isinstance(means, dict):
            raise InputError(f"{report_path} is not a report: it has no object of means")
    lines = []   # every file is read and checked before the first line prints
    for path in files:
        rows = harness.read_scores_csv(path)
        id_scores = np.array([r["score"] for r in rows if not r["is_ood_truth"]])
        ood_scores = np.array([r["score"] for r in rows if r["is_ood_truth"]])
        label = path.parent.name if path.parent != run_dir else "run"
        lines.append(f"{label}: auroc {metrics.auroc(id_scores, ood_scores):.4f} "
                     f"aupr {metrics.aupr(id_scores, ood_scores):.4f} "
                     f"fpr@95 {metrics.fpr_at_95_tpr(id_scores, ood_scores):.4f}")
    for line in lines:
        click.echo(line)
    if means is not None:
        click.echo("stored means: " + json.dumps(means, sort_keys=True))


@main.command()
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--methods", default="msp,entropy,energy,energy_prop,goe_identifier,goe_generator",
              show_default=True, help="Comma-separated method list.")
@_seeds_option
@_run_options
def compare(directory: str, methods: str, seeds: str, **flags):
    """Run several methods over the same seeds and write a results table."""
    directory = Path(directory)
    inputs = _load_inputs(directory, flags["id_classes"])
    out = flags["out"] or str(directory / "runs" / "compare")
    reports = []
    for method in [m.strip() for m in methods.split(",") if m.strip()]:
        config = _run_config(directory, inputs, method, _parse_int_list(seeds),
                             str(Path(out) / method), flags)
        reports.append(harness.run_experiment(config))
        mean = reports[-1].mean
        click.echo(f"{method}: auroc {mean['auroc']:.4f} id_acc {mean['id_acc']:.4f}")

    table = harness.format_results_table(reports)
    results_path = Path(out) / "results.md"
    results_path.write_text(table, encoding="utf-8")
    click.echo(f"results table -> {results_path}")


@main.command("sweep-count")
@click.argument("directory", type=click.Path(exists=True, file_okay=False))
@click.option("--counts", default="0,2,3,5,10,20", show_default=True)
@_seeds_option
@_run_options
def sweep_count(directory: str, counts: str, seeds: str, **flags):
    """Ablate the number of generated pseudo-OOD nodes (0 = no exposure)."""
    directory = Path(directory)
    inputs = _load_inputs(directory, flags["id_classes"])
    out = flags["out"] or str(directory / "runs" / "sweep-count")
    config = _run_config(directory, inputs, "goe_generator", _parse_int_list(seeds), out, flags)
    rows = harness.sweep_pseudo_count(config, _parse_int_list(counts))
    for row in rows:
        click.echo(f"count {row['count']:>3}: auroc {row['auroc']:.4f} "
                   f"id_acc {row['id_acc']:.4f}")
    click.echo(f"sweep table -> {Path(out) / 'sweep.md'}")


@main.command("export-scores")
@click.argument("run_dir", type=click.Path(exists=True, file_okay=False))
@click.option("--bins", default=50, show_default=True)
def export_scores(run_dir: str, bins: int):
    """Export per-group score histograms (hist.csv) from a run's scores."""
    if bins < 1:
        raise InputError(f"--bins must be at least 1, got {bins}")
    run_dir = Path(run_dir)
    source = _score_files(run_dir)[0]
    out_path = run_dir / "hist.csv"
    harness.export_histogram(source, out_path, bins=bins)
    click.echo(f"histogram ({bins} bins) from {source} -> {out_path}")


if __name__ == "__main__":
    main()
