"""Experiment orchestration: seeded runs, method dispatch, reports, sweeps.

A run samples a split per seed, builds pseudo-OOD supervision if the method
needs it (cache-first), trains the classifier, scores the test nodes, and
aggregates the four metrics over seeds. Everything a run writes is
deterministic given the config and a replayable chat cache; report.json in
particular carries no timestamps or machine paths.
"""

from __future__ import annotations

import csv
import ctypes
import dataclasses
import hashlib
import json
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import gcn, llm, metrics, scoring
from .gcn import TrainConfig, known_keys
from .graph import (
    STREAM_HEAD_BALANCE,
    STREAM_PSEUDO_VAL,
    ClassSplit,
    DataSplit,
    InputError,
    TextAttributedGraph,
    load_dataset,
    make_class_split,
    normalize_adjacency,
    row_stochastic_adjacency,
    sample_data_split,
    stream_rng,
)
from .objectives import EXPOSURE, KPLUS1, SUPERVISED
from .synthetic import CentroidEmbeddingProvider


@dataclass(frozen=True)
class Method:
    """One method's training objective (KPLUS1 has K+1 outputs), the scorer
    that picks its best epoch and scores the test nodes (a binary head on the
    frozen backbone scores them when ``head`` is set), and its pseudo-OOD
    source (None: ``ExperimentConfig.pseudo_source``)."""

    objective: str
    scorer: str
    pseudo_source: str | None = None
    head: bool = False


METHODS = {
    "msp": Method(SUPERVISED, "msp"),
    "entropy": Method(SUPERVISED, "entropy"),
    "energy": Method(SUPERVISED, "energy"),
    "energy_prop": Method(SUPERVISED, "energy_prop"),
    # both exposure pipelines score with plain energy
    "goe_identifier": Method(EXPOSURE, "energy", pseudo_source="identifier"),
    "goe_generator": Method(EXPOSURE, "energy", pseudo_source="generator"),
    "kplus1": Method(KPLUS1, "kplus1"),
    # binary_head keeps the energy method's backbone
    "binary_head": Method(SUPERVISED, "energy", head=True),
}
ALL_METHODS = tuple(METHODS)
EXPOSURE_METHODS = tuple(name for name, row in METHODS.items() if row.objective == EXPOSURE)

METRIC_NAMES = ("id_acc", "auroc", "aupr", "fpr_at_95")
METRIC_HEADERS = ("ID ACC", "AUROC", "AUPR", "FPR@95")


@dataclass
class LlmSettings:
    client: str = "mock"              # mock | replay | remote
    model: str = llm.DEFAULT_MODEL
    chat_cache: str | None = None     # defaults to <dataset>/annotations.jsonl
    replay_path: str | None = None
    sample_size: int = 200
    per_class: int = 10
    provider: str = "hash"            # hash | centroid | precomputed | remote
    provider_path: str | None = None
    embed_model: str = "text-embedding-3-small"
    concurrency: int = 4

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "LlmSettings":
        return cls(**known_keys(cls, data, "llm"))


@dataclass
class ExperimentConfig:
    dataset_dir: str
    id_classes: list[int]
    method: str
    output_dir: str
    seeds: list[int] = field(default_factory=lambda: [0, 1, 2, 3, 4])
    train: TrainConfig = field(default_factory=TrainConfig)
    llm: LlmSettings = field(default_factory=LlmSettings)
    exposure_weights: list[float] = field(default_factory=lambda: [0.01, 0.05])
    pseudo_source: str = "identifier"  # for kplus1 / binary_head
    pseudo_validation: bool = False    # validate on held-out pseudo-OOD nodes
    edge_mode: str = "none"
    knn_k: int = 5
    prop_alpha: float = 0.5
    prop_iterations: int = 2
    train_per_class: int = 20
    val_per_class: int = 10
    test_id_size: int = 500
    test_ood_size: int = 500

    def validate(self) -> None:
        if self.method not in ALL_METHODS:
            raise InputError(f"unknown method {self.method!r}")
        self.train.validate()
        if not self.seeds:
            raise InputError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise InputError(f"seeds must be distinct, got {self.seeds}")
        if not self.exposure_weights or min(self.exposure_weights) < 0:
            raise InputError("exposure_weights must be a non-empty list of weights >= 0, "
                             f"got {self.exposure_weights}")
        for name in ("sample_size", "per_class"):
            if getattr(self.llm, name) < 1:
                raise InputError(f"llm.{name} must be at least 1, got {getattr(self.llm, name)}")
        for name, ok, rule in (("edge_mode", self.edge_mode in ("none", "knn"), "'none' or 'knn'"),
                               ("knn_k", self.knn_k >= 0, "at least 0"),
                               ("prop_alpha", 0 <= self.prop_alpha <= 1, "in [0, 1]"),
                               ("prop_iterations", self.prop_iterations >= 0, "at least 0")):
            if not ok:
                raise InputError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)   # train and llm become dicts too

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        train = TrainConfig.from_dict(data.pop("train", {}))
        settings = LlmSettings.from_dict(data.pop("llm", {}))
        return cls(train=train, llm=settings, **known_keys(cls, data, "top-level"))

    def config_hash(self) -> str:
        payload = self.to_dict()
        payload.pop("output_dir", None)  # paths do not affect results
        canon = json.dumps(payload, sort_keys=True)
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:16]


@dataclass
class EvalReport:
    method: str
    config_hash: str
    seeds: list[int]
    per_seed: list[dict]
    mean: dict[str, float]
    std: dict[str, float] | None

    def to_dict(self) -> dict:
        data = dataclasses.asdict(self)
        if self.std is None:
            del data["std"]
        return data


def write_report(report: EvalReport, path: Path | str) -> None:
    Path(path).write_text(json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n",
                          encoding="utf-8")


def aggregate_report(method: str, config_hash: str, per_seed: list[dict]) -> EvalReport:
    seeds = [rec["seed"] for rec in per_seed]
    mean = {
        name: float(np.mean([rec[name] for rec in per_seed])) for name in METRIC_NAMES
    }
    std = None
    if len(per_seed) >= 2:
        std = {
            name: float(np.std([rec[name] for rec in per_seed], ddof=1))
            for name in METRIC_NAMES
        }
    return EvalReport(method=method, config_hash=config_hash, seeds=seeds,
                      per_seed=per_seed, mean=mean, std=std)


# ---------------------------------------------------------------------------
# LLM plumbing per config
# ---------------------------------------------------------------------------

def default_cache_path(config: ExperimentConfig) -> Path:
    if config.llm.chat_cache:
        return Path(config.llm.chat_cache)
    return Path(config.dataset_dir) / "annotations.jsonl"


def build_chat_client(config: ExperimentConfig):
    kind = config.llm.client
    if kind == "mock":
        return llm.MockChatClient()
    if kind == "replay":
        cache_path = default_cache_path(config)
        client = llm.ReplayChatClient(config.llm.replay_path or cache_path)
        if client.path.resolve() != cache_path.resolve():
            client.load()   # a bad replay file fails here, before the run's cache answers
        return client
    if kind == "remote":
        return llm.HttpChatClient()
    raise InputError(f"unknown chat client kind {kind!r}")


def build_embedding_provider(config: ExperimentConfig, graph: TextAttributedGraph,
                             manifest):
    kind = config.llm.provider
    if kind == "hash":
        return llm.HashEmbeddingProvider(manifest.embedding_dim)
    if kind == "centroid":
        return CentroidEmbeddingProvider(graph, manifest)
    if kind == "precomputed":
        if not config.llm.provider_path:
            raise InputError("precomputed provider needs provider_path")
        return llm.PrecomputedEmbeddingProvider(config.llm.provider_path)
    if kind == "remote":
        return llm.HttpEmbeddingProvider(config.llm.embed_model)
    raise InputError(f"unknown embedding provider {kind!r}")


def _split_total(total: int, buckets: int) -> list[int]:
    base, extra = divmod(total, buckets)
    return [base + (1 if i < extra else 0) for i in range(buckets)]


def _check_generated_file(nodes: list[llm.GeneratedNode], ood_names: list[str],
                          per_class: int, path: Path) -> None:
    """A generated.jsonl stands in for this run's generation, so it must fit it.

    It must hold at least one node. Every category must be one of the run's
    OOD categories, with at most ``llm.per_class`` nodes. Fewer is a
    generation shortfall and is allowed.
    """
    if not nodes:
        raise InputError(f"{path} holds no generated nodes")
    for category, count in Counter(node.category for node in nodes).items():
        if category not in ood_names:
            raise InputError(f"{path}: category {category!r} is not an OOD category "
                             f"of this run ({', '.join(map(repr, ood_names))})")
        if count > per_class:
            raise InputError(f"{path}: {count} nodes for category {category!r}, "
                             f"more than llm.per_class = {per_class}")


def build_pseudo_supervision(
    graph: TextAttributedGraph,
    manifest,
    class_split: ClassSplit,
    split: DataSplit,
    config: ExperimentConfig,
    *,
    seed: int,
    total_generated: int | None = None,
) -> tuple[llm.PseudoOodSet, TextAttributedGraph]:
    """Return the pseudo-OOD set and the graph training should run on.

    Identifier mode leaves the graph untouched; generator mode returns the
    augmented graph, whose generated nodes (ids n to n+m-1) are the pseudo set.
    """
    source = METHODS[config.method].pseudo_source or config.pseudo_source

    if source == "identifier":
        pseudo, _ = llm.identify_pseudo_ood(
            graph, manifest, class_split, split,
            client=build_chat_client(config), cache=llm.ChatCache(default_cache_path(config)),
            sample_size=config.llm.sample_size, seed=seed,
            model=config.llm.model, concurrency=config.llm.concurrency,
        )
        if len(pseudo) == 0:
            raise RuntimeError("identifier produced an empty pseudo-OOD set")
        return pseudo, graph

    if source == "generator":
        ood_names = [manifest.category_names[c] for c in class_split.ood_classes]
        generated_file = Path(config.dataset_dir) / "generated.jsonl"
        if total_generated is None and generated_file.exists():
            nodes = llm.load_generated(generated_file)
            _check_generated_file(nodes, ood_names, config.llm.per_class, generated_file)
        else:
            if total_generated is not None:
                quotas = _split_total(total_generated, len(ood_names))
            else:
                quotas = config.llm.per_class
            nodes, _ = llm.generate_pseudo_ood(
                ood_names, per_class=quotas, object_kind=manifest.object_kind,
                client=build_chat_client(config),
                cache=llm.ChatCache(default_cache_path(config)), model=config.llm.model,
            )
        texts = [node.text for node in nodes]
        vectors = llm.embed_texts(build_embedding_provider(config, graph, manifest), texts,
                                  expected_dim=graph.embedding_dim)
        work = llm.augment_graph(graph, texts, vectors, edge_mode=config.edge_mode,
                                 knn_k=config.knn_k)
        pseudo_ids = np.arange(graph.node_count, work.node_count)
        return llm.PseudoOodSet(mode="generated", node_ids=pseudo_ids), work

    raise InputError(f"unknown pseudo source {source!r}")


# ---------------------------------------------------------------------------
# Single-seed run
# ---------------------------------------------------------------------------

@dataclass
class SeedOutcome:
    record: dict
    test_rows: list[dict]    # scores.csv rows for the test nodes
    params: gcn.GcnParams


def run_seed(
    graph: TextAttributedGraph,
    manifest,
    class_split: ClassSplit,
    config: ExperimentConfig,
    seed: int,
    *,
    split: DataSplit | None = None,
    pseudo: llm.PseudoOodSet | None = None,
    work_graph: TextAttributedGraph | None = None,
    total_generated: int | None = None,
) -> SeedOutcome:
    """Train and evaluate one seed of the configured method.

    The final pass runs on the receptive field of the rows the report reads
    (the test rows, ``energy_prop``'s hops around them, and a binary head's
    train, pseudo-OOD and val rows) and reads the features in place; those
    rows equal the whole graph's up to last-bit rounding. A field whose F2
    holds every node keeps the whole-graph pass.
    """
    config.validate()
    if split is None:
        split = sample_data_split(
            graph, class_split, seed,
            train_per_class=config.train_per_class,
            val_per_class=config.val_per_class,
            test_id_size=config.test_id_size,
            test_ood_size=config.test_ood_size,
        )

    method = METHODS[config.method]
    needs_pseudo = method.objective != SUPERVISED or method.head
    if needs_pseudo and pseudo is None:
        pseudo, work_graph = build_pseudo_supervision(
            graph, manifest, class_split, split, config,
            seed=seed, total_generated=total_generated,
        )
    if work_graph is None:
        work_graph = graph

    # Default protocol validates against real OOD nodes; pseudo-validation
    # swaps in held-out pseudo-OOD nodes so no real OOD labels are consumed
    # before test time.
    train_pseudo = pseudo.node_ids if pseudo is not None else None
    val_split = split
    if config.pseudo_validation and needs_pseudo:
        if len(pseudo.node_ids) < 4:
            raise InputError("pseudo-validation needs at least 4 pseudo-OOD nodes")
        held_rng = stream_rng(seed, STREAM_PSEUDO_VAL)
        held = np.sort(held_rng.choice(pseudo.node_ids,
                                       size=max(1, len(pseudo.node_ids) // 4),
                                       replace=False))
        train_pseudo = np.setdiff1d(pseudo.node_ids, held)
        val_split = dataclasses.replace(split, val_ood=held)

    labels = class_split.compact_labels(work_graph.labels)
    features = work_graph.embeddings.astype(np.float64)
    adjacency = normalize_adjacency(work_graph)

    k = class_split.num_id_classes
    train_cfg = dataclasses.replace(config.train, seed=seed)

    # the exposure weights train as one stacked model; other objectives
    # train one model and record no weight
    weights = config.exposure_weights if method.objective == EXPOSURE else [None]
    trained = gcn.train_classifier(
        features, adjacency, labels, val_split, train_cfg, method.objective,
        id_class_count=k, pseudo_ood_ids=train_pseudo,
        exposure_weights=[weight or 0.0 for weight in weights], val_scorer=method.scorer,
        prop_alpha=config.prop_alpha, prop_iterations=config.prop_iterations,
    )
    # max keeps the first of equal scores: the earliest weight wins ties
    chosen_weight, train_result = max(zip(weights, trained),
                                      key=lambda pair: pair[1].best_val_score)

    scorer = "binary_head" if method.head else method.scorer
    read = [split.test_id, split.test_ood]
    if method.head:
        rng = stream_rng(seed, STREAM_HEAD_BALANCE)
        n_use = min(len(split.train_id), len(train_pseudo))
        if n_use == 0:
            raise RuntimeError("binary head needs a non-empty pseudo-OOD set")
        id_sel = np.sort(rng.choice(split.train_id, size=n_use, replace=False))
        ood_sel = np.sort(rng.choice(train_pseudo, size=n_use, replace=False))
        read += [id_sel, ood_sel, val_split.val_id, val_split.val_ood]
    test_field = gcn.receptive_field(adjacency, np.concatenate(read),
                                     config.prop_iterations if scorer == "energy_prop" else 0)
    out, mid, inp = test_field.rows
    if isinstance(inp, slice):   # every node is read: keep the whole-graph pass
        test_field = gcn.ReceptiveField.whole(adjacency)
        out = mid = inp
    else:   # an eval pass needs no F2 rows: read the features in place, with no |F2| × d gather
        test_field = gcn.ReceptiveField((out, mid, slice(None)), adjacency[mid], test_field.layer2)
    local = test_field.local
    trace = gcn.forward(train_result.params, test_field, features)
    labels = labels[out]

    head_weights = hidden = None
    if method.head:
        # the hidden rows are F1's; the head reads F0's
        hidden = (trace.hidden if isinstance(mid, slice)
                  else trace.hidden[np.searchsorted(mid, out)])
        backbone_val_acc = metrics.id_accuracy(trace.logits, labels, local(split.val_id),
                                               id_class_count=k)
        head_result = gcn.train_binary_head(
            hidden, local(id_sel), local(ood_sel),
            dataclasses.replace(val_split, val_id=local(val_split.val_id),
                                val_ood=local(val_split.val_ood)),
            train_cfg, backbone_val_acc=backbone_val_acc,
        )
        head_weights = head_result.params

    scores = scoring.score_nodes(
        trace.logits, scorer, hidden=hidden, head_weights=head_weights,
        row_stochastic=(row_stochastic_adjacency(adjacency if isinstance(out, slice)
                                                 else adjacency[out][:, out])
                        if scorer == "energy_prop" else None),
        alpha=config.prop_alpha, iterations=config.prop_iterations,
    )

    id_scores, ood_scores = scores[local(split.test_id)], scores[local(split.test_ood)]
    record = {
        "seed": seed,
        "id_acc": metrics.id_accuracy(trace.logits, labels, local(split.test_id),
                                      id_class_count=k),
        "auroc": metrics.auroc(id_scores, ood_scores),
        "aupr": metrics.aupr(id_scores, ood_scores),
        "fpr_at_95": metrics.fpr_at_95_tpr(id_scores, ood_scores),
        "exposure_weight": chosen_weight,
        "best_epoch": train_result.best_epoch,
        "epochs_run": len(train_result.history),
        "pseudo_count": int(len(pseudo)) if pseudo is not None else 0,
    }
    if method.head:
        record["head_best_epoch"] = head_result.best_epoch

    rows = [{"node_id": int(node_id), "is_ood_truth": truth, "method": config.method,
             "score": float(score)}
            for truth, ids, group in ((0, split.test_id, id_scores),
                                      (1, split.test_ood, ood_scores))
            for node_id, score in zip(ids, group)]
    return SeedOutcome(record=record, test_rows=rows, params=train_result.params)


# ---------------------------------------------------------------------------
# Multi-seed experiment
# ---------------------------------------------------------------------------

def write_scores_csv(rows: list[dict], path: Path | str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["node_id", "is_ood_truth", "method", "score"])
        for row in rows:
            writer.writerow([row["node_id"], row["is_ood_truth"],
                             row["method"], repr(row["score"])])


def read_scores_csv(path: Path | str) -> list[dict]:
    rows = []
    with Path(path).open(encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            try:
                rows.append({
                    "node_id": int(rec["node_id"]),
                    "is_ood_truth": int(rec["is_ood_truth"]),
                    "method": rec["method"],
                    "score": float(rec["score"]),
                })
            except KeyError as exc:
                raise InputError(f"{path}: line 1 has no {exc.args[0]!r} column") from None
            except (TypeError, ValueError) as exc:  # a short row reads None
                raise InputError(f"{path}: line {reader.line_num} is not a score row: "
                                 f"{exc}") from None
    if not rows:
        raise InputError(f"{path} holds no scores")
    return rows


def run_experiment(config: ExperimentConfig,
                   *, total_generated: int | None = None) -> EvalReport:
    """Run every seed, aggregate, and persist the run record.

    A failing seed aborts the experiment but leaves the completed seeds'
    artifacts and a partial report on disk.
    """
    config.validate()
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    graph, manifest = load_dataset(config.dataset_dir)
    class_split = make_class_split(graph.labels, config.id_classes)

    clear_run_record(out_dir)
    per_seed: list[dict] = []
    try:
        for seed in config.seeds:
            outcome = run_seed(graph, manifest, class_split, config, seed,
                               total_generated=total_generated)
            per_seed.append(outcome.record)
            write_scores_csv(outcome.test_rows, out_dir / f"seed-{seed}" / "scores.csv")
    except Exception:
        if per_seed:
            partial = aggregate_report(config.method, config.config_hash(), per_seed)
            write_report(partial, out_dir / "report.partial.json")
        raise

    return write_run(out_dir, config, per_seed,
                     [f"seed-{seed}/scores.csv" for seed in config.seeds])


def clear_run_record(out_dir: Path) -> None:
    """Delete an earlier run's config.json, report.json and report.partial.json
    from ``out_dir``, so a run that fails leaves no record of another run. The
    files a record lists stay: no path read from a run record is deleted."""
    for name in ("config.json", "report.json", "report.partial.json"):
        (out_dir / name).unlink(missing_ok=True)


def write_run(out_dir: Path, config: ExperimentConfig, per_seed: list[dict],
              artifacts: list[str]) -> EvalReport:
    """Write report.json and the run record config.json, which lists
    report.json and ``artifacts``: the run's other files, relative to ``out_dir``."""
    report = aggregate_report(config.method, config.config_hash(), per_seed)
    write_report(report, out_dir / "report.json")
    run_record = {
        "config": config.to_dict(),
        "environment": environment_info(),
        "artifacts": ["report.json", *artifacts],
    }
    (out_dir / "config.json").write_text(
        json.dumps(run_record, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return report


def environment_info() -> dict:
    """Library versions and the OpenBLAS thread count (None when no loaded
    OpenBLAS reports it): a product such as ``X.T @ G`` sums in a threaded
    order, so results are bitwise reproducible only for a fixed count."""
    return {"numpy": np.__version__, "blas_threads": blas_threads_in_use()}


def blas_threads_in_use() -> int | None:
    """The thread count of the OpenBLAS loaded in this process, read with ctypes."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split()[-1] for line in fh
                            if "openblas" in line.lower() and line.split()[-1].startswith("/")})
        libs = [ctypes.CDLL(path) for path in paths]
    except OSError:
        return None
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                fn = getattr(lib, symbol)
                fn.restype, fn.argtypes = ctypes.c_int, []
                return fn()
    return None


def _markdown_table(header: list[str], rows: list[list[str]]) -> str:
    lines = ["| " + " | ".join(header) + " |", "|" + "---|" * len(header)]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return "\n".join(lines) + "\n"


def format_results_table(reports: list[EvalReport]) -> str:
    """Markdown table of mean (and std when present) per method."""
    rows = []
    for report in reports:
        std = report.std
        rows.append([report.method] + [
            f"{report.mean[name]:.4f}" + ("" if std is None else f" ± {std[name]:.4f}")
            for name in METRIC_NAMES])
    return _markdown_table(["Method", *METRIC_HEADERS], rows)


def sweep_pseudo_count(config: ExperimentConfig, counts: list[int]) -> list[dict]:
    """Generator-mode ablation over the number of generated pseudo-OOD nodes.

    Count 0 falls back to the plain energy baseline (no exposure). Returns
    one row per count with the aggregated metrics, and writes sweep.json plus
    a markdown table mirroring the counts ablation layout.
    """
    out_dir = Path(config.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for count in counts:
        sub = dataclasses.replace(config, output_dir=str(out_dir / f"count-{count}"),
                                  method="goe_generator" if count else "energy")
        report = run_experiment(sub, total_generated=count)
        row = {"count": count}
        row.update({name: report.mean[name] for name in METRIC_NAMES})
        if report.std is not None:
            row.update({f"{name}_std": report.std[name] for name in METRIC_NAMES})
        rows.append(row)

    (out_dir / "sweep.json").write_text(json.dumps(rows, indent=2) + "\n", encoding="utf-8")
    table = [[str(row["count"])] + [f"{row[name]:.4f}" for name in METRIC_NAMES]
             for row in rows]
    (out_dir / "sweep.md").write_text(
        _markdown_table(["Pseudo-OOD count", *METRIC_HEADERS], table), encoding="utf-8")
    return rows


def export_histogram(scores_csv: Path | str, out_path: Path | str,
                     bins: int = 50) -> list[dict]:
    """Turn a scores.csv into plot-ready per-group histogram rows (hist.csv)."""
    rows = read_scores_csv(scores_csv)
    scores = np.array([r["score"] for r in rows])
    is_ood = np.array([bool(r["is_ood_truth"]) for r in rows])
    hist = metrics.score_histogram(scores, is_ood, bins=bins)
    out_path = Path(out_path)
    with out_path.open("w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_lo", "bin_hi", "count_id", "count_ood"])
        for row in hist:
            writer.writerow([repr(row["bin_lo"]), repr(row["bin_hi"]),
                             row["count_id"], row["count_ood"]])
    return hist
