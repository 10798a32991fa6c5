#!/usr/bin/env python3
"""goe benchmark: one workload per invocation, a closed loop with one caller.

Run from the repository root:

    python3 bench/bench.py --workload compare-wide --seed 1 --seconds 22 --trace 0

The benchmark imports goe from ``src/`` of the tree it sits in, builds the
workload's planted graph from ``--seed`` and sets it up once (timed), runs
one untimed warm-up repeat, then, until ``--seconds`` have passed, runs
rounds of a few timed set-ups and one timed repeat. Every repeat's outputs
are checked. With ``--trace 1`` the repeats alternate between untraced and
traced, and the per-layer metrics come from the traced ones (see
``tracing.py``).

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` (the end-to-end metrics of
BENCHMARK.json, or its per-layer metrics under ``--trace 1``). The lines
before it name every metric with its unit and sample count. A fuller record,
with the environment and, when traced, every span, goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"

# One BLAS thread: the numbers must not depend on what else the machine's
# other cores are doing, and goe's matmuls are too small to gain from two.
BLAS_THREADS = 1
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
ID_CLASSES = [0, 1]


@dataclass(frozen=True)
class Workload:
    why: str
    nodes_per_class: int
    dim: int
    run: Callable            # (ctx, rep_dir) -> Outcome
    epochs: int = 0          # fixed epoch budget of every training (0: no training)
    setups_per_repeat: int = 1   # timed set-ups before each timed repeat
    prepare: Callable | None = None


@dataclass
class Outcome:
    outputs: dict[str, bytes] = field(default_factory=dict)  # must repeat byte for byte
    quality: Callable[[], dict] = dict   # auroc, id_acc, fpr_at_95; computed untimed
    errors: list[str] = field(default_factory=list)


@dataclass
class Context:
    goe: dict                  # goe modules by short name
    workload: Workload
    data_dir: Path
    work_dir: Path
    exp_seed: int
    concurrency: int
    replay_cache: Path | None = None

    def config(self, method: str, out_dir: Path, **overrides):
        harness, gcn = self.goe["harness"], self.goe["gcn"]
        epochs = self.workload.epochs
        return harness.ExperimentConfig(
            dataset_dir=str(self.data_dir), id_classes=list(ID_CLASSES), method=method,
            output_dir=str(out_dir), seeds=[self.exp_seed],
            train=gcn.TrainConfig(max_epochs=epochs, patience=epochs),
            llm=harness.LlmSettings(provider="centroid", concurrency=self.concurrency),
            **overrides,
        )


# ---------------------------------------------------------------------------
# Workload passes
# ---------------------------------------------------------------------------

def _experiment(ctx: Context, config, outcome: Outcome):
    """Run one experiment, keep its report bytes and check its epoch budget."""
    report = ctx.goe["harness"].run_experiment(config)
    out_dir = Path(config.output_dir)
    outcome.outputs[f"{config.method}/report.json"] = (out_dir / "report.json").read_bytes()
    for record in report.per_seed:
        if record["epochs_run"] != ctx.workload.epochs:
            outcome.errors.append(
                f"{config.method}: ran {record['epochs_run']} epochs, "
                f"budget {ctx.workload.epochs}")
    return report


def _exposure_quality(means: list[dict]) -> dict[str, float]:
    return {name: statistics.fmean(m[name] for m in means)
            for name in ("auroc", "id_acc", "fpr_at_95")}


def compare_wide(ctx: Context, rep_dir: Path) -> Outcome:
    """All eight methods, one seed each, as ``goe compare`` runs them."""
    harness = ctx.goe["harness"]
    outcome = Outcome()
    reports = [_experiment(ctx, ctx.config(method, rep_dir / method), outcome)
               for method in harness.ALL_METHODS]
    outcome.outputs["results.md"] = harness.format_results_table(reports).encode()
    means = {report.method: report.mean for report in reports}
    for method in harness.EXPOSURE_METHODS:
        if not means[method]["auroc"] > means["energy"]["auroc"]:
            outcome.errors.append(f"{method} auroc {means[method]['auroc']:.6f} does not "
                                  f"beat energy {means['energy']['auroc']:.6f}")
    outcome.quality = lambda: _exposure_quality([means[m] for m in harness.EXPOSURE_METHODS])
    return outcome


def generate_sparse(ctx: Context, rep_dir: Path) -> Outcome:
    """One goe_generator experiment with kNN edges to the generated nodes."""
    outcome = Outcome()
    config = ctx.config("goe_generator", rep_dir / "goe_generator", edge_mode="knn")
    mean = _experiment(ctx, config, outcome).mean
    outcome.quality = lambda: _exposure_quality([mean])
    return outcome


ANNOTATE_SAMPLE = 10_000


def _annotate(ctx: Context, rep_dir: Path, cache_path: Path, replay: bool) -> Outcome:
    """The call sequence of ``goe annotate`` (split sampled as ``goe prepare`` does)."""
    graph_mod, harness, llm = ctx.goe["graph"], ctx.goe["harness"], ctx.goe["llm"]
    graph, manifest = graph_mod.load_dataset(ctx.data_dir)
    class_split = graph_mod.make_class_split(graph.labels, ID_CLASSES)
    split = graph_mod.sample_data_split(graph, class_split, ctx.exp_seed)
    config = harness.ExperimentConfig(
        dataset_dir=str(ctx.data_dir), id_classes=list(ID_CLASSES),
        method="goe_identifier", output_dir=str(rep_dir),
        llm=harness.LlmSettings(client="replay" if replay else "mock",
                                replay_path=str(cache_path), chat_cache=str(cache_path),
                                sample_size=ANNOTATE_SAMPLE, concurrency=ctx.concurrency),
    )
    client = harness.build_chat_client(config)
    chat_cache = llm.ChatCache(harness.default_cache_path(config))
    cached_before = len(chat_cache)
    pseudo, annotations = llm.identify_pseudo_ood(
        graph, manifest, class_split, split, client=client, cache=chat_cache,
        sample_size=ANNOTATE_SAMPLE, seed=ctx.exp_seed, model=llm.DEFAULT_MODEL,
        concurrency=ctx.concurrency,
    )
    rep_dir.mkdir(parents=True, exist_ok=True)
    llm.save_pseudo_set(pseudo, rep_dir / "pseudo_ood.json")
    llm.annotation_accuracy(annotations, graph.labels, class_split)

    outcome = Outcome(outputs={"pseudo_ood.json": (rep_dir / "pseudo_ood.json").read_bytes()},
                      quality=lambda: _annotator_quality(ctx.goe["metrics"], annotations,
                                                         graph.labels, class_split))
    misses = len(chat_cache) - cached_before
    expected = 0 if replay else ANNOTATE_SAMPLE
    if misses != expected:
        outcome.errors.append(f"{misses} cache misses, expected {expected}")
    return outcome


def _annotator_quality(metrics, annotations, labels, class_split) -> dict[str, float]:
    """The chat annotator judged as an OOD detector on the sampled nodes.

    Its score is 1 for a node it flags as OOD and 0 otherwise. ``id_acc`` is
    the share of sampled ID nodes whose category the annotator named correctly.
    """
    id_flags, ood_flags, id_correct = [], [], []
    for ann in annotations:
        label = int(labels[ann.node_id])
        flagged = ann.parsed == "ood"
        if label in class_split.ood_classes:
            ood_flags.append(flagged)
        elif label >= 0:
            id_flags.append(flagged)
            id_correct.append(ann.category_index is not None
                              and class_split.id_classes[ann.category_index] == label)
    return {"auroc": metrics.auroc(id_flags, ood_flags),
            "id_acc": statistics.fmean(id_correct),
            "fpr_at_95": metrics.fpr_at_95_tpr(id_flags, ood_flags)}


def annotate_cold(ctx: Context, rep_dir: Path) -> Outcome:
    """Mock chat client into a fresh cache: every prompt misses and is appended."""
    return _annotate(ctx, rep_dir, rep_dir / "annotations.jsonl", replay=False)


def annotate_replay(ctx: Context, rep_dir: Path) -> Outcome:
    """Replay client and a new cache over the prepared file: every prompt hits."""
    return _annotate(ctx, rep_dir, ctx.replay_cache, replay=True)


def prepare_replay_cache(ctx: Context, rep_dir: Path) -> Outcome:
    ctx.replay_cache = ctx.work_dir / "replay-cache.jsonl"
    return _annotate(ctx, rep_dir, ctx.replay_cache, replay=False)


WORKLOADS = {
    "compare-wide": Workload(
        why="Cora-scale graph at sentence-encoder width d=384; all eight methods, "
            "so dense propagation and matmul dominate and every objective and scorer runs",
        nodes_per_class=1000, dim=384, run=compare_wide, epochs=15, setups_per_repeat=4),
    "generate-sparse": Workload(
        why="30k nodes at d=16 with the generator and kNN edges; per-node sparse and "
            "elementwise work dominates and the 2-hop field is a quarter of the graph",
        nodes_per_class=10_000, dim=16, run=generate_sparse, epochs=40),
    "annotate-cold": Workload(
        why="10k identification prompts into a fresh chat cache, so every prompt "
            "misses and appends a record: the chat layer's write path",
        nodes_per_class=4000, dim=16, run=annotate_cold),
    "annotate-replay": Workload(
        why="the same 10k prompts replayed through a new cache and replay client "
            "over an 8 MB file, so every prompt hits: the chat layer's read path",
        nodes_per_class=4000, dim=16, run=annotate_replay, prepare=prepare_replay_cache),
}


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def pin_threads() -> None:
    """Fix the BLAS pool size; must run before numpy is imported."""
    for var in BLAS_ENV:
        os.environ[var] = str(BLAS_THREADS)


def import_goe() -> dict:
    """Import goe from this tree's ``src/``, never from anywhere else."""
    package = ROOT / "src" / "goe"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"bench: goe sources not found at {package.relative_to(ROOT)}")
    sys.path.insert(0, str(package.parent))
    import goe
    if Path(goe.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"bench: imported goe from {goe.__file__}, not from this tree")
    from goe import gcn, graph, harness, llm, metrics, objectives, scoring, synthetic
    return {"gcn": gcn, "graph": graph, "harness": harness, "llm": llm,
            "metrics": metrics, "objectives": objectives, "scoring": scoring,
            "synthetic": synthetic}


def blas_threads_in_use() -> int | None:
    """Ask the loaded OpenBLAS how many threads it runs, when it says."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({line.split()[-1] for line in fh
                           if "openblas" in line.lower() and line.split()[-1].startswith("/")})
    except OSError:
        return None
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype, fn.argtypes = ctypes.c_int, []
                return int(fn())
    return None


def git_sha() -> str | None:
    """HEAD of the tree when it is a git checkout; read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(goe: dict, nproc: int, concurrency: int) -> dict:
    import numpy
    import scipy
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": git_sha(),
        "nproc": nproc,
        "blas_threads_requested": BLAS_THREADS,
        "blas_threads_in_use": blas_threads_in_use(),
        "chat_concurrency": concurrency,
        "goe_environment_info": goe["harness"].environment_info(),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------

class Run:
    """Counts operations and their failures; a failure never stops the run."""

    def __init__(self):
        self.attempted = 0
        self.failures: dict[str, str] = {}   # operation label -> first reason

    def fail(self, label: str, reason: str) -> None:
        print(f"bench: {label}: {reason}", file=sys.stderr)
        self.failures.setdefault(label, reason)

    def operation(self, label: str, fn: Callable):
        """Run ``fn``; return (result, seconds), or (None, seconds) if it raised."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            result = fn()
        except Exception:
            traceback.print_exc(file=sys.stderr)
            self.fail(label, "raised")
            return None, time.perf_counter() - start
        return result, time.perf_counter() - start

    def check(self, label: str, outcome: Outcome, reference: Outcome) -> None:
        errors = list(outcome.errors)
        for name, data in reference.outputs.items():
            if outcome.outputs.get(name) != data:
                errors.append(f"{name} differs from the first repeat's")
        for err in errors:
            self.fail(label, err)


def _dataset_digest(directory: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(directory.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        raise SystemExit("bench: BENCHMARK.json not found at the tree's root")
    spec = json.loads(spec_path.read_text())
    pin_threads()
    goe = import_goe()
    import numpy as np
    import tracing

    workload = WORKLOADS[args.workload]
    nproc = len(os.sched_getaffinity(0))
    concurrency = min(2, nproc)
    graph_seed, exp_seed = (int(v) for v in np.random.SeedSequence(args.seed).generate_state(2))
    label = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work_dir = OUT / f"work-{label}-{os.getpid()}"
    data_dir = work_dir / "data"
    ctx = Context(goe=goe, workload=workload, data_dir=data_dir, work_dir=work_dir,
                  exp_seed=exp_seed, concurrency=concurrency)
    run = Run()
    tracer = tracing.Tracer(args.workload) if args.trace else None
    missing: list[str] = []

    def traced(repeat_id: str, fn: Callable) -> Callable:
        def call():
            tracer.repeat = repeat_id
            undo, gone = tracing.install(tracer)
            missing[:] = gone
            try:
                return fn()
            finally:
                tracing.uninstall(undo)
        return call

    setup_times, setup_ids, digests = [], [], []
    graph_counts = None

    def setup():
        g, manifest = goe["synthetic"].make_planted_tag(
            seed=graph_seed, nodes_per_class=workload.nodes_per_class, dim=workload.dim)
        goe["graph"].save_dataset(g, manifest, data_dir)
        return g.node_count, len(g.edges)

    def timed_setup() -> None:
        """Write the planted graph's dataset afresh and time it."""
        nonlocal graph_counts
        setup_id = f"setup-{len(setup_ids)}"
        setup_ids.append(setup_id)
        shutil.rmtree(data_dir, ignore_errors=True)
        counts, seconds = run.operation(setup_id, traced(setup_id, setup) if tracer else setup)
        if counts is not None:
            setup_times.append(seconds)
            graph_counts = counts
            digests.append(_dataset_digest(data_dir))
            if digests[-1] != digests[0]:
                run.fail(setup_id, "wrote a different dataset for the same seed")

    try:
        timed_setup()
        if not setup_times:
            raise SystemExit("bench: the first set-up failed")

        # Untimed: optional preparation, then the warm-up repeat.
        reference, last = None, 0.0
        for name, fn in (("prepare", workload.prepare), ("warm-up", workload.run)):
            if fn is None:
                continue
            rep_dir = work_dir / name
            outcome, last = run.operation(name, lambda: fn(ctx, rep_dir))
            if outcome is not None:
                reference = reference or outcome
                run.check(name, outcome, reference)
            if name == "warm-up":
                shutil.rmtree(rep_dir, ignore_errors=True)

        # Timed: closed loop until the deadline. Each round runs the
        # workload's set-ups and then one repeat, so set-up and repeat times
        # sample the same stretch of the machine's speed. A round starts only
        # if half of the previous one's duration still fits, so a run
        # overshoots its window by at most half a round. Under --trace 1
        # every other repeat is traced, so both sides see the same machine
        # state.
        plain_times, traced_times, traced_ids = [], [], []
        deadline = time.perf_counter() + args.seconds
        k = 0
        while True:
            now = time.perf_counter()
            have_all = plain_times and (traced_times or not tracer)
            if (have_all and now + last / 2 >= deadline) or (now >= deadline and k >= 4):
                break
            for _ in range(workload.setups_per_repeat):
                timed_setup()
            repeat_id = f"rep-{k}"
            rep_dir = work_dir / repeat_id
            fn = lambda: workload.run(ctx, rep_dir)
            is_traced = bool(tracer) and k % 2 == 1
            if is_traced:
                fn = traced(repeat_id, fn)
            outcome, seconds = run.operation(repeat_id, fn)
            last = time.perf_counter() - now
            if outcome is not None:
                # A repeat that failed a check still did the work: it is timed
                # and counted as failed.
                reference = reference or outcome
                run.check(repeat_id, outcome, reference)
                (traced_times if is_traced else plain_times).append(seconds)
                if is_traced:
                    traced_ids.append(repeat_id)
            shutil.rmtree(rep_dir, ignore_errors=True)
            k += 1
        if not plain_times or (tracer and not traced_times):
            raise SystemExit("bench: no timed repeat succeeded")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        "run_s": (statistics.median(plain_times), "s", len(plain_times)),
        "peak_rss_mb": (peak_rss_mb, "MB", 1),
    }
    for name, value in reference.quality().items():
        values[name] = (value, "fraction", 1)

    if tracer:
        if workload.epochs:
            for repeat_id in traced_ids:
                trainings = sum(1 for s in tracer.spans
                                if s[6] == repeat_id and s[2] == "gcn.train_classifier")
                epochs = tracer.counts[(repeat_id, "gcn.epochs")]
                if epochs != trainings * workload.epochs:
                    run.fail(repeat_id, f"{epochs} epochs in {trainings} trainings, "
                                        f"budget {workload.epochs} each")
        layer = tracing.layer_metrics(tracer, traced_ids, setup_ids)
        layer["graph.nodes"], layer["graph.edges"] = graph_counts
        layer["trace.overhead_s"] = statistics.median(traced_times) - values["run_s"][0]
        layer["trace.missing_attrs"] = len(missing)
        declared = spec["per_layer"]
        unknown = [m["name"] for m in declared if m["name"] not in layer]
        if unknown:
            print(f"bench: no spans this run for {', '.join(unknown)} (reported as 0)",
                  file=sys.stderr)
        for m in declared:
            samples = len(setup_ids if m["name"] in tracing.SETUP_METRICS else traced_ids)
            values[m["name"]] = (layer.get(m["name"], 0), m["unit"], samples)
    else:
        declared = spec["end_to_end"]

    failed = len(run.failures)
    env = environment(goe, nproc, concurrency)
    print(f"workload {args.workload}, seed {args.seed} (graph seed {graph_seed}, "
          f"experiment seed {exp_seed}), trace {args.trace}")
    for name, (value, unit, samples) in values.items():
        print(f"  {name:34s} {value:>14.6f} {unit:6s} n={samples}")
    print(f"  {'failed_frac':34s} {failed / run.attempted:>14.6f}        "
          f"n={run.attempted} ({failed} failed)")
    for label, reason in run.failures.items():
        print(f"  failure: {label}: {reason}")
    if missing:
        print(f"  missing trace targets: {', '.join(missing)}")
    print(f"  environment: {json.dumps(env, sort_keys=True)}")

    OUT.mkdir(parents=True, exist_ok=True)
    record = {
        "workload": args.workload, "seed": args.seed, "graph_seed": graph_seed,
        "experiment_seed": exp_seed, "trace": args.trace, "environment": env,
        "setup_s": setup_times, "run_s": plain_times, "traced_run_s": traced_times,
        "values": {name: value for name, (value, _, _) in values.items()},
        "attempted": run.attempted, "failures": run.failures, "missing_trace_targets": missing,
    }
    (OUT / f"{label}.json").write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    if tracer:
        with (OUT / f"{label}-spans.jsonl").open("w") as fh:
            for rec in tracer.span_records():
                fh.write(json.dumps(rec) + "\n")

    result = {
        "correct": failed == 0,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": values[m["name"]][0], "unit": m["unit"]}
                    for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
