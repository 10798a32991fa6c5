"""Graph OOD detection with LLM-derived pseudo-outlier exposure.

Train a two-layer GCN node classifier on a text-attributed graph, obtain
pseudo-OOD supervision from a chat model (by annotating unlabeled nodes or
generating synthetic ones), regularize training with an energy-margin
penalty, and evaluate post-hoc OOD detection with AUROC / AUPR / FPR@95.
"""

from .gcn import GcnParams, TrainConfig, train_classifier
from .graph import (
    ClassSplit,
    DataSplit,
    DatasetManifest,
    InputError,
    TextAttributedGraph,
    compute_id_ratio,
    load_dataset,
    make_class_split,
    normalize_adjacency,
    row_stochastic_adjacency,
    sample_data_split,
    save_dataset,
)
from .harness import EvalReport, ExperimentConfig, LlmSettings, run_experiment
from .llm import (
    ChatCache,
    HashEmbeddingProvider,
    MockChatClient,
    PseudoOodSet,
    ReplayChatClient,
    augment_graph,
    generate_pseudo_ood,
    identify_pseudo_ood,
)
from .objectives import energy
from .synthetic import make_planted_tag

__version__ = "0.1.0"

__all__ = [
    "ChatCache",
    "ClassSplit",
    "DataSplit",
    "DatasetManifest",
    "EvalReport",
    "ExperimentConfig",
    "GcnParams",
    "HashEmbeddingProvider",
    "InputError",
    "LlmSettings",
    "MockChatClient",
    "PseudoOodSet",
    "ReplayChatClient",
    "TextAttributedGraph",
    "TrainConfig",
    "augment_graph",
    "compute_id_ratio",
    "energy",
    "generate_pseudo_ood",
    "identify_pseudo_ood",
    "load_dataset",
    "make_class_split",
    "make_planted_tag",
    "normalize_adjacency",
    "row_stochastic_adjacency",
    "run_experiment",
    "sample_data_split",
    "save_dataset",
    "train_classifier",
]
