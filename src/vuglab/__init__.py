"""Desk-scale lab for fairness-aware cross-domain recommendation with
virtual user generation, plus an information-theoretic verifier of the
overlap advantage.
"""

from .channels import (
    NONOVERLAPPING,
    OVERLAPPING,
    ChannelSpec,
    bayes_error,
    bias_experiment,
    exact_joint,
    fano_bound,
    info_quantities,
)
from .data import (
    CrossDomainDataset,
    DomainDataset,
    Interactions,
    SplitDataset,
    binarize,
    build_cross,
    dedupe,
    k_core_filter,
    load_interactions,
    split_per_user,
)
from .generator import GeneratorParams, attention_forward, forward_users, knn_generate
from .limiter import constrain_loss, super_loss
from .metrics import EvalReport, evaluate, hit_rate_at_k, ndcg_at_k, rank_items, ugf
from .model import CdrModel, PositivePool, TrainBatch
from .params import AdamConfig, ParameterStore, finite_diff_check, init_embeddings
from .training import CDR, CDR_VUG, KNN_VUG, TARGET_ONLY, Trainer, TrainConfig, TrainLog

__version__ = "0.1.0"
