"""Contrastive equilibrium learning for speaker embeddings.

Self-supervised pretraining that couples a hypersphere uniformity term with
an angular contrastive term over paired augmented views, plus supervised
fine-tuning objectives, a from-scratch feature/encoder/training stack, and
verification-grade evaluation metrics.
"""

from .config import RunConfig, desk_profile, load_config, fullscale_profile, save_config
from .embedding import EmbeddingBatch, SimilarityParams, cosine, normalize
from .encoder import Encoder, EncoderConfig, LrSchedule, load_checkpoint, save_checkpoint
from .evaluation import DcfParams, Trial, det_points, eer, min_dcf, score_trials
from .features import FeatureConfig, Waveform, logmel, read_wav, write_wav
from .finetune import (
    AdaCosState,
    LabeledBatch,
    MarginConfig,
    adacos_loss,
    arcface_loss,
    cosface_loss,
    ge2e_loss,
)
from .losses import (
    CelWeights,
    KernelParam,
    LossOutput,
    acont_loss,
    aprot_loss,
    gaussian_potential,
    pairwise_uniformity,
    similarity_loss,
    total_loss,
    uniformity_loss,
)
from .trainer import (
    CorpusSource,
    FinetuneConfig,
    PretrainConfig,
    embed_utterances,
    finetune,
    pretrain,
)

__all__ = [
    "AdaCosState",
    "CelWeights",
    "CorpusSource",
    "DcfParams",
    "EmbeddingBatch",
    "Encoder",
    "EncoderConfig",
    "FeatureConfig",
    "FinetuneConfig",
    "KernelParam",
    "LabeledBatch",
    "LossOutput",
    "LrSchedule",
    "MarginConfig",
    "PretrainConfig",
    "RunConfig",
    "SimilarityParams",
    "Trial",
    "Waveform",
    "acont_loss",
    "adacos_loss",
    "aprot_loss",
    "arcface_loss",
    "cosface_loss",
    "cosine",
    "desk_profile",
    "det_points",
    "eer",
    "embed_utterances",
    "finetune",
    "gaussian_potential",
    "ge2e_loss",
    "load_checkpoint",
    "load_config",
    "logmel",
    "min_dcf",
    "normalize",
    "fullscale_profile",
    "pairwise_uniformity",
    "pretrain",
    "read_wav",
    "save_checkpoint",
    "save_config",
    "score_trials",
    "similarity_loss",
    "total_loss",
    "uniformity_loss",
    "write_wav",
]
