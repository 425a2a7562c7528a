"""Contrastive equilibrium learning for speaker embeddings.

Self-supervised pretraining that couples a hypersphere uniformity term with
an angular contrastive term over paired augmented views, plus supervised
fine-tuning objectives, a from-scratch feature/encoder/training stack, and
verification-grade evaluation metrics.
"""
