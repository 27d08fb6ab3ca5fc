"""Minimal neural-network substrate in numpy with manual backpropagation.

Supports the fine-tuning paradigm (mini-BERT in :mod:`repro.bert`) and the
LSTM classifier (:mod:`repro.ml.lstm`).  The API is deliberately small:
layers cache their forward inputs and implement ``backward(grad)``;
parameters accumulate gradients; optimizers step over parameter lists.
"""

from repro.nn.layers import (
    Dropout,
    Embedding,
    GELU,
    LayerNorm,
    Linear,
    Module,
    Packing,
    Parameter,
)
from repro.nn.attention import MultiHeadSelfAttention
from repro.nn.transformer import EncoderBlock, TransformerEncoder, TransformerConfig
from repro.nn.losses import softmax_cross_entropy
from repro.nn.optim import SGD, Adam, clip_gradients

__all__ = [
    "Parameter",
    "Module",
    "Packing",
    "Linear",
    "Embedding",
    "LayerNorm",
    "Dropout",
    "GELU",
    "MultiHeadSelfAttention",
    "EncoderBlock",
    "TransformerEncoder",
    "TransformerConfig",
    "softmax_cross_entropy",
    "SGD",
    "Adam",
    "clip_gradients",
]
