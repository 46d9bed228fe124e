"""Sequence encoders mapping token embeddings to fixed-size vectors.

The same encoder instance embeds both the input sentence and every
substructure, so their weights are tied by construction: there is only
one set of parameter tensors.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cells import GruCell, glorot_uniform, zero_vector
from .errors import DimensionError

ENCODER_KINDS = ("nn", "rnn", "cnn")
CNN_WINDOW = 3


class LinearEncoder:
    """Mean of the embeddings followed by a linear layer (no nonlinearity)."""

    kind = "nn"

    def __init__(self, rng: np.random.Generator, embed_dim: int, out_dim: int):
        self.weight = glorot_uniform(rng, embed_dim, out_dim)  # (E, d)
        self.bias = zero_vector(out_dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}

    def encode(self, embedded: Tensor) -> Tensor:
        _check_nonempty(embedded)
        return ad.add(ad.matmul(ad.mean_over_rows(embedded), self.weight),
                      self.bias)


class RecurrentEncoder:
    """Final hidden state of a gated recurrent pass over the sequence."""

    kind = "rnn"

    def __init__(self, rng: np.random.Generator, embed_dim: int, out_dim: int):
        self.cell = GruCell(rng, embed_dim, out_dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return self.cell.params(prefix)

    def encode(self, embedded: Tensor) -> Tensor:
        return ad.row(self.cell.sequence(embedded), embedded.shape[0] - 1)


class ConvolutionalEncoder:
    """Window-3 convolution, tanh, then max-pooling over positions.

    The sequence is zero-padded by one position on both ends so every
    token anchors a window; pooling ties break toward the earliest
    position.
    """

    kind = "cnn"

    def __init__(self, rng: np.random.Generator, embed_dim: int, out_dim: int):
        self.weight = glorot_uniform(rng, CNN_WINDOW * embed_dim, out_dim)
        self.bias = zero_vector(out_dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}

    def encode(self, embedded: Tensor) -> Tensor:
        _check_nonempty(embedded)
        n = embedded.shape[0]
        padded = ad.pad_rows(embedded, 1, 1)
        windows = ad.hstack([ad.slice_rows(padded, 0, n),
                             ad.slice_rows(padded, 1, n + 1),
                             ad.slice_rows(padded, 2, n + 2)])
        activations = ad.tanh(ad.add(ad.matmul(windows, self.weight), self.bias))
        return ad.max_over_rows(activations)


class OutputNetwork:
    """Dense map applied to the summed sentence and memory vectors."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.weight = glorot_uniform(rng, dim, dim)
        self.bias = zero_vector(dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}

    def apply(self, vec: Tensor) -> Tensor:
        return ad.tanh(ad.add(ad.matmul(self.weight, vec), self.bias))


def make_encoder(kind: str, rng: np.random.Generator, embed_dim: int,
                 out_dim: int):
    if kind == "nn":
        return LinearEncoder(rng, embed_dim, out_dim)
    if kind == "rnn":
        return RecurrentEncoder(rng, embed_dim, out_dim)
    if kind == "cnn":
        return ConvolutionalEncoder(rng, embed_dim, out_dim)
    raise ValueError(f"unknown encoder kind {kind!r}; expected one of {ENCODER_KINDS}")


def _check_nonempty(embedded: Tensor):
    if embedded.value.ndim != 2 or embedded.shape[0] < 1:
        raise DimensionError(
            f"encoder input must be a non-empty (length, embed) matrix, "
            f"got {embedded.shape}")
