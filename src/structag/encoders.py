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
        """One graph node: mean of the rows, then `@ weight + bias`."""
        x, w, b = embedded, self.weight, self.bias
        _check_input(x, w.shape[0])
        n = x.shape[0]
        mean = x.value.mean(axis=0)
        out = Tensor(mean @ w.value + b.value, "nn_encoder", (x, w, b))

        def bw(g):
            b._accumulate(g)
            w._accumulate(np.outer(mean, g))
            x._accumulate(np.tile((w.value @ g) / n, (n, 1)))
        out._backward = bw
        return out


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

    Row t of the (n, 3E) window matrix is [x_{t-1}, x_t, x_{t+1}], zero
    past either end, so every token anchors a window; pooling ties break
    toward the earliest position.
    """

    kind = "cnn"

    def __init__(self, rng: np.random.Generator, embed_dim: int, out_dim: int):
        self.weight = glorot_uniform(rng, CNN_WINDOW * embed_dim, out_dim)
        self.bias = zero_vector(out_dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}

    @staticmethod
    def windows(x: np.ndarray) -> np.ndarray:
        """Window matrix of x (n, E): three slice writes, no padded copy."""
        out = np.zeros((x.shape[0], CNN_WINDOW, x.shape[1]))
        out[1:, 0], out[:, 1], out[:-1, 2] = x[:-1], x, x[1:]
        return out.reshape(x.shape[0], -1)

    def encode(self, embedded: Tensor) -> Tensor:
        """One graph node: window, `tanh(windows @ weight + bias)`, pool."""
        x, w, b = embedded, self.weight, self.bias
        _check_input(x, w.shape[0] // CNN_WINDOW)
        n, e = x.shape
        windows = self.windows(x.value)
        act = np.tanh(windows @ w.value + b.value)
        winners, cols = act.argmax(axis=0), np.arange(act.shape[1])
        out = Tensor(act.max(axis=0), "cnn_encoder", (x, w, b))

        def bw(g):
            d_pre = np.zeros_like(act)
            d_pre[winners, cols] = g
            d_pre *= 1.0 - act * act
            b._accumulate(d_pre.sum(axis=0))
            w._accumulate(windows.T @ d_pre)
            d_windows = d_pre @ w.value.T
            d_padded = np.zeros((n + 2, e))
            for k in range(CNN_WINDOW):
                d_padded[k:k + n] += d_windows[:, k * e:(k + 1) * e]
            x._accumulate(d_padded[1:n + 1])
        out._backward = bw
        return out


class OutputNetwork:
    """Weights of the dense tanh layer that `attention.knowledge_representation`
    applies to the summed sentence and memory vectors."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.weight = glorot_uniform(rng, dim, dim)
        self.bias = zero_vector(dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


def make_encoder(kind: str, rng: np.random.Generator, embed_dim: int,
                 out_dim: int):
    if kind == "nn":
        return LinearEncoder(rng, embed_dim, out_dim)
    if kind == "rnn":
        return RecurrentEncoder(rng, embed_dim, out_dim)
    if kind == "cnn":
        return ConvolutionalEncoder(rng, embed_dim, out_dim)
    raise ValueError(f"unknown encoder kind {kind!r}; expected one of {ENCODER_KINDS}")


def _check_input(embedded: Tensor, embed_dim: int):
    if (embedded.value.ndim != 2 or embedded.shape[0] < 1
            or embedded.shape[1] != embed_dim):
        raise DimensionError(
            f"encoder input must be a non-empty (length, {embed_dim}) matrix, "
            f"got {embedded.shape}")
