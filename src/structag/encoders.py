"""Sequence encoders mapping token embeddings to fixed-size vectors.

The same encoder instance embeds both the input sentence and every
substructure, so their weights are tied by construction: there is only
one set of parameter tensors. Each encoding is one graph op: the nn and
cnn encoders are fused ops here, and the rnn encoder is its GRU run,
which returns only the final state. `encode_knowledge` gives the
sentence vector and the knowledge memory: one lookup and one GRU batch
for rnn, one lookup and encoding per sequence for nn and cnn.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .autodiff import Tensor, row_view, stack_rows
from .cells import GruCell, check_rows, glorot_uniform, zero_vector

CNN_WINDOW = 3


class _PerSequence:
    def encode_knowledge(self, lookup: Callable[[list[int]], Tensor],
                         sentence: list[int], parts: list[list[int]]
                         ) -> tuple[Tensor, Tensor]:
        """(u (d,), memory (n, d)) from the token ids of a sentence and its
        substructures: each part looked up and encoded, then the sentence."""
        memory = stack_rows([self.encode(lookup(ids)) for ids in parts])
        return self.encode(lookup(sentence)), memory


class LinearEncoder(_PerSequence):
    """Mean of the embeddings followed by a linear layer (no nonlinearity)."""

    def __init__(self, rng: np.random.Generator, embed_dim: int, out_dim: int):
        self.weight = glorot_uniform(rng, embed_dim, out_dim)  # (E, d)
        self.bias = zero_vector(out_dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}

    def encode(self, embedded: Tensor) -> Tensor:
        """One graph node: mean of the rows, then `@ weight + bias`."""
        x, w, b = embedded, self.weight, self.bias
        check_rows(x, w.shape[0], "encoder input")
        n = x.shape[0]
        mean = x.value.mean(axis=0)
        value = mean @ w.value + b.value

        def bw(g):
            b._accumulate(g)
            w._accumulate(np.outer(mean, g))
            x._accumulate(np.tile((w.value @ g) / n, (n, 1)))
        return Tensor(value, "nn_encoder", (x, w, b), bw)


class RecurrentEncoder:
    """Final hidden state of a gated recurrent pass over the sequence;
    `encode_knowledge` runs an utterance's sequences as one batched GRU op."""

    def __init__(self, rng: np.random.Generator, embed_dim: int, out_dim: int):
        self.cell = GruCell(rng, embed_dim, out_dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return self.cell.params(prefix)

    def encode(self, embedded: Tensor) -> Tensor:
        return row_view(self.cell.final_states(embedded, [embedded.shape[0]]), 0)

    def encode_knowledge(self, lookup: Callable[[list[int]], Tensor],
                         sentence: list[int], parts: list[list[int]]
                         ) -> tuple[Tensor, Tensor]:
        """(u, memory): row views of one GRU batch over one lookup of the
        parts, then the sentence."""
        ids = [i for seq in (*parts, sentence) for i in seq]
        finals = self.cell.final_states(lookup(ids), [*map(len, parts), len(sentence)])
        return row_view(finals, len(parts)), row_view(finals, slice(0, len(parts)))


class ConvolutionalEncoder(_PerSequence):
    """Window-3 convolution, tanh, then max-pooling over positions.

    Row t of the (n, 3E) window matrix is [x_{t-1}, x_t, x_{t+1}], zero
    past either end, so every token anchors a window; pooling ties break
    toward the earliest position.
    """

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
        check_rows(x, w.shape[0] // CNN_WINDOW, "encoder input")
        n, e = x.shape
        windows = self.windows(x.value)
        act = np.tanh(windows @ w.value + b.value)

        def bw(g):
            d_pre = np.zeros_like(act)
            d_pre[act.argmax(axis=0), np.arange(act.shape[1])] = g
            d_pre *= 1.0 - act * act
            b._accumulate(d_pre.sum(axis=0))
            w._accumulate(windows.T @ d_pre)
            d_windows = d_pre @ w.value.T
            d_padded = np.zeros((n + 2, e))
            for k in range(CNN_WINDOW):
                d_padded[k:k + n] += d_windows[:, k * e:(k + 1) * e]
            x._accumulate(d_padded[1:n + 1])
        return Tensor(act.max(axis=0), "cnn_encoder", (x, w, b), bw)


class OutputNetwork:
    """Weights of the dense tanh layer that `attention.knowledge_representation`
    applies to the summed sentence and memory vectors."""

    def __init__(self, rng: np.random.Generator, dim: int):
        self.weight = glorot_uniform(rng, dim, dim)
        self.bias = zero_vector(dim)

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


ENCODER_CLASSES = {"nn": LinearEncoder, "rnn": RecurrentEncoder,
                   "cnn": ConvolutionalEncoder}
ENCODER_KINDS = tuple(ENCODER_CLASSES)


def make_encoder(kind: str, rng: np.random.Generator, embed_dim: int,
                 out_dim: int):
    if kind not in ENCODER_CLASSES:
        raise ValueError(f"unknown encoder kind {kind!r}; expected one of {ENCODER_KINDS}")
    return ENCODER_CLASSES[kind](rng, embed_dim, out_dim)
