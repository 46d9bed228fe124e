"""Sequence encoders mapping token embeddings to fixed-size vectors.

One encoder instance encodes the sentence and every substructure, so
their weights are tied by construction. Every encoder has one contract,
`final_states(x, lengths)`: the (runs, d) encodings of the runs of one
embedded matrix x, run i over the next `lengths[i]` rows, as one graph
node. The rnn encoder is a GRU, whose `final_states` is its packed
`run(x, lengths, last=True)`; the nn and cnn encoders run their numpy
kernel, `encode`, once per run inside their node.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor
from .cells import GruCell, check_runs, glorot_uniform

CNN_WINDOW = 3


class _Dense:
    """A glorot-uniform (WIDTH * rows, cols) weight and a zero (cols,) bias,
    over `rows`-wide inputs: the nn and cnn encoders and the output network."""

    WIDTH = 1

    def __init__(self, rng: np.random.Generator, rows: int, cols: int):
        self.input_dim = rows
        self.weight = glorot_uniform(rng, self.WIDTH * rows, cols)
        self.bias = Tensor(np.zeros(cols))

    def params(self, prefix: str) -> dict[str, Tensor]:
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


class _PerSequence(_Dense):
    """An encoder whose `encode(x)` maps one run's rows x (n, E) to its
    encoding and a closure that adds the weight and bias gradients of an
    upstream gradient and returns the gradient at x; OP names its node."""

    def final_states(self, x: Tensor, lengths: list[int]) -> Tensor:
        """One graph node: `encode` of each run of x, checked as the GRU
        checks its runs. The backward pass takes the runs in forward order."""
        ends = np.cumsum(check_runs(x, self.input_dim, lengths)).tolist()
        runs = [slice(end - n, end) for end, n in zip(ends, lengths)]
        values, closures = zip(*(self.encode(x.value[run]) for run in runs))

        def bw(g):
            for run, closure, d in zip(runs, closures, g):
                x._accumulate(closure(d), run)
        return Tensor(np.stack(values), self.OP, (x, self.weight, self.bias), bw)


class LinearEncoder(_PerSequence):
    """Mean of the embeddings followed by a linear layer (no nonlinearity)."""

    OP = "nn_encoder"

    def encode(self, x: np.ndarray):
        """Mean of the rows, then `@ weight + bias`."""
        w, b = self.weight, self.bias
        n = x.shape[0]
        mean = x.mean(axis=0)
        value = mean @ w.value + b.value

        def bw(g):
            b._accumulate(g)
            w._accumulate(np.outer(mean, g))
            return np.tile((w.value @ g) / n, (n, 1))
        return value, bw


class RecurrentEncoder(GruCell):
    """A GRU whose final state encodes each run."""

    def final_states(self, x: Tensor, lengths: list[int]) -> Tensor:
        return self.run(x, lengths, last=True)

    # No caller in src/: bench/spans.py patches it to count encodings.
    def encode(self, embedded: Tensor) -> Tensor:
        n = check_runs(embedded, self.input_dim, [embedded.shape[0]])[0]
        return self._op([self], embedded, None, None, [1] * n, (0, n - 1))


class ConvolutionalEncoder(_PerSequence):
    """Window-3 convolution, tanh, then max-pooling over positions.

    Row t of the (n, 3E) window matrix is [x_{t-1}, x_t, x_{t+1}], zero
    past either end, so every token anchors a window; pooling ties break
    toward the earliest position.
    """

    WIDTH = CNN_WINDOW
    OP = "cnn_encoder"

    @staticmethod
    def windows(x: np.ndarray) -> np.ndarray:
        """Window matrix of x (n, E): three slice writes, no padded copy."""
        out = np.zeros((x.shape[0], CNN_WINDOW, x.shape[1]))
        out[1:, 0], out[:, 1], out[:-1, 2] = x[:-1], x, x[1:]
        return out.reshape(x.shape[0], -1)

    def encode(self, x: np.ndarray):
        """Window, `tanh(windows @ weight + bias)`, pool."""
        w, b = self.weight, self.bias
        n, e = x.shape
        windows = self.windows(x)
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
            return d_padded[1:n + 1]
        return act.max(axis=0), bw


class OutputNetwork(_Dense):
    """Weights of the dense tanh layer that `attention.knowledge_representation`
    applies to the summed sentence and memory vectors."""

    def __init__(self, rng: np.random.Generator, dim: int):
        super().__init__(rng, dim, dim)


ENCODER_CLASSES = {"nn": LinearEncoder, "rnn": RecurrentEncoder,
                   "cnn": ConvolutionalEncoder}
ENCODER_KINDS = tuple(ENCODER_CLASSES)


def make_encoder(kind: str, rng: np.random.Generator, embed_dim: int,
                 out_dim: int):
    if kind not in ENCODER_CLASSES:
        raise ValueError(f"unknown encoder kind {kind!r}; expected one of {ENCODER_KINDS}")
    return ENCODER_CLASSES[kind](rng, embed_dim, out_dim)
