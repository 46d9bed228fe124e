"""Reverse-mode differentiation over dense numpy arrays.

Every graph op is a forward value plus a closure routing the upstream
gradient to the operands. The two recurrences are fused ops in `cells.py`
with a hand-written backpropagation through time. Tensors are rank 0..2,
stored row-major as float64. A graph and its tensors belong to one
thread; independent graphs are safe in parallel.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import DimensionError

# Floor applied to probabilities inside log so a zero never becomes -inf.
PROB_EPS = 1e-12


class Tensor:
    """A node in the computation graph: cached value plus gradient slot.

    Leaf tensors (parameters, constants) have no parents. Non-leaf tensors
    record their operands and a backward closure. Gradients accumulate by
    summation, which is what tied/shared parameters require.
    """

    __slots__ = ("value", "grad", "op", "parents", "_backward")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 backward: Callable[[np.ndarray], None] | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self._backward = backward

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def zero_grad(self):
        """Zero the gradient in place; a gradient never set stays None.

        In place because packed parameters' gradients are views into the
        optimizer's flat buffer, which must stay shared.
        """
        if self.grad is not None:
            self.grad.fill(0.0)

    def _accumulate(self, g: np.ndarray):
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        self.grad += g

    def backward(self):
        """Backpropagate from this scalar through the whole graph.

        Visits each node exactly once in reverse topological order;
        every reachable tensor ends up with `.grad` set.
        """
        if self.value.shape != ():
            raise DimensionError(
                f"backward requires a scalar loss, got shape {self.value.shape}")
        order = _toposort(self)
        self.grad = np.ones((), dtype=np.float64)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.value.shape})"


def _toposort(root: Tensor) -> list[Tensor]:
    # Iterative post-order: children appear before the nodes that use them.
    order: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(root, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            order.append(node)
            continue
        if id(node) in seen:
            continue
        seen.add(id(node))
        stack.append((node, True))
        for parent in node.parents:
            if id(parent) not in seen:
                stack.append((parent, False))
    return order


def _require(cond: bool, msg: str):
    if not cond:
        raise DimensionError(msg)


# ---------------------------------------------------------------------------
# arithmetic


def add(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise sum; also accepts a vector b broadcast over rows of a."""
    if a.shape == b.shape:
        out = Tensor(a.value + b.value, "add", (a, b))

        def bw(g):
            a._accumulate(g)
            b._accumulate(g)
    elif a.value.ndim == 2 and b.value.ndim == 1 and a.shape[1] == b.shape[0]:
        out = Tensor(a.value + b.value, "add_rows", (a, b))

        def bw(g):
            a._accumulate(g)
            b._accumulate(g.sum(axis=0))
    else:
        raise DimensionError(f"add: incompatible shapes {a.shape} and {b.shape}")
    out._backward = bw
    return out


def affine(a: Tensor, scale: float, shift: float = 0.0) -> Tensor:
    """scale * a + shift with constant coefficients."""
    out = Tensor(scale * a.value + shift, "affine", (a,))

    def bw(g):
        a._accumulate(scale * g)
    out._backward = bw
    return out


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix/vector product following numpy matmul rank rules (ranks 1-2)."""
    ra, rb = a.value.ndim, b.value.ndim
    _require(1 <= ra <= 2 and 1 <= rb <= 2,
             f"matmul: ranks must be 1 or 2, got shapes {a.shape} and {b.shape}")
    _require(a.shape[-1] == b.shape[0],
             f"matmul: inner dimensions differ for {a.shape} and {b.shape}")
    out = Tensor(a.value @ b.value, "matmul", (a, b))

    def bw(g):
        if ra == 2 and rb == 2:
            a._accumulate(g @ b.value.T)
            b._accumulate(a.value.T @ g)
        elif ra == 2 and rb == 1:
            a._accumulate(np.outer(g, b.value))
            b._accumulate(a.value.T @ g)
        elif ra == 1 and rb == 2:
            a._accumulate(b.value @ g)
            b._accumulate(np.outer(a.value, g))
        else:
            a._accumulate(g * b.value)
            b._accumulate(g * a.value)
    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# nonlinearities


def tanh(a: Tensor) -> Tensor:
    y = np.tanh(a.value)
    out = Tensor(y, "tanh", (a,))

    def bw(g):
        a._accumulate(g * (1.0 - y * y))
    out._backward = bw
    return out


def softmax(a: Tensor) -> Tensor:
    """Softmax over the last axis (a vector, or each row of a matrix).

    Max-subtracted before exponentiation, so shifted logits are stable.
    """
    _require(a.value.ndim in (1, 2), f"softmax: rank must be 1 or 2, got {a.shape}")
    z = a.value - a.value.max(axis=-1, keepdims=True)
    e = np.exp(z)
    y = e / e.sum(axis=-1, keepdims=True)
    out = Tensor(y, "softmax", (a,))

    def bw(g):
        dot = (g * y).sum(axis=-1, keepdims=True)
        a._accumulate(y * (g - dot))
    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# shape ops


def hstack(parts: Sequence[Tensor]) -> Tensor:
    """Concatenate matrices side by side (same row count)."""
    _require(len(parts) > 0, "hstack: no operands")
    rows = parts[0].shape[0]
    for p in parts:
        _require(p.value.ndim == 2 and p.shape[0] == rows,
                 f"hstack: expected matrices with {rows} rows, got {p.shape}")
    out = Tensor(np.hstack([p.value for p in parts]), "hstack", tuple(parts))
    widths = [p.shape[1] for p in parts]

    def bw(g):
        offset = 0
        for p, w in zip(parts, widths):
            p._accumulate(g[:, offset:offset + w])
            offset += w
    out._backward = bw
    return out


def stack_rows(parts: Sequence[Tensor]) -> Tensor:
    """Stack vectors as the rows of a matrix."""
    _require(len(parts) > 0, "stack_rows: no operands")
    dim = parts[0].shape[0]
    for p in parts:
        _require(p.value.ndim == 1 and p.shape[0] == dim,
                 f"stack_rows: expected vectors of size {dim}, got {p.shape}")
    out = Tensor(np.stack([p.value for p in parts]), "stack_rows", tuple(parts))

    def bw(g):
        for i, p in enumerate(parts):
            p._accumulate(g[i])
    out._backward = bw
    return out


def take_rows(a: Tensor, indices: Sequence[int]) -> Tensor:
    """Gather rows by index (repeats allowed; used for embedding lookup)."""
    _require(a.value.ndim == 2, f"take_rows: expected a matrix, got {a.shape}")
    idx = list(indices)
    _require(all(0 <= i < a.shape[0] for i in idx),
             f"take_rows: index out of range for {a.shape}")
    out = Tensor(a.value[idx], "take_rows", (a,))

    def bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        np.add.at(a.grad, idx, g)
    out._backward = bw
    return out


def row(a: Tensor, i: int) -> Tensor:
    """Select one row of a matrix as a vector."""
    _require(a.value.ndim == 2, f"row: expected a matrix, got {a.shape}")
    _require(0 <= i < a.shape[0], f"row: index {i} out of range for {a.shape}")
    out = Tensor(a.value[i], "row", (a,))

    def bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[i] += g
    out._backward = bw
    return out


def slice_rows(a: Tensor, start: int, stop: int) -> Tensor:
    _require(a.value.ndim == 2, f"slice_rows: expected a matrix, got {a.shape}")
    _require(0 <= start < stop <= a.shape[0],
             f"slice_rows: bad range [{start}:{stop}] for {a.shape}")
    out = Tensor(a.value[start:stop], "slice_rows", (a,))

    def bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[start:stop] += g
    out._backward = bw
    return out


def pad_rows(a: Tensor, before: int, after: int) -> Tensor:
    """Add zero rows above and below a matrix (convolution padding)."""
    _require(a.value.ndim == 2, f"pad_rows: expected a matrix, got {a.shape}")
    out = Tensor(np.pad(a.value, ((before, after), (0, 0))), "pad_rows", (a,))

    def bw(g):
        a._accumulate(g[before:before + a.shape[0]])
    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# reductions over rows


def max_over_rows(a: Tensor) -> Tensor:
    """Columnwise max of a matrix; gradient goes to the first maximal row."""
    _require(a.value.ndim == 2, f"max_over_rows: expected a matrix, got {a.shape}")
    winners = a.value.argmax(axis=0)
    out = Tensor(a.value.max(axis=0), "max_over_rows", (a,))

    def bw(g):
        if a.grad is None:
            a.grad = np.zeros_like(a.value)
        a.grad[winners, np.arange(a.shape[1])] += g
    out._backward = bw
    return out


def mean_over_rows(a: Tensor) -> Tensor:
    _require(a.value.ndim == 2, f"mean_over_rows: expected a matrix, got {a.shape}")
    n = a.shape[0]
    out = Tensor(a.value.mean(axis=0), "mean_over_rows", (a,))

    def bw(g):
        a._accumulate(np.tile(g / n, (n, 1)))
    out._backward = bw
    return out


# ---------------------------------------------------------------------------
# training-only ops


def dropout(a: Tensor, rate: float, rng: np.random.Generator) -> Tensor:
    """Inverted dropout: mask and rescale, so evaluation needs no change."""
    if rate <= 0.0:
        return a
    _require(rate < 1.0, f"dropout: rate must be < 1, got {rate}")
    mask = (rng.random(a.shape) >= rate) / (1.0 - rate)
    out = Tensor(a.value * mask, "dropout", (a,))

    def bw(g):
        a._accumulate(g * mask)
    out._backward = bw
    return out


def cross_entropy(probs: Tensor, gold: Sequence[int]) -> Tensor:
    """Negative log-likelihood of gold tag indices under per-token rows.

    `probs` is (T, n_tags) of distributions; probabilities are floored at
    PROB_EPS inside the log so the loss is never NaN or -inf.
    """
    _require(probs.value.ndim == 2,
             f"cross_entropy: expected a (tokens, tags) matrix, got {probs.shape}")
    gold = list(gold)
    _require(len(gold) == probs.shape[0],
             f"cross_entropy: {len(gold)} gold tags for {probs.shape[0]} rows")
    if not all(0 <= g < probs.shape[1] for g in gold):
        raise DimensionError(
            f"cross_entropy: gold index out of range for {probs.shape[1]} tags")
    t_idx = np.arange(len(gold))
    picked = probs.value[t_idx, gold]
    clamped = np.maximum(picked, PROB_EPS)
    out = Tensor(-np.log(clamped).sum(), "cross_entropy", (probs,))

    def bw(g):
        if probs.grad is None:
            probs.grad = np.zeros_like(probs.value)
        # Below the floor the clamped log is constant, so no gradient there.
        live = picked >= PROB_EPS
        probs.grad[t_idx[live], np.asarray(gold)[live]] += -g / clamped[live]
    out._backward = bw
    return out
