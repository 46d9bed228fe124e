"""Reverse-mode differentiation over dense numpy arrays.

Every graph op is a forward value plus a closure routing the upstream
gradient to the operands. Each model stage is one fused op beside the
layer it computes (`embed` in model.py, the encoders, the recurrences
in cells.py, `attention`, `tag_output` in tagger.py); here live the
tensor, the backward pass, the ops joining the stages, the loss and the
numpy helpers the fused ops share. Tensors are rank 0..2, stored
row-major as float64. A graph and its tensors belong to one thread;
independent graphs are safe in parallel.
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
# ops joining the fused stages, and the loss


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


# ---------------------------------------------------------------------------
# numpy helpers of the fused ops


def softmax_array(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, max-subtracted so large inputs are stable."""
    e = np.exp(z - z.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def softmax_array_grad(y: np.ndarray, g: np.ndarray) -> np.ndarray:
    """Gradient at the softmax input, given its output `y` and upstream `g`."""
    return y * (g - (g * y).sum(axis=-1, keepdims=True))


def dropout_mask(shape: tuple, rate: float,
                 rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted-dropout mask (kept entries 1 / (1 - rate), so evaluation needs
    no rescaling), or None when `rate <= 0` or no `rng` is given."""
    if rate <= 0.0 or rng is None:
        return None
    _require(rate < 1.0, f"dropout: rate must be < 1, got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)
