"""Reverse-mode differentiation over dense numpy arrays.

Every graph op is a forward value plus a closure routing the upstream
gradient to the operands. Each model stage is one fused op beside the
layer it computes (`embed` in model.py, the encoders, the recurrences
in cells.py, `attention`, and `tag_output` in tagger.py, which ends in
the loss), so this module defines no op: here live the tensor, the
backward pass and the numpy helpers the fused ops share. Tensors are
float64 of rank 0..2, or 3 for the towers' states. A graph and its
tensors belong to one thread; independent graphs are safe in parallel.

Inference needs no switch: without gold tags `tag_output` returns its
softmax as a leaf, and `attention` its weights, so a tagging call keeps
no graph once it returns. Gradients land only through
`Tensor._accumulate`.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import DimensionError


class Tensor:
    """A node in the computation graph: cached value plus gradient slot.

    Leaf tensors (parameters, constants) have no parents. Non-leaf tensors
    record their operands and a backward closure; an op whose value no
    loss reads, such as inference's softmax, returns a leaf. Gradients
    accumulate by summation, which is what tied/shared parameters require.
    """

    __slots__ = ("value", "grad", "op", "parents", "_backward", "reached")

    def __init__(self, value, op: str = "leaf", parents: tuple = (),
                 backward: Callable[[np.ndarray], None] | None = None):
        self.value = np.asarray(value, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.op = op
        self.parents = parents
        self._backward = backward
        self.reached: set | None = None

    @property
    def shape(self) -> tuple:
        return self.value.shape

    def _accumulate(self, g: np.ndarray, rows: int | slice | list | None = None):
        """Add g to the gradient, or to its rows `rows`: an index, a slice or
        a list of distinct ids adds in place; a list with repeated ids goes
        through `np.add.at`, so repeats add up (it is slower). A row table,
        whose `reached` is a set, records there the rows it adds to: the ids
        of a list, else every row; its owner empties it on zeroing them."""
        if self.grad is None:
            self.grad = np.zeros_like(self.value)
        if rows is None:
            self.grad += g
        elif isinstance(rows, list) and len(ids := set(rows)) < len(rows):
            np.add.at(self.grad, rows, g)
        else:
            self.grad[rows] += g
        if self.reached is not None:
            self.reached |= ids if isinstance(rows, list) else set(range(len(self.grad)))

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
    if not rate < 1.0:    # NaN too
        raise DimensionError(f"dropout: rate must be < 1, got {rate}")
    return (rng.random(shape) >= rate) / (1.0 - rate)
