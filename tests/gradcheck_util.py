"""Finite-difference gradient checking shared by several test modules."""

import numpy as np

from structag.autodiff import Tensor

STEP = 1e-4


# Loss-building helpers. The model itself never needs these two ops, so
# they live with the tests that read gradients out through them.


def sum_all(a):
    out = Tensor(a.value.sum(), "sum", (a,))

    def bw(g):
        a._accumulate(np.full_like(a.value, g))
    out._backward = bw
    return out


def elementwise_mul(a, b):
    assert a.shape == b.shape, f"elementwise_mul: {a.shape} vs {b.shape}"
    out = Tensor(a.value * b.value, "mul", (a, b))

    def bw(g):
        a._accumulate(g * b.value)
        b._accumulate(g * a.value)
    out._backward = bw
    return out


def numeric_grad(build_loss, tensor, step=STEP):
    """Central finite differences of build_loss() w.r.t. tensor.value.

    build_loss must rebuild the computation graph from current values on
    every call and return a scalar-valued node.
    """
    grad = np.zeros_like(tensor.value)
    flat_value = tensor.value.reshape(-1)
    flat_grad = grad.reshape(-1)
    for i in range(flat_value.size):
        original = flat_value[i]
        flat_value[i] = original + step
        up = float(build_loss().value)
        flat_value[i] = original - step
        down = float(build_loss().value)
        flat_value[i] = original
        flat_grad[i] = (up - down) / (2.0 * step)
    return grad


def rel_err(a, b):
    scale = max(float(np.max(np.abs(a))), float(np.max(np.abs(b))), 1.0)
    return float(np.max(np.abs(a - b))) / scale


def assert_grads_match(build_loss, tensors, tol=1e-4, step=STEP):
    """Backward pass vs numeric gradients for every tensor; returns worst error."""
    loss = build_loss()
    for t in tensors:
        t.zero_grad()
    loss.backward()
    analytic = [t.grad.copy() for t in tensors]
    worst = 0.0
    for t, a in zip(tensors, analytic):
        n = numeric_grad(build_loss, t, step)
        err = rel_err(a, n)
        worst = max(worst, err)
        assert err < tol, (
            f"gradient mismatch: rel err {err:.3e} >= {tol} "
            f"(shape {t.value.shape})")
    return worst
