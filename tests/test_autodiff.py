"""Forward values and gradients of every graph op."""

import math

import numpy as np
import pytest

import structag.autodiff as ad
from structag.autodiff import PROB_EPS, Tensor
from structag.cells import GruCell
from structag.errors import DimensionError

from gradcheck_util import (assert_grads_match, elementwise_mul, numeric_grad,
                            rel_err, sum_all)


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _const(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _weighted_sum(expr, weights):
    # Weighted scalar readout so permuted/transposed outputs do not cancel.
    return sum_all(elementwise_mul(expr, weights))


# ---------------------------------------------------------------------------
# forward values


def test_add_same_shape():
    out = ad.add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0, 1.0], [2.0, 2.0]]))
    assert np.array_equal(out.value, [[2.0, 3.0], [5.0, 6.0]])


def test_add_broadcast_rows():
    out = ad.add(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([10.0, 20.0]))
    assert np.array_equal(out.value, [[11.0, 22.0], [13.0, 24.0]])


def test_add_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        ad.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 2))))
    assert "(2, 3)" in str(err.value) and "(3, 2)" in str(err.value)


def test_matmul_hand_case():
    out = ad.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[5.0], [6.0]]))
    assert np.array_equal(out.value, [[17.0], [39.0]])


def test_matmul_inner_dim_mismatch():
    with pytest.raises(DimensionError):
        ad.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_tanh_and_sigmoid_identities():
    assert float(ad.tanh(Tensor(0.0)).value) == 0.0
    assert float(ad.tanh(Tensor(50.0)).value) == pytest.approx(1.0)
    # The sigmoid lives inside the fused GRU. Zero weights put every gate
    # at sigmoid(0) = 1/2, so each state is the mean of its predecessor
    # and tanh(extra_cand).
    cell = GruCell(np.random.default_rng(0), 2, 2)
    for g in cell.GATES:
        cell.w[g].value[:] = 0.0
        cell.u[g].value[:] = 0.0
    cand = np.array([0.3, -2.0])
    h = cell.sequence(Tensor(np.ones((2, 2))), {"cand": Tensor(cand)}).value
    np.testing.assert_array_equal(h[0], 0.5 * np.tanh(cand))
    np.testing.assert_array_equal(h[1], 0.5 * np.tanh(cand) + 0.5 * h[0])
    # Pre-activations of +-1000 saturate the gates without overflow: an
    # update gate at 0 passes the candidate through, one at 1 keeps the
    # zero initial state.
    for update, expected in ((-1000.0, np.tanh(cand)), (1000.0, np.zeros(2))):
        big = cell.sequence(Tensor(np.ones((1, 2))), {
            "reset": Tensor(np.full(2, 1000.0)),
            "update": Tensor(np.full(2, update)),
            "cand": Tensor(cand)})
        assert np.all(np.isfinite(big.value))
        np.testing.assert_array_equal(big.value[0], expected)


def test_softmax_uniform():
    out = ad.softmax(Tensor([0.0, 0.0, 0.0]))
    assert np.allclose(out.value, [1 / 3] * 3, atol=1e-12)


def test_softmax_large_inputs_stable():
    out = ad.softmax(Tensor([1000.0, 1000.0]))
    assert np.all(np.isfinite(out.value))
    assert np.allclose(out.value, [0.5, 0.5], atol=1e-12)


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    v = rng.normal(size=7)
    a = ad.softmax(Tensor(v)).value
    b = ad.softmax(Tensor(v + 123.456)).value
    assert np.max(np.abs(a - b)) < 1e-6


def test_softmax_rows_sum_to_one():
    rng = np.random.default_rng(1)
    out = ad.softmax(Tensor(rng.normal(size=(4, 5))))
    assert np.allclose(out.value.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(out.value > 0) and np.all(out.value < 1)


def test_cross_entropy_uniform_two_tokens():
    probs = Tensor(np.full((2, 4), 0.25))
    loss = ad.cross_entropy(probs, [0, 3])
    assert float(loss.value) == pytest.approx(2.0 * math.log(4.0))


def test_cross_entropy_perfect_prediction():
    probs = Tensor([[1.0, 0.0], [0.0, 1.0]])
    assert float(ad.cross_entropy(probs, [0, 1]).value) == pytest.approx(0.0)


def test_cross_entropy_hand_case():
    probs = Tensor([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]])
    loss = ad.cross_entropy(probs, [0, 1])
    assert float(loss.value) == pytest.approx(-(math.log(0.7) + math.log(0.6)))


def test_cross_entropy_zero_probability_is_floored():
    probs = Tensor([[0.0, 1.0]])
    loss = ad.cross_entropy(probs, [0])
    assert math.isfinite(float(loss.value))
    assert float(loss.value) == pytest.approx(-math.log(PROB_EPS))


def test_cross_entropy_gold_out_of_range():
    with pytest.raises(DimensionError):
        ad.cross_entropy(Tensor([[0.5, 0.5]]), [2])


def test_take_rows_repeated_indices_accumulate():
    e = Tensor(np.ones((3, 2)))
    loss = sum_all(ad.take_rows(e, [0, 0, 2]))
    loss.backward()
    assert np.array_equal(e.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0]).backward()


def test_constant_loss_gives_zero_gradients():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    loss = sum_all(elementwise_mul(x, Tensor(np.zeros((2, 2)))))
    x.zero_grad()
    loss.backward()
    assert np.array_equal(x.grad, np.zeros((2, 2)))


def test_shared_node_gradient_sums_over_uses():
    x = Tensor([0.3, -0.2])
    y = ad.tanh(x)
    loss = sum_all(ad.add(y, y))
    loss.backward()
    expected = 2.0 * (1.0 - np.tanh(x.value) ** 2)
    assert np.allclose(x.grad, expected, atol=1e-12)


def test_dropout_zero_rate_is_identity():
    x = Tensor([1.0, 2.0])
    assert ad.dropout(x, 0.0, np.random.default_rng(0)) is x


def test_dropout_without_rng_is_identity():
    x = Tensor([1.0, 2.0])
    assert ad.dropout(x, 0.5, None) is x


def test_dropout_masks_and_rescales():
    rng = np.random.default_rng(5)
    x = Tensor(np.ones((40, 3)))
    out = ad.dropout(x, 0.5, rng)
    kept = out.value != 0.0
    assert np.all(out.value[kept] == 2.0)
    assert 0 < kept.sum() < x.value.size
    sum_all(out).backward()
    assert np.array_equal(x.grad, out.value)  # grad equals mask/(1-rate)


# ---------------------------------------------------------------------------
# gradients vs central finite differences (rel err < 1e-4, step 1e-4)


def test_grad_add_same_shape():
    rng = np.random.default_rng(10)
    a, b, w = _t(rng, 3, 4), _t(rng, 3, 4), _const(rng, 3, 4)
    assert_grads_match(lambda: _weighted_sum(ad.add(a, b), w), [a, b])


def test_grad_add_broadcast():
    rng = np.random.default_rng(11)
    a, b, w = _t(rng, 3, 4), _t(rng, 4), _const(rng, 3, 4)
    assert_grads_match(lambda: _weighted_sum(ad.add(a, b), w), [a, b])


def test_grad_elementwise_mul():
    rng = np.random.default_rng(12)
    a, b, w = _t(rng, 2, 5), _t(rng, 2, 5), _const(rng, 2, 5)
    assert_grads_match(lambda: _weighted_sum(elementwise_mul(a, b), w), [a, b])


def test_grad_affine():
    rng = np.random.default_rng(13)
    a, w = _t(rng, 4), _const(rng, 4)
    assert_grads_match(lambda: _weighted_sum(ad.affine(a, -1.0, 1.0), w), [a])


def test_grad_matmul_all_rank_combinations():
    rng = np.random.default_rng(14)
    m1, m2 = _t(rng, 3, 4), _t(rng, 4, 2)
    v1, v2 = _t(rng, 4), _t(rng, 3)
    w_mm, w_v2, w_v4 = _const(rng, 3, 2), _const(rng, 3), _const(rng, 4)
    assert_grads_match(lambda: _weighted_sum(ad.matmul(m1, m2), w_mm), [m1, m2])
    assert_grads_match(lambda: _weighted_sum(ad.matmul(m1, v1), w_v2), [m1, v1])
    assert_grads_match(lambda: _weighted_sum(ad.matmul(v2, m1), w_v4), [v2, m1])
    assert_grads_match(lambda: ad.matmul(v1, v1), [v1])


def test_grad_sum_tanh():
    rng = np.random.default_rng(15)
    a = _t(rng, 3, 3)
    assert_grads_match(lambda: sum_all(a), [a])
    w = _const(rng, 3, 3)
    assert_grads_match(lambda: _weighted_sum(ad.tanh(a), w), [a])


def test_grad_softmax_vector_and_rows():
    rng = np.random.default_rng(16)
    v, wv = _t(rng, 5), _const(rng, 5)
    assert_grads_match(lambda: _weighted_sum(ad.softmax(v), wv), [v])
    m, wm = _t(rng, 3, 4), _const(rng, 3, 4)
    assert_grads_match(lambda: _weighted_sum(ad.softmax(m), wm), [m])


def test_grad_stack_rows():
    rng = np.random.default_rng(17)
    v1, v2, v3 = _t(rng, 4), _t(rng, 4), _t(rng, 4)
    ws = _const(rng, 3, 4)
    assert_grads_match(
        lambda: _weighted_sum(ad.stack_rows([v1, v2, v3]), ws), [v1, v2, v3])


def test_grad_row_ops():
    rng = np.random.default_rng(18)
    a = _t(rng, 5, 3)
    wv = _const(rng, 3)
    assert_grads_match(lambda: _weighted_sum(ad.row(a, 2), wv), [a])
    wt = _const(rng, 4, 3)
    assert_grads_match(
        lambda: _weighted_sum(ad.take_rows(a, [0, 0, 4, 2]), wt), [a])


def test_grad_cross_entropy():
    rng = np.random.default_rng(20)
    logits = _t(rng, 4, 5)
    gold = [1, 0, 4, 2]
    assert_grads_match(
        lambda: ad.cross_entropy(ad.softmax(logits), gold), [logits])


def test_grad_composed_chain():
    # A deeper composition with parameter reuse, checked end to end.
    rng = np.random.default_rng(21)
    w1, w2, x = _t(rng, 4, 3), _t(rng, 4, 4), _t(rng, 3)

    def loss():
        h1 = ad.tanh(ad.matmul(w1, x))
        h2 = ad.tanh(ad.matmul(w2, h1))
        both = ad.stack_rows([h1, h2])
        return sum_all(elementwise_mul(both, both))

    assert_grads_match(loss, [w1, w2, x])


def test_numeric_grad_helper_on_known_derivative():
    # Sanity-check the oracle itself: d/dx sum(x^2) = 2x.
    x = Tensor([1.5, -2.0])
    num = numeric_grad(lambda: sum_all(elementwise_mul(x, x)), x)
    assert rel_err(num, 2.0 * x.value) < 1e-6
