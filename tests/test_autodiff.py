"""Forward values and gradients of the graph ops.

Sums, products, tanh, softmax, dropout and the loss run inside the fused
stage ops (`attention`, `tag_output`, `embed` and the recurrences), so
their tests go through those ops. Gradients of the output layer are
read through its loss, the only graph node it builds.
"""

import math

import numpy as np
import pytest

from structag.attention import KnowledgeMemory, knowledge_representation
from structag.autodiff import Tensor, dropout_mask, softmax_array
from structag.cells import ElmanCell, GruCell
from structag.encoders import OutputNetwork, RecurrentEncoder
from structag.errors import DimensionError
from structag.knowledge import Substructure
from structag.model import embed
from structag.tagger import decode_greedy, tag_output

from gradcheck_util import (assert_grads_match, elementwise_mul, numeric_grad,
                            rel_err, set_know, stack, sum_all)


def _t(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _const(rng, *shape):
    return Tensor(rng.normal(size=shape))


def _weighted_sum(expr, weights):
    # Weighted scalar readout so permuted/transposed outputs do not cancel.
    return sum_all(elementwise_mul(expr, weights))


def _memory(n) -> KnowledgeMemory:
    return KnowledgeMemory([Substructure((i,), i) for i in range(n)])


def _attention(states: Tensor, net):
    """(o, p) of the attention step over final states (memory rows, then u)."""
    return knowledge_representation(states, _memory(states.shape[0] - 1), net)


def _net(dim, weight=None, bias=None, seed=0) -> OutputNetwork:
    net = OutputNetwork(np.random.default_rng(seed), dim)
    if weight is not None:
        net.weight.value[:] = weight
    if bias is not None:
        net.bias.value[:] = bias
    return net


def _attend(u, rows, net=None):
    """Attention weights p of `u` over the memory `rows`."""
    states = Tensor(np.vstack([np.asarray(rows, float), np.asarray(u, float)]))
    return _attention(states, net or _net(states.shape[1]))[1].value


def _softmax_rows(logits):
    e = np.exp(logits - logits.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


# ---------------------------------------------------------------------------
# forward values


def test_add_same_shape():
    # The attention step adds the memory sum to the sentence vector: one
    # memory row m gets all the weight, so o = tanh(W (m + u) + b).
    net = _net(2, weight=np.eye(2), bias=0.0)
    o, _ = _attention(Tensor([[0.3, -0.5], [0.1, 0.2]]), net)
    np.testing.assert_allclose(o.value, np.tanh([0.4, -0.3]), rtol=1e-12)


def test_add_broadcast_rows():
    # The output layer adds its bias to every row: with zero weights each
    # row of scores is the bias.
    bias = np.array([1.0, 2.0, 3.0])
    y = tag_output(Tensor(np.ones((1, 2, 2))), 0.5, Tensor(np.zeros((2, 3))),
                   Tensor(bias.copy())).value
    np.testing.assert_allclose(y, np.tile(bias, (2, 1)), rtol=1e-12)


def test_add_shape_mismatch_names_both_shapes():
    with pytest.raises(DimensionError) as err:
        _attention(Tensor(np.zeros((3, 3))), _net(2))
    assert "(3, 3)" in str(err.value) and "(3, 2)" in str(err.value)


def test_matmul_hand_case():
    # Attention scores are the product M u: rows [1, 2] and [3, 4] against
    # u = [5, 6] score 17 and 39.
    p = _attend([5.0, 6.0], [[1.0, 2.0], [3.0, 4.0]])
    gap = math.exp(-22.0)
    np.testing.assert_allclose(p, [gap / (1 + gap), 1 / (1 + gap)], rtol=1e-12)


def test_matmul_inner_dim_mismatch():
    # x @ W_inᵀ needs the input width to equal the cell's input dimension.
    with pytest.raises(DimensionError):
        ElmanCell(np.random.default_rng(0), 3, 2).run(Tensor(np.zeros((2, 2))))


def test_tanh_and_sigmoid_identities():
    # An Elman cell without recurrence is tanh(W x): 0 at 0, ~1 at 50.
    elman = ElmanCell(np.random.default_rng(0), 1, 1)
    elman.w["cand"].value[:] = 1.0
    elman.u["cand"].value[:] = 0.0
    h = elman.run(Tensor([[0.0], [50.0]])).value
    assert h[0, 0] == 0.0 and h[1, 0] == pytest.approx(1.0)
    # The sigmoid lives inside the fused GRU. Zero weights put every gate
    # at sigmoid(0) = 1/2, so each state is the mean of its predecessor
    # and tanh(K_cand g); an identity K passes g through.
    def zero_gru(knowledge_dim):
        cell = GruCell(np.random.default_rng(0), 2, 2, knowledge_dim)
        for g in cell.GATES:
            cell.w[g].value[:] = 0.0
            cell.u[g].value[:] = 0.0
        return cell

    cell = zero_gru(2)
    set_know(cell, {"cand": np.eye(2)})
    cand = np.array([0.3, -2.0])
    h = cell.run(Tensor(np.ones((2, 2))), guided=Tensor(cand)).value
    np.testing.assert_array_equal(h[0], 0.5 * np.tanh(cand))
    np.testing.assert_array_equal(h[1], 0.5 * np.tanh(cand) + 0.5 * h[0])
    # Pre-activations of +-1000 saturate the gates without overflow: an
    # update gate at 0 passes the candidate through, one at 1 keeps the
    # zero initial state. The guided vector feeds each gate through its
    # own projection: reset by +1000, update by `update`, cand by cand.
    cell = zero_gru(3)
    for update, expected in ((-1000.0, np.tanh(cand)), (1000.0, np.zeros(2))):
        set_know(cell, {"reset": [[1000.0, 0.0, 0.0], [1000.0, 0.0, 0.0]],
                        "update": [[update, 0.0, 0.0], [update, 0.0, 0.0]],
                        "cand": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]})
        big = cell.run(Tensor(np.ones((1, 2))),
                       guided=Tensor(np.array([1.0, *cand])))
        assert np.all(np.isfinite(big.value))
        np.testing.assert_array_equal(big.value[0], expected)


def test_softmax_uniform():
    p = _attend(np.zeros(3), np.eye(3))
    assert np.allclose(p, [1 / 3] * 3, atol=1e-12)
    # Zero output weights and bias score every tag alike: 0, softmax 1/4.
    y = tag_output(Tensor(np.ones((1, 2, 2))), 0.5, Tensor(np.zeros((2, 4))),
                   Tensor(np.zeros(4))).value
    assert np.allclose(y, 0.0, atol=1e-12)
    assert np.allclose(softmax_array(y), 0.25, atol=1e-12)


def test_softmax_large_inputs_stable():
    for big in (1000.0, -1000.0):
        p = _attend([1.0], [[big], [big]])
        assert np.all(np.isfinite(p))
        assert np.allclose(p, [0.5, 0.5], atol=1e-12)
        y = tag_output(Tensor(np.ones((1, 3, 2))), 0.5, Tensor(np.zeros((2, 2))),
                       Tensor(np.full(2, big))).value
        assert np.all(np.isfinite(y)) and np.all(y == big)
        assert np.allclose(softmax_array(y), 0.5, atol=1e-12)


def test_softmax_shift_invariance():
    # Shifting every output bias by one constant shifts each row's scores
    # by it, and leaves the tags they decode to.
    rng = np.random.default_rng(0)
    states, w, b = _t(rng, 1, 3, 4), _t(rng, 4, 7), rng.normal(size=7)
    a = tag_output(states, 0.5, w, Tensor(b.copy()))
    shifted = tag_output(states, 0.5, w, Tensor(b + 123.456))
    assert np.max(np.abs(shifted.value - a.value - 123.456)) < 1e-6
    assert decode_greedy(a) == decode_greedy(shifted)


def test_softmax_rows_sum_to_one():
    # The scores are the blended states times the weights plus the bias,
    # and their softmax is row-stochastic.
    rng = np.random.default_rng(1)
    states, w, b = _t(rng, 2, 4, 3), _t(rng, 3, 5), _t(rng, 5)
    y = tag_output(states, 0.3, w, b).value
    hidden = 0.3 * states.value[0] + 0.7 * states.value[1]
    np.testing.assert_allclose(y, hidden @ w.value + b.value, rtol=1e-12)
    probs = softmax_array(y)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    assert np.all(probs > 0) and np.all(probs < 1)
    p = _attend(rng.normal(size=3), rng.normal(size=(6, 3)))
    assert p.sum() == pytest.approx(1.0, abs=1e-12)


def test_softmax_array_rows_bounds_and_shift():
    # The helper a caller applies to the output scores for probabilities,
    # over one vector and over (T, k) rows.
    rng = np.random.default_rng(2)
    for z in (rng.normal(size=5), rng.normal(size=(4, 6))):
        p = softmax_array(z)
        assert p.shape == z.shape
        np.testing.assert_allclose(p.sum(axis=-1), 1.0, rtol=0, atol=1e-12)
        assert np.all(p > 0)
        np.testing.assert_allclose(softmax_array(z + 37.5), p, rtol=0, atol=1e-12)
        for big in (1000.0, -1000.0):
            flat = softmax_array(np.full(z.shape, big))
            assert np.all(np.isfinite(flat))
            np.testing.assert_allclose(flat, 1.0 / z.shape[-1], rtol=0, atol=1e-12)


def test_cross_entropy_uniform_two_tokens():
    # Zero weights and bias put every token at the uniform distribution.
    loss = tag_output(Tensor(np.ones((1, 2, 2))), 0.5, Tensor(np.zeros((2, 4))),
                      Tensor(np.zeros(4)), gold=[0, 3])
    assert float(loss.value) == pytest.approx(2.0 * math.log(4.0))


def test_cross_entropy_perfect_prediction():
    loss = tag_output(Tensor(50.0 * np.eye(2)[None]), 0.5, Tensor(np.eye(2)),
                      Tensor(np.zeros(2)), gold=[0, 1])
    assert float(loss.value) == pytest.approx(0.0)


def test_cross_entropy_hand_case():
    # Logits log(p) of rows that sum to one give back p.
    probs = np.array([[0.7, 0.2, 0.1], [0.1, 0.6, 0.3]])
    loss = tag_output(Tensor(np.log(probs)[None]), 0.5, Tensor(np.eye(3)),
                      Tensor(np.zeros(3)), gold=[0, 1])
    assert float(loss.value) == pytest.approx(-(math.log(0.7) + math.log(0.6)))


def test_cross_entropy_extreme_logits_stay_finite():
    # Logits of +-1e3 put the gold tags at probabilities that underflow to
    # zero, and the others at one; the log-sum-exp keeps the loss exact.
    logits = 1e3 * np.array([[1.0, -1.0, 0.5], [-1.0, 1.0, 0.0]])
    states, bias = Tensor(logits[None].copy()), Tensor(np.zeros(3))
    weight = Tensor(np.eye(3))
    gold = [1, 0]
    loss = tag_output(states, 0.5, weight, bias, gold=gold)
    assert float(loss.value) == pytest.approx(4e3)
    loss.backward()
    for t in (states, weight, bias):
        assert np.all(np.isfinite(t.grad))
    expected = _softmax_rows(logits)
    expected[[0, 1], gold] -= 1.0
    np.testing.assert_array_equal(states.grad[0], expected)
    np.testing.assert_array_equal(bias.grad, expected.sum(axis=0))


def test_cross_entropy_gold_out_of_range():
    states, weight, bias = Tensor([[[0.5, 0.5]]]), Tensor(np.eye(2)), Tensor(np.zeros(2))
    for gold in ([2], [-1], [0, 1]):
        with pytest.raises(DimensionError):
            tag_output(states, 0.5, weight, bias, gold=gold)


def test_embed_repeated_ids_accumulate():
    e = Tensor(np.ones((3, 2)))
    sum_all(embed(e, [0, 0, 2])).backward()
    assert np.array_equal(e.grad, [[2.0, 2.0], [0.0, 0.0], [1.0, 1.0]])


@pytest.mark.parametrize("rows", [[3, 0, 5], [1, 4, 1, 1]], ids=["distinct", "repeated"])
def test_row_scatter_is_bitwise_add_at(rows):
    rng = np.random.default_rng(2)
    t = Tensor(rng.normal(size=(6, 3)))
    t.grad = rng.normal(size=(6, 3))
    g = rng.normal(size=(len(rows), 3))
    expected = t.grad.copy()
    np.add.at(expected, rows, g)
    t._accumulate(g, rows)
    assert t.grad.tobytes() == expected.tobytes()


def test_embed_rejects_ids_out_of_range():
    # numpy would wrap -1 to the last row without the check.
    for ids in ([0, 3], [-1]):
        with pytest.raises(DimensionError):
            embed(Tensor(np.ones((3, 2))), ids)


def test_backward_requires_scalar():
    with pytest.raises(DimensionError):
        Tensor([1.0, 2.0]).backward()


def test_constant_loss_gives_zero_gradients():
    x = Tensor([[1.0, 2.0], [3.0, 4.0]])
    loss = sum_all(elementwise_mul(x, Tensor(np.zeros((2, 2)))))
    loss.backward()
    assert np.array_equal(x.grad, np.zeros((2, 2)))


def test_shared_node_gradient_sums_over_uses():
    # y feeds both operands of one product: d/dx sum((c x)^2) = 2 c^2 x.
    x, c = Tensor([0.3, -0.2]), Tensor([1.5, 2.0])
    y = elementwise_mul(x, c)
    sum_all(elementwise_mul(y, y)).backward()
    np.testing.assert_allclose(x.grad, 2.0 * c.value ** 2 * x.value, rtol=1e-12)


def test_dropout_zero_rate_is_identity():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    assert dropout_mask((3, 2), 0.0, np.random.default_rng(0)) is None
    out = embed(table, [2, 0], 0.0, np.random.default_rng(0))
    np.testing.assert_array_equal(out.value, table.value[[2, 0]])


def test_dropout_without_rng_is_identity():
    table = Tensor(np.arange(6.0).reshape(3, 2))
    assert dropout_mask((3, 2), 0.5, None) is None
    np.testing.assert_array_equal(embed(table, [1], 0.5, None).value,
                                  table.value[[1]])


@pytest.mark.parametrize("rate", (1.0, float("nan")))
def test_dropout_rate_of_one_or_nan_raises(rate):
    # A rate of 1 would divide by zero; NaN passes `rate <= 0` unnoticed.
    with pytest.raises(DimensionError, match="rate must be < 1"):
        dropout_mask((3, 2), rate, np.random.default_rng(0))


def test_dropout_masks_and_rescales():
    rng = np.random.default_rng(5)
    table = Tensor(np.ones((40, 3)))
    out = embed(table, list(range(40)), 0.5, rng)
    kept = out.value != 0.0
    assert np.all(out.value[kept] == 2.0)
    assert 0 < kept.sum() < out.value.size
    sum_all(out).backward()
    assert np.array_equal(table.grad, out.value)  # grad equals mask/(1-rate)


# ---------------------------------------------------------------------------
# gradients vs central finite differences (rel err < 1e-4, step 1e-4)


def test_grad_add_same_shape():
    # With one memory row the weight is constant, so u and the row reach
    # o only through their sum.
    rng = np.random.default_rng(10)
    states, w = _t(rng, 2, 4), _const(rng, 4)
    net = _net(4, seed=10)
    assert_grads_match(lambda: _weighted_sum(_attention(states, net)[0], w), [states])


def test_grad_add_broadcast():
    rng = np.random.default_rng(11)
    states, wo, b = _t(rng, 1, 3, 4), _t(rng, 4, 5), _t(rng, 5)
    assert_grads_match(
        lambda: tag_output(states, 0.5, wo, b, gold=[4, 0, 2]), [b, states])


def test_grad_elementwise_mul():
    rng = np.random.default_rng(12)
    a, b, w = _t(rng, 2, 5), _t(rng, 2, 5), _const(rng, 2, 5)
    assert_grads_match(lambda: _weighted_sum(elementwise_mul(a, b), w), [a, b])


def test_grad_affine():
    # The joint blend alpha * s1 + (1 - alpha) * s2 scales each tower.
    rng = np.random.default_rng(13)
    states, wo, b = _t(rng, 2, 3, 4), _t(rng, 4, 2), _t(rng, 2)
    assert_grads_match(
        lambda: tag_output(states, 0.3, wo, b, gold=[1, 0, 1]), [states])


def test_grad_matmul_all_rank_combinations():
    rng = np.random.default_rng(14)
    # matrix @ matrix: states @ W of the output layer
    states, wo, b = _t(rng, 1, 3, 4), _t(rng, 4, 2), _t(rng, 2)
    assert_grads_match(
        lambda: tag_output(states, 0.5, wo, b, gold=[0, 1, 1]), [states, wo])
    # matrix @ vector (M u, W s) and vector @ matrix (pᵀM) in attention
    states, w_att = _t(rng, 4, 4), _const(rng, 4)
    net = _net(4, seed=14)
    assert_grads_match(
        lambda: _weighted_sum(_attention(states, net)[0], w_att), [states, net.weight])
    # matrix @ vector: the knowledge projections K g of a recurrence
    cell = ElmanCell(rng, 2, 3, knowledge_dim=5)
    x, guided = _t(rng, 2, 2), _t(rng, 5)
    know = set_know(cell, {"cand": rng.normal(size=(3, 5))})
    w_h = _const(rng, 2, 3)
    assert_grads_match(
        lambda: _weighted_sum(cell.run(x, guided=guided), w_h), [guided, *know])


def test_grad_sum_tanh():
    rng = np.random.default_rng(15)
    a = _t(rng, 3, 3)
    assert_grads_match(lambda: sum_all(a), [a])
    # tanh(W s + b) closes the attention step: its derivative reaches b.
    states, w = _t(rng, 3, 3), _const(rng, 3)
    net = _net(3, seed=15)
    assert_grads_match(lambda: _weighted_sum(_attention(states, net)[0], w), [net.bias])


def test_grad_softmax_vector_and_rows():
    rng = np.random.default_rng(16)
    # Vector softmax: the attention weights, reached through the scores.
    states, wv = _t(rng, 6, 3), _const(rng, 3)
    net = _net(3, seed=16)
    assert_grads_match(lambda: _weighted_sum(_attention(states, net)[0], wv), [states])
    # Row softmax: the output layer's per-token distributions, read
    # through the log-likelihood of the gold tags.
    states, wo, b = _t(rng, 1, 3, 2), _t(rng, 2, 4), _t(rng, 4)
    assert_grads_match(
        lambda: tag_output(states, 0.5, wo, b, gold=[3, 3, 0]), [states, wo, b])


def test_grad_row_ops():
    rng = np.random.default_rng(18)
    a = _t(rng, 5, 3)
    # A recurrence read at its final row only: the rnn encoder's output.
    cell, wv = GruCell(rng, 3, 2), _const(rng, 1, 2)
    assert_grads_match(
        lambda: _weighted_sum(cell.run(a, [5], last=True), wv),
        [a, *cell.params("").values()])
    wt = _const(rng, 4, 3)
    assert_grads_match(lambda: _weighted_sum(embed(a, [0, 0, 4, 2]), wt), [a])


def test_grad_cross_entropy():
    rng = np.random.default_rng(20)
    states, wo, b = _t(rng, 1, 4, 3), _t(rng, 3, 5), _t(rng, 5)
    gold = [1, 0, 4, 2]
    assert_grads_match(
        lambda: tag_output(states, 0.5, wo, b, gold=gold), [states, wo, b])


def test_grad_composed_chain():
    # A deeper composition with parameter reuse, checked end to end: one
    # embedding table and one cell serve three recurrences, the input
    # embedding feeds two of them, and the final state of the third guides
    # one of them.
    rng = np.random.default_rng(21)
    table, cell = _t(rng, 4, 2), RecurrentEncoder(rng, 2, 3, knowledge_dim=3)
    set_know(cell, {g: rng.normal(size=(3, 3)) for g in cell.GATES})
    wo, b = _t(rng, 3, 4), _t(rng, 4)

    def loss():
        x = embed(table, [0, 2, 0])
        guided = cell.encode(embed(table, [1, 3]))
        states = stack([cell.run(x), cell.run(x, guided=guided)])
        return tag_output(states, 0.4, wo, b, gold=[0, 1, 3])

    assert_grads_match(loss, [table, *cell.params("").values(), wo, b])


def test_numeric_grad_helper_on_known_derivative():
    # Sanity-check the oracle itself: d/dx sum(x^2) = 2x.
    x = Tensor([1.5, -2.0])
    num = numeric_grad(lambda: sum_all(elementwise_mul(x, x)), x)
    assert rel_err(num, 2.0 * x.value) < 1e-6
