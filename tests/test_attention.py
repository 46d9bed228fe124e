"""Inner-product attention over the substructure memory.

The attention step is one op, `knowledge_representation`; the weights p
are its second output and the memory sum pᵀM is read off the first with
an output network whose weights make o = tanh(W (pᵀM + u) + b) easy to
invert.
"""

import json
import math

import numpy as np
import pytest

from gradcheck_util import assert_grads_match, elementwise_mul, sum_all
from structag.attention import (KnowledgeMemory, build_attention_record,
                                knowledge_representation)
from structag.autodiff import Tensor
from structag.encoders import OutputNetwork
from structag.errors import DimensionError
from structag.knowledge import Substructure


def _memory(rows, n_subs=None):
    rows = np.array(rows, dtype=float)
    n = rows.shape[0] if n_subs is None else n_subs
    subs = [Substructure(positions=(i,), forms=(f"w{i}",), leaf=i)
            for i in range(n)]
    return KnowledgeMemory(vectors=Tensor(rows), substructures=subs)


def attend(u: Tensor, memory: KnowledgeMemory) -> Tensor:
    """The attention weights of one step, output network drawn at random."""
    net = OutputNetwork(np.random.default_rng(0), memory.vectors.shape[1])
    return knowledge_representation(u, memory, net)[1]


def compose(rows, u, scale=1.0):
    """(p, o) of one step whose output network is `scale` times identity."""
    rows = np.array(rows, dtype=float)
    net = OutputNetwork(np.random.default_rng(0), rows.shape[1])
    net.weight.value[:] = scale * np.eye(rows.shape[1])
    o, p = knowledge_representation(Tensor(np.array(u, dtype=float)),
                                    _memory(rows), net)
    return p.value, o.value


def test_single_row_memory_gets_full_weight():
    p = attend(Tensor(np.array([0.3, -0.7])), _memory([[1.0, 2.0]]))
    np.testing.assert_array_equal(p.value, [1.0])


def test_orthogonal_rows_share_weight_uniformly():
    mem = _memory([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
    p = attend(Tensor(np.zeros(3)), mem)
    np.testing.assert_allclose(p.value, [1 / 3] * 3, rtol=1e-12)


def test_two_row_logit_gap_of_one():
    # scores 1 and 0 -> weights [e/(e+1), 1/(e+1)]
    mem = _memory([[1.0, 0.0], [0.0, 1.0]])
    p = attend(Tensor(np.array([1.0, 0.0])), mem)
    e = math.e
    np.testing.assert_allclose(p.value, [e / (e + 1), 1 / (e + 1)], atol=1e-4)
    np.testing.assert_allclose(p.value, [0.7311, 0.2689], atol=1e-4)


def test_weights_normalize_on_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, d = rng.integers(1, 8), rng.integers(1, 6)
        mem = _memory(rng.normal(size=(n, d)))
        p = attend(Tensor(rng.normal(size=d)), mem)
        assert p.value.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p.value > 0)


def test_scaling_a_row_up_raises_its_weight():
    base = np.array([[1.0, 0.5], [0.4, 1.0]])
    u = np.array([1.0, 1.0])
    p1 = attend(Tensor(u.copy()), _memory(base)).value
    boosted = base.copy()
    boosted[0] *= 3.0
    p2 = attend(Tensor(u.copy()), _memory(boosted)).value
    assert p2[0] > p1[0]


def test_permuting_memory_rows_permutes_weights():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(4, 3))
    u = rng.normal(size=3)
    p = attend(Tensor(u.copy()), _memory(rows)).value
    perm = [2, 0, 3, 1]
    p_perm = attend(Tensor(u.copy()), _memory(rows[perm])).value
    np.testing.assert_allclose(p_perm, p[perm], rtol=1e-12)


def test_compose_one_hot_selects_row():
    # Scores 0, -1000 and -2000 give weights exactly [0, 1, 0]; a small
    # output weight keeps tanh out of saturation.
    rows = np.array([[0.0, 2.0], [0.0, 1.0], [0.0, 3.0]])
    u = np.array([0.0, -1000.0])
    p, o = compose(rows, u, scale=1e-3)
    np.testing.assert_array_equal(p, [0.0, 1.0, 0.0])
    np.testing.assert_allclose(o, np.tanh(1e-3 * (rows[1] + u)), rtol=1e-12)


def test_compose_equal_rows_reproduce_the_row():
    rows = np.array([[2.0, -1.0]] * 4)
    u = np.array([0.3, 0.1])
    p, o = compose(rows, u)
    np.testing.assert_allclose(p, np.full(4, 0.25), rtol=1e-12)
    np.testing.assert_allclose(o, np.tanh(rows[0] + u), rtol=1e-12)


def test_compose_hand_weights():
    # Scores u0, u1 and u0 + u1 weight the rows 0.2, 0.3 and 0.5, so the
    # memory sum is 0.2 [1, 0] + 0.3 [0, 1] + 0.5 [1, 1] = [0.7, 0.8].
    rows = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
    u = np.log([0.5 / 0.3, 0.5 / 0.2])
    p, o = compose(rows, u)
    np.testing.assert_allclose(p, [0.2, 0.3, 0.5], rtol=1e-12)
    np.testing.assert_allclose(o, np.tanh(np.array([0.7, 0.8]) + u), rtol=1e-12)


def test_representation_with_memory_equal_to_sentence():
    net = OutputNetwork(np.random.default_rng(7), 3)
    u = np.array([0.4, -0.2, 0.9])
    o, p = knowledge_representation(Tensor(u.copy()), _memory([u]), net)
    np.testing.assert_array_equal(p.value, [1.0])
    expected = np.tanh(net.weight.value @ (2 * u) + net.bias.value)
    np.testing.assert_allclose(o.value, expected, rtol=1e-12)


def test_representation_all_zero_inputs_give_bias_response():
    net = OutputNetwork(np.random.default_rng(8), 2)
    net.bias.value[:] = [0.3, -0.6]
    o, p = knowledge_representation(Tensor(np.zeros(2)),
                                    _memory([[0.0, 0.0], [0.0, 0.0]]), net)
    np.testing.assert_allclose(p.value, [0.5, 0.5], rtol=1e-12)
    np.testing.assert_allclose(o.value, np.tanh([0.3, -0.6]), rtol=1e-12)


def test_gradients_reach_every_memory_row_and_sentence_vector():
    rng = np.random.default_rng(9)
    vectors = Tensor(rng.normal(size=(3, 2)))
    u = Tensor(rng.normal(size=2))
    net = OutputNetwork(rng, 2)
    const = rng.normal(size=2)

    def build_loss():
        mem = KnowledgeMemory(vectors=vectors, substructures=[
            Substructure(positions=(i,), forms=(), leaf=i) for i in range(3)])
        o, _ = knowledge_representation(u, mem, net)
        return sum_all(elementwise_mul(o, Tensor(const)))

    worst = assert_grads_match(
        build_loss, [vectors, u, net.weight, net.bias], tol=1e-4)
    build_loss().backward()
    assert np.all(np.abs(vectors.grad).sum(axis=1) > 0)
    assert worst < 1e-4


def test_dimension_mismatches_rejected():
    mem = _memory([[1.0, 2.0], [3.0, 4.0]])
    with pytest.raises(DimensionError):
        attend(Tensor(np.array([1.0, 2.0, 3.0])), mem)
    with pytest.raises(DimensionError):
        KnowledgeMemory(vectors=Tensor(np.zeros((0, 2))), substructures=[])
    with pytest.raises(DimensionError):
        _memory([[1.0, 2.0]], n_subs=3)


def test_attention_record_salience():
    subs = [Substructure(positions=(0, 2), forms=("a", "c"), leaf=1),
            Substructure(positions=(0, 1), forms=("a", "b"), leaf=2)]
    rec = build_attention_record("u0", ["a", "b", "c"], subs, [0.7, 0.3])
    assert rec.token_salience == [0.7, 0.3, 0.7]
    assert rec.edge_salience == [
        {"head": 0, "dependent": 1, "salience": 0.3},
        {"head": 0, "dependent": 2, "salience": 0.7}]
    payload = json.dumps(rec.to_dict())
    parsed = json.loads(payload)
    assert parsed["substructures"][0]["tokens"] == ["a", "c"]
    assert parsed["substructures"][0]["weight"] == 0.7


def test_attention_record_edge_takes_max_over_paths():
    subs = [Substructure(positions=(0, 1, 2), forms=(), leaf=1),
            Substructure(positions=(0, 1), forms=(), leaf=2)]
    rec = build_attention_record("u1", ["x", "y", "z"], subs, [0.2, 0.8])
    by_pair = {(e["head"], e["dependent"]): e["salience"]
               for e in rec.edge_salience}
    assert by_pair[(0, 1)] == 0.8
    assert by_pair[(1, 2)] == 0.2
