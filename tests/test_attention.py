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
from structag.encoders import ENCODER_KINDS, OutputNetwork, make_encoder
from structag.errors import DimensionError
from structag.knowledge import Substructure


def _memory(n):
    return KnowledgeMemory([Substructure(positions=(i,), leaf=i)
                            for i in range(n)])


def _states(rows, u) -> Tensor:
    """The encoder's final states for memory `rows` and sentence `u`: the
    rows, then u."""
    return Tensor(np.vstack([np.asarray(rows, float), np.asarray(u, float)]))


def attend(rows, u) -> Tensor:
    """The attention weights of one step, output network drawn at random."""
    rows = np.asarray(rows, float)
    net = OutputNetwork(np.random.default_rng(0), rows.shape[1])
    return knowledge_representation(_states(rows, u), _memory(len(rows)), net)[1]


def compose(rows, u, scale=1.0):
    """(p, o) of one step whose output network is `scale` times identity."""
    rows = np.array(rows, dtype=float)
    net = OutputNetwork(np.random.default_rng(0), rows.shape[1])
    net.weight.value[:] = scale * np.eye(rows.shape[1])
    o, p = knowledge_representation(_states(rows, u), _memory(len(rows)), net)
    return p.value, o.value


def test_single_row_memory_gets_full_weight():
    p = attend([[1.0, 2.0]], [0.3, -0.7])
    np.testing.assert_array_equal(p.value, [1.0])


def test_orthogonal_rows_share_weight_uniformly():
    p = attend([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]], np.zeros(3))
    np.testing.assert_allclose(p.value, [1 / 3] * 3, rtol=1e-12)


def test_two_row_logit_gap_of_one():
    # scores 1 and 0 -> weights [e/(e+1), 1/(e+1)]
    p = attend([[1.0, 0.0], [0.0, 1.0]], [1.0, 0.0])
    e = math.e
    np.testing.assert_allclose(p.value, [e / (e + 1), 1 / (e + 1)], atol=1e-4)
    np.testing.assert_allclose(p.value, [0.7311, 0.2689], atol=1e-4)


def test_weights_normalize_on_random_draws():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n, d = rng.integers(1, 8), rng.integers(1, 6)
        rows = rng.normal(size=(n, d))
        p = attend(rows, rng.normal(size=d))
        assert p.value.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(p.value > 0)


def test_scaling_a_row_up_raises_its_weight():
    base = np.array([[1.0, 0.5], [0.4, 1.0]])
    u = np.array([1.0, 1.0])
    p1 = attend(base, u).value
    boosted = base.copy()
    boosted[0] *= 3.0
    p2 = attend(boosted, u).value
    assert p2[0] > p1[0]


def test_permuting_memory_rows_permutes_weights():
    rng = np.random.default_rng(6)
    rows = rng.normal(size=(4, 3))
    u = rng.normal(size=3)
    p = attend(rows, u).value
    perm = [2, 0, 3, 1]
    p_perm = attend(rows[perm], u).value
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
    o, p = knowledge_representation(_states([u], u), _memory(1), net)
    np.testing.assert_array_equal(p.value, [1.0])
    expected = np.tanh(net.weight.value @ (2 * u) + net.bias.value)
    np.testing.assert_allclose(o.value, expected, rtol=1e-12)


def test_representation_all_zero_inputs_give_bias_response():
    net = OutputNetwork(np.random.default_rng(8), 2)
    net.bias.value[:] = [0.3, -0.6]
    o, p = knowledge_representation(Tensor(np.zeros((3, 2))), _memory(2), net)
    np.testing.assert_allclose(p.value, [0.5, 0.5], rtol=1e-12)
    np.testing.assert_allclose(o.value, np.tanh([0.3, -0.6]), rtol=1e-12)


def test_gradients_reach_every_memory_row_and_sentence_vector():
    # Checked against the whole final-states matrix, at one memory row and
    # at three: the memory rows' gradients are states.grad[:n], the
    # sentence vector's states.grad[n].
    for n in (1, 3):
        rng = np.random.default_rng(9 + n)
        states = Tensor(rng.normal(size=(n + 1, 2)))
        net = OutputNetwork(rng, 2)
        const = rng.normal(size=2)

        def build_loss():
            o, _ = knowledge_representation(states, _memory(n), net)
            return sum_all(elementwise_mul(o, Tensor(const)))

        worst = assert_grads_match(build_loss, [states, net.weight, net.bias], tol=1e-4)
        states.grad = None
        build_loss().backward()
        assert np.all(np.abs(states.grad[:n]).sum(axis=1) > 0)
        assert np.abs(states.grad[n]).sum() > 0
        assert worst < 1e-4


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_gradients_through_each_encoders_final_states(kind):
    # The attention step over `final_states` of two substructure runs and
    # the sentence run, as the model builds it, checked down to the
    # embedded rows and the encoder's weights.
    rng = np.random.default_rng(40)
    enc, net = make_encoder(kind, rng, 3, 2), OutputNetwork(rng, 2)
    x, const = Tensor(rng.normal(size=(7, 3))), Tensor(rng.normal(size=2))

    def build_loss():
        states = enc.final_states(x, [2, 1, 4])
        o, _ = knowledge_representation(states, _memory(2), net)
        return sum_all(elementwise_mul(o, const))

    assert_grads_match(build_loss, [x, *enc.params("enc").values(),
                                    *net.params("net").values()])


def test_dimension_mismatches_rejected():
    # An empty memory, a row count other than memory.size + 1, and
    # columns other than the output network's each raise.
    net = OutputNetwork(np.random.default_rng(0), 2)
    for states, n in ((np.zeros((1, 2)), 0), (np.zeros((0, 2)), 0),
                      (np.zeros((2, 2)), 2), (np.zeros((4, 2)), 2),
                      (np.zeros(3), 2), (np.zeros((3, 3)), 2)):
        with pytest.raises(DimensionError):
            knowledge_representation(Tensor(states), _memory(n), net)


def test_attention_record_salience():
    subs = [Substructure(positions=(0, 2), leaf=1),
            Substructure(positions=(0, 1), leaf=2)]
    rec = build_attention_record("u0", ["a", "b", "c"], subs, [0.7, 0.3])
    assert rec["token_salience"] == [0.7, 0.3, 0.7]
    assert rec["edge_salience"] == [
        {"head": 0, "dependent": 1, "salience": 0.3},
        {"head": 0, "dependent": 2, "salience": 0.7}]
    parsed = json.loads(json.dumps(rec))
    assert parsed["substructures"][0]["tokens"] == ["a", "c"]
    assert parsed["substructures"][0]["weight"] == 0.7


def test_attention_record_edge_takes_max_over_paths():
    subs = [Substructure(positions=(0, 1, 2), leaf=1),
            Substructure(positions=(0, 1), leaf=2)]
    rec = build_attention_record("u1", ["x", "y", "z"], subs, [0.2, 0.8])
    by_pair = {(e["head"], e["dependent"]): e["salience"]
               for e in rec["edge_salience"]}
    assert by_pair[(0, 1)] == 0.8
    assert by_pair[(1, 2)] == 0.2


def test_attention_record_json_is_pinned():
    # The record is the JSON that inspect-attention writes, key order
    # included. Edge (0, 1) is shared by two paths and keeps the larger
    # weight; the path of weight exactly 0.0 lists no edge (1, 3) and
    # leaves its tokens' salience at 0.0.
    subs = [Substructure(positions=(0, 1, 2), leaf=2),
            Substructure(positions=(0, 1), leaf=1),
            Substructure(positions=(1, 3), leaf=3),
            Substructure(positions=(4,), leaf=4)]
    rec = build_attention_record("u7", ("a", "b", "c", "d", "e"), subs,
                                 [0.25, 0.5, 0.0, 0.25])
    assert json.dumps(rec) == (
        '{"utterance_id": "u7", "tokens": ["a", "b", "c", "d", "e"], '
        '"substructures": ['
        '{"positions": [0, 1, 2], "tokens": ["a", "b", "c"], "weight": 0.25}, '
        '{"positions": [0, 1], "tokens": ["a", "b"], "weight": 0.5}, '
        '{"positions": [1, 3], "tokens": ["b", "d"], "weight": 0.0}, '
        '{"positions": [4], "tokens": ["e"], "weight": 0.25}], '
        '"token_salience": [0.5, 0.5, 0.25, 0.0, 0.25], '
        '"edge_salience": ['
        '{"head": 0, "dependent": 1, "salience": 0.5}, '
        '{"head": 1, "dependent": 2, "salience": 0.25}]}')
