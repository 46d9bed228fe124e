"""Sequence encoders: averaging, recurrent, and convolutional."""

import numpy as np
import pytest

from gradcheck_util import assert_grads_match, elementwise_mul, sum_all
from structag.attention import KnowledgeMemory, knowledge_representation
from structag.autodiff import Tensor
from structag.encoders import (CNN_WINDOW, ENCODER_KINDS, ConvolutionalEncoder,
                               OutputNetwork, make_encoder)
from structag.errors import DimensionError
from structag.knowledge import Substructure

RNG = lambda seed=0: np.random.default_rng(seed)


def _embed(rows):
    return Tensor(np.array(rows, dtype=float))


# ---------------------------------------------------------------------------
# averaging encoder


def test_nn_single_token_is_projection():
    enc = make_encoder("nn", RNG(1), 3, 2)
    x = np.array([0.5, -1.0, 2.0])
    out = enc.encode(_embed([x]))
    expected = x @ enc.weight.value + enc.bias.value
    np.testing.assert_allclose(out.value, expected, rtol=1e-12)


def test_nn_repeated_token_matches_single():
    enc = make_encoder("nn", RNG(2), 4, 3)
    row = [0.3, 0.7, -0.2, 1.1]
    once = enc.encode(_embed([row]))
    thrice = enc.encode(_embed([row, row, row]))
    np.testing.assert_allclose(once.value, thrice.value, atol=1e-15)


def test_nn_three_token_oracle():
    enc = make_encoder("nn", RNG(3), 3, 5)
    rows = RNG(30).normal(size=(3, 3))
    out = enc.encode(Tensor(rows.copy()))
    expected = rows.mean(axis=0) @ enc.weight.value + enc.bias.value
    np.testing.assert_allclose(out.value, expected, rtol=1e-12)


def test_nn_order_insensitive():
    enc = make_encoder("nn", RNG(4), 3, 3)
    rows = RNG(40).normal(size=(4, 3))
    a = enc.encode(Tensor(rows.copy()))
    b = enc.encode(Tensor(rows[::-1].copy()))
    np.testing.assert_allclose(a.value, b.value, atol=1e-12)


# ---------------------------------------------------------------------------
# recurrent encoder


def _gru_numpy(cell, xs):
    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    w = {g: cell.w[g].value for g in cell.GATES}
    u = {g: cell.u[g].value for g in cell.GATES}
    h = np.zeros(cell.hidden_dim)
    for x in xs:
        r = sig(w["reset"] @ x + u["reset"] @ h)
        z = sig(w["update"] @ x + u["update"] @ h)
        cand = np.tanh(w["cand"] @ x + u["cand"] @ (h * r))
        h = (1.0 - z) * cand + z * h
    return h


def test_rnn_single_token_equals_one_cell_step():
    enc = make_encoder("rnn", RNG(5), 3, 4)
    x = _embed([[0.2, -0.4, 0.9]])
    via_encoder = enc.encode(x)
    via_cell = enc.cell.sequence(x)
    assert via_cell.shape == (1, 4)
    np.testing.assert_array_equal(via_encoder.value, via_cell.value[0])


def test_rnn_zero_weights_yield_zero_state():
    enc = make_encoder("rnn", RNG(6), 2, 3)
    for g in enc.cell.GATES:
        enc.cell.w[g].value[:] = 0.0
        enc.cell.u[g].value[:] = 0.0
    out = enc.encode(_embed([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]]))
    np.testing.assert_array_equal(out.value, np.zeros(3))


def test_rnn_three_token_oracle():
    enc = make_encoder("rnn", RNG(7), 2, 2)
    xs = RNG(70).normal(size=(3, 2))
    out = enc.encode(Tensor(xs.copy()))
    np.testing.assert_allclose(out.value, _gru_numpy(enc.cell, xs), rtol=1e-12)


def test_rnn_order_sensitive():
    enc = make_encoder("rnn", RNG(8), 2, 3)
    xs = RNG(80).normal(size=(3, 2))
    a = enc.encode(Tensor(xs.copy())).value
    b = enc.encode(Tensor(xs[::-1].copy())).value
    assert np.abs(a - b).max() > 1e-6


# ---------------------------------------------------------------------------
# convolutional encoder


def _cnn_numpy(enc, rows):
    n = len(rows)
    padded = np.vstack([np.zeros((1, rows.shape[1])), rows,
                        np.zeros((1, rows.shape[1]))])
    windows = np.hstack([padded[0:n], padded[1:n + 1], padded[2:n + 2]])
    return np.tanh(windows @ enc.weight.value + enc.bias.value).max(axis=0)


def test_cnn_window_constant():
    assert CNN_WINDOW == 3


def test_cnn_single_token_oracle():
    enc = make_encoder("cnn", RNG(9), 2, 3)
    rows = np.array([[1.0, -2.0]])
    out = enc.encode(Tensor(rows.copy()))
    np.testing.assert_allclose(out.value, _cnn_numpy(enc, rows), rtol=1e-12)


def test_cnn_four_token_oracle():
    enc = make_encoder("cnn", RNG(10), 3, 2)
    rows = RNG(100).normal(size=(4, 3))
    out = enc.encode(Tensor(rows.copy()))
    np.testing.assert_allclose(out.value, _cnn_numpy(enc, rows), rtol=1e-12)


def test_cnn_order_sensitive():
    enc = make_encoder("cnn", RNG(11), 2, 4)
    rows = RNG(110).normal(size=(3, 2))
    a = enc.encode(Tensor(rows.copy())).value
    b = enc.encode(Tensor(rows[::-1].copy())).value
    assert np.abs(a - b).max() > 1e-6


def test_cnn_dominant_window_survives_appended_token():
    # With all-ones filter the pooled value is the best window sum; a small
    # token appended beyond the dominant window leaves the max untouched.
    enc = make_encoder("cnn", RNG(12), 1, 1)
    enc.weight.value[:] = 1.0
    enc.bias.value[:] = 0.0
    short = enc.encode(_embed([[10.0], [0.0], [0.0]]))
    longer = enc.encode(_embed([[10.0], [0.0], [0.0], [1.0]]))
    assert short.value[0] == np.tanh(10.0)
    np.testing.assert_array_equal(short.value, longer.value)


def test_cnn_pool_tie_goes_to_first_row():
    # Only the centre tap is live, so both windows read 1.0 and tie.
    enc = make_encoder("cnn", RNG(22), 1, 1)
    enc.weight.value[:] = [[0.0], [1.0], [0.0]]
    enc.bias.value[:] = 0.0
    x = _embed([[1.0], [1.0]])
    sum_all(enc.encode(x)).backward()
    assert np.array_equal(x.grad, [[1.0 - np.tanh(1.0) ** 2], [0.0]])


@pytest.mark.parametrize("n", (1, 2, 5))
def test_cnn_windows_equal_padded_construction(n):
    rows = RNG(120 + n).normal(size=(n, 3))
    padded = np.pad(rows, ((1, 1), (0, 0)))
    expected = np.hstack([padded[k:k + n] for k in range(CNN_WINDOW)])
    windows = ConvolutionalEncoder.windows(rows)
    assert windows.shape == expected.shape
    assert windows.tobytes() == expected.tobytes()


# ---------------------------------------------------------------------------
# shared behavior


@pytest.mark.parametrize("kind", ("nn", "cnn"))
def test_encode_adds_one_graph_node(kind):
    enc = make_encoder(kind, RNG(21), 3, 4)
    x = Tensor(RNG(210).normal(size=(4, 3)))
    out = enc.encode(x)
    assert out.op == f"{kind}_encoder"
    assert out.parents == (x, enc.weight, enc.bias)
    assert all(p.op == "leaf" for p in out.parents)


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_output_is_vector_of_requested_size(kind):
    enc = make_encoder(kind, RNG(13), 3, 4)
    for length in range(1, 6):
        rows = RNG(length).normal(size=(length, 3))
        out = enc.encode(Tensor(rows))
        assert out.shape == (4,)
        assert np.all(np.isfinite(out.value))


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_empty_sequence_rejected(kind):
    enc = make_encoder(kind, RNG(14), 3, 4)
    with pytest.raises(DimensionError):
        enc.encode(Tensor(np.zeros((0, 3))))
    with pytest.raises(DimensionError):
        enc.encode(Tensor(np.zeros(3)))


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_encoder_gradients(kind):
    enc = make_encoder(kind, RNG(15), 2, 3)
    x = Tensor(RNG(150).normal(size=(3, 2)))
    const = RNG(151).normal(size=3)
    tensors = list(enc.params("enc").values()) + [x]

    def build_loss():
        return sum_all(elementwise_mul(enc.encode(x), Tensor(const)))

    assert_grads_match(build_loss, tensors, tol=1e-4)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        make_encoder("transformer", RNG(16), 2, 2)


# ---------------------------------------------------------------------------
# output network


def _apply(net, v):
    """The output network's response to v: a one-row memory holding v
    gets weight 1 and a zero sentence vector adds nothing, so the
    attention step returns tanh(W v + b)."""
    memory = KnowledgeMemory(Tensor(np.array([v], dtype=float)),
                             [Substructure((0,), ("w",), 0)])
    return knowledge_representation(Tensor(np.zeros(len(v))), memory, net)[0]


def test_output_network_zero_weights():
    net = OutputNetwork(RNG(17), 3)
    net.weight.value[:] = 0.0
    out = _apply(net, np.array([1.0, 2.0, 3.0]))
    np.testing.assert_array_equal(out.value, np.zeros(3))


def test_output_network_identity_weights():
    net = OutputNetwork(RNG(18), 3)
    net.weight.value[:] = np.eye(3)
    v = np.array([0.5, -0.5, 2.0])
    out = _apply(net, v.copy())
    np.testing.assert_allclose(out.value, np.tanh(v), rtol=1e-12)


def test_output_network_oracle():
    net = OutputNetwork(RNG(19), 4)
    net.bias.value[:] = RNG(190).normal(size=4)
    v = RNG(191).normal(size=4)
    out = _apply(net, v.copy())
    expected = np.tanh(net.weight.value @ v + net.bias.value)
    np.testing.assert_allclose(out.value, expected, rtol=1e-12)


def test_encoder_weights_shared_between_sentence_and_memory():
    # The model holds a single encoder instance, so the parameter census
    # contains exactly one weight set under the encoder prefix.
    from structag.model import SlotModel
    from structag.corpus import Utterance, Vocabulary
    from structag.trainer import TrainConfig

    utt = Utterance(id="u0", tokens=("book", "a", "flight"),
                    tags=("O", "O", "O"))
    vocab = Vocabulary.build([utt])
    config = TrainConfig(mode="knowledge", encoder="cnn", cell="elman",
                         embed_dim=4, hidden_size=4)
    model = SlotModel(config, vocab, RNG(20))
    names = [n for n in model.params() if n.startswith("encoder.")]
    assert sorted(names) == ["encoder.bias", "encoder.weight"]
