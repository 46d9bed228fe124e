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
from structag.model import embed

RNG = lambda seed=0: np.random.default_rng(seed)


def _embed(rows):
    return Tensor(np.array(rows, dtype=float))


def _encode(enc, x):
    """The encoding of x (n, E) as one run: `final_states`, a (1, d) matrix."""
    return enc.final_states(x, [x.shape[0]])


# ---------------------------------------------------------------------------
# averaging encoder


def test_nn_single_token_is_projection():
    enc = make_encoder("nn", RNG(1), 3, 2)
    x = np.array([0.5, -1.0, 2.0])
    out = _encode(enc, _embed([x]))
    expected = x @ enc.weight.value + enc.bias.value
    np.testing.assert_allclose(out.value[0], expected, rtol=1e-12)


def test_nn_repeated_token_matches_single():
    enc = make_encoder("nn", RNG(2), 4, 3)
    row = [0.3, 0.7, -0.2, 1.1]
    once = _encode(enc, _embed([row]))
    thrice = _encode(enc, _embed([row, row, row]))
    np.testing.assert_allclose(once.value, thrice.value, atol=1e-15)


def test_nn_three_token_oracle():
    enc = make_encoder("nn", RNG(3), 3, 5)
    rows = RNG(30).normal(size=(3, 3))
    out = _encode(enc, Tensor(rows.copy()))
    expected = rows.mean(axis=0) @ enc.weight.value + enc.bias.value
    np.testing.assert_allclose(out.value[0], expected, rtol=1e-12)


def test_nn_order_insensitive():
    enc = make_encoder("nn", RNG(4), 3, 3)
    rows = RNG(40).normal(size=(4, 3))
    a = _encode(enc, Tensor(rows.copy()))
    b = _encode(enc, Tensor(rows[::-1].copy()))
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
    via_cell = enc.run(x)
    assert via_cell.shape == (1, 4)
    np.testing.assert_array_equal(via_encoder.value, via_cell.value[0])


def test_rnn_zero_weights_yield_zero_state():
    enc = make_encoder("rnn", RNG(6), 2, 3)
    for g in enc.GATES:
        enc.w[g].value[:] = 0.0
        enc.u[g].value[:] = 0.0
    out = enc.encode(_embed([[1.0, 2.0], [3.0, 4.0], [-1.0, 0.5]]))
    np.testing.assert_array_equal(out.value, np.zeros(3))


def test_rnn_three_token_oracle():
    enc = make_encoder("rnn", RNG(7), 2, 2)
    xs = RNG(70).normal(size=(3, 2))
    out = enc.encode(Tensor(xs.copy()))
    np.testing.assert_allclose(out.value, _gru_numpy(enc, xs), rtol=1e-12)


def test_rnn_order_sensitive():
    enc = make_encoder("rnn", RNG(8), 2, 3)
    xs = RNG(80).normal(size=(3, 2))
    a = enc.encode(Tensor(xs.copy())).value
    b = enc.encode(Tensor(xs[::-1].copy())).value
    assert np.abs(a - b).max() > 1e-6


def _runs(seed, parts, sentence):
    """An 8-row embedding table, one lookup of the parts' ids followed by
    the sentence's (as the model does it), and the run lengths."""
    table = Tensor(RNG(seed).normal(size=(8, 3)))
    x = embed(table, [i for ids in (*parts, sentence) for i in ids])
    return table, x, [*map(len, parts), len(sentence)]


def test_rnn_memory_matches_per_sequence_runs():
    # One batched GRU node over one lookup: ragged lengths, a length-1
    # run, a tie, and rows out of length order, each read at its own
    # final state; the sentence is the last run.
    enc = make_encoder("rnn", RNG(30), 3, 4)
    sentence, parts = [0, 1, 2, 3], [[4, 0, 5], [6], [7, 1, 2, 3], [5, 5]]
    table, x, lengths = _runs(300, parts, sentence)
    finals = enc.final_states(x, lengths)
    assert finals.shape == (5, 4)
    assert finals.op == "gru_sequence" and finals.parents[0] is x
    for row, ids in zip(finals.value, parts + [sentence]):
        one = embed(table, ids)
        np.testing.assert_allclose(row, enc.encode(one).value, rtol=0, atol=1e-12)
        np.testing.assert_allclose(row, enc.run(one).value[-1],
                                   rtol=0, atol=1e-12)


def test_rnn_memory_gradients_match_per_sequence_runs():
    # Parts of a 4-token sentence: one part, four ragged parts with a
    # length-1 run, and a fallback part that is the whole sentence, so two
    # runs tie for the longest. The attention step reads the memory and
    # the sentence vector off one batch, as in the model; its gradient at
    # the batch's rows, sent down the separate runs (the memory batch and
    # the sentence on its own), gives the same encoder and table gradients.
    enc, net = make_encoder("rnn", RNG(31), 3, 4), OutputNetwork(RNG(314), 4)
    const = Tensor(RNG(312).normal(size=4))
    sentence = [0, 1, 2, 3]
    for parts in ([[4, 1]], [[5, 6, 1], [7], [0, 1, 2, 3], [3, 2]], [sentence]):
        table, x, lengths = _runs(310, parts, sentence)
        tensors = [*enc.params("enc").values(), table]
        subs = [Substructure((i,), i) for i in range(len(parts))]

        def grads(*outputs):
            for t in tensors:
                t.grad = None
            for out, upstream in outputs:
                sum_all(elementwise_mul(out, Tensor(upstream))).backward()
            return [t.grad.copy() for t in tensors]

        finals = enc.final_states(x, lengths)
        guided, _ = knowledge_representation(finals, KnowledgeMemory(subs), net)
        merged = grads((guided, const.value))
        d = finals.grad
        memory = enc.final_states(embed(table, [i for ids in parts for i in ids]),
                                  lengths[:-1])
        alone = enc.encode(embed(table, sentence))
        separate = grads((memory, d[:-1]), (alone, d[-1]))
        np.testing.assert_allclose(finals.value, np.vstack([memory.value, alone.value]),
                                   rtol=0, atol=1e-12)
        for a, b in zip(merged, separate):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_encode_knowledge_gives_one_row_per_part(kind):
    # `final_states` over one lookup of the parts and then the sentence
    # gives one row per run, each the run's own encoding, as one graph
    # node over x and the weights.
    enc = make_encoder(kind, RNG(32), 3, 4)
    sentence, parts = [0, 1, 2], [[3, 4], [5, 6, 7, 0, 1], [2]]
    table, x, lengths = _runs(320, parts, sentence)
    finals = enc.final_states(x, lengths)
    assert finals.shape == (4, 4)
    for row, ids in zip(finals.value, parts + [sentence]):
        np.testing.assert_allclose(row, _encode(enc, embed(table, ids)).value[0],
                                   rtol=0, atol=1e-12)
    if kind != "rnn":
        assert finals.op == f"{kind}_encoder"
        assert finals.parents == (x, enc.weight, enc.bias)


def test_rnn_memory_rejects_bad_sequences():
    # Every encoder rejects empty runs and runs that miss or overrun x's
    # rows with the same error as the GRU.
    x = Tensor(RNG(331).normal(size=(4, 3)))
    for bad_x, lengths in ((x, []), (x, [2, 0, 2]), (x, [2, 1]), (x, [5]),
                           (Tensor(np.zeros((0, 3))), []),
                           (Tensor(np.zeros((2, 2))), [2])):
        messages = set()
        for kind in ENCODER_KINDS:
            with pytest.raises(DimensionError) as err:
                make_encoder(kind, RNG(33), 3, 4).final_states(bad_x, lengths)
            messages.add(str(err.value))
        assert len(messages) == 1, messages


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
    out = _encode(enc, Tensor(rows.copy()))
    np.testing.assert_allclose(out.value[0], _cnn_numpy(enc, rows), rtol=1e-12)


def test_cnn_four_token_oracle():
    enc = make_encoder("cnn", RNG(10), 3, 2)
    rows = RNG(100).normal(size=(4, 3))
    out = _encode(enc, Tensor(rows.copy()))
    np.testing.assert_allclose(out.value[0], _cnn_numpy(enc, rows), rtol=1e-12)


def test_cnn_order_sensitive():
    enc = make_encoder("cnn", RNG(11), 2, 4)
    rows = RNG(110).normal(size=(3, 2))
    a = _encode(enc, Tensor(rows.copy())).value
    b = _encode(enc, Tensor(rows[::-1].copy())).value
    assert np.abs(a - b).max() > 1e-6


def test_cnn_dominant_window_survives_appended_token():
    # With all-ones filter the pooled value is the best window sum; a small
    # token appended beyond the dominant window leaves the max untouched.
    enc = make_encoder("cnn", RNG(12), 1, 1)
    enc.weight.value[:] = 1.0
    enc.bias.value[:] = 0.0
    short = _encode(enc, _embed([[10.0], [0.0], [0.0]]))
    longer = _encode(enc, _embed([[10.0], [0.0], [0.0], [1.0]]))
    assert short.value[0, 0] == np.tanh(10.0)
    np.testing.assert_array_equal(short.value, longer.value)


def test_cnn_pool_tie_goes_to_first_row():
    # Only the centre tap is live, so both windows read 1.0 and tie.
    enc = make_encoder("cnn", RNG(22), 1, 1)
    enc.weight.value[:] = [[0.0], [1.0], [0.0]]
    enc.bias.value[:] = 0.0
    x = _embed([[1.0], [1.0]])
    sum_all(_encode(enc, x)).backward()
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
    # Encoding any number of runs adds one node; `encode` adds none.
    enc = make_encoder(kind, RNG(21), 3, 4)
    x = Tensor(RNG(210).normal(size=(4, 3)))
    for lengths in ([4], [1, 3], [2, 1, 1]):
        out = enc.final_states(x, lengths)
        assert out.op == f"{kind}_encoder"
        assert out.parents == (x, enc.weight, enc.bias)
        assert all(p.op == "leaf" for p in out.parents)
    value, _ = enc.encode(x.value)    # a numpy kernel over one run's rows
    assert value.tobytes() == enc.final_states(x, [4]).value[0].tobytes()


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_output_is_vector_of_requested_size(kind):
    enc = make_encoder(kind, RNG(13), 3, 4)
    for length in range(1, 6):
        rows = RNG(length).normal(size=(length, 3))
        out = _encode(enc, Tensor(rows))
        assert out.shape == (1, 4)
        assert np.all(np.isfinite(out.value))


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_empty_sequence_rejected(kind):
    enc = make_encoder(kind, RNG(14), 3, 4)
    with pytest.raises(DimensionError):
        _encode(enc, Tensor(np.zeros((0, 3))))
    with pytest.raises(DimensionError):
        _encode(enc, Tensor(np.zeros(3)))


@pytest.mark.parametrize("kind", ENCODER_KINDS)
def test_encoder_gradients(kind):
    enc = make_encoder(kind, RNG(15), 2, 3)
    x = Tensor(RNG(150).normal(size=(3, 2)))
    const = RNG(151).normal(size=(1, 3))
    tensors = list(enc.params("enc").values()) + [x]

    def build_loss():
        return sum_all(elementwise_mul(_encode(enc, x), Tensor(const)))

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
    states = Tensor(np.array([v, np.zeros(len(v))], dtype=float))
    return knowledge_representation(states, KnowledgeMemory([Substructure((0,), 0)]),
                                    net)[0]


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
