"""Recurrent cells and the chain / knowledge-guided / joint taggers."""

import hashlib
import warnings

import numpy as np
import pytest

from gradcheck_util import assert_grads_match, elementwise_mul, set_know, stack, sum_all
from structag.autodiff import Tensor
from structag.cells import ElmanCell, GruCell, make_cell
from structag.errors import DimensionError
from structag.tagger import CELL_KINDS, TAGGER_MODES, Tagger, decode_greedy, tag_output

RNG = lambda seed=0: np.random.default_rng(seed)


def _sigmoid(v):
    with np.errstate(over="ignore"):    # exp(1000) = inf gives exactly 0
        return 1.0 / (1.0 + np.exp(-v))


def _copy_matching(src: dict, dst: dict, rename=None):
    """Overwrite dst tensor values from src by (optionally renamed) name."""
    for name, tensor in dst.items():
        src_name = rename(name) if rename else name
        if src_name in src:
            tensor.value[:] = src[src_name].value


# ---------------------------------------------------------------------------
# cells


def test_elman_zero_weights_give_zero_state():
    cell = ElmanCell(RNG(1), 2, 3)
    cell.w["cand"].value[:] = 0.0
    cell.u["cand"].value[:] = 0.0
    h = cell.run(Tensor(np.array([[1.0, -2.0], [0.5, 3.0]])))
    np.testing.assert_array_equal(h.value, np.zeros((2, 3)))


def test_elman_without_recurrence_is_memoryless():
    cell = ElmanCell(RNG(2), 2, 3)
    cell.u["cand"].value[:] = 0.0
    x = np.array([0.5, 1.5])
    # The same input after the zero state and after a nonzero state.
    h = cell.run(Tensor(np.array([x, [-0.9, 0.4], x]))).value
    assert np.abs(h[1]).max() > 0
    np.testing.assert_array_equal(h[0], h[2])
    expected = np.tanh(cell.w["cand"].value @ x)
    np.testing.assert_allclose(h[0], expected, rtol=1e-12)


def test_elman_two_step_oracle():
    cell = ElmanCell(RNG(3), 2, 2)
    xs = RNG(30).normal(size=(2, 2))
    h = cell.run(Tensor(xs.copy())).value
    h_np = np.zeros(2)
    for x, state in zip(xs, h):
        h_np = np.tanh(cell.w["cand"].value @ x + cell.u["cand"].value @ h_np)
        np.testing.assert_allclose(state, h_np, rtol=1e-12)


def test_elman_extra_term_enters_preactivation():
    cell = ElmanCell(RNG(4), 2, 2, knowledge_dim=3)
    x = np.array([0.3, -0.1])
    guided = np.array([0.7, -1.2, 0.4])
    know = RNG(40).normal(size=(2, 3))
    set_know(cell, {"cand": know})
    h = cell.run(Tensor(x[None].copy()), guided=Tensor(guided.copy()))
    expected = np.tanh(cell.w["cand"].value @ x + know @ guided)
    np.testing.assert_allclose(h.value[0], expected, rtol=1e-12)


def test_gru_zero_weights_halve_previous_state():
    cell = GruCell(RNG(5), 2, 2, knowledge_dim=2)
    for g in cell.GATES:
        cell.w[g].value[:] = 0.0
        cell.u[g].value[:] = 0.0
    # With every gate at 1/2 each state is half its predecessor plus half
    # the candidate, which only the knowledge term (identity K) moves off
    # zero.
    set_know(cell, {"cand": np.eye(2)})
    cand = np.array([0.8, -0.4])
    h = cell.run(Tensor(np.full((3, 2), 3.0)), guided=Tensor(cand.copy())).value
    np.testing.assert_array_equal(h[0], 0.5 * np.tanh(cand))
    for t in (1, 2):
        np.testing.assert_array_equal(h[t], 0.5 * np.tanh(cand) + 0.5 * h[t - 1])


def test_gru_saturated_update_gate_copies_previous_state():
    cell = GruCell(RNG(6), 2, 3, knowledge_dim=1)
    # The first input's column 0 drives the update gate to 0, the later
    # ones leave it saturated at 1 by the knowledge term.
    cell.w["update"].value[:] = [[1.0, 0.0]] * 3
    cell.u["update"].value[:] = 0.0
    set_know(cell, {"update": np.ones((3, 1))})
    xs = np.array([[-3000.0, 1.0], [0.0, -1.0], [0.0, 0.5]])
    h = cell.run(Tensor(xs), guided=Tensor([1000.0])).value
    assert np.abs(h[0]).max() > 0
    np.testing.assert_array_equal(h[1], h[0])
    np.testing.assert_array_equal(h[2], h[0])


def test_gru_step_oracle_with_extras():
    cell = GruCell(RNG(7), 2, 3, knowledge_dim=4)
    xs = RNG(70).normal(size=(3, 2))
    guided = RNG(71).normal(size=4)
    know = {g: RNG(72 + i).normal(size=(3, 4))
            for i, g in enumerate(cell.GATES)}
    extras = {g: k @ guided for g, k in know.items()}
    set_know(cell, know)
    h = cell.run(Tensor(xs.copy()), guided=Tensor(guided.copy())).value
    h_prev = np.zeros(3)
    for x, state in zip(xs, h):
        r = _sigmoid(cell.w["reset"].value @ x + cell.u["reset"].value @ h_prev
                     + extras["reset"])
        z = _sigmoid(cell.w["update"].value @ x + cell.u["update"].value @ h_prev
                     + extras["update"])
        cand = np.tanh(cell.w["cand"].value @ x
                       + cell.u["cand"].value @ (h_prev * r) + extras["cand"])
        h_prev = (1 - z) * cand + z * h_prev
        np.testing.assert_allclose(state, h_prev, rtol=1e-12)


def test_gru_saturated_gates_match_oracle_without_warnings():
    cell = GruCell(RNG(9), 2, 2)
    # Steps 0 and 1 put every reset and update pre-activation at +-1000;
    # step 2 leaves them unsaturated.
    cell.w["reset"].value[:] = [[1000.0, 1000.0], [-1000.0, -1000.0]]
    cell.w["update"].value[:] = [[-1000.0, 1000.0], [1000.0, -1000.0]]
    cell.u["reset"].value[:] = 0.0
    cell.u["update"].value[:] = 0.0
    xs = np.array([[1.0, 0.0], [0.0, 1.0], [1e-3, -2e-3]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h = cell.run(Tensor(xs.copy())).value
    h_prev, gates = np.zeros(2), []
    for t, x in enumerate(xs):
        r = _sigmoid(cell.w["reset"].value @ x)
        z = _sigmoid(cell.w["update"].value @ x)
        cand = np.tanh(cell.w["cand"].value @ x
                       + cell.u["cand"].value @ (h_prev * r))
        h_prev = (1 - z) * cand + z * h_prev
        np.testing.assert_allclose(h[t], h_prev, rtol=1e-12)
        gates.append((r, z))
    for r, z in gates[:2]:
        assert set(r) | set(z) == {0.0, 1.0}
    # z is exactly 1: unit 1 keeps the zero state at step 0, and unit 0
    # copies its state bitwise at step 1.
    assert h[0, 1] == 0.0
    assert h[1, 0] == h[0, 0]
    assert 0.0 < gates[2][1].min() and gates[2][1].max() < 1.0


def test_gru_state_is_convex_combination():
    cell = GruCell(RNG(8), 2, 4)
    h = cell.run(Tensor(RNG(80).normal(size=(6, 2))))
    assert h.shape == (6, 4)
    assert np.all(np.abs(h.value) < 1.0)


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("length", (1, 5))
@pytest.mark.parametrize("with_extra", (False, True))
def test_sequence_gradients(kind, length, with_extra):
    cell = make_cell(kind, RNG(26), 3, 4, knowledge_dim=2 if with_extra else None)
    x = Tensor(RNG(260).normal(size=(length, 3)))
    guided = None
    if with_extra:
        guided = Tensor(RNG(266).normal(size=2))
        set_know(cell, {g: RNG(261 + i).normal(size=(4, 2))
                        for i, g in enumerate(cell.GATES)})
    const = Tensor(RNG(265).normal(size=(length, 4)))
    tensors = list(cell.params("c").values()) + [x]
    tensors += [guided] if with_extra else []
    assert_grads_match(
        lambda: sum_all(elementwise_mul(cell.run(x, guided=guided), const)),
        tensors, tol=1e-6)


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("with_extra", (False, True))
@pytest.mark.parametrize("last", (False, True))
def test_ragged_run_equals_separate_runs(kind, with_extra, last):
    # One packed node over ragged runs (a length-1 run, a tie for the
    # longest, rows out of length order) gives each run's states, and the
    # same gradients, as one `run` per run.
    cell = make_cell(kind, RNG(28), 3, 4, knowledge_dim=2 if with_extra else None)
    guided = Tensor(RNG(280).normal(size=2)) if with_extra else None
    lengths = [3, 1, 5, 2, 5]
    ends = np.cumsum(lengths)
    x = Tensor(RNG(281).normal(size=(ends[-1], 3)))
    upstream = RNG(282).normal(size=(len(lengths) if last else ends[-1], 4))
    shared = [*cell.params("c").values(), *([guided] if with_extra else [])]

    def grads(*outputs):
        for t in shared:
            t.grad = None
        for out, up in outputs:
            sum_all(elementwise_mul(out, Tensor(up))).backward()
        return [t.grad.copy() for t in shared]

    batch = cell.run(x, lengths, guided, last)
    merged = grads((batch, upstream))
    parts = [Tensor(x.value[e - n:e].copy()) for e, n in zip(ends, lengths)]
    spans = [slice(i, i + 1) if last else slice(e - n, e)
             for i, (e, n) in enumerate(zip(ends, lengths))]
    runs = [cell.run(part, guided=guided, last=last) for part in parts]
    separate = grads(*((one, upstream[span]) for one, span in zip(runs, spans)))
    for one, span in zip(runs, spans):
        np.testing.assert_allclose(one.value, batch.value[span], rtol=0, atol=1e-12)
    np.testing.assert_allclose(x.grad, np.vstack([p.grad for p in parts]),
                               rtol=0, atol=1e-12)
    for a, b in zip(merged, separate):
        np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)


def test_sequence_rejects_bad_shapes():
    cell = make_cell("gru", RNG(27), 3, 4)
    for bad in (np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(DimensionError):
            cell.run(Tensor(bad))


def test_make_cell_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_cell("lstm", RNG(9), 2, 2)


# ---------------------------------------------------------------------------
# tagger distributions


@pytest.mark.parametrize("mode", TAGGER_MODES)
@pytest.mark.parametrize("cell", CELL_KINDS)
def test_distributions_are_row_stochastic(mode, cell):
    tagger = Tagger(RNG(10), mode, cell, embed_dim=2, hidden_dim=3, n_tags=4)
    for length in (1, 3, 5):
        embedded = Tensor(RNG(length).normal(size=(length, 2)))
        guided = None if mode == "chain" else Tensor(RNG(99).normal(size=3))
        dist = tagger.distributions(embedded, guided)
        assert dist.shape == (length, 4)
        np.testing.assert_allclose(dist.value.sum(axis=1), 1.0, rtol=1e-12)
        assert np.all(dist.value > 0)


def test_chain_elman_three_token_oracle():
    tagger = Tagger(RNG(11), "chain", "elman", embed_dim=2, hidden_dim=3,
                    n_tags=2)
    xs = RNG(110).normal(size=(3, 2))
    dist = tagger.distributions(Tensor(xs.copy()))
    cell = tagger.towers[0]
    h = np.zeros(3)
    rows = []
    for x in xs:
        h = np.tanh(cell.w["cand"].value @ x + cell.u["cand"].value @ h)
        rows.append(h)
    logits = np.vstack(rows) @ tagger.out_weight.value + tagger.out_bias.value
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = shifted / shifted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(dist.value, expected, rtol=1e-12)


def test_knowledge_elman_oracle_includes_projected_guide():
    tagger = Tagger(RNG(12), "knowledge", "elman", embed_dim=2, hidden_dim=2,
                    n_tags=3)
    xs = RNG(120).normal(size=(2, 2))
    guided = RNG(121).normal(size=2)
    cell = tagger.towers[0]
    states = cell.run(Tensor(xs.copy()), guided=Tensor(guided.copy())).value
    know = cell.know["cand"].value @ guided
    h = np.zeros(2)
    for x, state in zip(xs, states):
        h = np.tanh(cell.w["cand"].value @ x + cell.u["cand"].value @ h + know)
        np.testing.assert_allclose(state, h, rtol=1e-12)


@pytest.mark.parametrize("cell", CELL_KINDS)
def test_zero_guide_matches_chain_bitwise(cell):
    """With a zero knowledge vector the guided tagger collapses to the chain."""
    chain = Tagger(RNG(13), "chain", cell, embed_dim=2, hidden_dim=3, n_tags=4)
    guided_tagger = Tagger(RNG(14), "knowledge", cell, embed_dim=2,
                           hidden_dim=3, n_tags=4)
    _copy_matching(chain.params("t"), guided_tagger.params("t"))
    embedded = RNG(130).normal(size=(4, 2))
    base = chain.distributions(Tensor(embedded.copy()))
    guided = guided_tagger.distributions(Tensor(embedded.copy()),
                                         Tensor(np.zeros(3)))
    np.testing.assert_array_equal(base.value, guided.value)


@pytest.mark.parametrize("cell", CELL_KINDS)
def test_joint_alpha_one_matches_chain_bitwise(cell):
    joint = Tagger(RNG(15), "joint", cell, embed_dim=2, hidden_dim=3,
                   n_tags=4, alpha=1.0)
    chain = Tagger(RNG(16), "chain", cell, embed_dim=2, hidden_dim=3, n_tags=4)
    _copy_matching(joint.params("t"), chain.params("t"))
    embedded = RNG(150).normal(size=(3, 2))
    guided = RNG(151).normal(size=3)
    a = joint.distributions(Tensor(embedded.copy()), Tensor(guided.copy()))
    b = chain.distributions(Tensor(embedded.copy()))
    np.testing.assert_array_equal(a.value, b.value)
    assert decode_greedy(a) == decode_greedy(b)


@pytest.mark.parametrize("cell", CELL_KINDS)
def test_joint_alpha_zero_matches_knowledge_bitwise(cell):
    joint = Tagger(RNG(17), "joint", cell, embed_dim=2, hidden_dim=3,
                   n_tags=4, alpha=0.0)
    know = Tagger(RNG(18), "knowledge", cell, embed_dim=2, hidden_dim=3,
                  n_tags=4)
    _copy_matching(joint.params("t"), know.params("t"),
                   rename=lambda n: n.replace(".tower1.", ".tower2."))
    embedded = RNG(170).normal(size=(3, 2))
    guided = RNG(171).normal(size=3)
    a = joint.distributions(Tensor(embedded.copy()), Tensor(guided.copy()))
    b = know.distributions(Tensor(embedded.copy()), Tensor(guided.copy()))
    np.testing.assert_array_equal(a.value, b.value)
    assert decode_greedy(a) == decode_greedy(b)


def test_joint_alpha_half_differs_from_both_towers():
    joint = Tagger(RNG(19), "joint", "gru", embed_dim=2, hidden_dim=3,
                   n_tags=4, alpha=0.5)
    embedded = RNG(190).normal(size=(3, 2))
    guided = RNG(191).normal(size=3)
    blended = joint.distributions(Tensor(embedded.copy()),
                                  Tensor(guided.copy())).value
    chain_states = joint.towers[0].run(Tensor(embedded.copy()))
    assert np.abs(blended - 0.25).max() > 0  # sanity: something was computed
    assert chain_states.shape == (3, 3)


@pytest.mark.parametrize("cell", CELL_KINDS)
@pytest.mark.parametrize("alpha", (0.0, 0.5, 1.0))
@pytest.mark.parametrize("rate", (0.0, 0.3))
def test_joint_lanes_equal_separate_towers_bitwise(cell, alpha, rate):
    # The towers as the two lanes of one node against one `run` per tower,
    # blended by the same output layer: the loss, every gradient (the
    # parameters', the input's and the guided vector's) and the tag
    # distributions, bit for bit.
    tagger = Tagger(RNG(32), "joint", cell, embed_dim=3, hidden_dim=4, n_tags=5,
                    alpha=alpha)
    x, guided = Tensor(RNG(320).normal(size=(6, 3))), Tensor(RNG(321).normal(size=4))
    tensors = [*tagger.params("t").values(), x, guided]

    def outputs(build):
        for t in tensors:
            t.grad = None
        loss = build([0, 4, 1, 1, 3, 2])
        loss.backward()
        return (loss.value.tobytes(), [t.grad.tobytes() for t in tensors],
                build(None).value.tobytes())

    def separate(gold):
        states = stack([tagger.towers[0].run(x), tagger.towers[1].run(x, guided=guided)])
        return tag_output(states, alpha, tagger.out_weight, tagger.out_bias, rate,
                          RNG(322), gold)

    lanes = outputs(lambda gold: tagger.distributions(x, guided, rate, RNG(322), gold))
    assert lanes == outputs(separate)
    # x before the guided vector among the node's operands, as in each
    # tower's own node: a model's backward pass then reaches the towers'
    # embedding before the attention step, and the embedding's gradient
    # adds up in the same order.
    operands = tagger.distributions(x, guided, gold=[0] * 6).parents[0].parents
    assert operands.index(x) < operands.index(guided)


@pytest.mark.parametrize("mode", TAGGER_MODES)
def test_prefix_distributions_ignore_future_tokens(mode):
    tagger = Tagger(RNG(20), mode, "gru", embed_dim=2, hidden_dim=3, n_tags=4)
    guided = None if mode == "chain" else Tensor(RNG(200).normal(size=3))
    base = RNG(201).normal(size=(4, 2))
    bumped = base.copy()
    bumped[3] += 10.0
    a = tagger.distributions(Tensor(base.copy()), guided).value
    b = tagger.distributions(Tensor(bumped.copy()), guided).value
    np.testing.assert_array_equal(a[:3], b[:3])
    assert np.abs(a[3] - b[3]).max() > 1e-9


def test_guide_actually_changes_output():
    tagger = Tagger(RNG(21), "knowledge", "elman", embed_dim=2, hidden_dim=3,
                    n_tags=4)
    embedded = RNG(210).normal(size=(3, 2))
    a = tagger.distributions(Tensor(embedded.copy()), Tensor(np.zeros(3))).value
    b = tagger.distributions(Tensor(embedded.copy()), Tensor(np.ones(3))).value
    assert np.abs(a - b).max() > 1e-9


def test_dropout_perturbs_but_keeps_rows_stochastic():
    tagger = Tagger(RNG(22), "chain", "elman", embed_dim=2, hidden_dim=4,
                    n_tags=3)
    embedded = RNG(220).normal(size=(5, 2))
    clean = tagger.distributions(Tensor(embedded.copy())).value
    dropped = tagger.distributions(Tensor(embedded.copy()), None,
                                   dropout_rate=0.5, rng=RNG(221)).value
    assert np.abs(clean - dropped).max() > 1e-9
    np.testing.assert_allclose(dropped.sum(axis=1), 1.0, rtol=1e-12)


def test_missing_guide_rejected():
    for mode in ("knowledge", "joint"):
        tagger = Tagger(RNG(23), mode, "elman", embed_dim=2, hidden_dim=2,
                        n_tags=2)
        with pytest.raises(DimensionError):
            tagger.distributions(Tensor(np.zeros((2, 2))))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Tagger(RNG(24), "crf", "elman", 2, 2, 2)
    with pytest.raises(ValueError):
        Tagger(RNG(24), "chain", "lstm", 2, 2, 2)
    with pytest.raises(ValueError):
        Tagger(RNG(24), "chain", "elman", 2, 2, 2, alpha=1.5)


def test_decode_greedy_takes_first_maximum():
    dist = Tensor(np.array([[0.2, 0.5, 0.3],
                            [0.4, 0.4, 0.2],
                            [0.1, 0.1, 0.8]]))
    assert decode_greedy(dist) == [1, 0, 2]


def test_parameter_census_per_mode():
    def names(mode, cell):
        tagger = Tagger(RNG(25), mode, cell, embed_dim=2, hidden_dim=2, n_tags=2)
        return sorted(tagger.params("t"))

    assert names("chain", "elman") == [
        "t.out_bias", "t.out_weight", "t.tower1.u_rec", "t.tower1.w_in"]
    assert names("knowledge", "elman") == [
        "t.out_bias", "t.out_weight", "t.tower1.know_cand",
        "t.tower1.u_rec", "t.tower1.w_in"]
    gru_joint = names("joint", "gru")
    assert len(gru_joint) == 2 + 6 + 9
    assert "t.tower2.know_update" in gru_joint
    assert "t.tower1.know_update" not in gru_joint


@pytest.mark.parametrize("mode,encoder,cell,expected", [
    ("joint", "cnn", "gru", [
        "encoder.weight", "encoder.bias", "output_net.weight", "output_net.bias",
        *(f"tagger.tower1.{m}_{g}" for g in ("reset", "update", "cand")
          for m in ("w", "u")),
        *(f"tagger.tower2.{m}_{g}" for g in ("reset", "update", "cand")
          for m in ("w", "u")),
        "tagger.tower2.know_reset", "tagger.tower2.know_update",
        "tagger.tower2.know_cand"]),
    ("knowledge", "nn", "elman", [
        "encoder.weight", "encoder.bias", "output_net.weight", "output_net.bias",
        "tagger.tower1.w_in", "tagger.tower1.u_rec", "tagger.tower1.know_cand"]),
    ("chain", "rnn", "gru", [
        *(f"tagger.tower1.{m}_{g}" for g in ("reset", "update", "cand")
          for m in ("w", "u"))])])
def test_parameter_layout_order(mode, encoder, cell, expected):
    # The order of `params()` is the checkpoint layout and the layout of
    # the optimizer's flat buffers, so it is pinned name by name.
    model = _small_model(mode, encoder, cell)[0]
    assert list(model.params()) == ["embedding", *expected, "tagger.out_weight",
                                    "tagger.out_bias"]


@pytest.mark.parametrize("mode,encoder,cell,digest", [
    ("joint", "rnn", "gru",
     "c846ff70d14d6647b17c21a3314b7de2dd3268ad024b64d7fd4e3635c8fab5e4"),
    ("knowledge", "nn", "elman",
     "0938476387ce0ad977a6100bb9e8ac9389ca5c4d887029ddf522e30e8405e6ef"),
    ("joint", "cnn", "elman",
     "c99623c3cfd2d5cd82fbd4c757084ff8170b8faa3beb57ac2c7a4e3f96598f63")])
def test_initial_parameters_are_pinned(mode, encoder, cell, digest):
    # Every name and value, in `params()` order: the draw order of the
    # initial weights, so a refactor of how they are drawn keeps them.
    from structag.corpus import Utterance, Vocabulary
    from structag.model import SlotModel
    from structag.trainer import TrainConfig

    vocab = Vocabulary.build([Utterance("u0", ("show", "flights", "to", "boston"),
                                        ("O", "O", "O", "B-to_city"))])
    model = SlotModel(TrainConfig(mode, encoder, cell, embed_dim=8, hidden_size=6),
                      vocab, RNG(0))
    h = hashlib.sha256()
    for name, t in model.params().items():
        h.update(name.encode() + t.value.astype("<f8").tobytes())
    assert h.hexdigest() == digest


# ---------------------------------------------------------------------------
# graph size


def _graph_ops(root) -> list[str]:
    """The op of every node reachable from `root`, each node once."""
    ops, seen, stack = [], {id(root)}, [root]
    while stack:
        node = stack.pop()
        ops.append(node.op)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops


@pytest.mark.parametrize("mode,encoder,cell,nodes", [
    ("joint", "rnn", "gru", 32), ("joint", "nn", "gru", 28),
    ("joint", "cnn", "gru", 28), ("chain", "nn", "elman", 8)])
def test_loss_graph_does_not_grow_with_utterance_length(mode, encoder, cell,
                                                        nodes):
    # Each model stage is one graph node however many tokens it runs over,
    # so a 12-token loss graph is exactly as large as a 3-token one. The
    # chain graph is 5 parameters, embed, elman_sequence and tag_output.
    # The joint graphs over two substructures end in attention and
    # tag_output. Both hold 2 embeds (the encoder's runs, the towers'
    # input), and the attention node reads the encoder's final states
    # whole. With rnn they also hold 26 parameters and
    # 2 GRU nodes (one batch of the two substructures and the sentence,
    # and the 2 towers as the lanes of one node); with nn or cnn, 22
    # parameters (the encoder's weight and bias in place of the GRU's
    # six), one encoder node over the 3 runs and the towers' one node.
    from structag.corpus import Utterance, Vocabulary
    from structag.knowledge import Substructure
    from structag.model import SlotModel
    from structag.trainer import TrainConfig

    tokens = tuple(f"w{i}" for i in range(12))
    vocab = Vocabulary.build([Utterance(id="u", tokens=tokens, tags=("O",) * 12)])
    config = TrainConfig(mode=mode, encoder=encoder, cell=cell, embed_dim=3,
                         hidden_size=2, dropout=0.0)
    model = SlotModel(config, vocab, RNG(28))
    subs = None if mode == "chain" else [
        Substructure(positions=(0, 1), leaf=1),
        Substructure(positions=(0, 2), leaf=2)]
    sizes = [len(_graph_ops(model.loss(vocab.encode_tokens(tokens[:n]),
                                        vocab.encode_tags(("O",) * n), subs)))
             for n in (3, 12)]
    assert sizes[0] == sizes[1] == nodes


@pytest.mark.parametrize("n_subs", [2, 5])
def test_rnn_memory_is_one_gru_node_per_utterance(n_subs):
    # Under every encoder, not only rnn: one embedding and one encoder
    # node over the substructures and the sentence, read whole by the
    # attention node, and the towers' embedding and their one two-lane
    # node, however many substructures the utterance has.
    from structag.corpus import Utterance, Vocabulary
    from structag.knowledge import Substructure
    from structag.model import SlotModel
    from structag.trainer import TrainConfig

    tokens = tuple(f"w{i}" for i in range(6))
    vocab = Vocabulary.build([Utterance(id="u", tokens=tokens, tags=("O",) * 6)])
    subs = [Substructure(positions=(0, *range(1 + i, 6)), leaf=i)
            for i in range(n_subs)]
    for encoder, counts in (("rnn", {"gru_sequence": 2}),
                            ("nn", {"nn_encoder": 1, "gru_sequence": 1}),
                            ("cnn", {"cnn_encoder": 1, "gru_sequence": 1})):
        config = TrainConfig(mode="joint", encoder=encoder, cell="gru", embed_dim=3,
                             hidden_size=2)
        model = SlotModel(config, vocab, RNG(27))
        loss = model.loss(vocab.encode_tokens(tokens), vocab.encode_tags(("O",) * 6),
                          subs, 0.25, RNG(270))
        ops = _graph_ops(loss)
        for op, n in {**counts, "attention": 1, "embed": 2}.items():
            assert ops.count(op) == n, (encoder, op)


def _encoded(enc, x):
    """`enc.encode` of one run x as its own graph node (nn and cnn)."""
    value, backward = enc.encode(x.value)
    return Tensor(value, "encode", (x, enc.weight, enc.bias),
                  lambda g: x._accumulate(backward(g)))


def _reference_loss(model, token_ids, tag_ids, subs, rate, rng):
    """The loss as the model built it before every encoder took its runs
    through `final_states` and the towers became lanes: under nn and cnn
    one lookup and one encoding node per substructure and then the
    sentence, stacked as the final states; under rnn one lookup of the
    parts and the sentence and one GRU batch; then one `run` per tower,
    stacked."""
    from structag.attention import KnowledgeMemory, knowledge_representation
    from structag.model import embed

    def lookup(ids):
        return embed(model.embedding, ids, rate, rng)

    enc, parts = model.encoder, [[token_ids[p] for p in s.positions] for s in subs]
    if model.config.encoder == "rnn":
        states = enc.final_states(lookup([i for ids in (*parts, token_ids) for i in ids]),
                                  [*map(len, parts), len(token_ids)])
    else:
        states = stack([_encoded(enc, lookup(ids)) for ids in (*parts, token_ids)])
    guided, _ = knowledge_representation(states, KnowledgeMemory(subs), model.output_net)
    x, tagger = lookup(token_ids), model.tagger
    towers = stack([tagger.towers[0].run(x), tagger.towers[1].run(x, guided=guided)])
    return tag_output(towers, tagger.alpha, tagger.out_weight, tagger.out_bias, rate, rng,
                      tag_ids)


@pytest.mark.parametrize("encoder", ["nn", "cnn", "rnn"])
@pytest.mark.parametrize("n_subs", [1, 3, 6])
def test_loss_matches_the_per_sequence_reference_bitwise(encoder, n_subs):
    # Part 0 is a single token; dropout draws one mask over all runs,
    # which must read the generator exactly as one draw per run did.
    from structag.corpus import Utterance, Vocabulary
    from structag.knowledge import Substructure
    from structag.model import SlotModel
    from structag.trainer import TrainConfig

    tokens = ("w0", "w1", "w2", "w1", "w3", "w4", "w0")
    tags = ("O", "B-x", "I-x", "O", "B-y", "O", "O")
    vocab = Vocabulary.build([Utterance(id="u", tokens=tokens, tags=tags)])
    config = TrainConfig(mode="joint", encoder=encoder, cell="gru", embed_dim=4,
                         hidden_size=3, dropout=0.3)
    model = SlotModel(config, vocab, RNG(31))
    subs = [Substructure(positions=(0, *range(i, 7)) if i else (0,), leaf=i)
            for i in range(n_subs)]
    token_ids, tag_ids = vocab.encode_tokens(tokens), vocab.encode_tags(tags)
    params = model.params()

    def run(build):
        for t in params.values():
            t.grad = None
        loss = build(RNG(310))
        loss.backward()
        return loss, {name: t.grad.copy() for name, t in params.items()}

    loss, grads = run(lambda rng: model.loss(token_ids, tag_ids, subs, 0.3, rng))
    ref, ref_grads = run(lambda rng: _reference_loss(model, token_ids, tag_ids,
                                                     subs, 0.3, rng))
    assert _graph_ops(loss).count("embed") == 2
    assert loss.value.tobytes() == ref.value.tobytes()
    for name, g in grads.items():
        assert g.tobytes() == ref_grads[name].tobytes(), name


def _small_model(mode="joint", encoder="cnn", cell="gru"):
    from structag.corpus import Utterance, Vocabulary
    from structag.model import SlotModel
    from structag.trainer import TrainConfig

    utt = Utterance(id="u", tokens=("w0", "w1", "w2"), tags=("O", "B-x", "O"))
    vocab = Vocabulary.build([utt])
    config = TrainConfig(mode=mode, encoder=encoder, cell=cell, embed_dim=3,
                         hidden_size=2, dropout=0.0)
    model = SlotModel(config, vocab, RNG(29))
    return model, vocab.encode_tokens(utt.tokens), vocab.encode_tags(utt.tags)


@pytest.mark.parametrize("mode,encoder,cell", [
    ("joint", "rnn", "gru"), ("chain", "nn", "elman")])
def test_loss_is_the_nll_of_the_inference_distributions(mode, encoder, cell):
    from structag.knowledge import Substructure

    model, token_ids, tag_ids = _small_model(mode, encoder, cell)
    subs = [Substructure(positions=(0, 2), leaf=2)]
    dist, _ = model.forward(token_ids, subs)
    # Inference builds no graph node for the output layer.
    assert dist.op == "leaf" and dist.parents == ()
    expected = -np.log(dist.value[np.arange(3), tag_ids]).sum()
    loss = model.loss(token_ids, tag_ids, subs)
    assert loss.op == "tag_output"
    assert float(loss.value) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize("positions", [(0, 7), (-1, -4), (3,)])
def test_forward_rejects_substructure_positions_out_of_range(positions):
    from structag.knowledge import Substructure

    model, token_ids, tag_ids = _small_model()
    subs = [Substructure(positions=(0, 1), leaf=1),
            Substructure(positions=positions, leaf=None)]
    with pytest.raises(DimensionError, match=r"3-token"):
        model.forward(token_ids, subs)
    with pytest.raises(DimensionError, match=r"3-token"):
        model.loss(token_ids, tag_ids, subs)


@pytest.mark.parametrize("subs", [None, []], ids=["none", "empty"])
@pytest.mark.parametrize("mode", ["knowledge", "joint"])
def test_forward_without_substructures_raises_outside_chain_mode(mode, subs):
    # The whole-sentence memory comes from `substructures_with_fallback`
    # alone; forward makes none, and attention over no rows is refused.
    model, token_ids, tag_ids = _small_model(mode)
    with pytest.raises(DimensionError, match=r"at least 1"):
        model.forward(token_ids, subs)
    with pytest.raises(DimensionError, match=r"at least 1"):
        model.loss(token_ids, tag_ids, subs)
