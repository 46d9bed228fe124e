"""Recurrent cells and the chain / knowledge-guided / joint taggers."""

import warnings

import numpy as np
import pytest

from gradcheck_util import assert_grads_match, elementwise_mul, sum_all
from structag.autodiff import Tensor
from structag.cells import ElmanCell, GruCell, make_cell
from structag.errors import DimensionError
from structag.tagger import CELL_KINDS, TAGGER_MODES, Tagger, decode_greedy

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
    cell.w_in.value[:] = 0.0
    cell.u_rec.value[:] = 0.0
    h = cell.sequence(Tensor(np.array([[1.0, -2.0], [0.5, 3.0]])))
    np.testing.assert_array_equal(h.value, np.zeros((2, 3)))


def test_elman_without_recurrence_is_memoryless():
    cell = ElmanCell(RNG(2), 2, 3)
    cell.u_rec.value[:] = 0.0
    x = np.array([0.5, 1.5])
    # The same input after the zero state and after a nonzero state.
    h = cell.sequence(Tensor(np.array([x, [-0.9, 0.4], x]))).value
    assert np.abs(h[1]).max() > 0
    np.testing.assert_array_equal(h[0], h[2])
    expected = np.tanh(cell.w_in.value @ x)
    np.testing.assert_allclose(h[0], expected, rtol=1e-12)


def test_elman_two_step_oracle():
    cell = ElmanCell(RNG(3), 2, 2)
    xs = RNG(30).normal(size=(2, 2))
    h = cell.sequence(Tensor(xs.copy())).value
    h_np = np.zeros(2)
    for x, state in zip(xs, h):
        h_np = np.tanh(cell.w_in.value @ x + cell.u_rec.value @ h_np)
        np.testing.assert_allclose(state, h_np, rtol=1e-12)


def test_elman_extra_term_enters_preactivation():
    cell = ElmanCell(RNG(4), 2, 2)
    x = np.array([0.3, -0.1])
    guided = np.array([0.7, -1.2, 0.4])
    know = RNG(40).normal(size=(2, 3))
    h = cell.sequence(Tensor(x[None].copy()), Tensor(guided.copy()),
                      {"cand": Tensor(know.copy())})
    expected = np.tanh(cell.w_in.value @ x + know @ guided)
    np.testing.assert_allclose(h.value[0], expected, rtol=1e-12)


def test_gru_zero_weights_halve_previous_state():
    cell = GruCell(RNG(5), 2, 2)
    for g in cell.GATES:
        cell.w[g].value[:] = 0.0
        cell.u[g].value[:] = 0.0
    # With every gate at 1/2 each state is half its predecessor plus half
    # the candidate, which only the knowledge term (identity K) moves off
    # zero.
    cand = np.array([0.8, -0.4])
    h = cell.sequence(Tensor(np.full((3, 2), 3.0)), Tensor(cand.copy()),
                      {"cand": Tensor(np.eye(2))}).value
    np.testing.assert_array_equal(h[0], 0.5 * np.tanh(cand))
    for t in (1, 2):
        np.testing.assert_array_equal(h[t], 0.5 * np.tanh(cand) + 0.5 * h[t - 1])


def test_gru_saturated_update_gate_copies_previous_state():
    cell = GruCell(RNG(6), 2, 3)
    # The first input's column 0 drives the update gate to 0, the later
    # ones leave it saturated at 1 by the knowledge term.
    cell.w["update"].value[:] = [[1.0, 0.0]] * 3
    cell.u["update"].value[:] = 0.0
    know = {"update": Tensor(np.ones((3, 1)))}
    xs = np.array([[-3000.0, 1.0], [0.0, -1.0], [0.0, 0.5]])
    h = cell.sequence(Tensor(xs), Tensor([1000.0]), know).value
    assert np.abs(h[0]).max() > 0
    np.testing.assert_array_equal(h[1], h[0])
    np.testing.assert_array_equal(h[2], h[0])


def test_gru_step_oracle_with_extras():
    cell = GruCell(RNG(7), 2, 3)
    xs = RNG(70).normal(size=(3, 2))
    guided = RNG(71).normal(size=4)
    know = {g: RNG(72 + i).normal(size=(3, 4))
            for i, g in enumerate(cell.GATES)}
    extras = {g: k @ guided for g, k in know.items()}
    h = cell.sequence(Tensor(xs.copy()), Tensor(guided.copy()),
                      {g: Tensor(k.copy()) for g, k in know.items()}).value
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
        h = cell.sequence(Tensor(xs.copy())).value
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
    h = cell.sequence(Tensor(RNG(80).normal(size=(6, 2))))
    assert h.shape == (6, 4)
    assert np.all(np.abs(h.value) < 1.0)


@pytest.mark.parametrize("kind", CELL_KINDS)
@pytest.mark.parametrize("length", (1, 5))
@pytest.mark.parametrize("with_extra", (False, True))
def test_sequence_gradients(kind, length, with_extra):
    cell = make_cell(kind, RNG(26), 3, 4)
    x = Tensor(RNG(260).normal(size=(length, 3)))
    guided, know = None, {}
    if with_extra:
        guided = Tensor(RNG(266).normal(size=2))
        know = {g: Tensor(RNG(261 + i).normal(size=(4, 2)))
                for i, g in enumerate(cell.GATES)}
    const = Tensor(RNG(265).normal(size=(length, 4)))
    tensors = list(cell.params("c").values()) + [x] + list(know.values())
    tensors += [guided] if with_extra else []
    assert_grads_match(
        lambda: sum_all(elementwise_mul(cell.sequence(x, guided, know), const)),
        tensors, tol=1e-6)


def test_sequence_rejects_bad_shapes():
    cell = make_cell("gru", RNG(27), 3, 4)
    for bad in (np.zeros((0, 3)), np.zeros(3), np.zeros((2, 2))):
        with pytest.raises(DimensionError):
            cell.sequence(Tensor(bad))


def test_make_cell_rejects_unknown_kind():
    with pytest.raises(ValueError):
        make_cell("lstm", RNG(9), 2, 2)


# ---------------------------------------------------------------------------
# tagger distributions


@pytest.mark.parametrize("mode", TAGGER_MODES)
@pytest.mark.parametrize("cell", CELL_KINDS)
def test_distributions_are_row_stochastic(mode, cell):
    know = None if mode == "chain" else 3
    tagger = Tagger(RNG(10), mode, cell, embed_dim=2, hidden_dim=3,
                    n_tags=4, knowledge_dim=know)
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
    cell = tagger.towers[0].cell
    h = np.zeros(3)
    rows = []
    for x in xs:
        h = np.tanh(cell.w_in.value @ x + cell.u_rec.value @ h)
        rows.append(h)
    logits = np.vstack(rows) @ tagger.out_weight.value + tagger.out_bias.value
    shifted = np.exp(logits - logits.max(axis=1, keepdims=True))
    expected = shifted / shifted.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(dist.value, expected, rtol=1e-12)


def test_knowledge_elman_oracle_includes_projected_guide():
    tagger = Tagger(RNG(12), "knowledge", "elman", embed_dim=2, hidden_dim=2,
                    n_tags=3, knowledge_dim=4)
    xs = RNG(120).normal(size=(2, 2))
    guided = RNG(121).normal(size=4)
    states = tagger.towers[0].run(Tensor(xs.copy()), Tensor(guided.copy())).value
    cell = tagger.towers[0].cell
    know = tagger.towers[0].knowledge_proj["cand"].value @ guided
    h = np.zeros(2)
    for x, state in zip(xs, states):
        h = np.tanh(cell.w_in.value @ x + cell.u_rec.value @ h + know)
        np.testing.assert_allclose(state, h, rtol=1e-12)


@pytest.mark.parametrize("cell", CELL_KINDS)
def test_zero_guide_matches_chain_bitwise(cell):
    """With a zero knowledge vector the guided tagger collapses to the chain."""
    chain = Tagger(RNG(13), "chain", cell, embed_dim=2, hidden_dim=3, n_tags=4)
    guided_tagger = Tagger(RNG(14), "knowledge", cell, embed_dim=2,
                           hidden_dim=3, n_tags=4, knowledge_dim=5)
    _copy_matching(chain.params("t"), guided_tagger.params("t"))
    embedded = RNG(130).normal(size=(4, 2))
    base = chain.distributions(Tensor(embedded.copy()))
    guided = guided_tagger.distributions(Tensor(embedded.copy()),
                                         Tensor(np.zeros(5)))
    np.testing.assert_array_equal(base.value, guided.value)


@pytest.mark.parametrize("cell", CELL_KINDS)
def test_joint_alpha_one_matches_chain_bitwise(cell):
    joint = Tagger(RNG(15), "joint", cell, embed_dim=2, hidden_dim=3,
                   n_tags=4, knowledge_dim=3, alpha=1.0)
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
                   n_tags=4, knowledge_dim=3, alpha=0.0)
    know = Tagger(RNG(18), "knowledge", cell, embed_dim=2, hidden_dim=3,
                  n_tags=4, knowledge_dim=3)
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
                   n_tags=4, knowledge_dim=3, alpha=0.5)
    embedded = RNG(190).normal(size=(3, 2))
    guided = RNG(191).normal(size=3)
    blended = joint.distributions(Tensor(embedded.copy()),
                                  Tensor(guided.copy())).value
    chain_states = joint.towers[0].run(Tensor(embedded.copy()))
    assert np.abs(blended - 0.25).max() > 0  # sanity: something was computed
    assert chain_states.shape == (3, 3)


@pytest.mark.parametrize("mode", TAGGER_MODES)
def test_prefix_distributions_ignore_future_tokens(mode):
    know = None if mode == "chain" else 3
    tagger = Tagger(RNG(20), mode, "gru", embed_dim=2, hidden_dim=3,
                    n_tags=4, knowledge_dim=know)
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
                    n_tags=4, knowledge_dim=3)
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
                        n_tags=2, knowledge_dim=2)
        with pytest.raises(DimensionError):
            tagger.distributions(Tensor(np.zeros((2, 2))))


def test_constructor_validation():
    with pytest.raises(ValueError):
        Tagger(RNG(24), "crf", "elman", 2, 2, 2)
    with pytest.raises(ValueError):
        Tagger(RNG(24), "chain", "lstm", 2, 2, 2)
    with pytest.raises(ValueError):
        Tagger(RNG(24), "chain", "elman", 2, 2, 2, alpha=1.5)
    with pytest.raises(ValueError):
        Tagger(RNG(24), "knowledge", "elman", 2, 2, 2, knowledge_dim=None)


def test_decode_greedy_takes_first_maximum():
    dist = Tensor(np.array([[0.2, 0.5, 0.3],
                            [0.4, 0.4, 0.2],
                            [0.1, 0.1, 0.8]]))
    assert decode_greedy(dist) == [1, 0, 2]


def test_parameter_census_per_mode():
    def names(mode, cell, know):
        tagger = Tagger(RNG(25), mode, cell, embed_dim=2, hidden_dim=2,
                        n_tags=2, knowledge_dim=know)
        return sorted(tagger.params("t"))

    assert names("chain", "elman", None) == [
        "t.out_bias", "t.out_weight", "t.tower1.u_rec", "t.tower1.w_in"]
    assert names("knowledge", "elman", 3) == [
        "t.out_bias", "t.out_weight", "t.tower1.know_cand",
        "t.tower1.u_rec", "t.tower1.w_in"]
    gru_joint = names("joint", "gru", 3)
    assert len(gru_joint) == 2 + 6 + 9
    assert "t.tower2.know_update" in gru_joint
    assert "t.tower1.know_update" not in gru_joint


# ---------------------------------------------------------------------------
# graph size


def _graph_size(root) -> int:
    seen, stack = {id(root)}, [root]
    while stack:
        for parent in stack.pop().parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return len(seen)


@pytest.mark.parametrize("mode,encoder,cell,nodes", [
    ("joint", "rnn", "gru", 42), ("chain", "nn", "elman", 9)])
def test_loss_graph_does_not_grow_with_utterance_length(mode, encoder, cell,
                                                        nodes):
    # Each model stage is one graph node however many tokens it runs over,
    # so a 12-token loss graph is exactly as large as a 3-token one. The
    # chain graph is 5 parameters, embed, elman_sequence, tag_output and
    # cross_entropy. The joint graph over two substructures is 26
    # parameters, 4 embeds, 5 GRU runs (3 encodings, 2 towers), the 3
    # encodings' last rows, stack_rows, attention, tag_output and
    # cross_entropy.
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
        Substructure(positions=(0, 1), forms=("w0", "w1"), leaf=1),
        Substructure(positions=(0, 2), forms=("w0", "w2"), leaf=2)]
    sizes = [_graph_size(model.loss(vocab.encode_tokens(tokens[:n]),
                                    vocab.encode_tags(("O",) * n), subs))
             for n in (3, 12)]
    assert sizes[0] == sizes[1] == nodes
