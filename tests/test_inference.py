"""Inference without a switch: tagging runs the one recording forward, reads
only its leaves (the output scores and the attention weights), whose values
are those a loss's recorded graph gives, and leaves every gradient to the
backward pass of a loss."""

import sys
import threading

import numpy as np
import pytest

from structag.attention import KnowledgeMemory, knowledge_representation
from structag.autodiff import _toposort, softmax_array
from structag.corpus import Vocabulary, load_corpus
from structag.knowledge import load_amr, load_dependency, substructures_with_fallback
from structag.model import SlotModel
from structag.synthetic import SyntheticConfig, generate
from structag.tagger import tag_output
from structag.trainer import TrainConfig

# Every mode, encoder and cell, on both parse kinds.
CONFIGS = [
    ("chain", "nn", "elman", "dependency"), ("chain", "rnn", "gru", "amr"),
    ("knowledge", "nn", "gru", "dependency"), ("knowledge", "rnn", "elman", "amr"),
    ("knowledge", "cnn", "gru", "amr"), ("joint", "cnn", "elman", "dependency"),
    ("joint", "rnn", "gru", "dependency"), ("joint", "nn", "elman", "amr"),
    ("joint", "cnn", "gru", "amr")]


@pytest.fixture(scope="module")
def data(tmp_path_factory):
    paths = generate(SyntheticConfig(n_utterances=12), seed=21).write(
        tmp_path_factory.mktemp("inference"))
    utts = load_corpus(paths["corpus"])
    parses = {"dependency": load_dependency(paths["dependency"]),
              "amr": load_amr(paths["amr"])}
    return utts, {kind: {p.id: p for p in ps} for kind, ps in parses.items()}


def _model(utts, mode, encoder, cell):
    config = TrainConfig(mode=mode, encoder=encoder, cell=cell, embed_dim=6,
                         hidden_size=5)
    return SlotModel(config, Vocabulary.build(utts), np.random.default_rng(4))


def _subs(model, utt, parse):
    if model.config.mode == "chain":
        return None
    return substructures_with_fallback(parse, len(utt.tokens),
                                       model.config.max_substructures)


def _leaf(t) -> bool:
    return t.op == "leaf" and t.parents == () and t._backward is None


def _recorded(model, ids, tag_ids, subs):
    """The output scores and attention weights of a loss's recorded graph:
    `tag_output` and the attention step rerun on its nodes' operands."""
    loss = model.loss(ids, tag_ids, subs)
    dist = tag_output(loss.parents[0], model.tagger.alpha, *loss.parents[-2:])
    if model.config.mode == "chain":
        return dist, None
    att = next(t for t in _toposort(loss) if t.op == "attention")
    return dist, knowledge_representation(att.parents[0], KnowledgeMemory(list(subs)),
                                          model.output_net)[1]


@pytest.mark.parametrize("mode,encoder,cell,parse_kind", CONFIGS)
def test_tagging_builds_only_constants_with_recording_values(
        data, mode, encoder, cell, parse_kind):
    # What tagging keeps, its output scores and attention weights, are
    # constants (leaves) holding bitwise the values of a loss's graph.
    utts, parses = data
    model = _model(utts, mode, encoder, cell)
    names = model.vocab.tag_names()
    for utt in utts:
        parse = parses[parse_kind][utt.id]
        ids, tag_ids = model.vocab.encode_tokens(utt.tokens), model.vocab.encode_tags(utt.tags)
        subs = _subs(model, utt, parse)
        dist, weights = model.forward(ids, subs)
        tags, record = model.tag_utterance(utt, parse)
        recorded_dist, recorded_weights = _recorded(model, ids, tag_ids, subs)
        assert _leaf(dist) and np.array_equal(dist.value, recorded_dist.value)
        assert tags == [names[i] for i in recorded_dist.value.argmax(axis=1)]
        # Tagging from the scores picks what their softmax would pick.
        assert tags == [names[i] for i in softmax_array(dist.value).argmax(axis=1)]
        if mode == "chain":
            assert record is None and weights is None
        else:
            assert _leaf(weights) and np.array_equal(weights.value, recorded_weights.value)
            assert [s["weight"] for s in record["substructures"]] == \
                recorded_weights.value.tolist()


def _gradients(model, ids, tag_ids, subs, between=lambda: None):
    """The parameter gradients of one loss, with `between()` run after its
    forward pass and before its backward pass."""
    params = model.params()
    for p in params.values():
        p.grad = None
    loss = model.loss(ids, tag_ids, subs, 0.25, np.random.default_rng(5))
    between()
    loss.backward()
    return {name: p.grad.copy() for name, p in params.items() if p.grad is not None}


def _same(grads, alone) -> bool:
    return grads.keys() == alone.keys() and all(
        np.array_equal(grads[k], alone[k]) for k in alone)


@pytest.mark.parametrize("mode,encoder,cell,parse_kind", CONFIGS)
def test_tagging_between_a_loss_and_its_backward_leaves_its_gradients(
        data, mode, encoder, cell, parse_kind):
    # Tagging builds graph nodes whose parents are the parameters; the
    # backward pass of a loss built before them reaches none of them, and
    # tagging alone moves no gradient.
    utts, parses = data
    kind = parses[parse_kind]
    model = _model(utts, mode, encoder, cell)
    utt = utts[0]
    ids, tag_ids = model.vocab.encode_tokens(utt.tokens), model.vocab.encode_tags(utt.tags)
    subs = _subs(model, utt, kind[utt.id])
    alone = _gradients(model, ids, tag_ids, subs)
    untouched = []

    def tag():
        for u in utts:
            model.tag_utterance(u, kind[u.id])
        untouched.append(all(p.grad is None for p in model.params().values()))
    assert _same(_gradients(model, ids, tag_ids, subs, tag), alone)
    assert untouched == [True]


def test_tagging_threads_leave_a_training_thread_recording(data):
    # Two threads tag while a third builds and backpropagates losses on the
    # same model: the graphs tagging builds and drops on each thread share
    # parameters with the learner's graph but no node, so the learner's
    # gradients stay those of its loss alone.
    utts, parses = data
    deps = parses["dependency"]
    model = _model(utts, "joint", "cnn", "gru")
    utt = utts[0]
    ids, tag_ids = model.vocab.encode_tokens(utt.tokens), model.vocab.encode_tags(utt.tags)
    subs = _subs(model, utt, deps[utt.id])
    alone = _gradients(model, ids, tag_ids, subs)
    expected_tags = [model.tag_utterance(u, deps[u.id])[0] for u in utts]
    stop, failures, finished = threading.Event(), [], []

    def tag():
        while not stop.is_set():
            if [model.tag_utterance(u, deps[u.id])[0] for u in utts] != expected_tags:
                failures.append("tags")

    def learn():
        for _ in range(30):
            if not _same(_gradients(model, ids, tag_ids, subs), alone):
                failures.append("gradients")
        finished.append(True)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    threads = [threading.Thread(target=tag) for _ in range(2)]
    try:
        for t in threads:
            t.start()
        learner = threading.Thread(target=learn)
        learner.start()
        learner.join(timeout=60)
    finally:
        stop.set()
        for t in threads:
            t.join(timeout=60)
        sys.setswitchinterval(interval)
    assert not learner.is_alive() and finished
    assert not any(t.is_alive() for t in threads)
    assert failures == []
