"""Inference without a graph: `no_grad` tagging builds constants only, gives
the recording forward's values bitwise, and leaves other threads recording.
The switch is observed through the nodes that ops return."""

import sys
import threading

import numpy as np
import pytest

from structag.autodiff import Tensor, no_grad
from structag.corpus import Vocabulary, load_corpus
from structag.knowledge import load_amr, load_dependency, substructures_with_fallback
from structag.model import SlotModel, embed
from structag.synthetic import SyntheticConfig, generate
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


def _records() -> bool:
    """Whether ops on this thread build graph nodes."""
    return embed(Tensor([[1.0]]), [0]).op == "embed"


def _collecting_init(made):
    """A `Tensor.__init__` that also appends every tensor it builds to `made`."""
    init = Tensor.__init__

    def collect(self, *args, **kwargs):
        init(self, *args, **kwargs)
        made.append(self)
    return collect


def _constants(made) -> bool:
    return bool(made) and all(t.op == "leaf" and t.parents == () and t._backward is None
                              for t in made)


def _model(utts, mode, encoder, cell):
    config = TrainConfig(mode=mode, encoder=encoder, cell=cell, embed_dim=6,
                         hidden_size=5)
    return SlotModel(config, Vocabulary.build(utts), np.random.default_rng(4))


def _subs(model, utt, parse):
    if model.config.mode == "chain":
        return None
    return substructures_with_fallback(parse, len(utt.tokens),
                                       model.config.max_substructures)


@pytest.mark.parametrize("mode,encoder,cell,parse_kind", CONFIGS)
def test_tagging_builds_only_constants_with_recording_values(
        data, monkeypatch, mode, encoder, cell, parse_kind):
    utts, parses = data
    model = _model(utts, mode, encoder, cell)
    made = []
    for utt in utts:
        parse = parses[parse_kind][utt.id]
        ids, subs = model.vocab.encode_tokens(utt.tokens), _subs(model, utt, parse)
        dist, weights, _ = model.forward(ids, subs)     # recording
        with monkeypatch.context() as m:
            m.setattr(Tensor, "__init__", _collecting_init(made))
            tags, record = model.tag_utterance(utt, parse)
            with no_grad():
                const_dist, const_weights, _ = model.forward(ids, subs)
        assert _constants(made)
        made.clear()
        assert _records()
        names = model.vocab.tag_names()
        assert tags == [names[i] for i in dist.value.argmax(axis=1)]
        assert np.array_equal(const_dist.value, dist.value)
        if mode == "chain":
            assert record is None and weights is None and const_weights is None
        else:
            assert record.weights == weights.value.tolist()
            assert np.array_equal(const_weights.value, weights.value)


@pytest.mark.parametrize("mode,encoder,cell,parse_kind", CONFIGS)
def test_no_grad_loss_is_a_constant_equal_to_the_recording_loss(
        data, monkeypatch, mode, encoder, cell, parse_kind):
    # The gold path of `tag_output`, with dropout masks in every op.
    utts, parses = data
    model = _model(utts, mode, encoder, cell)
    made = []
    for utt in utts:
        ids, tag_ids = model.vocab.encode_tokens(utt.tokens), model.vocab.encode_tags(utt.tags)
        subs = _subs(model, utt, parses[parse_kind][utt.id])
        loss = model.loss(ids, tag_ids, subs, 0.25, np.random.default_rng(6))
        assert loss.op == "tag_output"
        with monkeypatch.context() as m, no_grad():
            m.setattr(Tensor, "__init__", _collecting_init(made))
            const = model.loss(ids, tag_ids, subs, 0.25, np.random.default_rng(6))
        assert _constants(made) and const in made
        made.clear()
        assert np.array_equal(const.value, loss.value)


def test_no_grad_is_per_thread_and_restored_on_error():
    seen = []
    worker = threading.Thread(target=lambda: seen.append(_records()))
    with pytest.raises(RuntimeError):
        with no_grad():
            with no_grad():
                pass
            assert not _records()
            worker.start()
            worker.join(timeout=10)
            raise RuntimeError
    assert not worker.is_alive() and seen == [True]
    assert _records()


def _gradients(model, ids, tag_ids, subs):
    params = model.params()
    for p in params.values():
        p.grad = None
    model.loss(ids, tag_ids, subs, 0.25, np.random.default_rng(5)).backward()
    return {name: p.grad.copy() for name, p in params.items() if p.grad is not None}


def test_tagging_threads_leave_a_training_thread_recording(data):
    # Two threads tag under `no_grad` while a third builds and backpropagates
    # losses on the same model; a process-wide switch would turn some of
    # those losses into constants with no gradients.
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
            grads = _gradients(model, ids, tag_ids, subs)
            if grads.keys() != alone.keys() or not all(
                    np.array_equal(grads[k], alone[k]) for k in alone):
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
