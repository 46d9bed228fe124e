"""Optimizer math, the training loop, and checkpointing."""

import json
import warnings

import numpy as np
import pytest

from structag import trainer as trainer_module
from structag.autodiff import Tensor
from structag.corpus import Utterance, Vocabulary
from structag.errors import (CheckpointError, ConfigError,
                             TrainingDivergedError)
from structag.knowledge import substructures_with_fallback
from structag.model import SlotModel
from structag.seeding import derive_seed
from structag.trainer import (ADAM_BLOCK, AdamOptimizer, TrainConfig,
                              evaluate_model, load_checkpoint, save_checkpoint,
                              train)


def _param(value, grad=0.0):
    t = Tensor(np.array(value, dtype=float))
    t.grad = np.full_like(t.value, grad)
    return t


def _utterances(n=6):
    """Tiny fixed corpus: every utterance has one from-city and one to-city."""
    cities = ["boston", "denver", "seattle", "omaha", "austin", "reno",
              "tampa", "fresno"]
    utts = []
    for i in range(n):
        a, b = cities[i % len(cities)], cities[(i + 3) % len(cities)]
        utts.append(Utterance(
            id=f"u{i:04d}",
            tokens=("flights", "from", a, "to", b),
            tags=("O", "O", "B-from", "O", "B-to")))
    return utts


def _tiny_config(**overrides):
    base = dict(mode="joint", encoder="nn", cell="elman", embed_dim=8,
                hidden_size=8, dropout=0.0, epochs=2, dev_fraction=0.0,
                unk_replace_prob=0.0, seed=7)
    base.update(overrides)
    return TrainConfig(**base)


# ---------------------------------------------------------------------------
# optimizer


def test_adam_two_hand_computed_steps():
    p = _param([0.0])
    opt = AdamOptimizer({"p": p}, learning_rate=0.001)
    p.grad[:] = 1.0
    opt.step()
    m1, v1 = 0.1, 0.001
    x1 = -0.001 * (m1 / 0.1) / (np.sqrt(v1 / 0.001) + 1e-8)
    assert p.value[0] == pytest.approx(x1, abs=1e-15)

    p.grad[:] = -1.0
    opt.step()
    m2 = 0.9 * m1 + 0.1 * (-1.0)          # -0.01
    v2 = 0.999 * v1 + 0.001 * 1.0         # 0.001999
    mhat = m2 / (1.0 - 0.9 ** 2)          # -0.052631578...
    vhat = v2 / (1.0 - 0.999 ** 2)        # 1.0
    x2 = x1 - 0.001 * mhat / (np.sqrt(vhat) + 1e-8)
    assert p.value[0] == pytest.approx(x2, abs=1e-15)
    assert opt.t == 2


def test_adam_zero_gradient_is_identity():
    p = _param([[1.5, -2.5], [0.25, 4.0]])
    before = p.value.copy()
    opt = AdamOptimizer({"p": p})
    opt.step()
    np.testing.assert_array_equal(p.value, before)
    assert opt.t == 1


def test_adam_constant_gradient_moves_by_learning_rate():
    # With a constant gradient the bias corrections cancel exactly, so
    # every step moves by lr * sign(g) up to the epsilon in the root.
    p = _param([10.0])
    opt = AdamOptimizer({"p": p}, learning_rate=0.05)
    for _ in range(5):
        before = p.value[0]
        p.grad[:] = 3.0
        opt.step()
        assert before - p.value[0] == pytest.approx(0.05, rel=1e-7)


def test_adam_rejects_non_finite_gradient():
    p = _param([1.0])
    q = _param([1.0])
    opt = AdamOptimizer({"good": p, "bad": q})
    p.grad[:] = 0.5
    q.grad[:] = np.nan
    with pytest.raises(TrainingDivergedError) as err:
        opt.step()
    assert "bad" in str(err.value)
    np.testing.assert_array_equal(p.value, [1.0])  # nothing was applied


def test_adam_rejects_overflowing_update_without_warnings():
    # At learning rate 1e308 a gradient of 10 moves its parameter by
    # 1e309, which overflows; a gradient of 0.5 stays finite.
    p = _param([1.0])
    q = _param([2.0, 3.0])
    opt = AdamOptimizer({"finite": p, "overflows": q}, learning_rate=1e308)
    p.grad[:] = 0.5
    q.grad[:] = [1.0, 10.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # any numpy warning fails the test
        with pytest.raises(TrainingDivergedError) as err:
            opt.step()
    assert "non-finite update" in str(err.value)
    assert "'overflows'" in str(err.value) and "'finite'" not in str(err.value)
    # Both share one block, which was not written.
    np.testing.assert_array_equal(opt.values, [1.0, 2.0, 3.0])


def test_adam_global_norm_clipping():
    a = _param([0.0])
    b = _param([0.0])
    a.grad[:] = 3.0
    b.grad[:] = 4.0
    opt = AdamOptimizer({"a": a, "b": b}, clip_norm=1.0)
    opt.step()
    assert a.grad[0] == pytest.approx(0.6, abs=1e-12)
    assert b.grad[0] == pytest.approx(0.8, abs=1e-12)


def test_adam_skip_set_freezes_parameter():
    a = _param([1.0])
    b = _param([1.0])
    a.grad[:] = 1.0
    b.grad[:] = 1.0
    opt = AdamOptimizer({"a": a, "b": b}, skip={"a"})
    opt.step()
    np.testing.assert_array_equal(a.value, [1.0])
    assert b.value[0] != 1.0


def test_adam_clip_norm_counts_only_updated_parameters():
    # The skipped parameter's gradient is never applied, so it must not
    # shrink the others: b alone has norm 4 and is scaled to 1.
    a = _param([0.0])
    b = _param([0.0])
    a.grad[:] = 3.0
    b.grad[:] = 4.0
    opt = AdamOptimizer({"a": a, "b": b}, clip_norm=1.0, skip={"a"})
    opt.step()
    assert b.grad[0] == 1.0
    assert a.grad[0] == 3.0
    np.testing.assert_array_equal(a.value, [0.0])


class _ReferenceAdam:
    """Adam as a loop over named arrays: the formula the packed optimizer
    must reproduce bitwise."""

    def __init__(self, values, learning_rate, beta1=0.9, beta2=0.999,
                 epsilon=1e-8):
        self.values = {name: v.copy() for name, v in values.items()}
        self.m = {name: np.zeros_like(v) for name, v in values.items()}
        self.v = {name: np.zeros_like(v) for name, v in values.items()}
        self.lr, self.b1, self.b2, self.eps = learning_rate, beta1, beta2, epsilon
        self.t = 0

    def step(self, grads, skip):
        self.t += 1
        correct1 = 1.0 - self.b1 ** self.t
        correct2 = 1.0 - self.b2 ** self.t
        for name in self.values:
            if name in skip:
                continue
            g = grads[name]
            m = self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            self.values[name] = self.values[name] - self.lr * (m / correct1) / (
                np.sqrt(v / correct2) + self.eps)


@pytest.mark.parametrize("shapes, skip", [
    ({"a": (3, 4), "frozen": (50,), "c": (2, 2), "d": ()}, {"frozen"}),
    ({"big": (130, 131), "small": (5,)}, set()),
    ({"head": (ADAM_BLOCK - 5,), "straddle": (10, 3), "tail": (7,)}, {"tail"}),
], ids=["skip-set", "larger-than-a-block", "straddles-a-block-boundary"])
def test_packed_adam_matches_per_parameter_adam_bitwise(shapes, skip):
    rng = np.random.default_rng(11)
    params = {name: Tensor(rng.normal(size=shape)) for name, shape in shapes.items()}
    reference = _ReferenceAdam({n: p.value for n, p in params.items()},
                               learning_rate=0.01)
    opt = AdamOptimizer(params, learning_rate=0.01, skip=skip)
    for _ in range(6):
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        for name, p in params.items():
            p.grad[...] = grads[name]
        opt.step()
        reference.step(grads, skip)
        for name, p in params.items():
            sl = opt.slices[name]
            # Bytes, not ==: bitwise also tells -0.0 from 0.0.
            assert p.value.tobytes() == reference.values[name].tobytes(), name
            assert opt.m[sl].tobytes() == reference.m[name].tobytes(), name
            assert opt.v[sl].tobytes() == reference.v[name].tobytes(), name


def _assert_views_of(params, opt):
    for name, p in params.items():
        assert np.shares_memory(p.value, opt.values), name
        assert np.shares_memory(p.grad, opt.grads), name


def test_parameters_stay_views_of_the_flat_buffers(tmp_path, monkeypatch):
    made = []

    class Recording(AdamOptimizer):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(trainer_module, "AdamOptimizer", Recording)
    utts = _utterances()
    # A dev set, so the best-dev parameters are restored at the end.
    result = train(utts, _tiny_config(dev_fraction=0.34, epochs=2))
    assert result.best_dev_f1 is not None and len(made) == 1
    result.model.zero_grad()
    _assert_views_of(result.model.params(), made[0])

    path = tmp_path / "model.ckpt"
    save_checkpoint(result.model, path)
    loaded = load_checkpoint(path)
    params = loaded.params()
    opt = AdamOptimizer(params, learning_rate=0.01)
    for name, p in result.model.params().items():
        np.testing.assert_array_equal(params[name].value, p.value)
    vocab = loaded.vocab
    loaded.loss(vocab.encode_tokens(utts[0].tokens), vocab.encode_tags(utts[0].tags),
                substructures_with_fallback(None, len(utts[0].tokens))).backward()
    opt.step()
    loaded.zero_grad()
    assert not opt.grads.any()
    _assert_views_of(params, opt)


# ---------------------------------------------------------------------------
# config


def test_config_roundtrip_and_unknown_field():
    config = _tiny_config()
    again = TrainConfig.from_dict(config.to_dict())
    assert again == config
    with pytest.raises(ConfigError):
        TrainConfig.from_dict({"momentum": 0.9})


def test_config_validation_failures():
    bad = [dict(mode="crf"), dict(cell="lstm"), dict(encoder="bert"),
           dict(embed_dim=0), dict(dropout=1.0), dict(alpha=2.0),
           dict(learning_rate=-0.1), dict(patience=0), dict(clip_norm=0.0),
           dict(unk_replace_prob=1.5)]
    for overrides in bad:
        with pytest.raises(ConfigError):
            _tiny_config(**overrides).validate()


@pytest.mark.parametrize("name", ("learning_rate", "beta1", "beta2", "epsilon"))
@pytest.mark.parametrize("value", (float("nan"), float("inf")))
def test_config_rejects_non_finite_optimizer_settings(name, value):
    with pytest.raises(ConfigError, match=name):
        _tiny_config(**{name: value}).validate()


# ---------------------------------------------------------------------------
# training loop


def test_zero_learning_rate_changes_nothing():
    utts = _utterances()
    config = _tiny_config(learning_rate=0.0, epochs=1)
    result = train(utts, config)
    fresh = SlotModel(config, Vocabulary.build(utts),
                      np.random.default_rng(derive_seed(config.seed, "init")))
    for name, p in result.model.params().items():
        np.testing.assert_array_equal(p.value, fresh.params()[name].value)
    assert len(result.history) == 1
    assert result.best_dev_f1 is None


def test_same_seed_reproduces_bitwise():
    utts = _utterances()
    config = _tiny_config(dropout=0.25, dev_fraction=0.2, epochs=2,
                          unk_replace_prob=0.5)
    a = train(utts, _tiny_config(**{**config.to_dict()}))
    b = train(utts, _tiny_config(**{**config.to_dict()}))
    assert a.history == b.history
    for name, p in a.model.params().items():
        np.testing.assert_array_equal(p.value, b.model.params()[name].value)


def test_different_seed_diverges():
    utts = _utterances()
    a = train(utts, _tiny_config(seed=7, epochs=1))
    b = train(utts, _tiny_config(seed=8, epochs=1))
    assert a.history != b.history


@pytest.mark.parametrize("encoder", ("nn", "rnn", "cnn"))
@pytest.mark.parametrize("cell", ("elman", "gru"))
def test_single_utterance_can_be_memorized(encoder, cell):
    utt = Utterance(id="u0", tokens=("flights", "from", "seattle", "to",
                                     "boston"),
                    tags=("O", "O", "B-from", "O", "B-to"))
    vocab = Vocabulary.build([utt])
    config = _tiny_config(encoder=encoder, cell=cell, learning_rate=0.02)
    model = SlotModel(config, vocab,
                      np.random.default_rng(derive_seed(3, "init")))
    params = model.params()
    optimizer = AdamOptimizer(params, learning_rate=config.learning_rate)
    token_ids = vocab.encode_tokens(utt.tokens)
    tag_ids = vocab.encode_tags(utt.tags)
    subs = substructures_with_fallback(None, len(token_ids))
    loss_value = np.inf
    for _ in range(500):
        model.zero_grad()
        loss = model.loss(token_ids, tag_ids, subs)
        loss.backward()
        optimizer.step()
        loss_value = float(loss.value)
        if loss_value < 0.01:
            break
    assert loss_value < 0.01


def test_loss_decreases_over_first_epochs():
    from structag.corpus import load_corpus
    from structag.synthetic import SyntheticConfig, generate
    corpus = generate(SyntheticConfig(n_utterances=20), seed=5)
    utts = load_corpus_text(corpus.corpus_text)
    config = _tiny_config(epochs=5, hidden_size=12, embed_dim=12)
    result = train(utts, config)
    losses = [entry["train_loss"] for entry in result.history]
    assert len(losses) == 5
    assert all(b < a for a, b in zip(losses, losses[1:]))


def load_corpus_text(text):
    """Parse corpus text through the real loader via a temp file."""
    import tempfile
    from pathlib import Path
    from structag.corpus import load_corpus
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "c.tsv"
        path.write_text(text, encoding="utf-8")
        return load_corpus(path)


def test_explicit_dev_set_disables_holdout():
    utts = _utterances(8)
    result = train(utts[:6], _tiny_config(dev_fraction=0.5, epochs=1),
                   dev_utterances=utts[6:])
    assert result.train_ids == [u.id for u in utts[:6]]
    assert result.dev_ids == [u.id for u in utts[6:]]
    assert result.best_dev_f1 is not None


def test_constant_dev_score_triggers_early_stop():
    utts = _utterances()
    config = _tiny_config(learning_rate=0.0, epochs=50, dev_fraction=0.34,
                          patience=2)
    result = train(utts, config)
    assert len(result.history) == 1 + config.patience
    assert result.best_epoch == 1


def test_training_log_is_json_lines(tmp_path):
    log = tmp_path / "log.jsonl"
    result = train(_utterances(), _tiny_config(dev_fraction=0.34, epochs=2),
                   log_path=log)
    lines = [json.loads(line) for line in log.read_text().splitlines()]
    assert len(lines) == len(result.history)
    for entry in lines:
        assert set(entry) == {"epoch", "train_loss", "dev_f1"}


def test_empty_training_set_rejected():
    with pytest.raises(ConfigError):
        train([], _tiny_config())


def test_frozen_embeddings_stay_at_initialization():
    utts = _utterances()
    config = _tiny_config(freeze_embeddings=True, epochs=1)
    result = train(utts, config)
    fresh = SlotModel(config, Vocabulary.build(utts),
                      np.random.default_rng(derive_seed(config.seed, "init")))
    np.testing.assert_array_equal(result.model.embedding.value,
                                  fresh.embedding.value)
    moved = [name for name, p in result.model.params().items()
             if not np.array_equal(p.value, fresh.params()[name].value)]
    assert "tagger.out_weight" in moved


def test_singleton_tokens_train_the_unknown_row():
    # Tokens seen once are always re-mapped to the unknown id when the
    # replacement probability is 1, so their own embedding rows never move.
    utts = _utterances(6)  # 5 repeated frame tokens, cities mostly repeat
    rare = Utterance(id="u9999",
                     tokens=("flights", "from", "zanzibar", "to", "boston"),
                     tags=("O", "O", "B-from", "O", "B-to"))
    corpus = utts + [rare]
    config = _tiny_config(unk_replace_prob=1.0, epochs=1)
    result = train(corpus, config)
    vocab = Vocabulary.build(corpus)
    fresh = SlotModel(config, vocab,
                      np.random.default_rng(derive_seed(config.seed, "init")))
    rare_id = vocab.token_index["zanzibar"]
    assert "zanzibar" in vocab.singleton_tokens()
    np.testing.assert_array_equal(result.model.embedding.value[rare_id],
                                  fresh.embedding.value[rare_id])
    assert not np.array_equal(result.model.embedding.value[vocab.unk_id],
                              fresh.embedding.value[vocab.unk_id])


def test_evaluation_is_deterministic_without_dropout():
    utts = _utterances()
    result = train(utts, _tiny_config(dropout=0.4, epochs=1))
    first = evaluate_model(result.model, utts)
    second = evaluate_model(result.model, utts)
    assert first == second
    assert 0.0 <= first["f1"] <= 100.0


# ---------------------------------------------------------------------------
# checkpoints


def _trained(tmp_path, **overrides):
    utts = _utterances()
    result = train(utts, _tiny_config(epochs=1, **overrides))
    path = tmp_path / "model.ckpt"
    save_checkpoint(result.model, path)
    return result.model, path, utts


def test_checkpoint_roundtrip_is_bitwise(tmp_path):
    model, path, utts = _trained(tmp_path)
    loaded = load_checkpoint(path)
    assert loaded.config == model.config
    assert loaded.vocab.to_dict() == model.vocab.to_dict()
    for name, p in model.params().items():
        np.testing.assert_array_equal(p.value, loaded.params()[name].value)
    for utt in utts:
        assert loaded.tag_utterance(utt, None)[0] == \
            model.tag_utterance(utt, None)[0]


def test_checkpoint_rejects_garbage(tmp_path):
    path = tmp_path / "bad.ckpt"
    path.write_text("not json at all{{{")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "missing.ckpt")


def test_checkpoint_rejects_tampered_params(tmp_path):
    _, path, _ = _trained(tmp_path)
    payload = json.loads(path.read_text())

    extra = dict(payload, params=dict(payload["params"],
                                      ghost={"shape": [1], "data": "AAAAAAAAAAA="}))
    path.write_text(json.dumps(extra))
    with pytest.raises(CheckpointError) as err:
        load_checkpoint(path)
    assert "ghost" in str(err.value)

    missing = dict(payload, params={k: v for k, v in payload["params"].items()
                                    if k != "embedding"})
    path.write_text(json.dumps(missing))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

    wrong_shape = json.loads(json.dumps(payload))
    wrong_shape["params"]["embedding"]["shape"] = [2, 2]
    path.write_text(json.dumps(wrong_shape))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)

    bad_config = json.loads(json.dumps(payload))
    bad_config["config"]["mode"] = "crf"
    path.write_text(json.dumps(bad_config))
    with pytest.raises(CheckpointError):
        load_checkpoint(path)
