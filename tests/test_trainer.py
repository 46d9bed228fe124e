"""Optimizer math, the training loop, and checkpointing."""

import json
import re
import warnings
from collections import Counter

import numpy as np
import pytest

from structag import trainer as trainer_module
from structag.autodiff import Tensor
from structag.corpus import Utterance, Vocabulary, fractional_split, load_corpus
from structag.errors import (CheckpointError, ConfigError, DataError,
                             TrainingDivergedError)
from structag.knowledge import load_dependency, substructures_with_fallback
from structag.model import SlotModel
from structag.seeding import derive_seed
from structag.synthetic import SyntheticConfig, generate
from structag.trainer import (ADAM_BLOCK, COMPACT_SHARE, AdamOptimizer, TrainConfig,
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


def test_adam_smallest_epsilon_leaves_zero_moments_still():
    # At the smallest epsilon and the largest beta2 that the config admits,
    # eps*sqrt(1-b2^t) is still positive, so a zero moment moves by 0, not NaN.
    config = _tiny_config(epsilon=float(np.finfo(float).tiny), beta2=1.0 - 2.0 ** -53)
    config.validate()
    p = _param([1.5, -2.5], 0.0)
    q = _param([0.25], 1.0)
    opt = AdamOptimizer({"p": p, "q": q}, beta2=config.beta2, epsilon=config.epsilon)
    opt.step()
    np.testing.assert_array_equal(p.value, [1.5, -2.5])
    assert q.value[0] < 0.25


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
    # At learning rate 1e308 the first step size is lr*sqrt(0.001)/0.1,
    # about 3.2e307, and m = 0.1*g. So a gradient of 100 overflows m*step_size,
    # while gradients of 1 and 0.5 stay finite.
    p = _param([1.0])
    q = _param([2.0, 3.0])
    opt = AdamOptimizer({"finite": p, "overflows": q}, learning_rate=1e308)
    p.grad[:] = 0.5
    q.grad[:] = [1.0, 100.0]
    with warnings.catch_warnings():
        warnings.simplefilter("error")    # any numpy warning fails the test
        with pytest.raises(TrainingDivergedError) as err:
            opt.step()
    assert "non-finite update" in str(err.value)
    assert "'overflows'" in str(err.value) and "'finite'" not in str(err.value)
    # Both share one block, which was not written.
    np.testing.assert_array_equal(opt.values, [1.0, 2.0, 3.0])


def test_adam_infinite_step_size_is_diverged_not_nan():
    # With beta1 near 1 the first step size, lr*sqrt(1-b2)/(1-b1), is
    # infinite at lr 1e308: m*step_size is NaN for the zero moment and
    # infinite for the other. The block is refused, naming its parameter.
    p = _param([1.0, 2.0])
    p.grad[:] = [0.0, 1.0]
    opt = AdamOptimizer({"first": p, "second": _param([3.0])}, learning_rate=1e308,
                        beta1=0.999999)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError,
                           match="non-finite update for parameter 'first'"):
            opt.step()
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
        # Kingma & Ba's order after Algorithm 1: the bias corrections fold
        # into one step size and one epsilon per step.
        self.t += 1
        root2 = np.sqrt(1.0 - self.b2 ** self.t)
        step_size = self.lr * root2 / (1.0 - self.b1 ** self.t)
        eps_hat = self.eps * root2
        for name in self.values:
            if name in skip:
                continue
            g = grads[name]
            m = self.m[name] = self.b1 * self.m[name] + (1 - self.b1) * g
            v = self.v[name] = self.b2 * self.v[name] + (1 - self.b2) * g * g
            self.values[name] = self.values[name] - (m * step_size) / (np.sqrt(v) + eps_hat)


def test_packed_adam_is_algorithm_1_up_to_rounding():
    """Every update stays within 1e-12 relative of Algorithm 1's
    lr*(m/c1) / (sqrt(v/c2) + eps), also past the step where c1 = 1 - b1^t
    has rounded to exactly 1.0."""
    rng = np.random.default_rng(3)
    size = ADAM_BLOCK + 21
    p = Tensor(np.zeros(size))
    opt = AdamOptimizer({"p": p}, learning_rate=0.01)
    m, v = np.zeros(size), np.zeros(size)
    for t in range(1, 401):
        # Gradients over 14 decades, so that eps dominates some roots.
        g = rng.normal(size=size) * 10.0 ** rng.uniform(-12.0, 2.0, size)
        p.grad[...] = g
        p.value[...] = 0.0    # so that the update is exactly -p.value
        opt.step()
        m = 0.9 * m + (1 - 0.9) * g
        v = 0.999 * v + (1 - 0.999) * g * g
        update = 0.01 * (m / (1.0 - 0.9 ** t)) / (np.sqrt(v / (1.0 - 0.999 ** t)) + 1e-8)
        np.testing.assert_allclose(-p.value, update, rtol=1e-12, atol=0.0)
    assert 1.0 - 0.9 ** 400 == 1.0


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


# Table rows of 10 floats after a 7-float head: row 1637 straddles the
# first block boundary, so both blocks hold table rows and other values.
_BOUNDARY_ROW = (ADAM_BLOCK - 7) // 10


def _row_table(value):
    table = Tensor(value)
    table.reached = set()
    return table


@pytest.mark.parametrize("rows, extra, skip, clip_norm", [
    ([0, _BOUNDARY_ROW, 1699], 3, set(), None),
    ([], 0, set(), None),
    ([5, _BOUNDARY_ROW], 3, {"embedding"}, None),
    ([1, _BOUNDARY_ROW], 3, set(), 0.5),
], ids=["rows-at-a-block-boundary", "empty-row-set", "skipped-table", "clip-norm"])
def test_row_table_adam_matches_dense_adam(rows, extra, skip, clip_norm):
    """A row table changes nothing but the sign of zero moments: values and
    v bitwise, m under ==. The reference is `_ReferenceAdam`, or with a clip
    norm the dense packed optimizer."""
    shapes = {"head": (7,), "embedding": (1700, 10), "tail": (40, 3)}
    rng = np.random.default_rng(5)
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    params = {name: Tensor(value.copy()) for name, value in start.items()}
    table = params["embedding"] = _row_table(start["embedding"].copy())
    opt = AdamOptimizer(params, learning_rate=0.01, clip_norm=clip_norm, skip=skip)
    if clip_norm is None:
        reference = _ReferenceAdam(start, learning_rate=0.01)
    else:
        dense_params = {name: Tensor(value.copy()) for name, value in start.items()}
        dense = AdamOptimizer(dense_params, learning_rate=0.01, clip_norm=clip_norm,
                              skip=skip)
    for _ in range(6):
        used = sorted({*rows, *rng.choice(1700, extra).tolist()})
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        outside = np.ones(1700, dtype=bool)
        outside[used] = False
        grads["embedding"][outside] = 0.0
        opt.zero_grad()
        for name, p in params.items():
            if p is not table:
                p.grad += grads[name]
        table._accumulate(grads["embedding"][used], used)
        assert table.reached >= set(used)
        opt.step()
        if clip_norm is None:
            reference.step(grads, skip)
            ref_values, ref_m, ref_v = reference.values, reference.m, reference.v
        else:
            for name, p in dense_params.items():
                p.grad[...] = grads[name]
            dense.step()
            ref_values, ref_m, ref_v = ({name: buf[sl] for name, sl in dense.slices.items()}
                                        for buf in (dense.values, dense.m, dense.v))
        for name, p in params.items():
            m, v = opt.moments(name)
            assert p.value.tobytes() == ref_values[name].tobytes(), name
            assert v.tobytes() == ref_v[name].reshape(-1).tobytes(), name
            assert np.array_equal(m, ref_m[name].reshape(-1)), name
        opt.zero_grad()
        assert not opt.grads.any()
        assert table.reached == set()


def test_row_table_with_a_dense_gradient_updates_every_row_bitwise():
    """A whole-table addition reaches every row, so the step is the dense one."""
    rng = np.random.default_rng(8)
    start = {"embedding": rng.normal(size=(30, 4)), "tail": rng.normal(size=(5,))}
    table, tail = _row_table(start["embedding"].copy()), Tensor(start["tail"].copy())
    opt = AdamOptimizer({"embedding": table, "tail": tail}, learning_rate=0.01)
    reference = _ReferenceAdam(start, learning_rate=0.01)
    for _ in range(3):
        grads = {name: rng.normal(size=value.shape) for name, value in start.items()}
        opt.zero_grad()
        table._accumulate(grads["embedding"][:2], [3, 3])
        table._accumulate(grads["embedding"])
        grads["embedding"][3] += grads["embedding"][:2].sum(axis=0)
        tail.grad += grads["tail"]
        assert table.reached == set(range(30))
        opt.step()
        reference.step(grads, set())
        for name, sl in opt.slices.items():
            assert opt.values[sl].tobytes() == reference.values[name].reshape(-1).tobytes()
            assert opt.m[sl].tobytes() == reference.m[name].reshape(-1).tobytes()
            assert opt.v[sl].tobytes() == reference.v[name].reshape(-1).tobytes()
    opt.zero_grad()
    assert not opt.grads.any() and table.reached == set()


def test_skipped_row_table_clears_only_the_rows_it_reached():
    """A frozen table (`skip`) is never updated, but zero_grad still empties
    its reached rows and its `reached` set, as for an updated table."""
    table, tail = _row_table(np.arange(12.0).reshape(6, 2)), _param([1.0, 2.0])
    opt = AdamOptimizer({"embedding": table, "tail": tail}, learning_rate=0.1,
                        skip={"embedding"})
    before = table.value.tobytes()
    table._accumulate(np.ones((2, 2)), [1, 4])
    tail.grad[...] = 1.0
    opt.step()
    assert table.reached == {1, 4}
    opt.zero_grad()
    assert table.reached == set()
    assert not opt.grads.any()
    assert table.value.tobytes() == before


def test_row_table_adam_rejects_non_finite_table_gradient():
    table, tail = _row_table(np.ones((4, 2))), _param([1.0])
    opt = AdamOptimizer({"embedding": table, "tail": tail})
    table._accumulate(np.array([[0.5, np.nan]]), [2])
    tail.grad[:] = 1.0
    with pytest.raises(TrainingDivergedError, match="gradient in parameter 'embedding'"):
        opt.step()
    np.testing.assert_array_equal(opt.values, 1.0)    # the one block is not written


@pytest.mark.parametrize("skip, clip_norm", [(set(), None), (set(), 0.5), ({"head"}, None),
                                             ({"embedding"}, 0.5)],
                         ids=["plain", "clip-norm", "skipped-head", "skipped-table"])
def test_row_table_adam_matches_dense_adam_across_the_switch(skip, clip_norm):
    """Over 48 steps, 40 rows reached per step of a 1700-row table go from
    none live to more than COMPACT_SHARE live: values and v stay bitwise
    those of `_ReferenceAdam` (with a clip norm, of the packed optimizer
    without a row table), and m equal under ==."""
    shapes = {"head": (7,), "embedding": (1700, 10), "tail": (40, 3)}
    rng = np.random.default_rng(17)
    start = {name: rng.normal(size=shape) for name, shape in shapes.items()}
    params = {name: Tensor(value.copy()) for name, value in start.items()}
    table = params["embedding"] = _row_table(start["embedding"].copy())
    opt = AdamOptimizer(params, learning_rate=0.01, clip_norm=clip_norm, skip=skip)
    dense_params = {name: Tensor(value.copy()) for name, value in start.items()}
    dense = AdamOptimizer(dense_params, learning_rate=0.01, clip_norm=clip_norm, skip=skip)
    reference = _ReferenceAdam(start, learning_rate=0.01)
    live, shares = set(), []
    for _ in range(48):
        used = rng.choice(1700, 40, replace=False).tolist()
        live |= set(used)
        shares.append(len(live) / 1700)
        grads = {name: rng.normal(size=shape) for name, shape in shapes.items()}
        outside = np.ones(1700, dtype=bool)
        outside[used] = False
        grads["embedding"][outside] = 0.0
        opt.zero_grad()
        for name, p in params.items():
            if p is not table:
                p.grad += grads[name]
        table._accumulate(grads["embedding"][used], used)
        opt.step()
        if clip_norm is None:
            reference.step(grads, skip)
            ref_values, ref_m, ref_v = reference.values, reference.m, reference.v
        else:
            for name, p in dense_params.items():
                p.grad[...] = grads[name]
            dense.step()
            ref_values = {name: p.value for name, p in dense_params.items()}
            ref_m, ref_v = ({name: dense.moments(name)[i] for name in shapes} for i in (0, 1))
        for name, p in params.items():
            m, v = opt.moments(name)
            assert p.value.tobytes() == ref_values[name].tobytes(), name
            assert v.tobytes() == ref_v[name].reshape(-1).tobytes(), name
            assert np.array_equal(m, ref_m[name].reshape(-1)), name
    assert shares[0] < 0.1 and shares[-1] > COMPACT_SHARE


def test_row_table_rows_no_update_reached_stay_bitwise_as_they_were():
    """Rows never reached keep their values, -0.0 included, and read +0.0
    moments, before and after more than COMPACT_SHARE of the rows are live."""
    rng = np.random.default_rng(23)
    start = rng.normal(size=(50, 6))
    start[45:] = -0.0
    table, tail = _row_table(start.copy()), _param(np.ones(4))
    opt = AdamOptimizer({"embedding": table, "tail": tail}, learning_rate=0.05)
    reachable = rng.permutation(45)[:40]    # 80% of the rows, so the table switches
    for step in range(60):
        opt.zero_grad()
        used = sorted(set(reachable[:4 + step].tolist()))
        table._accumulate(rng.normal(size=(len(used), 6)), used)
        tail.grad[...] = rng.normal(size=4)
        opt.step()
        never = np.setdiff1d(np.arange(50), used)
        m, v = (buf.reshape(50, 6)[never] for buf in opt.moments("embedding"))
        assert table.value[never].tobytes() == start[never].tobytes()
        assert m.tobytes() == v.tobytes() == np.zeros_like(m).tobytes()
    assert len(used) > COMPACT_SHARE * 50


def test_compact_table_with_a_non_finite_update_writes_no_row():
    """A NaN gradient in a live row raises before any table row or later
    parameter is written. The message names the kind of the smallest flat
    index that is not finite: row 2's NaN gradient, not row 5's overflowing
    update, although row 5 went live first."""
    table, tail = _row_table(np.arange(40.0).reshape(10, 4)), _param([1.0, 2.0])
    opt = AdamOptimizer({"embedding": table, "tail": tail}, learning_rate=1e308)
    table._accumulate(np.ones((1, 4)), [5])
    opt.step()
    opt.zero_grad()
    table._accumulate(np.array([[1.0, np.nan, 1.0, 1.0], [1e300] * 4, [0.5] * 4]), [2, 5, 7])
    tail.grad[...] = 1.0
    before = opt.values.tobytes()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(TrainingDivergedError,
                           match="non-finite gradient in parameter 'embedding'"):
            opt.step()
    assert opt.values.tobytes() == before


@pytest.mark.parametrize("mode, encoder, cell", [
    ("chain", "nn", "elman"), ("chain", "nn", "gru"),
    ("knowledge", "nn", "elman"), ("knowledge", "cnn", "gru"),
    ("knowledge", "rnn", "elman"), ("joint", "rnn", "gru"),
    ("joint", "cnn", "elman"), ("joint", "nn", "gru")])
def test_training_records_every_embedding_row_it_reaches(tmp_path, monkeypatch,
                                                         mode, encoder, cell):
    """Under dropout and unknown-token replacement, every update's embedding
    gradient is zero outside the rows the table recorded, those rows are
    the utterance's few ids, and the optimizer's clearing leaves no
    gradient and no recorded row behind."""
    recorded = []

    class Checking(AdamOptimizer):
        def __init__(self, params, **kwargs):
            super().__init__(params, **kwargs)
            self.table = params["embedding"]

        def step(self):
            reached = np.flatnonzero(self.table.grad.any(axis=1)).tolist()
            assert set(reached) <= self.table.reached
            recorded.append(set(self.table.reached))
            super().step()

        def zero_grad(self):
            super().zero_grad()
            assert not self.grads.any() and self.table.reached == set()

    monkeypatch.setattr(trainer_module, "AdamOptimizer", Checking)
    paths = generate(SyntheticConfig(n_utterances=12), 3).write(tmp_path)
    utts = load_corpus(paths["corpus"])
    parses = {p.id: p for p in load_dependency(paths["dependency"])}
    config = _tiny_config(mode=mode, encoder=encoder, cell=cell, dropout=0.3,
                          unk_replace_prob=0.5, epochs=2)
    result = train(utts, config, parses)
    assert len(recorded) == 2 * len(utts)
    assert any(1 in rows for rows in recorded)    # the unknown row
    longest = max(len(u.tokens) for u in utts)
    assert all(0 < len(rows) <= longest for rows in recorded)
    assert longest < len(result.model.embedding.value)


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
    made[0].grads.fill(0.0)
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
    opt.grads.fill(0.0)
    assert not any(p.grad.any() for p in params.values())
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


# Unchecked, epsilon=0 or subnormal and beta2=1 stop training at the first
# update, beta1=1.5 and clip_norm=NaN train wrongly without an error, and a
# dev_fraction beside an explicit dev set is stored unused.
OUT_OF_RANGE = [("epsilon", 0.0), ("epsilon", -1e-8), ("epsilon", 5e-324),
                ("beta1", 1.5), ("beta1", -0.1), ("beta2", 1.0), ("clip_norm", float("nan")),
                ("dev_fraction", 7.0), ("dev_fraction", 1.0),
                ("train_fraction", 1.5), ("train_fraction", 0.0)]


@pytest.mark.parametrize("name,value", OUT_OF_RANGE)
def test_config_rejects_out_of_range_settings(name, value):
    with pytest.raises(ConfigError, match=name):
        _tiny_config(**{name: value}).validate()


def test_progress_prints_one_line_per_epoch_with_dev_f1_only_given_a_dev_set(capsys):
    utts = _utterances(8)
    for dev, pattern in ((None, r"epoch +\d+  loss=\d+\.\d{4}"),
                         (utts[6:], r"epoch +\d+  loss=\d+\.\d{4}  dev_f1=\d+\.\d{2}")):
        result = train(utts[:6], _tiny_config(mode="chain", epochs=3),
                       dev_utterances=dev, quiet=False)
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == len(result.history) == 3
        assert all(re.fullmatch(pattern, line) for line in lines)
        assert [line[:9] for line in lines] == ["epoch   1", "epoch   2", "epoch   3"]


def test_out_of_range_fractions_fail_before_the_parse_check(tmp_path):
    utts = _utterances(8)
    with pytest.raises(ConfigError, match="dev_fraction"):
        train(utts[:6], _tiny_config(dev_fraction=7.0, epochs=1),
              dev_utterances=utts[6:])
    # A one-node tree for a five-token utterance fails the parse check,
    # which comes after the config's.
    tree = tmp_path / "dependencies.tsv"
    tree.write_text("1\tflights\t0\n", encoding="utf-8")
    parses = {p.id: p for p in load_dependency(tree)}
    with pytest.raises(DataError):
        train(utts, _tiny_config(), parses)
    with pytest.raises(ConfigError, match="train_fraction"):
        train(utts, _tiny_config(train_fraction=1.5), parses)


@pytest.mark.parametrize("name,value", [
    ("learning_rate", "0.01"), ("embed_dim", 8.5), ("embed_dim", True),
    ("dropout", False), ("epochs", None), ("mode", 1), ("clip_norm", "1"),
    ("freeze_embeddings", 1), ("seed", np.float64(3.0))])
def test_config_rejects_mistyped_fields(name, value):
    with pytest.raises(ConfigError, match=name):
        TrainConfig.from_dict({name: value})


def test_config_accepts_ints_for_floats_and_numpy_scalars():
    config = TrainConfig.from_dict({"learning_rate": 1, "dropout": 0,
                                    "clip_norm": None})
    assert config.learning_rate == 1
    _tiny_config(embed_dim=np.int64(4), alpha=np.float64(0.3),
                 clip_norm=2).validate()


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


@pytest.mark.parametrize("dev_fraction", (0.0, 0.34))
def test_train_keeps_a_seeded_train_fraction(dev_fraction):
    # The dev holdout comes out of the kept fraction, not the whole corpus.
    utts = _utterances(11)
    config = _tiny_config(mode="chain", train_fraction=0.5,
                          dev_fraction=dev_fraction, epochs=1)
    result = train(utts, config)
    kept = fractional_split(utts, 0.5, derive_seed(config.seed, "split"))
    assert len(kept) == 6    # ceil(11 * 0.5)
    assert sorted(result.train_ids + result.dev_ids) == [u.id for u in kept]
    assert len(result.dev_ids) == round(dev_fraction * 6)


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
        optimizer.grads.fill(0.0)
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


@pytest.mark.parametrize("hidden_size", [10 ** 17, 10 ** 30])
def test_unallocatable_model_size_is_a_config_error(hidden_size):
    # The first tower weight is (hidden_size, 4). At 10**17 rows that is
    # 3.2e18 bytes, past any virtual address space, so numpy's allocation
    # fails at once (MemoryError) and no memory is touched; 10**30 rows
    # is past numpy's largest dimension (ValueError).
    config = _tiny_config(mode="chain", embed_dim=4, hidden_size=hidden_size)
    with pytest.raises(ConfigError, match="cannot build a model of this size"):
        train(_utterances(), config)


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


def test_dev_holdout_of_the_only_utterance_rejected():
    with pytest.raises(ConfigError, match="dev holdout consumed the whole training set"):
        train(_utterances(1), _tiny_config(dev_fraction=0.6))


def test_optimizer_divergence_names_its_epoch_and_utterance(monkeypatch):
    # The second update of a one-utterance corpus fails: epoch 2, u0000.
    step = AdamOptimizer.step

    def failing_step(self):
        if self.t == 1:
            raise TrainingDivergedError("update became non-finite")
        step(self)

    monkeypatch.setattr(AdamOptimizer, "step", failing_step)
    with pytest.raises(TrainingDivergedError) as err:
        train(_utterances(1), _tiny_config(epochs=3))
    assert str(err.value) == "update became non-finite (epoch 2, utterance u0000)"
    assert str(err.value.__cause__) == "update became non-finite"


def test_train_rejects_parses_of_other_utterances(tmp_path):
    # Two trees of equal length but different words, swapped: the library
    # path aligns parses by id, so nothing else would notice.
    paths = generate(SyntheticConfig(n_utterances=12), 3).write(tmp_path)
    utts = load_corpus(paths["corpus"])
    parses = {p.id: p for p in load_dependency(paths["dependency"])}
    a, b = next((a, b) for i, a in enumerate(utts) for b in utts[i + 1:]
                if len(a.tokens) == len(b.tokens) and a.tokens != b.tokens)
    swapped = {**parses, a.id: parses[b.id], b.id: parses[a.id]}
    config = _tiny_config(epochs=1)
    with pytest.raises(DataError, match=f"train parses: .* utterance {a.id}: "
                                        "token .* but its parse node is"):
        train(utts, config, swapped)
    # The dev parses are checked the same way, before any training.
    with pytest.raises(DataError, match=f"dev parses: .* utterance {a.id}"):
        train(utts, config, parses, dev_utterances=utts, dev_parses=swapped)
    # Chain mode reads no parses, so it trains on any.
    train(utts, _tiny_config(epochs=1, mode="chain"), swapped)


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
    assert Counter(t for utt in corpus for t in utt.tokens)["zanzibar"] == 1
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


def test_checkpoint_with_word_counts_tags_as_without_them(tmp_path):
    # Older files store the training tokens' counts in the vocabulary;
    # loading reads past them, so such a file tags and attends as before.
    _, path, utts = _trained(tmp_path)
    payload = json.loads(path.read_text())
    payload["vocab"]["token_freq"] = dict(Counter(t for utt in utts for t in utt.tokens))
    old = tmp_path / "old.ckpt"
    old.write_text(json.dumps(payload))
    with_counts, without = load_checkpoint(old), load_checkpoint(path)
    unseen = Utterance("u9999", ("flights", "from", "zanzibar", "to", "boston"),
                       ("O", "O", "B-from", "O", "B-to"))
    for utt in [*utts, unseen]:
        tags, record = with_counts.tag_utterance(utt, None)
        assert record is not None
        assert (tags, record) == without.tag_utterance(utt, None)


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


@pytest.mark.parametrize("version", [2, "1", 1.0, None], ids=repr)
def test_checkpoint_of_another_version_is_rejected(tmp_path, version):
    _, path, _ = _trained(tmp_path)
    payload = json.loads(path.read_text())
    assert payload["version"] == 1
    if version is None:
        del payload["version"]
    else:
        payload["version"] = version
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=f"version {version!r}"):
        load_checkpoint(path)


def test_checkpoint_of_unallocatable_size_is_a_checkpoint_error(tmp_path):
    # A chain model's first large weight is (hidden_size, embed_dim):
    # 3.2e18 bytes, which numpy refuses at once with a MemoryError.
    _, path, _ = _trained(tmp_path)
    payload = json.loads(path.read_text())
    payload["config"].update(mode="chain", embed_dim=4, hidden_size=10 ** 17)
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_checkpoint(path)


@pytest.mark.parametrize("name,value", OUT_OF_RANGE)
def test_checkpoint_with_out_of_range_setting_is_rejected(tmp_path, name, value):
    _, path, _ = _trained(tmp_path)
    payload = json.loads(path.read_text())
    payload["config"][name] = value
    path.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match=name):
        load_checkpoint(path)


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
