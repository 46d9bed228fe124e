"""Training loop: Adam updates, dev-set model selection, checkpoints.

Training runs one utterance at a time with a fresh seeded shuffle each
epoch. When a dev set exists (given or held out), the parameters with
the best dev F1 are kept; training stops early after a fixed number of
epochs without improvement.
"""

from __future__ import annotations

import base64
import json
import math
import numbers
import random
from collections import Counter
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from .autodiff import Tensor
from .corpus import Utterance, Vocabulary, fractional_split, split_dev
from .encoders import ENCODER_KINDS
from .errors import CheckpointError, ConfigError, TrainingDivergedError
from .evaluator import evaluate
from .knowledge import (DEFAULT_MAX_SUBSTRUCTURES, KnowledgeParse,
                        check_alignment, substructures_with_fallback)
from .model import SlotModel
from .seeding import derive_seed
from .tagger import CELL_KINDS, TAGGER_MODES

CHECKPOINT_FORMAT = "structag-checkpoint"
CHECKPOINT_VERSION = 1
# Accepted per annotated type; a bool passes only as a bool, not a number.
_FIELD_TYPES = {"str": str, "int": numbers.Integral, "float": numbers.Real,
                "bool": bool}


@dataclass
class TrainConfig:
    """Model architecture plus optimization settings, all in one place."""
    mode: str = "joint"
    encoder: str = "cnn"
    cell: str = "gru"
    embed_dim: int = 100
    hidden_size: int = 100
    alpha: float = 0.5
    dropout: float = 0.25
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    epochs: int = 300
    patience: int = 25
    dev_fraction: float = 0.1
    train_fraction: float = 1.0
    seed: int = 13
    clip_norm: float | None = None
    max_substructures: int = DEFAULT_MAX_SUBSTRUCTURES
    unk_replace_prob: float = 0.5
    freeze_embeddings: bool = False

    def validate(self):
        for f in fields(self):
            value, kind = getattr(self, f.name), f.type.removesuffix(" | None")
            if (value is not None or kind == f.type) and (
                    not isinstance(value, _FIELD_TYPES[kind])
                    or isinstance(value, bool) != (kind == "bool")):
                raise ConfigError(f"{f.name} must be of type {f.type}, got {value!r}")
        if self.mode not in TAGGER_MODES:
            raise ConfigError(f"unknown tagger mode {self.mode!r}")
        if self.cell not in CELL_KINDS:
            raise ConfigError(f"unknown recurrent cell {self.cell!r}")
        if self.encoder not in ENCODER_KINDS:
            raise ConfigError(f"unknown encoder {self.encoder!r}")
        for name in ("embed_dim", "hidden_size", "epochs", "max_substructures"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("dropout", "beta1", "beta2", "dev_fraction"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not 0.0 < self.train_fraction <= 1.0:
            raise ConfigError(
                f"train_fraction must be in (0, 1], got {self.train_fraction}")
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigError(f"alpha must be in [0, 1], got {self.alpha}")
        for name in ("learning_rate", "epsilon"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")
        if self.learning_rate < 0.0:
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.epsilon < np.finfo(float).tiny:    # so that eps*sqrt(1-b2^t) > 0
            raise ConfigError(f"epsilon must be a normal float > 0, got {self.epsilon}")
        if not 0.0 <= self.unk_replace_prob <= 1.0:
            raise ConfigError("unk_replace_prob must be in [0, 1], "
                              f"got {self.unk_replace_prob}")
        # Negated, so that NaN fails it too.
        if self.clip_norm is not None and not self.clip_norm > 0.0:
            raise ConfigError(f"clip_norm must be > 0, got {self.clip_norm}")
        if self.patience < 1:
            raise ConfigError(f"patience must be >= 1, got {self.patience}")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "TrainConfig":
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ConfigError(f"unknown config fields: {', '.join(unknown)}")
        cfg = cls(**data)
        cfg.validate()
        return cfg


# Adam walks the flat buffers in blocks of this many floats through two
# scratch arrays, so its temporaries stay small and cache-resident
# whatever the model size (whole-buffer temporaries raised peak RSS).
ADAM_BLOCK = 16384


def _pack_parameters(params: dict[str, Tensor]
                     ) -> tuple[np.ndarray, np.ndarray, dict[str, slice]]:
    """Move every value and gradient into one flat float64 buffer each.

    Each tensor's `.value` and `.grad` become reshaped views of its slice,
    so in-place writes through either side are seen by the other. A
    gradient that was never set starts at zero. Returns the two buffers
    and the slice of each name.
    """
    total = sum(p.value.size for p in params.values())
    values = np.empty(total)
    grads = np.zeros(total)
    slices = {}
    offset = 0
    for name, p in params.items():
        shape = p.value.shape
        sl = slices[name] = slice(offset, offset + p.value.size)
        values[sl] = p.value.reshape(-1)
        if p.grad is not None:
            grads[sl] = p.grad.reshape(-1)
        p.value = values[sl].reshape(shape)
        p.grad = grads[sl].reshape(shape)
        offset = sl.stop
    return values, grads, slices


# A row table keeps moments for its live rows only until more than this share
# of its rows is live. On a 643x100 table beside 20,808 other floats (2-core
# VM), such a step took 0.5, 0.6, 0.7 and 0.8 of the dense step's time at live
# shares 0.1 to 0.4, and with separate scratch arrays 0.8, 0.9, 1.0 and 1.1 at
# 0.5 to 0.8: break-even near 0.7. But the compact update's scratch is the
# moment rows past the live ones, which caps the share at 1/2.
COMPACT_SHARE = 0.5


class _RowTable:
    """An updated row table, its rows in the flat buffers p, g, m and v, and
    its live rows: `slot` maps a row to its moment row (-1 if none) and
    `order` back, until it is None and the moments are in row order."""

    def __init__(self, name: str, table: Tensor, p, g, m, v):
        self.name, self.table, self.p, self.g, self.m, self.v = name, table, p, g, m, v
        self.slot, self.order = np.full(len(m), -1), np.empty(0, np.intp)


def _to_row_order(rows: np.ndarray, order: np.ndarray):
    """Move rows[i] to rows[order[i]] for every i, in place, and zero the rest."""
    moved = rows[:len(order)].copy()
    rows[...] = 0.0
    rows[order] = moved


class AdamOptimizer:
    """Adam (Kingma & Ba, arXiv:1412.6980) with bias correction over one
    flat parameter store.

    Construction packs the given parameters: their values and gradients
    move into the contiguous buffers `values` and `grads`, and every
    `Tensor.value` and `.grad` becomes a view of its slice (`slices`
    maps names to slices), so backward passes, checkpoints and the
    optimizer share memory. The moments `m` and `v` are flat as well.
    Parameters named in `skip` are never updated or checked and do not
    count toward the clip norm. `step` orders the update as the paper does
    after Algorithm 1, equal to it up to rounding: p -= m*a / (sqrt(v) + e)
    with a = lr*sqrt(1-b2^t)/(1-b1^t) and e = eps*sqrt(1-b2^t). Done in
    place, block by block, it is bitwise that formula looped over the named
    arrays, except that a row table (see `Tensor._accumulate`) adds gradient
    terms to its moments only on the rows reached, skipping an exact `+ 0.0`,
    so a moment that has decayed to zero may stay -0.0. A row no update has
    reached since construction has g = 0 and m = v = +0.0, which Adam leaves
    bitwise as they are (+0.0 decays to +0.0, and p - 0*a/(0 + e) is p as
    e > 0). So until more than COMPACT_SHARE of a table's rows are live, the
    step does arithmetic on live rows only, whose moments come first in the
    table's slice of `m` and `v` in first-reach order (`moments` reads them
    in row order), and an infinite step size raises there once a row is live.
    """

    def __init__(self, params: dict[str, Tensor], learning_rate=0.001,
                 beta1=0.9, beta2=0.999, epsilon=1e-8, clip_norm=None,
                 skip: frozenset | set = frozenset()):
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self.clip_norm = clip_norm
        self.t = 0
        self.values, self.grads, self.slices = _pack_parameters(params)
        self.m = np.zeros_like(self.values)
        self.v = np.zeros_like(self.values)
        self._scratch = np.empty((2, min(ADAM_BLOCK, self.values.size)))
        names = [n for n, p in params.items() if p.reached is not None and n not in skip]
        self._tables = [_RowTable(n, params[n], *(buf[self.slices[n]].reshape(params[n].shape)
                                                  for buf in (self.values, self.grads, self.m,
                                                              self.v))) for n in names]
        self._blocks = self._blocks_outside(skip)    # the clip norm sums over these
        self._dense = self._blocks_outside(names)    # zero_grad clears these
        self._parts = self._blocks_outside({*skip, *names})    # all other updated floats

    def _blocks_outside(self, names) -> list[tuple[int, int]]:
        """The spans of the flat buffers outside the parameters `names`, cut into blocks."""
        ends = [0, *(x for n, sl in self.slices.items() if n in names
                     for x in (sl.start, sl.stop)), self.values.size]
        return [(lo, min(lo + ADAM_BLOCK, b)) for a, b in zip(ends[::2], ends[1::2])
                for lo in range(a, b, ADAM_BLOCK)]

    def moments(self, name: str) -> tuple[np.ndarray, np.ndarray]:
        """Copies of the moments m and v of `name`, flat and in row order."""
        m, v = self.m[self.slices[name]].copy(), self.v[self.slices[name]].copy()
        for t in (t for t in self._tables if t.name == name and t.order is not None):
            for buf in (m, v):
                _to_row_order(buf.reshape(t.m.shape), t.order)
        return m, v

    def zero_grad(self):
        """Zero every gradient, but of a row table only the rows it reached."""
        for a, b in self._dense:
            self.grads[a:b] = 0.0
        for t in self._tables:
            t.g[list(t.table.reached)] = 0.0
            t.table.reached = set()

    @np.errstate(over="ignore", invalid="ignore")
    def step(self):
        """Apply one update from the current gradients.

        A block whose update is non-finite, from a non-finite gradient or
        an overflow, is not written, nor is any row of a table that keeps
        moments for its live rows only: TrainingDivergedError names the
        parameter instead. numpy's overflow warnings are silenced.
        """
        grads = self.grads
        if self.clip_norm is not None:
            total = math.sqrt(sum(float(np.dot(grads[lo:hi], grads[lo:hi]))
                                  for lo, hi in self._blocks))
            if total > self.clip_norm:
                scale = self.clip_norm / total
                for lo, hi in self._blocks:
                    grads[lo:hi] *= scale
        self.t += 1
        b1, b2 = self.beta1, self.beta2
        root2 = math.sqrt(1.0 - b2 ** self.t)
        step_size = self.learning_rate * root2 / (1.0 - b1 ** self.t)
        eps_hat = self.epsilon * root2
        for t in self._tables:
            rows = np.fromiter(t.table.reached, np.intp, len(t.table.reached))
            sl = self.slices[t.name]
            if t.order is not None:    # rows reached for the first time take the next slots
                new, n = rows[t.slot[rows] < 0], len(t.order)
                t.slot[new], t.order = range(n, n + len(new)), np.append(t.order, new)
                t.m[n:len(t.order)] = t.v[n:len(t.order)] = 0.0
                if len(t.order) > COMPACT_SHARE * len(t.slot):
                    for buf in (t.m, t.v):
                        _to_row_order(buf, t.order)
                    t.slot, t.order = np.arange(len(t.slot)), None
            g, idx, n = t.g[rows], t.slot[rows], len(t.slot if t.order is None else t.order)
            t.m[:n] *= b1
            t.m[idx] += (1 - b1) * g
            t.v[:n] *= b2
            t.v[idx] += ((1 - b2) * g) * g
            if t.order is None:    # in blocks, as the other parameters
                for lo in range(sl.start, sl.stop, ADAM_BLOCK):
                    hi = min(lo + ADAM_BLOCK, sl.stop)
                    s1, s2 = self._scratch[:, :hi - lo]
                    self.values[lo:hi] -= self._update(self.m[lo:hi], self.v[lo:hi], s1, s2,
                                                       step_size, eps_hat, lambda bad: lo + bad)
            elif n:    # every live row is written, or none
                cols = t.m.shape[1]
                s1 = self._update(t.m[:n], t.v[:n], t.m[n:2 * n], t.v[n:2 * n], step_size,
                                  eps_hat, lambda bad: sl.start + t.order[bad // cols] * cols
                                  + bad % cols)
                s2 = np.take(t.p, t.order, axis=0, out=t.v[n:2 * n], mode="clip")
                s2 -= s1
                t.p[t.order] = s2
        for a, b in self._parts:
            g, m, v, s1 = grads[a:b], self.m[a:b], self.v[a:b], self._scratch[0, :b - a]
            # m = b1*m + (1-b1)*g
            np.multiply(m, b1, out=m)
            np.multiply(g, 1 - b1, out=s1)
            m += s1
            # v = b2*v + ((1-b2)*g)*g
            np.multiply(v, b2, out=v)
            np.multiply(g, 1 - b2, out=s1)
            s1 *= g
            v += s1
            self.values[a:b] -= self._update(m, v, s1, self._scratch[1, :b - a], step_size,
                                             eps_hat, lambda bad: a + bad)

    def _update(self, m, v, s1, s2, step_size, eps_hat, index) -> np.ndarray:
        """s1 = (m*step_size) / (sqrt(v) + eps_hat), through s2. A non-finite
        entry raises for the least `index` of such entries, a flat index."""
        np.multiply(m, step_size, out=s1)
        np.sqrt(v, out=s2)
        s2 += eps_hat
        s1 /= s2
        # A finite sum of squares proves every entry finite.
        flat = s1.reshape(-1)
        if math.isfinite(np.dot(flat, flat)) or np.isfinite(flat).all():
            return s1
        first = int(index(np.flatnonzero(~np.isfinite(flat))).min())
        name = next(n for n, sl in self.slices.items() if sl.start <= first < sl.stop)
        what = "update for" if np.isfinite(self.grads[first]) else "gradient in"
        raise TrainingDivergedError(f"non-finite {what} parameter {name!r}")


@dataclass
class TrainResult:
    model: SlotModel
    best_epoch: int
    best_dev_f1: float | None
    history: list = field(default_factory=list)
    train_ids: list = field(default_factory=list)
    dev_ids: list = field(default_factory=list)


def _substructure_table(utterances, parses, config):
    if config.mode == "chain":
        return {}
    parses = parses or {}
    return {utt.id: substructures_with_fallback(
        parses.get(utt.id), len(utt.tokens), config.max_substructures)
        for utt in utterances}


def evaluate_model(model: SlotModel, utterances: list[Utterance],
                   parses: dict[str, KnowledgeParse] | None = None) -> dict:
    """Tag every utterance and score against its gold tags."""
    parses = parses or {}
    gold = [list(u.tags) for u in utterances]
    predicted = [model.tag_utterance(u, parses.get(u.id))[0] for u in utterances]
    return evaluate(gold, predicted, ids=[u.id for u in utterances])


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def train(train_utterances: list[Utterance], config: TrainConfig,
          parses: dict[str, KnowledgeParse] | None = None,
          dev_utterances: list[Utterance] | None = None,
          dev_parses: dict[str, KnowledgeParse] | None = None,
          log_path: str | Path | None = None,
          quiet: bool = True) -> TrainResult:
    """Fit a model. Returns it with best-dev parameters restored.

    Training keeps a seeded train_fraction of the training set. With no
    dev utterances and dev_fraction > 0, a seeded slice of what it keeps
    is held out. Passing an explicit dev set disables the holdout. The
    log, when requested, gets one JSON line per epoch. Adam's moments and
    the gradient clearing touch only the embedding rows an update reached.
    Floating-point warnings are off: the non-finite checks report instead.
    Outside chain mode, a parse that does not fit its utterance raises.
    """
    config.validate()
    if not train_utterances:
        raise ConfigError("training set is empty")
    if config.mode != "chain":
        check_alignment(parses or {}, train_utterances, "train parses")
        check_alignment(dev_parses or {}, dev_utterances or [], "dev parses")
    train_utterances = fractional_split(train_utterances, config.train_fraction,
                                        derive_seed(config.seed, "split"))
    if dev_utterances is None and config.dev_fraction > 0.0:
        train_utterances, dev_utterances = split_dev(
            train_utterances, config.dev_fraction, derive_seed(config.seed, "dev"))
        dev_parses = parses
        if not train_utterances:
            raise ConfigError("dev holdout consumed the whole training set")

    vocab = Vocabulary.build(train_utterances)
    init_rng = np.random.default_rng(derive_seed(config.seed, "init"))
    try:
        model = SlotModel(config, vocab, init_rng)
    except (MemoryError, ValueError) as exc:    # numpy cannot allocate the size
        raise ConfigError(f"cannot build a model of this size: {exc}") from exc
    optimizer = AdamOptimizer(
        model.params(), learning_rate=config.learning_rate, beta1=config.beta1,
        beta2=config.beta2, epsilon=config.epsilon, clip_norm=config.clip_norm,
        skip={"embedding"} if config.freeze_embeddings else frozenset())

    dropout_rng = np.random.default_rng(derive_seed(config.seed, "dropout"))
    unk_rng = random.Random(derive_seed(config.seed, "oov"))
    counts = Counter(t for utt in train_utterances for t in utt.tokens)
    singleton_ids = {vocab.token_index[t] for t, c in counts.items() if c == 1}
    subs_table = _substructure_table(train_utterances, parses, config)

    history = []
    best_f1 = None
    best_epoch = 0
    best_values = None
    stale_epochs = 0
    log_fh = open(log_path, "w", encoding="utf-8") if log_path else None
    try:
        for epoch in range(1, config.epochs + 1):
            order = list(range(len(train_utterances)))
            random.Random(derive_seed(config.seed, f"shuffle:{epoch}")).shuffle(order)
            total_loss = 0.0
            for idx in order:
                utt = train_utterances[idx]
                token_ids = vocab.encode_tokens(utt.tokens)
                if config.unk_replace_prob > 0.0 and singleton_ids:
                    token_ids = [
                        vocab.unk_id if tid in singleton_ids
                        and unk_rng.random() < config.unk_replace_prob else tid
                        for tid in token_ids]
                tag_ids = vocab.encode_tags(utt.tags)
                optimizer.zero_grad()
                loss = model.loss(token_ids, tag_ids, subs_table.get(utt.id),
                                  config.dropout, dropout_rng)
                loss_value = float(loss.value)
                if not math.isfinite(loss_value):
                    raise TrainingDivergedError(
                        f"loss became non-finite at epoch {epoch}, "
                        f"utterance {utt.id}")
                loss.backward()
                try:
                    optimizer.step()
                except TrainingDivergedError as exc:
                    raise TrainingDivergedError(
                        f"{exc} (epoch {epoch}, utterance {utt.id})") from exc
                total_loss += loss_value

            entry = {"epoch": epoch,
                     "train_loss": total_loss / len(train_utterances)}
            if dev_utterances:
                report = evaluate_model(model, dev_utterances, dev_parses)
                entry["dev_f1"] = report["f1"]
                if best_f1 is None or report["f1"] > best_f1:
                    best_f1 = report["f1"]
                    best_epoch = epoch
                    best_values = optimizer.values.copy()
                    stale_epochs = 0
                else:
                    stale_epochs += 1
            history.append(entry)
            if log_fh:
                log_fh.write(json.dumps(entry) + "\n")
                log_fh.flush()
            if not quiet:
                dev_part = (f"  dev_f1={entry['dev_f1']:.2f}"
                            if "dev_f1" in entry else "")
                print(f"epoch {epoch:3d}  loss={entry['train_loss']:.4f}"
                      f"{dev_part}")
            if dev_utterances and stale_epochs >= config.patience:
                break
    finally:
        if log_fh:
            log_fh.close()

    if best_values is not None:
        optimizer.values[:] = best_values
    else:
        best_epoch = len(history)
    return TrainResult(model=model, best_epoch=best_epoch,
                       best_dev_f1=best_f1, history=history,
                       train_ids=[u.id for u in train_utterances],
                       dev_ids=[u.id for u in (dev_utterances or [])])


def save_checkpoint(model: SlotModel, path: str | Path):
    """Self-describing JSON checkpoint: config, vocabulary, parameters."""
    payload = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "config": model.config.to_dict(),
        "vocab": model.vocab.to_dict(),
        "params": {
            name: {"shape": list(p.value.shape),
                   "data": base64.b64encode(
                       np.ascontiguousarray(p.value, dtype="<f8").tobytes()
                   ).decode("ascii")}
            for name, p in model.params().items()},
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_checkpoint(path: str | Path) -> SlotModel:
    """Rebuild a model from a checkpoint, rejecting inconsistent files."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:    # ValueError: not UTF-8, not JSON
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(payload, dict) or payload.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError(f"{path} is not a recognized checkpoint file")
    if type(version := payload.get("version")) is not int or version != CHECKPOINT_VERSION:
        raise CheckpointError(f"{path}: unsupported checkpoint version {version!r}")
    try:
        config = TrainConfig.from_dict(payload["config"])
        vocab = Vocabulary.from_dict(payload["vocab"])
        stored = dict(payload["params"])
        model = SlotModel(config, vocab, np.random.default_rng(0))
    except (KeyError, TypeError, ValueError, MemoryError, ConfigError) as exc:
        raise CheckpointError(f"{path}: malformed checkpoint: {exc}") from exc
    params = model.params()
    missing = sorted(set(params) - set(stored))
    extra = sorted(set(stored) - set(params))
    if missing or extra:
        raise CheckpointError(
            f"{path}: parameter names do not match the config "
            f"(missing: {missing}, unexpected: {extra})")
    for name, p in params.items():
        entry = stored[name]
        try:
            raw = base64.b64decode(entry["data"])
            arr = np.frombuffer(raw, dtype="<f8").reshape(entry["shape"])
        except (KeyError, TypeError, ValueError) as exc:
            raise CheckpointError(
                f"{path}: bad data for parameter {name!r}: {exc}") from exc
        if arr.shape != p.value.shape:
            raise CheckpointError(
                f"{path}: parameter {name!r} has shape {arr.shape}, "
                f"expected {p.value.shape}")
        if not np.isfinite(arr).all():
            raise CheckpointError(
                f"{path}: parameter {name!r} holds NaN or infinite values")
        p.value[...] = arr
    return model
