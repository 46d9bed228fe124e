"""Timing spans installed around structag's public entry points at run time.

Nothing in `src/` changes: `Tracer.install()` replaces module functions
and class methods with wrappers and `uninstall()` puts the originals
back. Functions that another module imports by name are wrapped in the
namespace where they are called, otherwise the call would bypass the
wrapper and the span would read zero.

Each span charges its duration to one layer. A layer's self time is the
span's duration minus the time of the spans nested inside it, so every
second is charged to exactly one layer. The bookkeeping that hooks do
(walking the autodiff graph, counting rows) is charged to the pseudo
layer `trace` and is therefore excluded from every real layer's time.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

from structag import (autodiff, corpus, encoders, evaluator, knowledge, model,
                      synthetic, tagger, trainer)

LAYERS = ("synthetic", "corpus", "knowledge", "encoders", "attention",
          "tagger", "model", "autodiff", "trainer", "evaluator")


def graph_ops(root) -> Counter:
    """Count the nodes reachable from `root` through `parents`, by `op`."""
    ops: Counter = Counter()
    seen = {id(root)}
    stack = [root]
    while stack:
        node = stack.pop()
        ops[node.op] += 1
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops


@dataclass
class Totals:
    """Span times and counters summed since the last reset."""
    self_s: defaultdict = field(default_factory=lambda: defaultdict(float))  # by layer
    incl_s: defaultdict = field(default_factory=lambda: defaultdict(float))  # by span
    calls: Counter = field(default_factory=Counter)                          # by span
    counts: Counter = field(default_factory=Counter)                         # by counter

    _FIELDS = ("self_s", "incl_s", "calls", "counts")

    def since(self, earlier: "Totals") -> "Totals":
        """What was added after `earlier`, a copy taken from these totals."""
        out = Totals()
        for name in self._FIELDS:
            now, then, diff = getattr(self, name), getattr(earlier, name), getattr(out, name)
            for key, value in now.items():
                if value != then.get(key, 0):
                    diff[key] = value - then.get(key, 0)
        return out

    def add(self, other: "Totals"):
        for name in self._FIELDS:
            mine = getattr(self, name)
            for key, value in getattr(other, name).items():
                mine[key] += value

    def copy(self) -> "Totals":
        out = Totals()
        out.add(self)
        return out

    def deterministic(self) -> dict:
        """Span calls and counters: the part that repeats exactly."""
        return {**{f"calls:{k}": v for k, v in self.calls.items()},
                **dict(self.counts)}


class Tracer:
    """Aggregated spans and counters for one traced phase of a run."""

    def __init__(self):
        self._originals: list[tuple[object, str, object]] = []
        self._stack: list[list] = []  # [span name, seconds of child spans]
        self.totals = Totals()

    def reset(self):
        self.totals = Totals()

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, name: str, fn, hook=None):
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                totals = self.totals
                totals.self_s[layer] += elapsed - frame[1]
                totals.incl_s[name] += elapsed
                totals.calls[name] += 1
                if stack:
                    stack[-1][1] += elapsed
            if hook is not None:
                hook_start = time.perf_counter()
                hook(self.totals.counts, self, result, *args, **kwargs)
                spent = time.perf_counter() - hook_start
                self.totals.self_s["trace"] += spent
                if stack:
                    stack[-1][1] += spent
            return result
        return wrapper

    def _patch(self, owner, attr: str, layer: str, hook=None):
        original = getattr(owner, attr)
        name = f"{owner.__name__.rpartition('.')[2]}.{attr}"
        self._originals.append((owner, attr, original))
        setattr(owner, attr, self._wrap(layer, name, original, hook))

    def install(self):
        if self._originals:
            raise RuntimeError("tracer is already installed")
        p = self._patch
        p(synthetic, "generate", "synthetic")
        p(corpus, "load_corpus", "corpus")
        for meth in ("build", "encode_tokens", "encode_tags"):
            p(corpus.Vocabulary, meth, "corpus")
        p(knowledge, "load_dependency", "knowledge")
        p(knowledge, "load_amr", "knowledge")
        p(model, "substructures_with_fallback", "knowledge", _count_subs)
        p(trainer, "substructures_with_fallback", "knowledge", _count_subs)
        for cls in (encoders.LinearEncoder, encoders.RecurrentEncoder,
                    encoders.ConvolutionalEncoder):
            p(cls, "encode", "encoders", _count_encode)
        p(model, "knowledge_representation", "attention", _count_memory)
        p(model, "build_attention_record", "attention")
        p(tagger.Tagger, "distributions", "tagger", _count_steps)
        p(model, "decode_greedy", "tagger")
        p(model.SlotModel, "forward", "model", _count_forward)
        p(model.SlotModel, "loss", "model", _count_loss)
        p(model.SlotModel, "tag_utterance", "model")
        p(autodiff.Tensor, "backward", "autodiff")
        p(trainer, "train", "trainer")
        p(trainer, "evaluate_model", "trainer")
        p(trainer.AdamOptimizer, "step", "trainer")
        p(trainer, "save_checkpoint", "trainer")
        p(trainer, "load_checkpoint", "trainer")
        p(evaluator, "evaluate", "evaluator")
        p(trainer, "evaluate", "evaluator")

    def uninstall(self):
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    @property
    def current_span(self) -> str | None:
        return self._stack[-1][0] if self._stack else None


# -- hooks: counters recorded where the work happens ------------------------

# Each hook gets the counters, the tracer, the wrapped call's result and
# its arguments.

def _count_subs(counts, tr, subs, *args, **kwargs):
    counts["knowledge.extractions"] += 1
    counts["knowledge.subs"] += len(subs)
    counts["knowledge.sub_tokens"] += sum(len(s.positions) for s in subs)
    counts["knowledge.fallbacks"] += sum(1 for s in subs if s.leaf is None)


def _count_encode(counts, tr, result, encoder, embedded):
    counts["encoders.calls"] += 1
    counts["encoders.tokens"] += embedded.shape[0]


def _count_memory(counts, tr, result, u, memory, output_net):
    counts["attention.memory_rows"] += memory.size


def _count_steps(counts, tr, result, tagger_, embedded, *args, **kwargs):
    counts["tagger.steps"] += embedded.shape[0] * len(tagger_.towers)


def _count_graph(counts, root):
    counts["model.graphs"] += 1
    for op, n in graph_ops(root).items():
        counts["model.nodes"] += n
        counts[f"model.nodes.{op}"] += n


def _count_forward(counts, tr, result, *args, **kwargs):
    counts["model.forwards"] += 1
    # Inside `loss` the loss hook walks the larger graph instead.
    if tr.current_span != "SlotModel.loss":
        _count_graph(counts, result[0])


def _count_loss(counts, tr, result, *args, **kwargs):
    counts["model.updates"] += 1
    _count_graph(counts, result)
