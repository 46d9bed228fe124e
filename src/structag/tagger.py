"""Recurrent slot taggers: plain chain, knowledge-guided, and joint.

All variants run left to right and emit one tag distribution per token
via a shared output layer. The knowledge-guided variants add a projected
per-utterance representation into every step's pre-activations; the
joint variant blends a chain tower and a knowledge tower before the
output softmax.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .cells import glorot_uniform, make_cell, zero_vector
from .errors import DimensionError

TAGGER_MODES = ("chain", "knowledge", "joint")
CELL_KINDS = ("elman", "gru")


class TaggerTower:
    """One recurrence over the sentence, optionally knowledge-conditioned."""

    def __init__(self, rng: np.random.Generator, cell_kind: str, embed_dim: int,
                 hidden_dim: int, knowledge_dim: int | None = None):
        self.cell = make_cell(cell_kind, rng, embed_dim, hidden_dim)
        self.knowledge_proj: dict[str, Tensor] | None = None
        if knowledge_dim is not None:
            self.knowledge_proj = {g: glorot_uniform(rng, hidden_dim, knowledge_dim)
                                   for g in self.cell.GATES}

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = self.cell.params(prefix)
        if self.knowledge_proj is not None:
            for gate, mat in self.knowledge_proj.items():
                out[f"{prefix}.know_{gate}"] = mat
        return out

    def run(self, embedded: Tensor, guided: Tensor | None = None) -> Tensor:
        """(tokens, hidden) states; `guided` enters every step of a knowledge tower."""
        extra = None
        if self.knowledge_proj is not None and guided is not None:
            extra = {gate: ad.matmul(mat, guided)
                     for gate, mat in self.knowledge_proj.items()}
        return self.cell.sequence(embedded, extra)


class Tagger:
    """Per-token tag distributions for one of the three tagger modes.

    chain       one tower, no knowledge input
    knowledge   one tower with the guided representation in every step
    joint       independent chain and knowledge towers, hidden states
                blended with weight alpha, one shared output layer
    """

    def __init__(self, rng: np.random.Generator, mode: str, cell_kind: str,
                 embed_dim: int, hidden_dim: int, n_tags: int,
                 knowledge_dim: int | None = None, alpha: float = 0.5):
        if mode not in TAGGER_MODES:
            raise ValueError(f"unknown tagger mode {mode!r}")
        if cell_kind not in CELL_KINDS:
            raise ValueError(f"unknown cell kind {cell_kind!r}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        if mode != "chain" and knowledge_dim is None:
            raise ValueError(f"mode {mode!r} needs a knowledge dimension")
        self.mode = mode
        self.alpha = alpha
        tower_knowledge = {"chain": [None], "knowledge": [knowledge_dim],
                           "joint": [None, knowledge_dim]}[mode]
        self.towers = [TaggerTower(rng, cell_kind, embed_dim, hidden_dim, k)
                       for k in tower_knowledge]
        self.out_weight = glorot_uniform(rng, hidden_dim, n_tags)
        self.out_bias = zero_vector(n_tags)

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, tower in enumerate(self.towers):
            out.update(tower.params(f"{prefix}.tower{i + 1}"))
        out[f"{prefix}.out_weight"] = self.out_weight
        out[f"{prefix}.out_bias"] = self.out_bias
        return out

    def hidden_states(self, embedded: Tensor,
                      guided: Tensor | None = None) -> Tensor:
        """(tokens, hidden) states; a chain tower ignores `guided`."""
        if self.mode != "chain" and guided is None:
            raise DimensionError(f"{self.mode} tagger needs a guided representation")
        states = [tower.run(embedded, guided) for tower in self.towers]
        if self.mode != "joint":
            return states[0]
        return ad.add(ad.affine(states[0], self.alpha),
                      ad.affine(states[1], 1.0 - self.alpha))

    def distributions(self, embedded: Tensor, guided: Tensor | None = None,
                      dropout_rate: float = 0.0,
                      rng: np.random.Generator | None = None) -> Tensor:
        """Per-token distributions as a (tokens, tags) matrix."""
        states = ad.dropout(self.hidden_states(embedded, guided),
                            dropout_rate, rng)
        logits = ad.add(ad.matmul(states, self.out_weight), self.out_bias)
        return ad.softmax(logits)


def decode_greedy(distributions: Tensor) -> list[int]:
    """Per-token argmax tag indices."""
    return distributions.value.argmax(axis=1).tolist()
