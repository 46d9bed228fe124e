"""Recurrent slot taggers: plain chain, knowledge-guided, and joint.

All variants run left to right and emit one tag distribution per token
via a shared output layer. Each tower is a recurrent cell; a knowledge
tower's cell owns the projections that add the per-utterance guided
representation into every step's pre-activations. The joint variant
blends a chain tower and a knowledge tower, run as the two lanes of one
recurrence op, before the output softmax. The output layer, blend
included, is one graph op that ends in the training loss; inference
reads its softmax as a constant.
"""

from __future__ import annotations

import numpy as np

from .autodiff import Tensor, dropout_mask, softmax_array
# CELL_KINDS is re-exported beside TAGGER_MODES for the config checks.
from .cells import CELL_KINDS, glorot_uniform, make_cell, run_lanes
from .errors import DimensionError

TAGGER_MODES = ("chain", "knowledge", "joint")


def tag_output(states: Tensor, alpha: float, weight: Tensor,
               bias: Tensor, dropout_rate: float = 0.0,
               rng: np.random.Generator | None = None,
               gold: list[int] | None = None) -> Tensor:
    """The blend `alpha * s1 + (1 - alpha) * s2` of two towers' states (one
    passes through), (towers, T, H), the dropout mask and `@ weight + bias`
    give (T, tags) logits. Without `gold`, returns their row softmax as a
    constant; with it, one graph node: the summed NLL of the gold tag indices
    from a max-shifted log-sum-exp, with logit gradient `softmax - onehot(gold)`."""
    n_tokens, n_tags = states.shape[1], weight.shape[1]
    if gold is not None and (len(gold) != n_tokens
                             or not all(0 <= t < n_tags for t in gold)):
        raise DimensionError(f"tag_output: gold tags {list(gold)} are not "
                             f"{n_tokens} indices below {n_tags}")
    towers = states.value
    scales = (alpha, 1.0 - alpha) if len(towers) == 2 else (1.0,)
    hidden = towers[0] if len(towers) == 1 else alpha * towers[0] + (1.0 - alpha) * towers[1]
    mask = dropout_mask(hidden.shape, dropout_rate, rng)
    if mask is not None:
        hidden = hidden * mask
    logits = hidden @ weight.value + bias.value
    if gold is None:
        return Tensor(softmax_array(logits))
    picked = (np.arange(n_tokens), list(gold))
    shifted = logits - logits.max(axis=1, keepdims=True)
    nll = (np.log(np.exp(shifted).sum(axis=1)) - shifted[picked]).sum()

    def bw(g):
        d_logits = softmax_array(logits)
        d_logits[picked] -= 1.0
        d_logits *= g
        bias._accumulate(d_logits.sum(axis=0))
        weight._accumulate(hidden.T @ d_logits)
        d_hidden = d_logits @ weight.value.T
        if mask is not None:
            d_hidden = d_hidden * mask
        states._accumulate(np.multiply.outer(scales, d_hidden))
    return Tensor(nll, "tag_output", (states, weight, bias), bw)


class Tagger:
    """Per-token tag distributions for one of the three tagger modes.

    chain       one tower, no knowledge input
    knowledge   one tower with the guided representation in every step
    joint       chain and knowledge towers as two lanes of one op, hidden
                states blended with weight alpha, one shared output layer

    The guided representation has the towers' hidden size, so a knowledge
    tower projects a (hidden_dim,) vector into every gate.
    """

    def __init__(self, rng: np.random.Generator, mode: str, cell_kind: str,
                 embed_dim: int, hidden_dim: int, n_tags: int, alpha: float = 0.5):
        if mode not in TAGGER_MODES:
            raise ValueError(f"unknown tagger mode {mode!r}")
        if not 0.0 <= alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {alpha}")
        self.mode = mode
        self.alpha = alpha
        tower_knowledge = {"chain": [None], "knowledge": [hidden_dim],
                           "joint": [None, hidden_dim]}[mode]
        self.towers = [make_cell(cell_kind, rng, embed_dim, hidden_dim, k)
                       for k in tower_knowledge]
        self.out_weight = glorot_uniform(rng, hidden_dim, n_tags)
        self.out_bias = Tensor(np.zeros(n_tags))

    def params(self, prefix: str) -> dict[str, Tensor]:
        out = {}
        for i, tower in enumerate(self.towers):
            out.update(tower.params(f"{prefix}.tower{i + 1}"))
        out[f"{prefix}.out_weight"] = self.out_weight
        out[f"{prefix}.out_bias"] = self.out_bias
        return out

    def distributions(self, embedded: Tensor, guided: Tensor | None = None,
                      dropout_rate: float = 0.0,
                      rng: np.random.Generator | None = None,
                      gold: list[int] | None = None) -> Tensor:
        """Per-token distributions as a constant (tokens, tags) matrix, or
        with `gold` the loss of those tags (see `tag_output`); a chain
        tower ignores `guided`."""
        if self.mode != "chain" and guided is None:
            raise DimensionError(f"{self.mode} tagger needs a guided representation")
        return tag_output(run_lanes(self.towers, embedded, guided), self.alpha,
                          self.out_weight, self.out_bias, dropout_rate, rng, gold)


def decode_greedy(distributions: Tensor) -> list[int]:
    """Per-token argmax tag indices."""
    return distributions.value.argmax(axis=1).tolist()
