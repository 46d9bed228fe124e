"""Attention over the knowledge memory of substructure embeddings.

The sentence vector is matched against each stored substructure vector
by inner product; the softmax of those scores weights the memory sum,
and the output network turns (memory sum + sentence vector) into the
knowledge-guided representation fed to the tagger. The whole step is
one graph op with a hand-written backward.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .autodiff import Tensor, softmax_array, softmax_array_grad
from .encoders import OutputNetwork
from .errors import DimensionError
from .knowledge import Substructure


@dataclass
class KnowledgeMemory:
    """The substructures whose encodings are the memory rows, in row order."""
    substructures: list[Substructure]

    @property
    def size(self) -> int:
        return len(self.substructures)


def knowledge_representation(states: Tensor, memory: KnowledgeMemory,
                             output_net: OutputNetwork) -> tuple[Tensor, Tensor]:
    """Full attention step as one graph node: (guided representation o, weights p).

    `states` is the encoder's `final_states` as it comes: the memory M,
    one row per substructure of `memory`, then the sentence vector u as
    its last row. p = softmax(M u) over raw inner products (no scaling
    factor), and o = tanh(W (pᵀM + u) + b). The weights come back as a
    constant tensor; gradients reach `states` through o.
    """
    n, w, b = memory.size, output_net.weight, output_net.bias
    if n < 1 or states.shape != (n + 1, w.shape[1]):
        raise DimensionError(
            f"attention takes ({n + 1}, {w.shape[1]}) final states, {n} substructure "
            f"rows (at least 1) and the sentence row; got {states.shape}")
    m, u = states.value[:n], states.value[n]
    p = softmax_array(m @ u)
    s = p @ m + u
    o = np.tanh(w.value @ s + b.value)

    def bw(g):
        d_pre = g * (1.0 - o * o)
        b._accumulate(d_pre)
        w._accumulate(np.outer(d_pre, s))
        d_s = w.value.T @ d_pre
        d_scores = softmax_array_grad(p, m @ d_s)
        states._accumulate(np.outer(p, d_s), slice(0, n))
        states._accumulate(np.outer(d_scores, u), slice(0, n))
        states._accumulate(d_s, n)
        states._accumulate(m.T @ d_scores, n)
    return Tensor(o, "attention", (states, w, b), bw), Tensor(p)


def build_attention_record(utterance_id: str, tokens: list[str],
                           substructures: list[Substructure],
                           weights: list[float]) -> dict:
    """The JSON attention record that `inspect-attention` writes for one utterance.

    A token's salience is the max weight over the substructures holding it;
    an edge's is the max over the paths traversing (head, dependent), and an
    edge whose best weight is not above 0 is left out. Both project the
    substructure-level distribution for visualization.
    """
    token_salience = [0.0] * len(tokens)
    edge_best: dict[tuple[int, int], float] = {}
    for sub, w in zip(substructures, weights):
        for pos in sub.positions:
            if w > token_salience[pos]:
                token_salience[pos] = w
        for head, dep in zip(sub.positions, sub.positions[1:]):
            if w > edge_best.get((head, dep), 0.0):
                edge_best[head, dep] = w
    return {"utterance_id": utterance_id, "tokens": list(tokens),
            "substructures": [{"positions": list(s.positions),
                               "tokens": [tokens[i] for i in s.positions],
                               "weight": w} for s, w in zip(substructures, weights)],
            "token_salience": token_salience,
            "edge_salience": [{"head": h, "dependent": d, "salience": s}
                              for (h, d), s in sorted(edge_best.items())]}
