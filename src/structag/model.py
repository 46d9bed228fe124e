"""Full tagging model: embeddings, encoders, attention, and tagger wired
into one differentiable graph per utterance. Its substructures and then
its sentence are one lookup and one encoder `final_states` call, whose
rows are the memory and the sentence vector; the towers look it up again.
"""

from __future__ import annotations

import numpy as np

from .attention import (KnowledgeMemory, build_attention_record,
                        knowledge_representation)
from .autodiff import Tensor, dropout_mask
from .corpus import Utterance, Vocabulary
from .encoders import OutputNetwork, make_encoder
from .errors import DimensionError
from .knowledge import KnowledgeParse, Substructure, substructures_with_fallback
from .tagger import Tagger, decode_greedy


def embed(table: Tensor, token_ids: list[int], dropout_rate: float = 0.0,
          rng: np.random.Generator | None = None) -> Tensor:
    """One graph node: the rows of `table` for `token_ids` (repeats
    allowed), dropout applied."""
    idx = list(token_ids)
    if idx and (min(idx) < 0 or max(idx) >= table.shape[0]):
        raise DimensionError(f"embedding id out of range for {table.shape}")
    rows = table.value[idx]
    mask = dropout_mask(rows.shape, dropout_rate, rng)
    value = rows if mask is None else rows * mask
    return Tensor(value, "embed", (table,),
                  lambda g: table._accumulate(g if mask is None else g * mask, idx))


class SlotModel:
    """All trainable parameters plus the forward pass over one utterance.

    `config` needs: encoder, cell, mode, embed_dim, hidden_size, alpha,
    max_substructures. The chain mode skips the encoder/attention stack
    entirely and is the knowledge-free baseline.
    """

    def __init__(self, config, vocab: Vocabulary, rng: np.random.Generator):
        self.config = config
        self.vocab = vocab
        self.embedding = Tensor(
            rng.uniform(-0.1, 0.1, size=(vocab.n_tokens, config.embed_dim)))
        self.embedding.reached = set()    # a row table: `embed` reaches few rows
        d = config.hidden_size
        self.encoder = self.output_net = None
        if config.mode != "chain":
            self.encoder = make_encoder(config.encoder, rng, config.embed_dim, d)
            self.output_net = OutputNetwork(rng, d)
        self.tagger = Tagger(
            rng, mode=config.mode, cell_kind=config.cell,
            embed_dim=config.embed_dim, hidden_dim=d,
            n_tags=vocab.n_tags, alpha=config.alpha)

    def params(self) -> dict[str, Tensor]:
        out = {"embedding": self.embedding}
        if self.encoder is not None:
            out.update(self.encoder.params("encoder"))
            out.update(self.output_net.params("output_net"))
        out.update(self.tagger.params("tagger"))
        return out

    def forward(self, token_ids: list[int],
                substructures: list[Substructure] | None,
                dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None,
                gold: list[int] | None = None) -> tuple[Tensor, Tensor | None]:
        """Tag scores (logits) for one utterance, or with `gold` tag ids
        their loss (see `tagger.tag_output`).

        Returns (scores or loss, attention weights or None). Outside
        chain mode the substructures are the memory rows, at least one
        (`substructures_with_fallback` makes one when a parse yields none).
        Dropout is active only when a rate and rng are given; evaluation
        passes neither.
        """
        guided = weights = None
        if self.encoder is not None:
            n = len(token_ids)
            subs = substructures or []
            if not all(0 <= pos < n for sub in subs for pos in sub.positions):
                raise DimensionError(f"substructure positions out of range for a {n}-"
                                     f"token utterance: {[s.positions for s in subs]}")
            ids = [*(token_ids[pos] for sub in subs for pos in sub.positions), *token_ids]
            finals = self.encoder.final_states(embed(self.embedding, ids, dropout_rate, rng),
                                               [*(len(sub.positions) for sub in subs), n])
            guided, weights = knowledge_representation(
                finals, KnowledgeMemory(list(subs)), self.output_net)
        embedded = embed(self.embedding, token_ids, dropout_rate, rng)
        dist = self.tagger.distributions(embedded, guided, dropout_rate, rng, gold)
        return dist, weights

    def loss(self, token_ids: list[int], tag_ids: list[int],
             substructures: list[Substructure] | None,
             dropout_rate: float = 0.0,
             rng: np.random.Generator | None = None) -> Tensor:
        return self.forward(token_ids, substructures, dropout_rate, rng,
                            gold=tag_ids)[0]

    def tag_utterance(self, utt: Utterance, parse: KnowledgeParse | None
                      ) -> tuple[list[str], dict | None]:
        """Tags (no dropout, no graph kept) and, outside chain mode, the attention record."""
        token_ids = self.vocab.encode_tokens(utt.tokens)
        subs = None
        if self.config.mode != "chain":
            subs = substructures_with_fallback(parse, len(utt.tokens),
                                               self.config.max_substructures)
        dist, weights = self.forward(token_ids, subs)
        names = self.vocab.tag_names()
        tags = [names[i] for i in decode_greedy(dist)]
        if weights is None:
            return tags, None
        return tags, build_attention_record(utt.id, utt.tokens, subs,
                                            weights.value.tolist())
