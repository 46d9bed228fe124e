"""Full tagging model: embeddings, encoders, attention, and tagger wired
into one differentiable graph per utterance.
"""

from __future__ import annotations

import numpy as np

from . import autodiff as ad
from .attention import (AttentionRecord, KnowledgeMemory,
                        build_attention_record, knowledge_representation)
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
    if not all(0 <= i < table.shape[0] for i in idx):
        raise DimensionError(f"embedding id out of range for {table.shape}")
    rows = table.value[idx]
    mask = dropout_mask(rows.shape, dropout_rate, rng)
    out = Tensor(rows if mask is None else rows * mask, "embed", (table,))

    def bw(g):
        if table.grad is None:
            table.grad = np.zeros_like(table.value)
        np.add.at(table.grad, idx, g if mask is None else g * mask)
    out._backward = bw
    return out


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
        d = config.hidden_size
        if config.mode == "chain":
            self.encoder = None
            self.output_net = None
        else:
            self.encoder = make_encoder(config.encoder, rng, config.embed_dim, d)
            self.output_net = OutputNetwork(rng, d)
        self.tagger = Tagger(
            rng, mode=config.mode, cell_kind=config.cell,
            embed_dim=config.embed_dim, hidden_dim=d,
            n_tags=vocab.n_tags,
            knowledge_dim=None if config.mode == "chain" else d,
            alpha=config.alpha)

    def params(self) -> dict[str, Tensor]:
        out = {"embedding": self.embedding}
        if self.encoder is not None:
            out.update(self.encoder.params("encoder"))
            out.update(self.output_net.params("output_net"))
        out.update(self.tagger.params("tagger"))
        return out

    def zero_grad(self):
        for p in self.params().values():
            p.zero_grad()

    def forward(self, token_ids: list[int],
                substructures: list[Substructure] | None,
                dropout_rate: float = 0.0,
                rng: np.random.Generator | None = None
                ) -> tuple[Tensor, Tensor | None, list[Substructure]]:
        """Tag distributions for one utterance.

        Returns (distributions, attention weights or None, substructures
        actually used). Dropout is active only when a rate and rng are
        given; evaluation passes neither.
        """
        if self.config.mode == "chain":
            embedded = embed(self.embedding, token_ids, dropout_rate, rng)
            return self.tagger.distributions(embedded, None, dropout_rate, rng), \
                None, []

        subs = substructures if substructures else substructures_with_fallback(
            None, len(token_ids))
        memory_rows = [self.encoder.encode(embed(
            self.embedding, [token_ids[pos] for pos in sub.positions],
            dropout_rate, rng)) for sub in subs]
        memory = KnowledgeMemory(vectors=ad.stack_rows(memory_rows),
                                 substructures=list(subs))
        u = self.encoder.encode(embed(self.embedding, token_ids, dropout_rate, rng))
        guided, weights = knowledge_representation(u, memory, self.output_net)
        embedded = embed(self.embedding, token_ids, dropout_rate, rng)
        dist = self.tagger.distributions(embedded, guided, dropout_rate, rng)
        return dist, weights, list(subs)

    def loss(self, token_ids: list[int], tag_ids: list[int],
             substructures: list[Substructure] | None,
             dropout_rate: float = 0.0,
             rng: np.random.Generator | None = None) -> Tensor:
        dist, _, _ = self.forward(token_ids, substructures, dropout_rate, rng)
        return ad.cross_entropy(dist, tag_ids)

    def tag_utterance(self, utt: Utterance, parse: KnowledgeParse | None
                      ) -> tuple[list[str], AttentionRecord | None]:
        """Predict tag strings for one utterance (evaluation path, no dropout)."""
        token_ids = self.vocab.encode_tokens(utt.tokens)
        subs = None
        if self.config.mode != "chain":
            subs = substructures_with_fallback(parse, len(utt.tokens),
                                               self.config.max_substructures)
        dist, weights, used_subs = self.forward(token_ids, subs)
        names = self.vocab.tag_names()
        tags = [names[i] for i in decode_greedy(dist)]
        record = None
        if weights is not None:
            record = build_attention_record(utt.id, list(utt.tokens), used_subs,
                                            weights.value.tolist())
        return tags, record
