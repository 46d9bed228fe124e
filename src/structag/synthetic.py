"""Synthetic flight-query corpus with parses, built for disambiguation.

The generator emits utterances plus aligned dependency trees and concept
graphs. One template family is deliberately ambiguous at the surface
level: "which flights leave CITY on DAY and arrive in CITY in the
PERIOD" tags the period as departure or arrival time depending only on
where the final phrase attaches in the parse. Token context alone cannot
decide it, so chain taggers top out near coin-flip accuracy on that slot
while parse-guided taggers can resolve it.

Each concept graph's root is its first node, n0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError
from .seeding import derive_seed

DEFAULT_CITIES = (
    "seattle", "denver", "boston", "atlanta", "chicago", "dallas",
    "memphis", "oakland", "san francisco", "new york", "los angeles",
)
DEFAULT_DAYS = ("monday", "tuesday", "wednesday", "thursday", "friday",
                "saturday", "sunday")
DEFAULT_PERIODS = ("morning", "afternoon", "evening", "night")

CORPUS_FILE = "corpus.tsv"
DEPENDENCY_FILE = "dependencies.tsv"
AMR_FILE = "graphs.tsv"


@dataclass(frozen=True)
class SyntheticConfig:
    n_utterances: int = 200
    ambiguous_fraction: float = 0.5
    cities: tuple[str, ...] = DEFAULT_CITIES

    def validate(self):
        if self.n_utterances < 0:
            raise ConfigError(
                f"n_utterances must be >= 0, got {self.n_utterances}")
        if not 0.0 <= self.ambiguous_fraction <= 1.0:
            raise ConfigError(
                f"ambiguous_fraction must be in [0, 1], got "
                f"{self.ambiguous_fraction}")
        if len(self.cities) < 2:
            raise ConfigError("need at least two cities for origin and destination")
        if len(set(self.cities)) != len(self.cities):
            raise ConfigError("city names must be distinct")
        if not all(n.split() for n in self.cities):
            raise ConfigError("every name in cities needs a token, "
                              f"got {self.cities!r}")


class _Draft:
    """One utterance under construction: tokens, tags, heads, graph."""

    def __init__(self):
        self.tokens: list[str] = []
        self.tags: list[str] = []
        self.heads: list[int] = []  # 0-based head position, -1 for root
        self.graph_nodes: list[tuple[str, str, int | None]] = []
        self.graph_edges: list[tuple[str, str, str]] = []

    def word(self, form: str, tag: str, head: int) -> int:
        self.tokens.append(form)
        self.tags.append(tag)
        self.heads.append(head)
        return len(self.tokens) - 1

    def phrase(self, words: tuple[str, ...], name: str, slot: str | None,
               head: int) -> int:
        """Append function words, then a possibly multi-token name.

        The name's first token attaches to `head`; the function words and
        the name's later tokens attach to that first token, whose position
        is returned. Without a slot the name is tagged O.
        """
        first = len(self.tokens) + len(words)
        for form in words:
            self.word(form, "O", first)
        parts = name.split()
        self.word(parts[0], f"B-{slot}" if slot else "O", head)
        for part in parts[1:]:
            self.word(part, f"I-{slot}" if slot else "O", first)
        return first

    def node(self, concept: str, token: int | None, head: str | None = None,
             rel: str = "") -> str:
        nid = f"n{len(self.graph_nodes)}"
        self.graph_nodes.append((nid, concept, token))
        if head is not None:
            self.graph_edges.append((head, rel, nid))
        return nid

    def name_node(self, first_pos: int, head_node: str, rel: str):
        """Concept node for a phrase's name, with child nodes for its later tokens."""
        cid = self.node(self.tokens[first_pos], first_pos, head_node, rel)
        pos = first_pos + 1
        while pos < len(self.tokens) and self.tags[pos].startswith("I-"):
            self.node(self.tokens[pos], pos, cid, "name")
            pos += 1
        return cid

    def dependency_block(self) -> str:
        lines = [f"{i + 1}\t{form}\t{head + 1}"
                 for i, (form, head) in enumerate(zip(self.tokens, self.heads))]
        return "\n".join(lines) + "\n"

    def graph_block(self) -> str:
        lines = []
        for nid, concept, token in self.graph_nodes:
            tok = "-" if token is None else str(token + 1)
            lines.append(f"node\t{nid}\t{concept}\t{tok}")
        for head, rel, dep in self.graph_edges:
            lines.append(f"edge\t{head}\t{rel}\t{dep}")
        lines.append("root\tn0")  # every family builds its root first
        return "\n".join(lines) + "\n"


def _pick_cities(r: random.Random, cities) -> tuple[str, str]:
    # The draws of r.choice over the cities, then over the other (distinct) ones.
    i, j = r.randrange(len(cities)), r.randrange(len(cities) - 1)
    return cities[i], cities[j + (j >= i)]


def _family_show(r: random.Random, cfg: SyntheticConfig) -> _Draft:
    # show me flights from CITY to CITY
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    show = d.word("show", "O", -1)
    d.word("me", "O", show)
    flights = d.word("flights", "O", show)
    fc = d.phrase(("from",), origin, "from_city", flights)
    tc = d.phrase(("to",), dest, "to_city", flights)

    root = d.node("show", show)
    fl = d.node("flight", flights, root, "arg1")
    d.name_node(fc, fl, "origin")
    d.name_node(tc, fl, "destination")
    return d


def _family_day(r: random.Random, cfg: SyntheticConfig) -> _Draft:
    # list flights on DAY from CITY to CITY
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    day = r.choice(DEFAULT_DAYS)
    lst = d.word("list", "O", -1)
    flights = d.word("flights", "O", lst)
    day_pos = d.phrase(("on",), day, "day", flights)
    fc = d.phrase(("from",), origin, "from_city", flights)
    tc = d.phrase(("to",), dest, "to_city", flights)

    root = d.node("list", lst)
    fl = d.node("flight", flights, root, "arg1")
    d.name_node(day_pos, fl, "day")
    d.name_node(fc, fl, "origin")
    d.name_node(tc, fl, "destination")
    return d


def _family_period(r: random.Random, cfg: SyntheticConfig, arriving: bool) -> _Draft:
    # flights from CITY to CITY leaving|arriving in the PERIOD
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    period = r.choice(DEFAULT_PERIODS)
    verb = "arriving" if arriving else "leaving"
    slot = "arrive_period" if arriving else "depart_period"
    flights = d.word("flights", "O", -1)
    fc = d.phrase(("from",), origin, "from_city", flights)
    tc = d.phrase(("to",), dest, "to_city", flights)
    verb_pos = d.word(verb, "O", flights)
    period_pos = d.phrase(("in", "the"), period, slot, verb_pos)

    root = d.node("flight", flights)
    vb = d.node(verb, verb_pos, root, "mod")
    d.name_node(period_pos, vb, "time")
    d.name_node(fc, root, "origin")
    d.name_node(tc, root, "destination")
    return d


def _family_ambiguous(r: random.Random, cfg: SyntheticConfig) -> _Draft:
    # which flights leave CITY on DAY and arrive in CITY in the PERIOD
    #
    # The final phrase attaches to "leave" or to "arrive"; surface form is
    # identical either way, only the parse and the period tag change.
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    day = r.choice(DEFAULT_DAYS)
    period = r.choice(DEFAULT_PERIODS)
    departs = r.random() < 0.5
    slot = "depart_period" if departs else "arrive_period"

    flights = d.phrase(("which",), "flights", None, -1)
    leave = d.word("leave", "O", -1)
    d.heads[flights] = leave  # the one head not yet written with its dependent
    fc = d.phrase((), origin, "from_city", leave)
    day_pos = d.phrase(("on",), day, "day", leave)
    arrive = d.phrase(("and",), "arrive", None, leave)
    tc = d.phrase(("in",), dest, "to_city", arrive)
    period_pos = d.phrase(("in", "the"), period, slot,
                          leave if departs else arrive)

    # Concept graph: unaligned coordination root, and the flight node is
    # shared by both verbs (two parents, so path enumeration forks).
    root = d.node("and", None)
    lv = d.node("leave", leave, root, "op1")
    ar = d.node("arrive", arrive, root, "op2")
    fl = d.node("flight", flights, lv, "arg1")
    d.graph_edges.append((ar, "arg1", fl))
    d.name_node(fc, lv, "origin")
    d.name_node(day_pos, lv, "day")
    d.name_node(tc, ar, "destination")
    d.name_node(period_pos, lv if departs else ar, "time")
    return d


@dataclass
class SyntheticCorpus:
    """Generated corpus text plus matching parse files, all as strings."""
    corpus_text: str
    dependency_text: str
    amr_text: str
    n_utterances: int
    n_ambiguous: int

    def write(self, out_dir: str | Path) -> dict[str, Path]:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        paths = {"corpus": out / CORPUS_FILE,
                 "dependency": out / DEPENDENCY_FILE,
                 "amr": out / AMR_FILE}
        paths["corpus"].write_text(self.corpus_text, encoding="utf-8")
        paths["dependency"].write_text(self.dependency_text, encoding="utf-8")
        paths["amr"].write_text(self.amr_text, encoding="utf-8")
        return paths


def generate(config: SyntheticConfig, seed: int) -> SyntheticCorpus:
    """Build a corpus and its parse files, byte-identical for a given seed."""
    config.validate()
    r = random.Random(derive_seed(seed, "synthetic"))
    plain = (_family_show, _family_day,
             lambda rr, c: _family_period(rr, c, arriving=False),
             lambda rr, c: _family_period(rr, c, arriving=True))
    corpus_blocks = []
    dep_blocks = []
    amr_blocks = []
    n_ambiguous = 0
    for _ in range(config.n_utterances):
        if r.random() < config.ambiguous_fraction:
            draft = _family_ambiguous(r, config)
            n_ambiguous += 1
        else:
            draft = plain[r.randrange(len(plain))](r, config)
        corpus_blocks.append("".join(f"{tok}\t{tag}\n" for tok, tag
                                     in zip(draft.tokens, draft.tags)))
        dep_blocks.append(draft.dependency_block())
        amr_blocks.append(draft.graph_block())
    return SyntheticCorpus(
        corpus_text="\n".join(corpus_blocks),
        dependency_text="\n".join(dep_blocks),
        amr_text="\n".join(amr_blocks),
        n_utterances=config.n_utterances,
        n_ambiguous=n_ambiguous)
