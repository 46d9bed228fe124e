"""Synthetic flight-query corpus with parses, built for disambiguation.

The generator emits utterances plus aligned dependency trees and concept
graphs. One template family is deliberately ambiguous at the surface
level: "which flights leave CITY on DAY and arrive in CITY in the
PERIOD" tags the period as departure or arrival time depending only on
where the final phrase attaches in the parse. Token context alone cannot
decide it, so chain taggers top out near coin-flip accuracy on that slot
while parse-guided taggers can resolve it.
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
    days: tuple[str, ...] = DEFAULT_DAYS
    periods: tuple[str, ...] = DEFAULT_PERIODS

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
        if not self.days or not self.periods:
            raise ConfigError("days and periods must be non-empty")


class _Draft:
    """One utterance under construction: tokens, tags, heads, graph."""

    def __init__(self):
        self.tokens: list[str] = []
        self.tags: list[str] = []
        self.heads: list[int] = []  # 0-based head position, -1 for root
        self.graph_nodes: list[tuple[str, str, int | None]] = []
        self.graph_edges: list[tuple[str, str, str]] = []
        self.graph_root: str | None = None

    def word(self, form: str, tag: str, head: int) -> int:
        self.tokens.append(form)
        self.tags.append(tag)
        self.heads.append(head)
        return len(self.tokens) - 1

    def city(self, name: str, slot: str, head: int) -> int:
        """Append a possibly multi-token city; returns its first position."""
        parts = name.split()
        first = self.word(parts[0], f"B-{slot}", head)
        for part in parts[1:]:
            self.word(part, f"I-{slot}", first)
        return first

    def node(self, concept: str, token: int | None = None) -> str:
        nid = f"n{len(self.graph_nodes)}"
        self.graph_nodes.append((nid, concept, token))
        return nid

    def edge(self, head: str, rel: str, dep: str):
        self.graph_edges.append((head, rel, dep))

    def city_node(self, first_pos: int, head_node: str, rel: str):
        """Concept node for a city, with child nodes for extra name tokens."""
        cid = self.node(self.tokens[first_pos], first_pos)
        self.edge(head_node, rel, cid)
        pos = first_pos + 1
        while pos < len(self.tokens) and self.tags[pos].startswith("I-"):
            part = self.node(self.tokens[pos], pos)
            self.edge(cid, "name", part)
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
        lines.append(f"root\t{self.graph_root}")
        return "\n".join(lines) + "\n"


def _pick_cities(r: random.Random, cities) -> tuple[str, str]:
    origin = r.choice(cities)
    dest = r.choice([c for c in cities if c != origin])
    return origin, dest


def _family_show(r: random.Random, cfg: SyntheticConfig) -> _Draft:
    # show me flights from CITY to CITY
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    show = d.word("show", "O", -1)
    d.word("me", "O", show)
    flights = d.word("flights", "O", show)
    from_pos = d.word("from", "O", -1)
    fc = d.city(origin, "from_city", flights)
    d.heads[from_pos] = fc
    to_pos = d.word("to", "O", -1)
    tc = d.city(dest, "to_city", flights)
    d.heads[to_pos] = tc

    root = d.node("show", show)
    d.graph_root = root
    fl = d.node("flight", flights)
    d.edge(root, "arg1", fl)
    d.city_node(fc, fl, "origin")
    d.city_node(tc, fl, "destination")
    return d


def _family_day(r: random.Random, cfg: SyntheticConfig) -> _Draft:
    # list flights on DAY from CITY to CITY
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    day = r.choice(cfg.days)
    lst = d.word("list", "O", -1)
    flights = d.word("flights", "O", lst)
    on_pos = d.word("on", "O", -1)
    day_pos = d.word(day, "B-day", flights)
    d.heads[on_pos] = day_pos
    from_pos = d.word("from", "O", -1)
    fc = d.city(origin, "from_city", flights)
    d.heads[from_pos] = fc
    to_pos = d.word("to", "O", -1)
    tc = d.city(dest, "to_city", flights)
    d.heads[to_pos] = tc

    root = d.node("list", lst)
    d.graph_root = root
    fl = d.node("flight", flights)
    d.edge(root, "arg1", fl)
    dn = d.node(day, day_pos)
    d.edge(fl, "day", dn)
    d.city_node(fc, fl, "origin")
    d.city_node(tc, fl, "destination")
    return d


def _family_period(r: random.Random, cfg: SyntheticConfig, arriving: bool) -> _Draft:
    # flights from CITY to CITY leaving|arriving in the PERIOD
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    period = r.choice(cfg.periods)
    verb = "arriving" if arriving else "leaving"
    slot = "arrive_period" if arriving else "depart_period"
    flights = d.word("flights", "O", -1)
    from_pos = d.word("from", "O", -1)
    fc = d.city(origin, "from_city", flights)
    d.heads[from_pos] = fc
    to_pos = d.word("to", "O", -1)
    tc = d.city(dest, "to_city", flights)
    d.heads[to_pos] = tc
    verb_pos = d.word(verb, "O", flights)
    in_pos = d.word("in", "O", -1)
    the_pos = d.word("the", "O", -1)
    period_pos = d.word(period, f"B-{slot}", verb_pos)
    d.heads[in_pos] = period_pos
    d.heads[the_pos] = period_pos

    root = d.node("flight", flights)
    d.graph_root = root
    vb = d.node(verb, verb_pos)
    d.edge(root, "mod", vb)
    pn = d.node(period, period_pos)
    d.edge(vb, "time", pn)
    d.city_node(fc, root, "origin")
    d.city_node(tc, root, "destination")
    return d


def _family_ambiguous(r: random.Random, cfg: SyntheticConfig) -> _Draft:
    # which flights leave CITY on DAY and arrive in CITY in the PERIOD
    #
    # The final phrase attaches to "leave" or to "arrive"; surface form is
    # identical either way, only the parse and the period tag change.
    d = _Draft()
    origin, dest = _pick_cities(r, cfg.cities)
    day = r.choice(cfg.days)
    period = r.choice(cfg.periods)
    departs = r.random() < 0.5
    slot = "depart_period" if departs else "arrive_period"

    which = d.word("which", "O", -1)
    flights = d.word("flights", "O", -1)
    leave = d.word("leave", "O", -1)
    d.heads[which] = flights
    d.heads[flights] = leave
    fc = d.city(origin, "from_city", leave)
    on_pos = d.word("on", "O", -1)
    day_pos = d.word(day, "B-day", leave)
    d.heads[on_pos] = day_pos
    and_pos = d.word("and", "O", -1)
    arrive = d.word("arrive", "O", leave)
    d.heads[and_pos] = arrive
    in1 = d.word("in", "O", -1)
    tc = d.city(dest, "to_city", arrive)
    d.heads[in1] = tc
    in2 = d.word("in", "O", -1)
    the_pos = d.word("the", "O", -1)
    period_pos = d.word(period, f"B-{slot}", leave if departs else arrive)
    d.heads[in2] = period_pos
    d.heads[the_pos] = period_pos

    # Concept graph: unaligned coordination root, and the flight node is
    # shared by both verbs (two parents, so path enumeration forks).
    root = d.node("and", None)
    d.graph_root = root
    lv = d.node("leave", leave)
    ar = d.node("arrive", arrive)
    d.edge(root, "op1", lv)
    d.edge(root, "op2", ar)
    fl = d.node("flight", flights)
    d.edge(lv, "arg1", fl)
    d.edge(ar, "arg1", fl)
    d.city_node(fc, lv, "origin")
    dn = d.node(day, day_pos)
    d.edge(lv, "day", dn)
    d.city_node(tc, ar, "destination")
    pn = d.node(period, period_pos)
    d.edge(lv if departs else ar, "time", pn)
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
