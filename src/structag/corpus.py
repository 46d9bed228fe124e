"""IOB slot-tagging corpora: loading, vocabularies, and fractional splits.

Corpus file format: UTF-8, one "token<TAB>tag" line per token, blank line
between utterances (conlleval-ready). Tokens are lowercased on load.
`read_blocks` splits corpus and parse files alike into blocks, and
`utterance_id` numbers them.
"""

from __future__ import annotations

import json
import math
import random
import re
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ConfigError, CorpusFormatError

PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

_TAG_RE = re.compile(r"^(O|[BI]-\S+)$")


@dataclass(frozen=True)
class Utterance:
    """A token sequence with aligned IOB slot tags."""
    id: str
    tokens: tuple[str, ...]
    tags: tuple[str, ...]


def validate_iob(tags: tuple[str, ...] | list[str]) -> str | None:
    """Return a description of the first IOB violation, or None if valid."""
    prev = "O"
    for i, tag in enumerate(tags):
        if tag != "O":    # most tags; skipping the pattern keeps loading fast
            if not _TAG_RE.match(tag):
                return f"tag {tag!r} at position {i} is not O, B-<type>, or I-<type>"
            if tag[0] == "I" and prev[2:] != tag[2:]:
                after = "O" if prev == "O" else f"type {prev[2:]!r}"
                return f"tag {tag!r} at position {i} follows {after}"
        prev = tag
    return None


def utterance_id(prefix: str, ordinal: int) -> str:
    """The id of a file's `ordinal`-th block (0-based), which pairs an
    utterance with its parse."""
    return f"{prefix}{ordinal:04d}"


def read_blocks(path: str | Path, error: type, comments: bool = False):
    """Yield (first line number, lines) for each block of non-blank lines of
    a UTF-8 file, a leading byte-order mark dropped and lines split at LF
    only, one CR before it dropped. Undecodable text, a U+FEFF past the
    start, or a CR elsewhere raises `error` naming the line. With
    `comments`, lines starting with '#' are left out without breaking a
    block."""
    path = Path(path)
    try:
        text = path.read_bytes().decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text: {exc}") from exc
    lines = text.split("\n")
    if "\r" in text:    # only a file holding a CR pays for stripping CRLF ends
        lines = [line.removesuffix("\r") for line in lines]
    for mark, problem in (("\ufeff", "byte-order mark (U+FEFF) after the start "
                                    "of the file"),
                          ("\r", "carriage return (CR) inside a line")):
        if mark in text:
            number = next((n for n, line in enumerate(lines, 1) if mark in line), None)
            if number is not None:
                raise error(f"{path}:{number}: {problem}")
    numbers = range(1, len(lines) + 1)
    # Only a file that has comment lines pays for filtering them out.
    if comments and (text.startswith("#") or "\n#" in text):
        numbers = [n for n, line in zip(numbers, lines) if not line.startswith("#")]
        lines = [line for line in lines if not line.startswith("#")]
    lines.append("")    # ends a last block that has no newline after it
    start = 0
    for end in [i for i, line in enumerate(lines) if not line.strip()]:
        if end > start:
            yield numbers[start], lines[start:end]
        start = end + 1


def load_corpus(path: str | Path, id_prefix: str = "u") -> list[Utterance]:
    """Parse a tab-separated corpus file into utterances, in file order. A
    line starting with '#' is a token like any other."""
    path = Path(path)
    utterances: list[Utterance] = []
    for first, lines in read_blocks(path, CorpusFormatError):
        tokens, tags = [], []
        for line_no, line in enumerate(lines, first):
            cols = line.split("\t")
            if len(cols) != 2:
                raise CorpusFormatError(
                    f"{path}:{line_no}: expected 'token<TAB>tag', "
                    f"got {len(cols)} columns")
            token, tag = cols
            if not token or not tag:
                raise CorpusFormatError(f"{path}:{line_no}: empty token or tag")
            tokens.append(token.lower())
            tags.append(tag)
        problem = validate_iob(tags)
        if problem is not None:
            raise CorpusFormatError(
                f"{path}: utterance starting at line {first}: {problem}")
        utterances.append(Utterance(id=utterance_id(id_prefix, len(utterances)),
                                    tokens=tuple(tokens), tags=tuple(tags)))
    return utterances


@dataclass
class Vocabulary:
    """Dense token and tag index maps with reserved pad/unknown tokens."""
    token_index: dict[str, int] = field(default_factory=dict)
    tag_index: dict[str, int] = field(default_factory=dict)

    @classmethod
    def build(cls, utterances: list[Utterance]) -> "Vocabulary":
        vocab = cls()
        vocab.token_index = {PAD_TOKEN: 0, UNK_TOKEN: 1}
        for utt in utterances:
            for token in utt.tokens:
                if token not in vocab.token_index:
                    vocab.token_index[token] = len(vocab.token_index)
            for tag in utt.tags:
                if tag not in vocab.tag_index:
                    vocab.tag_index[tag] = len(vocab.tag_index)
        return vocab

    @property
    def unk_id(self) -> int:
        return self.token_index[UNK_TOKEN]

    @property
    def n_tokens(self) -> int:
        return len(self.token_index)

    @property
    def n_tags(self) -> int:
        return len(self.tag_index)

    def encode_tokens(self, tokens) -> list[int]:
        """Map tokens to indices; out-of-vocabulary tokens become unknown."""
        unk = self.unk_id
        return [self.token_index.get(t, unk) for t in tokens]

    def encode_tags(self, tags) -> list[int]:
        return [self.tag_index[t] for t in tags]

    def tag_names(self) -> list[str]:
        names = [None] * len(self.tag_index)
        for tag, i in self.tag_index.items():
            names[i] = tag
        return names

    def to_dict(self) -> dict:
        return {"tokens": self.token_index, "tags": self.tag_index}

    @classmethod
    def from_dict(cls, data: dict) -> "Vocabulary":
        """Raises ValueError unless each index maps to the ints 0..n-1, the reserved
        tokens sit where `build` puts them, and the tags are one or more IOB tags."""
        vocab = cls(token_index=dict(data["tokens"]), tag_index=dict(data["tags"]))
        for index in (vocab.token_index, vocab.tag_index):
            # 1.0 or True equals an index but breaks numpy's row lookups.
            if (not all(type(i) is int for i in index.values())
                    or sorted(index.values()) != list(range(len(index)))):
                raise ValueError(f"indices are not the ints 0..{len(index) - 1}")
        if [vocab.token_index.get(t) for t in (PAD_TOKEN, UNK_TOKEN)] != [0, 1]:
            raise ValueError(f"tokens {PAD_TOKEN} and {UNK_TOKEN} must have indices 0 and 1")
        if not vocab.tag_index or not all(map(_TAG_RE.match, vocab.tag_index)):
            raise ValueError("the tag index needs at least one tag, each O, B-<type> "
                             f"or I-<type>; got {list(vocab.tag_index)}")
        return vocab


def fractional_split(utterances: list[Utterance], fraction: float,
                     seed: int) -> list[Utterance]:
    """Sample ceil(fraction * N) utterances without replacement, seeded.

    The selection keeps the original corpus order.
    """
    if not 0.0 < fraction <= 1.0:
        raise ConfigError(f"fraction must be in (0, 1], got {fraction}")
    if fraction == 1.0:
        return list(utterances)
    n = len(utterances)
    k = math.ceil(fraction * n)
    chosen = sorted(random.Random(seed).sample(range(n), k))
    return [utterances[i] for i in chosen]


def split_dev(utterances: list[Utterance], dev_fraction: float,
              seed: int) -> tuple[list[Utterance], list[Utterance]]:
    """Hold out a seeded dev portion when the corpus has no dev file."""
    if not 0.0 <= dev_fraction < 1.0:
        raise ConfigError(f"dev fraction must be in [0, 1), got {dev_fraction}")
    n = len(utterances)
    k = int(round(dev_fraction * n))
    if k == 0:
        return list(utterances), []
    chosen = set(random.Random(seed).sample(range(n), k))
    train = [u for i, u in enumerate(utterances) if i not in chosen]
    dev = [u for i, u in enumerate(utterances) if i in chosen]
    return train, dev


def write_split_manifest(path: str | Path, splits: dict[str, list[str]]):
    """Record which utterance ids landed in each split, for reproducibility."""
    Path(path).write_text(json.dumps(splits, indent=2) + "\n", encoding="utf-8")
