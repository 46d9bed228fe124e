"""Parse ingestion and root-to-leaf substructure extraction.

Two parse sources are supported, both produced by external tools and
consumed as files: dependency trees in CoNLL-U-style TSV, and concept
graphs given as node/edge/root triples with token alignments. Relation
labels are read and ignored: substructures are token paths only.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path

from .corpus import read_blocks, utterance_id
from .errors import ConfigError, DataError, ParseFileError

DEFAULT_MAX_SUBSTRUCTURES = 64


@dataclass
class ParseNode:
    form: str
    token: int | None  # 0-based utterance position, None if unaligned


@dataclass
class KnowledgeParse:
    """A rooted directed acyclic graph over (some of) an utterance's tokens."""
    id: str
    nodes: dict = field(default_factory=dict)  # node id -> ParseNode
    children: dict = field(default_factory=dict)  # node id -> [node ids]
    root: object = None
    kind: str = "amr"  # "dependency": one node per token, its form the token
    line: int | None = None  # the file line (1-based) its block starts on


@dataclass(frozen=True)
class Substructure:
    """An ordered token path from the parse root down to one leaf."""
    positions: tuple[int, ...]  # 0-based utterance positions, root first
    leaf: object                # originating leaf node id, None for fallback


def load_parses(path: str | Path, id_prefix: str = "u") -> list[KnowledgeParse]:
    """Read a parse file of either kind, told apart by its first block's first
    line: concept-graph lines start with node, edge or root, dependency rows
    with a token index. The file is read once."""
    blocks = list(read_blocks(path, ParseFileError, comments=True))
    first = blocks[0][1][0] if blocks else ""
    graph = first.split("\t")[0] in ("node", "edge", "root")
    return (_amr_parses if graph else _dependency_parses)(Path(path), blocks, id_prefix)


def load_dependency(path: str | Path, id_prefix: str = "u") -> list[KnowledgeParse]:
    """Read one dependency tree per utterance from a CoNLL-U-style file.

    Each row needs a token index, a form, and a head index (0 = root).
    Rows with 7+ columns are treated as CoNLL-U (head in column 7);
    shorter rows use column 3 as the head. Relation labels are ignored.
    """
    return _dependency_parses(Path(path), read_blocks(path, ParseFileError, comments=True),
                              id_prefix)


def _dependency_parses(path: Path, blocks, id_prefix: str) -> list[KnowledgeParse]:
    """The dependency trees of a file's blocks (see `load_dependency`)."""
    parses = []
    for ordinal, (first, lines) in enumerate(blocks):
        utt_id = utterance_id(id_prefix, ordinal)
        rows = []
        for line in lines:
            cols = line.split("\t")
            if len(cols) < 3:
                raise ParseFileError(
                    f"{path}: {utt_id}: row needs index, form, head: {line!r}")
            head_col = cols[6] if len(cols) >= 7 else cols[2]
            try:
                idx = int(cols[0])
                head = int(head_col)
            except ValueError as exc:
                raise ParseFileError(
                    f"{path}: {utt_id}: non-numeric index or head: {line!r}") from exc
            rows.append((idx, cols[1], head))

        n = len(rows)
        parse = KnowledgeParse(id=utt_id, kind="dependency", line=first)
        heads = {}
        for idx, form, head in rows:
            if not 1 <= idx <= n:
                raise ParseFileError(f"{path}: {utt_id}: token index {idx} out of range")
            if idx in parse.nodes:
                raise ParseFileError(f"{path}: {utt_id}: duplicate token index {idx}")
            if not 0 <= head <= n:
                raise ParseFileError(
                    f"{path}: {utt_id}: head index {head} out of range (0..{n})")
            parse.nodes[idx] = ParseNode(form=form, token=idx - 1)
            parse.children[idx] = []
            heads[idx] = head

        roots = [i for i, h in heads.items() if h == 0]
        if len(roots) != 1:
            raise ParseFileError(
                f"{path}: {utt_id}: expected exactly one root, found {len(roots)}")
        parse.root = roots[0]
        for idx in sorted(heads):
            if heads[idx] != 0:
                parse.children[heads[idx]].append(idx)
        # Each token has one head, so a cycle is cut off from the root.
        _check_rooted_dag(parse, path, utt_id)
        parses.append(parse)
    return parses


def load_amr(path: str | Path, id_prefix: str = "u") -> list[KnowledgeParse]:
    """Read one rooted concept graph per utterance.

    Block grammar (tab-separated, blank line between utterances):
        node <id> <concept> <token-index|->    token index is 1-based
        edge <head-id> <relation> <dep-id>
        root <id>
    Unaligned nodes carry no token but still sit on paths.
    """
    return _amr_parses(Path(path), read_blocks(path, ParseFileError, comments=True),
                       id_prefix)


def _amr_parses(path: Path, blocks, id_prefix: str) -> list[KnowledgeParse]:
    """The concept graphs of a file's blocks (see `load_amr`)."""
    parses = []
    for ordinal, (first, lines) in enumerate(blocks):
        utt_id = utterance_id(id_prefix, ordinal)
        parse = KnowledgeParse(id=utt_id, line=first)
        for line in lines:
            cols = line.split("\t")
            kind = cols[0]
            if kind == "node":
                if len(cols) != 4:
                    raise ParseFileError(
                        f"{path}: {utt_id}: node line needs id, concept, token: {line!r}")
                _, node_id, concept, tok = cols
                if node_id in parse.nodes:
                    raise ParseFileError(f"{path}: {utt_id}: duplicate node {node_id!r}")
                if tok != "-" and not (tok.isdecimal() and int(tok) >= 1):
                    raise ParseFileError(
                        f"{path}: {utt_id}: token index must be - or >= 1: {line!r}")
                token = None if tok == "-" else int(tok) - 1
                parse.nodes[node_id] = ParseNode(form=concept, token=token)
                parse.children[node_id] = []
            elif kind == "edge":
                if len(cols) != 4:
                    raise ParseFileError(
                        f"{path}: {utt_id}: edge line needs head, relation, dep: {line!r}")
                _, head, _, dep = cols
                for ref in (head, dep):
                    if ref not in parse.nodes:
                        raise ParseFileError(
                            f"{path}: {utt_id}: edge references undeclared node {ref!r}")
                parse.children[head].append(dep)
            elif kind == "root":
                if len(cols) != 2 or cols[1] not in parse.nodes:
                    raise ParseFileError(f"{path}: {utt_id}: bad root line: {line!r}")
                if parse.root is not None:
                    raise ParseFileError(f"{path}: {utt_id}: multiple root lines")
                parse.root = cols[1]
            else:
                raise ParseFileError(f"{path}: {utt_id}: unknown line kind {kind!r}")
        if parse.root is None:
            raise ParseFileError(f"{path}: {utt_id}: missing root line")
        _check_rooted_dag(parse, path, utt_id)
        parses.append(parse)
    return parses


def check_alignment(parses: dict, utterances, source) -> None:
    """Raise DataError unless each utterance's parse (by id, if any) fits
    it: a dependency tree has one node per token, its form the token up to
    case; a concept graph aligns only to positions inside the utterance.
    The error quotes the file line of the block, when it came from a file."""
    for utt in utterances:
        parse = parses.get(utt.id)
        if parse is None:
            continue
        n, nodes = len(utt.tokens), parse.nodes
        if parse.kind != "dependency":
            wrong = [f"node {k!r} is aligned to token {v.token + 1} of {n}"
                     for k, v in nodes.items() if v.token is not None and v.token >= n]
        elif len(nodes) != n:
            wrong = [f"{len(nodes)} parse nodes for {n} tokens"]
        else:
            wrong = [f"token {i} is {t!r} but its parse node is {nodes[i].form!r}"
                     for i, t in enumerate(utt.tokens, 1) if nodes[i].form.lower() != t]
        if wrong:
            at = "" if parse.line is None else f" (line {parse.line})"
            raise DataError(f"{source}: block {parse.id}{at} does not fit "
                            f"utterance {utt.id}: {wrong[0]}")


def _check_rooted_dag(parse: KnowledgeParse, path, utt_id):
    # DFS from the root: no back edges (cycles), everything reachable.
    state: dict = {parse.root: 1}  # node -> 1 on stack, 2 done
    stack = [(parse.root, iter(parse.children[parse.root]))]
    while stack:
        node, it = stack[-1]
        for child in it:
            seen = state.get(child)
            if seen == 1:
                raise ParseFileError(f"{path}: {utt_id}: cycle through node {child!r}")
            if seen is None:
                state[child] = 1
                stack.append((child, iter(parse.children[child])))
                break
        else:
            state[node] = 2
            stack.pop()
    if len(state) != len(parse.nodes):
        unreachable = [n for n in parse.nodes if n not in state]
        raise ParseFileError(
            f"{path}: {utt_id}: nodes unreachable from root: {unreachable!r}")


def extract_substructures(parse: KnowledgeParse,
                          max_substructures: int = DEFAULT_MAX_SUBSTRUCTURES
                          ) -> list[Substructure]:
    """Enumerate root-to-leaf paths as token substructures.

    One per root-to-leaf path, the walk stopping after `max_substructures`
    paths, duplicates included. Unaligned nodes contribute no token but do
    not break the path. Exact-duplicate token sequences are dropped; the
    result is ordered by deepest token position, then path.
    """
    found: dict[tuple, Substructure] = {}
    stack = [(parse.root, [parse.root])]
    n_enumerated = 0
    while stack and n_enumerated < max_substructures:
        node, path_nodes = stack.pop()
        kids = parse.children.get(node, [])
        if not kids:
            positions = tuple(parse.nodes[n].token for n in path_nodes
                              if parse.nodes[n].token is not None)
            if positions and positions not in found:
                found[positions] = Substructure(positions=positions, leaf=node)
            n_enumerated += 1
            continue
        # Reversed push keeps DFS in declared child order.
        for child in reversed(kids):
            stack.append((child, path_nodes + [child]))
    return sorted(found.values(), key=lambda s: (s.positions[-1], s.positions))


def substructures_with_fallback(parse: KnowledgeParse | None, n_tokens: int,
                                max_substructures: int = DEFAULT_MAX_SUBSTRUCTURES
                                ) -> list[Substructure]:
    """Extraction with graceful degradation to a whole-sentence memory.

    A missing parse, or one whose paths align to no tokens, yields a
    single substructure covering the full token sequence so downstream
    attention always has at least one memory entry. A parse aligned past
    the utterance's end raises DataError naming the utterance.
    """
    if parse is not None:
        subs = extract_substructures(parse, max_substructures)
        for sub in subs:
            if max(sub.positions) >= n_tokens:
                raise DataError(
                    f"{parse.id}: substructure position out of range for a "
                    f"{n_tokens}-token utterance: {sub.positions}")
        if subs:
            return subs
    return [Substructure(positions=tuple(range(n_tokens)), leaf=None)]


def substructure_stats(parses: list[KnowledgeParse | None],
                       max_substructures: int = DEFAULT_MAX_SUBSTRUCTURES) -> dict:
    """Max and mean substructure counts over a corpus of parses."""
    if max_substructures < 1:
        raise ConfigError(f"max_substructures must be >= 1, got {max_substructures}")
    counts = [len(extract_substructures(p, max_substructures))
              for p in parses if p is not None]
    if not counts:
        return {"utterances": 0, "max_substructures": 0, "mean_substructures": 0.0}
    return {"utterances": len(counts),
            "max_substructures": max(counts),
            "mean_substructures": sum(counts) / len(counts)}
