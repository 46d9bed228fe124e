"""Parse loading and root-to-leaf substructure extraction."""

import dataclasses
import random

import pytest

from structag import knowledge
from structag.corpus import Utterance, read_blocks
from structag.errors import DataError, ParseFileError
from structag.knowledge import (KnowledgeParse, ParseNode, check_alignment,
                                extract_substructures, load_amr,
                                load_dependency, load_parses, substructure_stats,
                                substructures_with_fallback)
from structag.synthetic import SyntheticConfig, generate

# "show me the flights from seattle to san francisco", rooted at "show":
# me and flights hang off show; the, seattle, and francisco off flights;
# from under seattle, to and san under francisco.
FLIGHT_TREE = """1\tshow\t0
2\tme\t1
3\tthe\t4
4\tflights\t1
5\tfrom\t6
6\tseattle\t4
7\tto\t9
8\tsan\t9
9\tfrancisco\t4
"""


def _write(tmp_path, text, name="parses.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_flight_tree_substructures(tmp_path):
    parses = load_dependency(_write(tmp_path, FLIGHT_TREE))
    assert len(parses) == 1
    subs = extract_substructures(parses[0])
    # A dependency tree's node i + 1 is token i.
    forms = {tuple(parses[0].nodes[i + 1].form for i in s.positions) for s in subs}
    assert ("show", "flights", "seattle", "from") in forms
    assert len(subs) == 5  # one per leaf: me, the, from, to, san
    for s in subs:
        assert s.positions[0] == 0  # every path starts at the root "show"


def test_every_token_covered_when_all_aligned(tmp_path):
    parses = load_dependency(_write(tmp_path, FLIGHT_TREE))
    covered = set()
    for s in extract_substructures(parses[0]):
        covered.update(s.positions)
    assert covered == set(range(9))


def test_single_token_tree(tmp_path):
    parses = load_dependency(_write(tmp_path, "1\thello\t0\n"))
    subs = extract_substructures(parses[0])
    assert len(subs) == 1
    assert subs[0].positions == (0,)
    assert parses[0].nodes[1].form == "hello"


def test_conllu_style_rows_use_seventh_column(tmp_path):
    text = ("1\tshow\t_\t_\t_\t_\t0\troot\t_\t_\n"
            "2\tflights\t_\t_\t_\t_\t1\tobj\t_\t_\n")
    parses = load_dependency(_write(tmp_path, text))
    assert parses[0].root == 1
    assert parses[0].children[1] == [2]


def test_dependency_error_cases(tmp_path):
    cases = {
        "head out of range": "1\ta\t0\n2\tb\t5\n",
        "duplicate index": "1\ta\t0\n1\tb\t1\n",
        "no root": "1\ta\t2\n2\tb\t1\n",
        "two roots": "1\ta\t0\n2\tb\t0\n",
        "cycle": "1\ta\t2\n2\tb\t1\n3\tc\t0\n",
        "non-numeric": "1\ta\tx\n",
        "too few columns": "1\ta\n",
    }
    for label, text in cases.items():
        with pytest.raises(ParseFileError) as err:
            load_dependency(_write(tmp_path, text, f"{label}.tsv"))
        assert "u0000" in str(err.value), label


def test_dependency_error_names_utterance(tmp_path):
    text = "1\ta\t0\n\n1\tb\t7\n"
    with pytest.raises(ParseFileError) as err:
        load_dependency(_write(tmp_path, text))
    assert "u0001" in str(err.value)


# ---------------------------------------------------------------------------
# DFS oracle


def _oracle_paths(parse):
    """Recursive enumeration of root-to-leaf token paths, deduplicated."""
    found = []

    def walk(node, path):
        kids = parse.children.get(node, [])
        if not kids:
            positions = tuple(parse.nodes[n].token for n in path
                              if parse.nodes[n].token is not None)
            if positions:
                found.append(positions)
            return
        for kid in kids:
            walk(kid, path + [kid])

    walk(parse.root, [parse.root])
    unique = list(dict.fromkeys(found))
    return sorted(unique, key=lambda p: (p[-1], p))


def _random_tree(rng, n):
    parse = KnowledgeParse(id="t")
    order = list(range(1, n + 1))
    rng.shuffle(order)  # token alignment decoupled from tree shape
    for i in range(1, n + 1):
        parse.nodes[i] = ParseNode(form=f"w{i}", token=order[i - 1] - 1)
        parse.children[i] = []
    parse.root = 1
    for i in range(2, n + 1):
        parent = rng.randrange(1, i)
        parse.children[parent].append(i)
    for kids in parse.children.values():
        rng.shuffle(kids)
    return parse


def test_extraction_matches_dfs_oracle_on_random_trees():
    rng = random.Random(271828)
    for _ in range(100):
        parse = _random_tree(rng, rng.randrange(1, 16))
        got = [s.positions for s in extract_substructures(parse)]
        assert got == _oracle_paths(parse)


def test_extraction_is_deterministic(tmp_path):
    parses = load_dependency(_write(tmp_path, FLIGHT_TREE))
    first = extract_substructures(parses[0])
    second = extract_substructures(parses[0])
    assert first == second


def test_path_reversal_reaches_root():
    rng = random.Random(9)
    parse = _random_tree(rng, 12)
    parents = {d: h for h, kids in parse.children.items() for d in kids}
    for sub in extract_substructures(parse):
        node = sub.leaf
        climbed = []
        while True:
            if parse.nodes[node].token is not None:
                climbed.append(parse.nodes[node].token)
            if node == parse.root:
                break
            node = parents[node]
        assert tuple(reversed(climbed)) == sub.positions


# ---------------------------------------------------------------------------
# concept graphs


AMR_BLOCK = """node\tn0\twant\t2
node\tn1\tperson\t1
node\tn2\tgo\t4
edge\tn0\targ0\tn1
edge\tn0\targ1\tn2
edge\tn2\targ0\tn1
root\tn0
"""


def test_amr_dag_loads_and_enumerates_paths(tmp_path):
    parses = load_amr(_write(tmp_path, AMR_BLOCK))
    parse = parses[0]
    assert parse.root == "n0"
    subs = extract_substructures(parse)
    # two distinct paths end at the shared person node, one at go's leaf
    positions = {s.positions for s in subs}
    assert (1, 0) in positions        # want -> person
    assert (1, 3, 0) in positions     # want -> go -> person
    assert len(subs) == 2


def test_amr_unaligned_node_skipped_but_path_continues(tmp_path):
    text = ("node\tn0\tand\t-\n"
            "node\tn1\tleave\t1\n"
            "node\tn2\tcity\t3\n"
            "edge\tn0\top1\tn1\n"
            "edge\tn1\tdest\tn2\n"
            "root\tn0\n")
    parse = load_amr(_write(tmp_path, text))[0]
    subs = extract_substructures(parse)
    assert [s.positions for s in subs] == [(0, 2)]
    form_at = {node.token: node.form for node in parse.nodes.values()}
    assert [form_at[i] for i in subs[0].positions] == ["leave", "city"]


def test_amr_all_unaligned_falls_back(tmp_path):
    text = ("node\tn0\tand\t-\n"
            "node\tn1\tthing\t-\n"
            "edge\tn0\top1\tn1\n"
            "root\tn0\n")
    parse = load_amr(_write(tmp_path, text))[0]
    assert extract_substructures(parse) == []
    fallback = substructures_with_fallback(parse, 4)
    assert len(fallback) == 1
    assert fallback[0].positions == (0, 1, 2, 3)
    assert fallback[0].leaf is None


def test_amr_error_cases(tmp_path):
    cases = {
        "undeclared edge ref": "node\tn0\ta\t1\nedge\tn0\tr\tn9\nroot\tn0\n",
        "missing root": "node\tn0\ta\t1\n",
        "bad root": "node\tn0\ta\t1\nroot\tn9\n",
        "duplicate node": "node\tn0\ta\t1\nnode\tn0\tb\t2\nroot\tn0\n",
        "zero token index": "node\tn0\ta\t0\nroot\tn0\n",
        "non-numeric token index": "node\tn0\ta\tx1\nroot\tn0\n",
        "unknown kind": "blob\tn0\ta\t1\n",
        "cycle": ("node\tn0\ta\t1\nnode\tn1\tb\t2\n"
                  "edge\tn0\tr\tn1\nedge\tn1\tr\tn0\nroot\tn0\n"),
        "unreachable": ("node\tn0\ta\t1\nnode\tn1\tb\t2\nroot\tn0\n"),
        "multiple roots": "node\tn0\ta\t1\nroot\tn0\nroot\tn0\n",
    }
    for label, text in cases.items():
        with pytest.raises(ParseFileError):
            load_amr(_write(tmp_path, text, f"{label}.tsv"))


def test_duplicate_paths_deduplicated():
    # diamond with unaligned middle nodes: both paths read the same tokens
    parse = KnowledgeParse(id="d")
    parse.nodes = {"a": ParseNode("a", 0), "b": ParseNode("b", None),
                   "c": ParseNode("c", None), "d": ParseNode("d", 1)}
    parse.children = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": []}
    parse.root = "a"
    subs = extract_substructures(parse)
    assert [s.positions for s in subs] == [(0, 1)]


def test_max_substructures_cap():
    parse = KnowledgeParse(id="wide")
    parse.nodes = {0: ParseNode("root", 0)}
    parse.children = {0: []}
    for i in range(1, 11):
        parse.nodes[i] = ParseNode(f"leaf{i}", i)
        parse.children[0].append(i)
        parse.children[i] = []
    parse.root = 0
    assert len(extract_substructures(parse)) == 10
    assert len(extract_substructures(parse, max_substructures=4)) == 4


class _CountingChildren(dict):
    """A children map that counts how often the walk looks a node up."""
    lookups = 0

    def get(self, *args):
        self.lookups += 1
        return super().get(*args)

    def __getitem__(self, key):
        self.lookups += 1
        return super().__getitem__(key)


def test_chain_of_diamonds_walks_at_most_the_capped_paths():
    # k diamonds in a row, their middle nodes unaligned: 2^k root-to-leaf
    # paths that all read the same tokens. The cap counts paths walked,
    # duplicates included, so the walk visits at most cap x depth nodes
    # instead of every path.
    k, cap = 16, 8
    parse = KnowledgeParse(id="diamonds", root="t0")
    parse.children = _CountingChildren()
    for i in range(k):
        top, left, right, bottom = f"t{i}", f"l{i}", f"r{i}", f"t{i + 1}"
        parse.nodes.update({top: ParseNode(top, i), left: ParseNode(left, None),
                            right: ParseNode(right, None)})
        parse.children.update({top: [left, right], left: [bottom], right: [bottom]})
    parse.nodes[f"t{k}"] = ParseNode(f"t{k}", k)
    parse.children[f"t{k}"] = []
    subs = extract_substructures(parse, max_substructures=cap)
    assert [s.positions for s in subs] == [tuple(range(k + 1))]
    assert parse.children.lookups <= cap * (2 * k + 1)


def test_parse_aligned_past_the_utterance_raises_naming_it(tmp_path):
    # The 9-token tree given a 5-token utterance: extraction and tagging
    # refuse it, naming the parse, instead of reading past the sentence.
    import numpy as np

    from structag.corpus import Vocabulary
    from structag.model import SlotModel
    from structag.trainer import TrainConfig

    parse = load_dependency(_write(tmp_path, FLIGHT_TREE), id_prefix="p")[0]
    match = (r"^p0000: substructure position out of range for a 5-token "
             r"utterance: \(0, 3, 5, 4\)$")
    with pytest.raises(DataError, match=match):
        substructures_with_fallback(parse, 5)
    utt = Utterance(id="u0000", tokens=("show", "me", "the", "flights", "from"),
                    tags=("O",) * 5)
    config = TrainConfig(mode="knowledge", embed_dim=4, hidden_size=4)
    model = SlotModel(config, Vocabulary.build([utt]), np.random.default_rng(0))
    with pytest.raises(DataError, match=match):
        model.tag_utterance(utt, parse)


def test_fallback_without_parse():
    subs = substructures_with_fallback(None, 3)
    assert len(subs) == 1
    assert subs[0].positions == (0, 1, 2)


def test_substructure_stats(tmp_path):
    two_trees = FLIGHT_TREE + "\n1\thello\t0\n"
    parses = load_dependency(_write(tmp_path, two_trees))
    stats = substructure_stats(parses)
    assert stats == {"utterances": 2, "max_substructures": 5,
                     "mean_substructures": 3.0}
    assert substructure_stats([]) == {
        "utterances": 0, "max_substructures": 0, "mean_substructures": 0.0}
    singles = load_dependency(_write(tmp_path, "1\ta\t0\n\n1\tb\t0\n", "s.tsv"))
    assert substructure_stats(singles)["max_substructures"] == 1


def test_comment_lines_ignored(tmp_path):
    text = "# sent_id = 1\n1\thello\t0\n"
    assert len(load_dependency(_write(tmp_path, text))) == 1


# Two blocks of each kind, as written and with '#' lines before, inside,
# between and after them.
TWO_BLOCKS = {
    "dependency": ["1\tshow\t0\n2\tme\t1\n", "1\thello\t0\n"],
    "amr": ["node\tn0\tshow\t1\nnode\tn1\tme\t2\nedge\tn0\tr\tn1\nroot\tn0\n",
            "node\tn0\thello\t1\nroot\tn0\n"],
}


def _commented(first: str, second: str) -> str:
    head, tail = first.split("\n", 1)
    return f"# before\n{head}\n# inside\n{tail}\n# between\n\n{second}# after\n"


@pytest.mark.parametrize("kind", ["dependency", "amr"])
def test_comment_lines_are_skipped_in_both_parse_kinds(tmp_path, kind):
    plain = load_parses(_write(tmp_path, "\n".join(TWO_BLOCKS[kind])))
    parses = load_parses(_write(tmp_path, _commented(*TWO_BLOCKS[kind]), "c.tsv"))
    second_line = len(TWO_BLOCKS[kind][0].splitlines()) + 6
    assert [(p.id, p.kind, p.line) for p in parses] == [
        ("u0000", kind, 2), ("u0001", kind, second_line)]
    assert [dataclasses.replace(p, line=None) for p in parses] == [
        dataclasses.replace(p, line=None) for p in plain]


@pytest.mark.parametrize("kind", ["dependency", "amr"])
def test_whitespace_only_line_separates_blocks(tmp_path, kind):
    parses = load_parses(_write(tmp_path, " \t\n".join(TWO_BLOCKS[kind])))
    second_line = len(TWO_BLOCKS[kind][0].splitlines()) + 2
    assert [(p.id, p.line) for p in parses] == [("u0000", 1), ("u0001", second_line)]


@pytest.mark.parametrize("kind", ["dependency", "amr"])
def test_leading_byte_order_mark_is_dropped(tmp_path, kind):
    # A generated file saved as "UTF-8 with BOM" loads as the file without
    # it, and its first line still tells its kind.
    corpus = generate(SyntheticConfig(n_utterances=5), 3)
    text = corpus.dependency_text if kind == "dependency" else corpus.amr_text
    plain = load_parses(_write(tmp_path, text))
    marked = load_parses(_write(tmp_path, "\ufeff" + text, "bom.tsv"))
    assert marked == plain and {p.kind for p in marked} == {kind}
    loader = load_dependency if kind == "dependency" else load_amr
    assert loader(tmp_path / "bom.tsv") == plain


@pytest.mark.parametrize("kind", ["dependency", "amr"])
def test_byte_order_mark_past_the_start_names_its_line(tmp_path, kind):
    first, second = TWO_BLOCKS[kind]
    path = _write(tmp_path, f"{first}\n\ufeff{second}", "bad.tsv")
    with pytest.raises(ParseFileError, match=r"bad\.tsv:\d+: byte-order mark"):
        load_parses(path)


@pytest.mark.parametrize("kind", ["dependency", "amr"])
def test_crlf_line_ends_load_as_lf(tmp_path, kind):
    text = _commented(*TWO_BLOCKS[kind])
    plain = load_parses(_write(tmp_path, text))
    crlf = load_parses(_write(tmp_path, text.replace("\n", "\r\n"), "crlf.tsv"))
    assert crlf == plain and {p.kind for p in crlf} == {kind}


@pytest.mark.parametrize("kind", ["dependency", "amr"])
def test_lone_carriage_return_names_its_line(tmp_path, kind):
    first, second = TWO_BLOCKS[kind]
    line, broken = len(first.splitlines()) + 2, second.replace("\t", "\r", 1)
    path = _write(tmp_path, f"{first}\n{broken}", "bad.tsv")
    with pytest.raises(ParseFileError, match=rf"bad\.tsv:{line}: carriage return"):
        load_parses(path)


def test_load_parses_reads_the_file_once(tmp_path, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return read_blocks(*args, **kwargs)
    monkeypatch.setattr(knowledge, "read_blocks", counted)
    for kind in ("dependency", "amr"):
        path = _write(tmp_path, "\n".join(TWO_BLOCKS[kind]), f"{kind}.tsv")
        assert {p.kind for p in load_parses(path)} == {kind}
        assert calls == [path]
        calls.clear()


def test_alignment_error_quotes_the_file_line(tmp_path):
    # Each block keeps the line it starts on, past comments and blank lines.
    utts = [Utterance(id="u0000", tokens=("hello",), tags=("O",)),
            Utterance(id="u0001", tokens=("to", "boston"), tags=("O", "O"))]
    path = _write(tmp_path, "# one\n1\thello\t0\n\n\n# two\n1\tto\t2\n"
                            "2\tdenver\t0\n")
    parses = {p.id: p for p in load_dependency(path)}
    assert [p.line for p in parses.values()] == [2, 6]
    with pytest.raises(DataError, match=r"block u0001 \(line 6\) does not fit "
                                        "utterance u0001: token 2 is 'boston'"):
        check_alignment(parses, utts, path)
    graphs = _write(tmp_path, "node\ta\thello\t1\nroot\ta\n\n"
                              "node\tb\tboston\t3\nroot\tb\n", "g.tsv")
    with pytest.raises(DataError, match=r"block u0001 \(line 4\) does not fit"):
        check_alignment({p.id: p for p in load_amr(graphs)}, utts, graphs)
