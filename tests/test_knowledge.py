"""Parse loading and root-to-leaf substructure extraction."""

import random

import pytest

from structag.errors import ParseFileError
from structag.knowledge import (KnowledgeParse, ParseNode,
                                extract_substructures, load_amr,
                                load_dependency, substructure_stats,
                                substructures_with_fallback)

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
    forms = {s.forms for s in subs}
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
    assert subs[0].forms == ("hello",)


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
        with pytest.raises(ParseFileError):
            load_dependency(_write(tmp_path, text, f"{label}.tsv"))


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
    assert parse.edge_labels[("n0", "n1")] == "arg0"
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
    assert subs[0].forms == ("leave", "city")


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
