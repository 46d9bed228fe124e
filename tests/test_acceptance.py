"""Acceptance battery: one test per shipping criterion.

Every test prints exactly one `criterion N: PASS/FAIL (...)` line before
asserting, so a plain `pytest tests/test_acceptance.py -v -s` doubles as
the sign-off checklist. Criteria 7 and 8 share trained models through a
module cache; any test still works when selected on its own.
"""

import random
import tempfile
import time
from pathlib import Path

import numpy as np

import conlleval_reference as ref
from gradcheck_util import assert_grads_match, elementwise_mul, set_know, sum_all
from structag.attention import KnowledgeMemory, knowledge_representation
from structag.autodiff import Tensor
from structag.cells import make_cell, run_lanes
from structag.corpus import Utterance, Vocabulary, load_corpus
from structag.encoders import ENCODER_KINDS, OutputNetwork, make_encoder
from structag.evaluator import evaluate
from structag.knowledge import (KnowledgeParse, ParseNode, Substructure,
                                extract_substructures, load_amr,
                                load_dependency)
from structag.model import SlotModel, embed
from structag.seeding import derive_seed
from structag.synthetic import SyntheticConfig, generate
from structag.tagger import CELL_KINDS, TAGGER_MODES, Tagger, tag_output
from structag.trainer import TrainConfig, evaluate_model, train

_CACHE: dict = {}


def _report(n: int, ok: bool, detail: str):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n}: {detail}"


def _weighted(expr: Tensor, w) -> Tensor:
    return sum_all(elementwise_mul(expr, Tensor(np.asarray(w, float))))


# ---------------------------------------------------------------------------
# criterion 1: analytic gradients match central differences

# Every graph op that a model's training loss can contain. Criterion 1
# gradient-checks exactly these, and the test after it shows that the
# losses of the whole mode x encoder x cell grid use exactly these.
CHECKED_OPS = frozenset({
    "embed", "nn_encoder", "cnn_encoder", "elman_sequence", "gru_sequence",
    "attention", "tag_output"})


def _graph_ops(root: Tensor) -> set:
    """Names of the non-leaf ops reachable from `root`."""
    ops, seen, stack = set(), {id(root)}, [root]
    while stack:
        node = stack.pop()
        ops.add(node.op)
        for parent in node.parents:
            if id(parent) not in seen:
                seen.add(id(parent))
                stack.append(parent)
    return ops - {"leaf"}


def _per_op_worst() -> tuple[float, set]:
    """Worst relative error over the per-op checks, and the ops checked."""
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = set()

    def check(build_loss, tensors):
        nonlocal worst
        checked.update(_graph_ops(build_loss()))
        worst = max(worst,
                    assert_grads_match(build_loss, tensors, tol=float("inf")))

    def mat(*shape):
        return Tensor(rng.normal(size=shape))

    # Every weight array is drawn once, outside the loss closure, so the
    # loss is a fixed function during the finite-difference sweeps.
    # The embedding lookup with a repeated id, without and with dropout
    # (a fresh generator per call keeps the mask fixed).
    table = mat(5, 3)
    wt = rng.normal(size=(4, 3))
    check(lambda: _weighted(embed(table, [0, 2, 0, 4]), wt), [table])
    check(lambda: _weighted(embed(table, [0, 2, 0, 4], 0.5,
                                  np.random.default_rng(3)), wt), [table])

    # The attention step over one memory row and over three, with respect
    # to the whole final-states matrix (the memory rows, then u).
    net = OutputNetwork(rng, 4)
    for n_rows in (1, 3):
        states = mat(n_rows + 1, 4)
        wo = rng.normal(size=4)
        memory = KnowledgeMemory([Substructure((i,), i) for i in range(n_rows)])
        check(lambda: _weighted(knowledge_representation(states, memory, net)[0], wo),
              [states, net.weight, net.bias])

    # The output layer and its loss over one tower and over two, without
    # and with a dropout mask.
    out_w, out_b = mat(4, 5), mat(5)
    for n_towers in (1, 2):
        states = mat(n_towers, 3, 4)
        for rate in (0.0, 0.5):
            check(lambda: tag_output(states, 0.3, out_w, out_b, rate,
                                     np.random.default_rng(4), gold=[4, 0, 2]),
                  [states, out_w, out_b])

    # The fused recurrences, with and without knowledge terms: one run of
    # one step, one run of several (the rnn sentence vector, a tower), and
    # ragged runs with a length-1 run and a tie (the rnn memory), each
    # giving every state and each run's final state.
    for kind in CELL_KINDS:
        cell = make_cell(kind, rng, 3, 4, knowledge_dim=2)
        guided = mat(2)
        know = set_know(cell, {g: rng.normal(size=(4, 2)) for g in cell.GATES})
        for lengths in ([1], [6], [2, 4, 1, 4]):
            xs = mat(sum(lengths), 3)
            tensors = [*cell.w.values(), *cell.u.values(), xs]
            for last in (False, True):
                wh = rng.normal(size=(len(lengths) if last else len(xs.value), 4))
                check(lambda: _weighted(cell.run(xs, lengths, last=last), wh), tensors)
                check(lambda: _weighted(cell.run(xs, lengths, guided, last), wh),
                      tensors + know + [guided])

    # The joint towers as two lanes of one op, over one step and several:
    # the chain tower, then a tower with knowledge projections.
    for kind in CELL_KINDS:
        cells = [make_cell(kind, rng, 3, 4), make_cell(kind, rng, 3, 4, knowledge_dim=2)]
        guided = mat(2)
        know = set_know(cells[1], {g: rng.normal(size=(4, 2)) for g in cells[1].GATES})
        tensors = [t for c in cells for t in (*c.w.values(), *c.u.values())] + know
        for n in (1, 4):
            xs, wh = mat(n, 3), rng.normal(size=(2, n, 4))
            check(lambda: _weighted(run_lanes(cells, xs, guided), wh), tensors + [xs, guided])

    # Every encoder's memory and sentence vector: the rows of one
    # `final_states` over one lookup of the parts and then the sentence,
    # which the attention step reads whole; the sentence ties the longest
    # part.
    subs = [Substructure((i,), i) for i in range(3)]
    for kind in ENCODER_KINDS:
        enc, net = make_encoder(kind, rng, 3, 4), OutputNetwork(rng, 4)
        table, wo = mat(6, 3), rng.normal(size=4)

        def attend():
            finals = enc.final_states(embed(table, [5, 3, 2, 1, 0, 2, 4, 0, 1, 2, 3]),
                                      [1, 4, 2, 4])
            return knowledge_representation(finals, KnowledgeMemory(subs), net)[0]
        check(lambda: _weighted(attend(), wo),
              list(enc.params("e").values()) + [table, net.weight, net.bias])

    # The nn and cnn encoders' one node over one run of one token, one
    # run of several, and ragged runs.
    for kind in ("nn", "cnn"):
        enc = make_encoder(kind, rng, 3, 4)
        for lengths in ([1], [5], [1, 4, 2]):
            xs = mat(sum(lengths), 3)
            we = rng.normal(size=(len(lengths), 4))
            check(lambda: _weighted(enc.final_states(xs, lengths), we),
                  [enc.weight, enc.bias, xs])
    # A pooled column where all five positions tie: its weights are zero,
    # so it reads tanh(bias) everywhere. Only one position may pass the
    # gradient on, or the bias gradient is counted five times. (The tied
    # column's weight gradient has no derivative to compare against.)
    enc = make_encoder("cnn", rng, 3, 4)
    enc.weight.value[:, 2] = 0.0
    xs = mat(5, 3)
    we = rng.normal(size=(1, 4))
    check(lambda: _weighted(enc.final_states(xs, [5]), we), [enc.bias, xs])
    return worst, checked - {"sum", "mul"}


def test_criterion_1_gradients():
    started = time.monotonic()
    op_worst, checked = _per_op_worst()

    utt = Utterance(id="u0", tokens=("which", "flights", "leave"),
                    tags=("O", "B-day", "O"))
    vocab = Vocabulary.build([utt])
    config = TrainConfig(mode="joint", encoder="cnn", cell="gru",
                         embed_dim=5, hidden_size=4, dropout=0.0)
    model = SlotModel(config, vocab,
                      np.random.default_rng(derive_seed(1, "init")))
    token_ids = vocab.encode_tokens(utt.tokens)
    tag_ids = vocab.encode_tags(utt.tags)
    subs = [Substructure(positions=(0, 1), leaf=1),
            Substructure(positions=(0, 2), leaf=2)]

    full_worst = assert_grads_match(
        lambda: model.loss(token_ids, tag_ids, subs),
        list(model.params().values()), tol=float("inf"))
    elapsed = time.monotonic() - started
    ok = (op_worst < 1e-4 and full_worst < 1e-3 and elapsed < 30.0
          and checked == CHECKED_OPS)
    _report(1, ok, f"{len(checked)} ops checked, "
                   f"per-op worst rel err {op_worst:.2e} < 1e-4, "
                   f"full-model worst {full_worst:.2e} < 1e-3, "
                   f"{elapsed:.1f}s < 30s")


def test_criterion_1_checks_every_op_a_training_loss_builds():
    utt = Utterance(id="u0", tokens=("which", "flights", "leave", "today"),
                    tags=("O", "O", "O", "B-day"))
    vocab = Vocabulary.build([utt])
    token_ids = vocab.encode_tokens(utt.tokens)
    tag_ids = vocab.encode_tags(utt.tags)
    subs = [Substructure(positions=(0, 1), leaf=1),
            Substructure(positions=(2, 3), leaf=3)]
    built = set()
    for mode in TAGGER_MODES:
        for encoder in ENCODER_KINDS:
            for cell in CELL_KINDS:
                config = TrainConfig(mode=mode, encoder=encoder, cell=cell,
                                     embed_dim=3, hidden_size=3)
                assert config.dropout > 0.0
                model = SlotModel(config, vocab, np.random.default_rng(1))
                built |= _graph_ops(model.loss(token_ids, tag_ids, subs,
                                               config.dropout,
                                               np.random.default_rng(2)))
    assert built == CHECKED_OPS, (
        f"built but unchecked: {sorted(built - CHECKED_OPS)}, "
        f"checked but never built: {sorted(CHECKED_OPS - built)}")


# ---------------------------------------------------------------------------
# criterion 2: attention weight properties


def attend(rows, u) -> Tensor:
    """The attention weights of `u` over the memory `rows`, output network
    drawn at random."""
    memory = KnowledgeMemory([Substructure((i,), i) for i in range(len(rows))])
    net = OutputNetwork(np.random.default_rng(0), len(u))
    return knowledge_representation(Tensor(np.vstack([rows, u])), memory, net)[1]


def test_criterion_2_attention():
    rng = np.random.default_rng(22)
    normalized = positive = True
    for _ in range(50):
        n, d = rng.integers(1, 9), rng.integers(1, 7)
        rows = rng.normal(size=(n, d))
        p = attend(rows, rng.normal(size=d)).value
        normalized &= abs(p.sum() - 1.0) < 1e-12
        positive &= bool(np.all(p > 0.0))

    p = attend(np.array([[1.0, 0.0], [0.0, 1.0]]), np.array([1.0, 0.0])).value
    hand = np.abs(p - [0.7311, 0.2689]).max()
    ok = normalized and positive and hand < 1e-4
    _report(2, ok, f"50 random draws normalized and positive, unit logit gap "
                   f"within {hand:.1e} of [0.7311, 0.2689]")


# ---------------------------------------------------------------------------
# criterion 3: substructure extraction vs an independent enumeration


def _oracle_paths(parse):
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
    return sorted(dict.fromkeys(found), key=lambda p: (p[-1], p))


def test_criterion_3_substructures(tmp_path):
    tree = ("1\tshow\t0\n2\tme\t1\n3\tthe\t4\n4\tflights\t1\n5\tfrom\t6\n"
            "6\tseattle\t4\n7\tto\t9\n8\tsan\t9\n9\tfrancisco\t4\n")
    path = tmp_path / "tree.tsv"
    path.write_text(tree, encoding="utf-8")
    parse = load_dependency(path)[0]
    fixture_ok = ("show", "flights", "seattle", "from") in {
        tuple(parse.nodes[i + 1].form for i in s.positions)
        for s in extract_substructures(parse)}

    rng = random.Random(33)
    mismatches = 0
    for _ in range(100):
        n = rng.randrange(1, 16)
        p = KnowledgeParse(id="t")
        order = list(range(n))
        rng.shuffle(order)
        for i in range(1, n + 1):
            p.nodes[i] = ParseNode(form=f"w{i}", token=order[i - 1])
            p.children[i] = []
        p.root = 1
        for i in range(2, n + 1):
            p.children[rng.randrange(1, i)].append(i)
        got = [s.positions for s in extract_substructures(p)]
        if got != _oracle_paths(p):
            mismatches += 1
    ok = fixture_ok and mismatches == 0
    _report(3, ok, f"fixture path found: {fixture_ok}, "
                   f"{mismatches}/100 random trees disagree with the "
                   f"recursive enumeration")


# ---------------------------------------------------------------------------
# criterion 4: degenerate settings collapse onto the plain chain


def _copy_matching(src: dict, dst: dict, rename=None):
    for name, tensor in dst.items():
        src_name = rename(name) if rename else name
        if src_name in src:
            tensor.value[:] = src[src_name].value


def test_criterion_4_reductions():
    rng = np.random.default_rng(44)
    embedded = rng.normal(size=(4, 3))
    guided = rng.normal(size=4)
    all_equal = True
    for cell in ("elman", "gru"):
        chain = Tagger(np.random.default_rng(1), "chain", cell, 3, 4, 5)
        know = Tagger(np.random.default_rng(2), "knowledge", cell, 3, 4, 5)
        _copy_matching(chain.params("t"), know.params("t"))
        zero_guide = know.distributions(Tensor(embedded.copy()),
                                        Tensor(np.zeros(4)))
        base = chain.distributions(Tensor(embedded.copy()))
        all_equal &= np.array_equal(zero_guide.value, base.value)

        joint1 = Tagger(np.random.default_rng(3), "joint", cell, 3, 4, 5,
                        alpha=1.0)
        chain2 = Tagger(np.random.default_rng(4), "chain", cell, 3, 4, 5)
        _copy_matching(joint1.params("t"), chain2.params("t"))
        all_equal &= np.array_equal(
            joint1.distributions(Tensor(embedded.copy()),
                                 Tensor(guided.copy())).value,
            chain2.distributions(Tensor(embedded.copy())).value)

        joint0 = Tagger(np.random.default_rng(5), "joint", cell, 3, 4, 5,
                        alpha=0.0)
        know2 = Tagger(np.random.default_rng(6), "knowledge", cell, 3, 4, 5)
        _copy_matching(joint0.params("t"), know2.params("t"),
                       rename=lambda s: s.replace(".tower1.", ".tower2."))
        all_equal &= np.array_equal(
            joint0.distributions(Tensor(embedded.copy()),
                                 Tensor(guided.copy())).value,
            know2.distributions(Tensor(embedded.copy()),
                                Tensor(guided.copy())).value)
    _report(4, all_equal, "zero guide == chain, alpha=1 == chain, "
                          "alpha=0 == knowledge; bitwise for both cells")


# ---------------------------------------------------------------------------
# criterion 5: scorer parity with the streaming reference


def test_criterion_5_scorer_parity():
    mismatches = []
    for idx, (gold, pred) in enumerate(ref.PARITY_CASES, start=1):
        ours = evaluate(gold, pred)
        theirs = ref.score(gold, pred)
        same = all(ours[k] == theirs[k]
                   for k in ("gold", "predicted", "correct", "tokens"))
        same &= all(abs(ours[k] - theirs[k]) < 1e-9
                    for k in ("precision", "recall", "f1", "token_accuracy"))
        same &= sorted(ours["types"]) == sorted(theirs["types"])
        if same:
            for ctype, t in ours["types"].items():
                other = theirs["types"][ctype]
                same &= all(abs(t[k] - other[k]) < 1e-9 for k in t)
        if not same:
            mismatches.append(idx)
    _report(5, not mismatches,
            f"{len(ref.PARITY_CASES) - len(mismatches)}/25 crafted corpora "
            f"identical to the independent scorer"
            + (f"; mismatches: {mismatches}" if mismatches else ""))


# ---------------------------------------------------------------------------
# shared synthetic data for the training criteria


def _materialize(n_utterances: int, seed: int):
    corpus = generate(SyntheticConfig(n_utterances=n_utterances), seed)
    out = Path(tempfile.mkdtemp(prefix="structag-accept-"))
    paths = corpus.write(out)
    utts = load_corpus(paths["corpus"])
    deps = {p.id: p for p in load_dependency(paths["dependency"])}
    graphs = {p.id: p for p in load_amr(paths["amr"])}
    return utts, deps, graphs


def _advantage_data():
    if "train" not in _CACHE:
        _CACHE["train"] = _materialize(500, derive_seed(11, "train"))
        _CACHE["test"] = _materialize(200, derive_seed(11, "test"))
    return _CACHE["train"], _CACHE["test"]


def _advantage_config(mode: str, seed: int) -> TrainConfig:
    return TrainConfig(mode=mode, encoder="cnn", cell="gru", embed_dim=24,
                       hidden_size=24, dropout=0.0, epochs=12,
                       dev_fraction=0.1, seed=seed)


def _advantage_run(mode: str, seed: int, parse_kind: str = "dependency"):
    key = ("run", mode, seed, parse_kind)
    if key not in _CACHE:
        (train_utts, train_deps, train_graphs) = _advantage_data()[0]
        (test_utts, test_deps, test_graphs) = _advantage_data()[1]
        train_parses = train_deps if parse_kind == "dependency" else train_graphs
        test_parses = test_deps if parse_kind == "dependency" else test_graphs
        result = train(train_utts, _advantage_config(mode, seed),
                       parses=None if mode == "chain" else train_parses)
        report = evaluate_model(result.model, test_utts,
                                None if mode == "chain" else test_parses)
        _CACHE[key] = report["f1"]
    return _CACHE[key]


# ---------------------------------------------------------------------------
# criterion 6: every encoder/cell pairing can fit a small corpus


def test_criterion_6_learnability():
    utts, deps, _ = _materialize(20, derive_seed(6, "learn"))
    scores = {}
    slowest = 0.0
    for encoder in ("nn", "rnn", "cnn"):
        for cell in ("elman", "gru"):
            started = time.monotonic()
            config = TrainConfig(mode="joint", encoder=encoder, cell=cell,
                                 embed_dim=16, hidden_size=16, dropout=0.0,
                                 learning_rate=0.003, epochs=50,
                                 dev_fraction=0.0, seed=17)
            result = train(utts, config, parses=deps, dev_utterances=utts,
                           dev_parses=deps)
            scores[f"{encoder}/{cell}"] = result.best_dev_f1
            slowest = max(slowest, time.monotonic() - started)
    ok = all(f1 >= 95.0 for f1 in scores.values()) and slowest < 120.0
    shown = ", ".join(f"{k}={v:.1f}" for k, v in scores.items())
    _report(6, ok, f"best F1 within 50 epochs: {shown}; "
                   f"slowest pairing {slowest:.1f}s < 120s")


# ---------------------------------------------------------------------------
# criterion 7: parse-guided joint model beats the plain chain


def test_criterion_7_structural_advantage():
    started = time.monotonic()
    seeds = (101, 202, 303)
    joint = [_advantage_run("joint", s) for s in seeds]
    chain = [_advantage_run("chain", s) for s in seeds]
    gap = float(np.mean(joint) - np.mean(chain))
    elapsed = time.monotonic() - started
    ok = gap >= 2.0 and elapsed < 900.0
    _report(7, ok, "test F1 joint "
            + "/".join(f"{f:.2f}" for f in joint)
            + " vs chain " + "/".join(f"{f:.2f}" for f in chain)
            + f", mean gap {gap:.2f} >= 2.0, {elapsed:.0f}s < 900s")


# ---------------------------------------------------------------------------
# criterion 8: tree-shaped and graph-shaped knowledge agree


def test_criterion_8_parse_format_robustness():
    tree_f1 = _advantage_run("joint", 101, "dependency")
    graph_f1 = _advantage_run("joint", 101, "amr")
    diff = abs(tree_f1 - graph_f1)
    ok = diff <= 3.0
    _report(8, ok, f"dependency-guided {tree_f1:.2f} vs graph-guided "
                   f"{graph_f1:.2f}, |diff| {diff:.2f} <= 3.0")


# ---------------------------------------------------------------------------
# criterion 9: bit-identical reruns


def test_criterion_9_determinism():
    utts, deps, _ = _materialize(20, derive_seed(9, "determinism"))

    def run():
        config = TrainConfig(mode="joint", encoder="cnn", cell="gru",
                             embed_dim=12, hidden_size=12, dropout=0.25,
                             epochs=3, dev_fraction=0.2, seed=99)
        return train(utts, config, parses=deps)

    a, b = run(), run()
    curves_equal = a.history == b.history
    params_equal = all(
        np.array_equal(p.value, b.model.params()[name].value)
        for name, p in a.model.params().items())
    _report(9, curves_equal and params_equal,
            f"{len(a.history)}-epoch loss/dev curves and all parameters "
            f"bit-identical across reruns")
