"""Synthetic corpus generator: determinism, structure, disambiguation."""

import pytest

from structag.corpus import load_corpus
from structag.errors import ConfigError
from structag.knowledge import load_amr, load_dependency
from structag.synthetic import SyntheticConfig, generate


def _materialize(tmp_path, config, seed):
    corpus = generate(config, seed)
    paths = corpus.write(tmp_path)
    return (corpus, load_corpus(paths["corpus"]),
            load_dependency(paths["dependency"]), load_amr(paths["amr"]))


def test_seeded_generation_is_byte_identical():
    a = generate(SyntheticConfig(n_utterances=50), seed=9)
    b = generate(SyntheticConfig(n_utterances=50), seed=9)
    assert a.corpus_text == b.corpus_text
    assert a.dependency_text == b.dependency_text
    assert a.amr_text == b.amr_text
    c = generate(SyntheticConfig(n_utterances=50), seed=10)
    assert c.corpus_text != a.corpus_text


def test_count_zero_gives_empty_corpus(tmp_path):
    corpus, utts, deps, amrs = _materialize(
        tmp_path, SyntheticConfig(n_utterances=0), seed=1)
    assert corpus.n_utterances == 0
    assert utts == [] and deps == [] and amrs == []


def test_degenerate_configs_rejected():
    with pytest.raises(ConfigError):
        generate(SyntheticConfig(n_utterances=-1), seed=0)
    with pytest.raises(ConfigError):
        generate(SyntheticConfig(cities=("boston",)), seed=0)
    with pytest.raises(ConfigError):
        generate(SyntheticConfig(periods=()), seed=0)
    with pytest.raises(ConfigError):
        generate(SyntheticConfig(ambiguous_fraction=1.5), seed=0)


def test_generated_files_align_and_validate(tmp_path):
    corpus, utts, deps, amrs = _materialize(
        tmp_path, SyntheticConfig(n_utterances=30), seed=5)
    assert len(utts) == len(deps) == len(amrs) == 30
    assert [u.id for u in utts] == [p.id for p in deps] == [p.id for p in amrs]
    for utt, dep in zip(utts, deps):
        assert len(dep.nodes) == len(utt.tokens)


def test_ambiguous_fraction_bounds():
    all_ambiguous = generate(
        SyntheticConfig(n_utterances=25, ambiguous_fraction=1.0), seed=2)
    assert all_ambiguous.n_ambiguous == 25
    none_ambiguous = generate(
        SyntheticConfig(n_utterances=25, ambiguous_fraction=0.0), seed=2)
    assert none_ambiguous.n_ambiguous == 0


def test_period_tag_follows_parse_attachment(tmp_path):
    """The ambiguous template's period tag is decided by its head verb."""
    corpus, utts, deps, _ = _materialize(
        tmp_path, SyntheticConfig(n_utterances=60, ambiguous_fraction=1.0),
        seed=8)
    seen = set()
    for utt, dep in zip(utts, deps):
        period_pos = next(i for i, t in enumerate(utt.tags)
                          if t.endswith("_period"))
        parent = next(head for head, kids in dep.children.items()
                      if period_pos + 1 in kids)
        head_form = dep.nodes[parent].form
        assert head_form in ("leave", "arrive")
        expected = ("B-depart_period" if head_form == "leave"
                    else "B-arrive_period")
        assert utt.tags[period_pos] == expected
        seen.add(expected)
    assert seen == {"B-depart_period", "B-arrive_period"}


def test_ambiguous_surfaces_identical_across_attachments(tmp_path):
    """Token context alone cannot predict the period tag by construction."""
    corpus, utts, _, _ = _materialize(
        tmp_path, SyntheticConfig(n_utterances=200, ambiguous_fraction=1.0),
        seed=3)
    by_surface = {}
    for utt in utts:
        by_surface.setdefault(utt.tokens, set()).add(utt.tags)
    conflicting = [tags for tags in by_surface.values() if len(tags) > 1]
    assert conflicting, "expected identical surfaces with different gold tags"
    for tags in conflicting:
        period_tags = {t[-1] for t in tags}
        assert period_tags == {"B-depart_period", "B-arrive_period"}


def test_amr_graphs_have_unaligned_root_and_reentrancy(tmp_path):
    corpus, utts, _, amrs = _materialize(
        tmp_path, SyntheticConfig(n_utterances=10, ambiguous_fraction=1.0),
        seed=4)
    for parse in amrs:
        assert parse.nodes[parse.root].token is None
        parent_count = {}
        for head, dep in parse.edges():
            parent_count[dep] = parent_count.get(dep, 0) + 1
        assert max(parent_count.values()) == 2  # shared flight concept
