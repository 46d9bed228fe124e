"""Corpus loading, vocabularies, and fractional splits."""

import json

import pytest

from structag.corpus import (PAD_TOKEN, UNK_TOKEN, Utterance, Vocabulary,
                             fractional_split, load_corpus, split_dev, validate_iob, write_split_manifest)
from structag.errors import ConfigError, CorpusFormatError

FLIGHT_QUERY = """show\tO
me\tO
the\tO
flights\tO
from\tO
seattle\tB-fromloc.city_name
to\tO
san\tB-toloc.city_name
francisco\tI-toloc.city_name
"""


def _written(tmp_path, text, name="c.tsv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


def test_load_flight_query(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(FLIGHT_QUERY, encoding="utf-8")
    utts = load_corpus(path)
    assert len(utts) == 1
    assert utts[0].tokens == ("show", "me", "the", "flights", "from",
                              "seattle", "to", "san", "francisco")
    assert utts[0].tags[5] == "B-fromloc.city_name"
    assert utts[0].tags[7:] == ("B-toloc.city_name", "I-toloc.city_name")
    assert utts[0].id == "u0000"


def test_tokens_lowercased_on_load(tmp_path):
    path = tmp_path / "c.tsv"
    path.write_text("Seattle\tB-city\n", encoding="utf-8")
    assert load_corpus(path)[0].tokens == ("seattle",)


def test_empty_file_gives_empty_list(tmp_path):
    path = tmp_path / "empty.tsv"
    path.write_text("", encoding="utf-8")
    assert load_corpus(path) == []


def test_wrong_column_count_names_line(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("ok\tO\nbroken\tO\textra\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert ":2:" in str(err.value)


def test_iob_violation_reported_with_location(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tO\nb\tI-city\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError) as err:
        load_corpus(path)
    assert "I-city" in str(err.value)


def test_iob_type_switch_rejected(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_text("a\tB-city\nb\tI-day\n", encoding="utf-8")
    with pytest.raises(CorpusFormatError):
        load_corpus(path)


def test_validate_iob_directly():
    assert validate_iob(("O", "B-x", "I-x", "O")) is None
    assert validate_iob(("B-x", "B-y", "I-y")) is None
    assert validate_iob(("weird",)) is not None
    assert validate_iob(("O", "I-x")) == "tag 'I-x' at position 1 follows O"
    assert validate_iob(("B-x", "I-y")) == "tag 'I-y' at position 1 follows type 'x'"
    assert validate_iob(("O", "o")) == (
        "tag 'o' at position 1 is not O, B-<type>, or I-<type>")


def test_hash_line_is_a_token(tmp_path):
    # Parse files skip lines starting with '#'; a corpus never does.
    path = _written(tmp_path, "#\tO\nflights\tO\n\n# x\tO\n")
    assert [u.tokens for u in load_corpus(path)] == [("#", "flights"), ("# x",)]


def test_whitespace_only_line_separates_utterances(tmp_path):
    utts = load_corpus(_written(tmp_path, "a\tO\n \t \nb\tB-x\n"))
    assert [(u.id, u.tokens) for u in utts] == [("u0000", ("a",)), ("u0001", ("b",))]
    with pytest.raises(CorpusFormatError, match="utterance starting at line 3"):
        load_corpus(_written(tmp_path, "a\tO\n \t \nb\tI-x\n"))


def test_leading_byte_order_mark_is_dropped(tmp_path):
    text = FLIGHT_QUERY + "\n" + FLIGHT_QUERY
    plain = load_corpus(_written(tmp_path, text))
    assert load_corpus(_written(tmp_path, "\ufeff" + text, "bom.tsv")) == plain
    assert plain[0].tokens[0] == "show"


def test_byte_order_mark_past_the_start_names_its_line(tmp_path):
    path = _written(tmp_path, "show\tO\nme\tO\n\ufeffthe\tO\n", "bad.tsv")
    with pytest.raises(CorpusFormatError, match=r"bad\.tsv:3: byte-order mark"):
        load_corpus(path)


def test_crlf_line_ends_load_as_lf(tmp_path):
    text = FLIGHT_QUERY + "\n" + FLIGHT_QUERY
    plain = load_corpus(_written(tmp_path, text))
    assert load_corpus(_written(tmp_path, text.replace("\n", "\r\n"), "crlf.tsv")) == plain


def test_lone_carriage_return_names_its_line(tmp_path):
    # A CR is not a line break: read as one, `a<TAB>O<CR>b<TAB>O` would
    # load as two tokens, and later line numbers would be off by one.
    for text, line in (("a\tO\rb\tO\n", 1), ("a\tO\r\n\r\nb\tO\r\r\nc\tO\n", 3)):
        with pytest.raises(CorpusFormatError,
                           match=rf"bad\.tsv:{line}: carriage return \(CR\) inside a line"):
            load_corpus(_written(tmp_path, text, "bad.tsv"))


def test_roundtrip(tmp_path):
    original = [
        Utterance("u0000", ("list", "flights"), ("O", "O")),
        Utterance("u0001", ("to", "boston"), ("O", "B-to_city")),
    ]
    path = tmp_path / "round.tsv"
    path.write_text("\n".join("".join(f"{token}\t{tag}\n" for token, tag in
                                     zip(u.tokens, u.tags)) for u in original),
                    encoding="utf-8")
    loaded = load_corpus(path)
    assert [(u.tokens, u.tags) for u in loaded] == \
        [(u.tokens, u.tags) for u in original]


def _dummy_corpus(n):
    return [Utterance(f"u{i:04d}", (f"tok{i}",), ("O",)) for i in range(n)]


def test_fraction_one_is_identity():
    utts = _dummy_corpus(10)
    assert fractional_split(utts, 1.0, seed=1) == utts


def test_small_fraction_of_full_size_corpus():
    utts = _dummy_corpus(4978)
    small = fractional_split(utts, 1 / 40, seed=3)
    assert len(small) == 125  # ceil(4978/40)
    medium = fractional_split(utts, 1 / 10, seed=3)
    assert len(medium) == 498


def test_fractional_split_deterministic_and_order_preserving():
    utts = _dummy_corpus(100)
    a = fractional_split(utts, 0.3, seed=9)
    b = fractional_split(utts, 0.3, seed=9)
    assert a == b
    ids = [int(u.id[1:]) for u in a]
    assert ids == sorted(ids)
    c = fractional_split(utts, 0.3, seed=10)
    assert a != c


def test_fraction_out_of_range():
    utts = _dummy_corpus(5)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ConfigError):
            fractional_split(utts, bad, seed=0)


def test_split_overlap_matches_hypergeometric_mean():
    # 1/40 of 400 is 10 picks, 1/10 is 40; expected overlap 10*40/400 = 1.
    utts = _dummy_corpus(400)
    total = 0
    trials = 200
    for seed in range(trials):
        small = {u.id for u in fractional_split(utts, 1 / 40, seed=seed)}
        medium = {u.id for u in fractional_split(utts, 1 / 10, seed=1000 + seed)}
        total += len(small & medium)
    assert abs(total / trials - 1.0) < 0.3


def test_split_dev_partitions():
    utts = _dummy_corpus(50)
    train, dev = split_dev(utts, 0.1, seed=4)
    assert len(dev) == 5 and len(train) == 45
    assert {u.id for u in train} | {u.id for u in dev} == {u.id for u in utts}
    assert not ({u.id for u in train} & {u.id for u in dev})
    assert split_dev(utts, 0.0, seed=4) == (utts, [])


@pytest.mark.parametrize("fraction", (1.0, -0.1))
def test_split_dev_rejects_a_fraction_outside_zero_to_one(fraction):
    with pytest.raises(ConfigError, match="dev fraction must be in"):
        split_dev(_dummy_corpus(10), fraction, seed=4)


def test_vocabulary_reserved_indices_and_oov():
    utts = [Utterance("u0", ("a", "b", "a"), ("O", "B-x", "O"))]
    vocab = Vocabulary.build(utts)
    assert vocab.token_index[PAD_TOKEN] == 0
    assert vocab.token_index[UNK_TOKEN] == 1
    assert vocab.encode_tokens(("a", "zzz")) == [vocab.token_index["a"], 1]
    assert vocab.encode_tags(("O", "B-x")) == [0, 1]
    assert vocab.tag_names() == ["O", "B-x"]


def test_vocabulary_dict_roundtrip():
    utts = [Utterance("u0", ("x", "y"), ("O", "B-t"))]
    vocab = Vocabulary.build(utts)
    assert sorted(vocab.to_dict()) == ["tags", "tokens"]
    back = Vocabulary.from_dict(json.loads(json.dumps(vocab.to_dict())))
    assert back.token_index == vocab.token_index
    assert back.tag_index == vocab.tag_index


@pytest.mark.parametrize("tokens", [
    {"<pad>": 0, "x": 1}, {"<unk>": 0, "<pad>": 1, "x": 2}, {"x": 0, "<pad>": 1, "<unk>": 2}])
def test_vocabulary_dict_needs_reserved_tokens_first(tokens):
    with pytest.raises(ValueError, match="must have indices"):
        Vocabulary.from_dict({"tokens": tokens, "tags": {"O": 0}})


@pytest.mark.parametrize("tags", [{}, {"O": 0, "X": 1}, {"B-": 0}, {"B-a b": 0}])
def test_vocabulary_dict_needs_valid_tags(tags):
    with pytest.raises(ValueError, match="at least one tag"):
        Vocabulary.from_dict({"tokens": {"<pad>": 0, "<unk>": 1}, "tags": tags})


def test_write_split_manifest(tmp_path):
    utts = _dummy_corpus(4)
    path = tmp_path / "splits.json"
    write_split_manifest(path, {"train": [u.id for u in utts[:3]],
                                "dev": [u.id for u in utts[3:]]})
    data = json.loads(path.read_text(encoding="utf-8"))
    assert data == {"train": ["u0000", "u0001", "u0002"], "dev": ["u0003"]}
