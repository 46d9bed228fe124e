"""Chunk extraction and corpus-level F1 scoring."""

import random

import pytest

import conlleval_reference as ref
from structag.errors import DataError
from structag.evaluator import evaluate, extract_chunks, format_report


def test_flight_query_chunks():
    tags = ["O", "O", "O", "O", "O", "B-fromloc.city_name", "O",
            "B-toloc.city_name", "I-toloc.city_name"]
    assert extract_chunks(tags) == {(5, 5, "fromloc.city_name"),
                                    (7, 8, "toloc.city_name")}


def test_all_outside_has_no_chunks():
    assert extract_chunks(["O"] * 6) == set()


def test_inside_after_outside_opens_chunk():
    assert extract_chunks(["O", "I-X", "I-X", "O"]) == {(1, 2, "X")}


def test_transition_table():
    assert extract_chunks(["B-X", "I-X"]) == {(0, 1, "X")}
    assert extract_chunks(["B-X", "B-X"]) == {(0, 0, "X"), (1, 1, "X")}
    assert extract_chunks(["I-X", "I-Y"]) == {(0, 0, "X"), (1, 1, "Y")}
    assert extract_chunks(["B-X", "I-Y"]) == {(0, 0, "X"), (1, 1, "Y")}
    assert extract_chunks(["I-X"]) == {(0, 0, "X")}
    assert extract_chunks(["B-X", "I-X", "B-X"]) == {(0, 1, "X"), (2, 2, "X")}


def test_unrecognized_tags_read_as_outside():
    assert extract_chunks(["B-x", "JUNK", "I-x"]) == {(0, 0, "x"), (2, 2, "x")}
    assert extract_chunks(["", "B-x"]) == {(1, 1, "x")}


def test_perfect_prediction_scores_100():
    gold = [["B-a", "I-a", "O"], ["O", "B-b", "O"]]
    report = evaluate(gold, [list(s) for s in gold])
    assert report["precision"] == 100.0
    assert report["recall"] == 100.0
    assert report["f1"] == 100.0
    assert report["token_accuracy"] == 100.0


def test_two_thirds_precision_half_recall():
    gold, pred = ref.PARITY_CASES[22]
    report = evaluate(gold, pred)
    assert (report["gold"], report["predicted"], report["correct"]) == (4, 3, 2)
    assert round(report["precision"], 2) == 66.67
    assert round(report["recall"], 2) == 50.0
    assert round(report["f1"], 2) == 57.14


def test_no_predictions_scores_zero():
    report = evaluate([["B-a", "I-a"]], [["O", "O"]])
    assert report["precision"] == 0.0
    assert report["recall"] == 0.0
    assert report["f1"] == 0.0


def test_empty_chunk_sets_score_100_by_convention():
    report = evaluate([["O", "O"]], [["O", "O"]])
    assert report["precision"] == 100.0
    assert report["recall"] == 100.0
    assert report["f1"] == 100.0
    # The streaming reference keeps the historical 0-on-zero-denominator
    # behavior; this corner is the one deliberate divergence.
    assert ref.score([["O", "O"]], [["O", "O"]])["f1"] == 0.0


def test_swapping_gold_and_prediction_swaps_precision_recall():
    gold = [["B-a", "I-a", "O", "B-b"]]
    pred = [["B-a", "O", "O", "B-c"]]
    fwd = evaluate(gold, pred)
    rev = evaluate(pred, gold)
    assert fwd["precision"] == rev["recall"]
    assert fwd["recall"] == rev["precision"]
    assert fwd["f1"] == rev["f1"]


def test_utterance_order_does_not_change_report():
    gold, pred = ref.PARITY_CASES[22]
    order = list(range(len(gold)))
    random.Random(4).shuffle(order)
    shuffled = evaluate([gold[i] for i in order], [pred[i] for i in order])
    assert shuffled == evaluate(gold, pred)


def test_token_accuracy_counts_positions():
    report = evaluate([["O", "B-a", "I-a", "O"]], [["O", "B-a", "O", "O"]])
    assert report["tokens"] == 4
    assert report["token_accuracy"] == 75.0


def test_sequence_count_mismatch_rejected():
    with pytest.raises(DataError):
        evaluate([["O"]], [["O"], ["O"]])


def test_length_mismatch_names_utterance():
    with pytest.raises(DataError) as err:
        evaluate([["O"], ["O", "O"]], [["O"], ["O"]], ids=["u1", "u2"])
    assert "u2" in str(err.value)


def test_format_report_layout():
    report = evaluate([["B-city", "O", "B-day"]], [["B-city", "O", "O"]])
    text = format_report(report)
    assert text.startswith("processed 3 tokens with 2 phrases; "
                           "found: 1 phrases; correct: 1.")
    assert "FB1:" in text
    assert "city" in text and "day" in text


@pytest.mark.parametrize("case", range(len(ref.PARITY_CASES)))
def test_parity_with_streaming_reference(case):
    gold, pred = ref.PARITY_CASES[case]
    ours = evaluate(gold, pred)
    theirs = ref.score(gold, pred)
    for key in ("gold", "predicted", "correct", "tokens"):
        assert ours[key] == theirs[key], key
    for key in ("precision", "recall", "f1", "token_accuracy"):
        assert ours[key] == pytest.approx(theirs[key], abs=1e-9), key
    assert sorted(ours["types"]) == sorted(theirs["types"])
    for ctype, t in ours["types"].items():
        for key, value in t.items():
            assert value == pytest.approx(theirs["types"][ctype][key],
                                          abs=1e-9), (ctype, key)


def test_parity_case_inventory():
    assert len(ref.PARITY_CASES) == 25
    for gold, pred in ref.PARITY_CASES:
        n_chunks = sum(len(extract_chunks(s)) for s in gold + pred)
        assert n_chunks >= 1
