"""Chunk-level precision/recall/F1 for IOB tag sequences.

Chunk extraction follows the shared-task scorer conventions: B-X always
opens a chunk, and I-X opens one too when it follows O or a different
type. A chunk ends before O, before any B, and before an I of another
type. Scores are percentages.
"""

from __future__ import annotations

from collections import Counter

from .errors import DataError


def _split_tag(tag: str) -> tuple[str, str]:
    """Tag -> (prefix, type). Unrecognized forms count as O."""
    if tag == "O" or not tag:
        return "O", ""
    if tag.startswith("B-"):
        return "B", tag[2:]
    if tag.startswith("I-"):
        return "I", tag[2:]
    return "O", ""


def extract_chunks(tags: list[str] | tuple[str, ...]) -> set[tuple[int, int, str]]:
    """All chunks in one sequence as (start, end_inclusive, type) triples."""
    chunks = set()
    start = None
    ctype = ""
    for i, tag in enumerate(tags):
        prefix, ttype = _split_tag(tag)
        inside = start is not None
        if inside and (prefix != "I" or ttype != ctype):
            chunks.add((start, i - 1, ctype))
            start = None
        if prefix == "B" or (prefix == "I" and (not inside or ttype != ctype)):
            start = i
            ctype = ttype
    if start is not None:
        chunks.add((start, len(tags) - 1, ctype))
    return chunks


def _scores(gold: int, predicted: int, correct: int) -> dict:
    """Precision, recall and F1 from chunk counts, followed by the counts."""
    if gold == 0 and predicted == 0:
        # Nothing to find and nothing found: treat as a perfect score.
        p = r = f = 100.0
    else:
        p = 100.0 * correct / predicted if predicted else 0.0
        r = 100.0 * correct / gold if gold else 0.0
        f = 2.0 * p * r / (p + r) if p + r > 0 else 0.0
    return {"precision": p, "recall": r, "f1": f,
            "gold": gold, "predicted": predicted, "correct": correct}


def evaluate(gold: list[list[str]], predicted: list[list[str]],
             ids: list[str] | None = None) -> dict:
    """Score predicted tag sequences against gold, chunk by chunk.

    Returns overall and per-type precision/recall/F1 plus raw counts and
    token accuracy. Sequences are matched by position; a length mismatch
    is a data error.
    """
    if len(gold) != len(predicted):
        raise DataError(f"got {len(gold)} gold sequences but "
                        f"{len(predicted)} predicted")
    n_gold, n_predicted, n_correct = Counter(), Counter(), Counter()    # by chunk type
    tokens = tokens_correct = 0
    for i, (g, p) in enumerate(zip(gold, predicted)):
        if len(g) != len(p):
            label = ids[i] if ids else f"#{i}"
            raise DataError(
                f"utterance {label}: {len(g)} gold tags vs {len(p)} predicted")
        tokens += len(g)
        tokens_correct += sum(1 for a, b in zip(g, p) if a == b)
        gold_chunks, pred_chunks = extract_chunks(g), extract_chunks(p)
        n_gold.update(ctype for _, _, ctype in gold_chunks)
        n_predicted.update(ctype for _, _, ctype in pred_chunks)
        n_correct.update(ctype for _, _, ctype in gold_chunks & pred_chunks)
    report = _scores(n_gold.total(), n_predicted.total(), n_correct.total())
    report["tokens"] = tokens
    report["token_accuracy"] = 100.0 * tokens_correct / tokens if tokens else 0.0
    report["types"] = {ctype: _scores(n_gold[ctype], n_predicted[ctype], n_correct[ctype])
                       for ctype in sorted(n_gold | n_predicted)}
    return report


def format_report(report: dict) -> str:
    """Classic text rendering of an evaluation report."""
    lines = [
        f"processed {report['tokens']} tokens with {report['gold']} phrases; "
        f"found: {report['predicted']} phrases; correct: {report['correct']}.",
        f"accuracy: {report['token_accuracy']:6.2f}%; "
        f"precision: {report['precision']:6.2f}%; "
        f"recall: {report['recall']:6.2f}%; "
        f"FB1: {report['f1']:6.2f}",
    ]
    width = max((len(t) for t in report["types"]), default=0)
    for ctype, t in report["types"].items():
        lines.append(
            f"{ctype.rjust(width + 2)}: "
            f"precision: {t['precision']:6.2f}%; "
            f"recall: {t['recall']:6.2f}%; "
            f"FB1: {t['f1']:6.2f}  {t['predicted']}")
    return "\n".join(lines) + "\n"
