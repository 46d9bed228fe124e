"""Seeded loader fuzz: mutated inputs end in a typed error, never a crash.

A generated corpus, its dependency and concept-graph files and a small
checkpoint are mutated line- and byte-wise: lines deleted or duplicated,
columns swapped, files truncated, garbage bytes (invalid UTF-8 among
them) inserted. Every loader, and what runs right after it (alignment
checks, substructure extraction, tagging), may reject a mutant only
with a `StructagError`; the command line turns that into exit code 1, 2
or 3 and one `error:` line, never a traceback.
"""

import json
import random
from pathlib import Path

import pytest

from structag.cli import main
from structag.corpus import load_corpus
from structag.errors import CheckpointError, StructagError
from structag.knowledge import check_alignment, load_parses, substructures_with_fallback
from structag.trainer import evaluate_model, load_checkpoint
from test_cli import _run_cli

MUTANTS = 40
GARBAGE = (b"\xff", b"\xc3(", b"\xe2\x82", b"\x00", b"\t", b"\n", b"\n\n",
           b"-1", b"0", b"#", b" ", b"\"", b"}")


def mutate(data: bytes, rng: random.Random) -> bytes:
    """One to three seeded mutations of `data`."""
    for _ in range(rng.randint(1, 3)):
        lines = data.split(b"\n")
        i = rng.randrange(len(lines))
        kind = rng.choice(("delete", "duplicate", "swap", "truncate", "garbage"))
        if kind == "delete":
            del lines[i]
        elif kind == "duplicate":
            lines.insert(i, lines[i])
        elif kind == "swap":
            cols = lines[i].split(b"\t")
            a, b = rng.randrange(len(cols)), rng.randrange(len(cols))
            cols[a], cols[b] = cols[b], cols[a]
            lines[i] = b"\t".join(cols)
        if kind == "truncate":
            data = data[:rng.randrange(len(data) + 1)]
        elif kind == "garbage":
            at = rng.randrange(len(data) + 1)
            junk = rng.choice(GARBAGE) + bytes(rng.randrange(256)
                                               for _ in range(rng.randrange(3)))
            data = data[:at] + junk + data[at:]
        else:
            data = b"\n".join(lines)
    return data


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["gen-synthetic", "--out", str(root), "--count", "16",
                 "--seed", "21"]) == 0
    ckpt = root / "model.json"
    assert main(["train", "--train", str(root / "corpus.tsv"),
                 "--parses", str(root / "graphs.tsv"),
                 "--encoder", "rnn", "--out", str(ckpt), "--epochs", "1",
                 "--embed-dim", "4", "--hidden-size", "4", "--quiet"]) == 0
    return {"corpus": root / "corpus.tsv", "dependency": root / "dependencies.tsv",
            "amr": root / "graphs.tsv", "checkpoint": ckpt,
            "utterances": load_corpus(root / "corpus.tsv")}


def _load_and_use(kind: str, path: Path, inputs):
    """The loader of `kind` on `path`, then what the toolkit does next. A
    parse file's loader is chosen from the file, as the command line does."""
    utts = inputs["utterances"]
    if kind == "corpus":
        load_corpus(path)
    elif kind == "checkpoint":
        evaluate_model(load_checkpoint(path), utts[:2])
    else:
        parses = {p.id: p for p in load_parses(path)}
        check_alignment(parses, utts, path)
        for utt in utts:
            substructures_with_fallback(parses.get(utt.id), len(utt.tokens))


def _mutants(kind: str, inputs, out_dir: Path):
    rng = random.Random(f"fuzz:{kind}")
    data = inputs[kind].read_bytes()
    for i in range(MUTANTS):
        path = out_dir / f"{kind}-{i}{inputs[kind].suffix}"
        path.write_bytes(mutate(data, rng))
        yield path


@pytest.mark.parametrize("kind", ("corpus", "dependency", "amr", "checkpoint"))
def test_mutated_inputs_raise_only_typed_errors(inputs, tmp_path, kind):
    rejected = 0
    for path in _mutants(kind, inputs, tmp_path):
        try:
            _load_and_use(kind, path, inputs)
        except StructagError:
            rejected += 1
        except Exception as exc:  # noqa: BLE001 - any other type is the bug
            pytest.fail(f"{path.name}: {type(exc).__name__}: {exc}")
    # The mutations must bite: most mutants are rejected.
    assert rejected > MUTANTS // 2


@pytest.mark.parametrize("where,value", [
    (("vocab", "tokens", "leave"), 1.5), (("vocab", "tags", "O"), [0]),
    (("vocab", "tokens"), "x"), (("params",), 0), (("params",), "x"),
    (("config", "hidden_size"), 10 ** 30),
    # Each of these equals the index it replaces, so only its type is wrong.
    (("vocab", "tags", "B-from_city"), 1.0), (("vocab", "tokens", "show"), 2.0),
    (("vocab", "tokens", "<pad>"), False), (("vocab", "tokens", "<unk>"), True)], ids=[
    "float-token-id", "list-tag-id", "tokens-not-a-map", "params-int",
    "params-str", "hidden-size-too-large", "whole-float-tag-id",
    "whole-float-token-id", "false-pad-id", "true-unk-id"])
def test_checkpoint_with_mistyped_fields_raises_checkpoint_error(
        inputs, tmp_path, capsys, where, value):
    # Well-formed JSON whose fields have the wrong type or range is as
    # malformed as a truncated file: it must not load, or fail at tagging.
    payload = json.loads(inputs["checkpoint"].read_text())
    node = payload
    for key in where[:-1]:
        node = node[key]
    if isinstance(value, (bool, float)) and value == int(value):
        assert node[where[-1]] == value
    node[where[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    with pytest.raises(CheckpointError, match="malformed checkpoint"):
        load_checkpoint(bad)
    assert main(["eval", "--model", str(bad), "--data", str(inputs["corpus"])]) == 3
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:"), err


@pytest.mark.parametrize("kind", ("dependency", "amr"))
def test_mutated_parse_files_exit_2_with_one_error_line(inputs, tmp_path, capsys, kind):
    # Whichever loader a mutant's first line picks, `eval` either scores
    # the corpus or ends in exit 2 and one `error:` line, its last.
    rejected = 0
    for path in _mutants(kind, inputs, tmp_path):
        code = main(["eval", "--model", str(inputs["checkpoint"]),
                     "--data", str(inputs["corpus"]), "--parses", str(path)])
        err = capsys.readouterr().err.splitlines()
        assert code in (0, 2), (path.name, err)
        if code:
            rejected += 1
            assert [line for line in err if line.startswith("error:")] == err[-1:], (
                path.name, err)
    assert rejected > MUTANTS // 2


def test_mutated_inputs_through_the_cli_exit_cleanly(inputs, tmp_path):
    # One mutant of each file, through the command that reads it.
    corpus, ckpt = str(inputs["corpus"]), str(inputs["checkpoint"])
    mutant = {kind: str(next(_mutants(kind, inputs, tmp_path)))
              for kind in ("corpus", "dependency", "amr", "checkpoint")}
    commands = [
        ["train", "--train", mutant["corpus"], "--out", str(tmp_path / "m.json"),
         "--epochs", "1", "--embed-dim", "4", "--hidden-size", "4", "--quiet"],
        ["inspect-attention", "--model", ckpt, "--data", corpus,
         "--parses", mutant["dependency"]],
        ["eval", "--model", ckpt, "--data", corpus, "--parses", mutant["amr"]],
        ["eval", "--model", mutant["checkpoint"], "--data", corpus],
    ]
    for args in commands:
        proc = _run_cli(args)
        assert proc.returncode in (0, 1, 2, 3), (args, proc.stderr)
        assert "Traceback" not in proc.stderr, (args, proc.stderr)
