"""End-to-end command-line workflows, run in process via main().

The tests of exactly what reaches stderr run `python -m structag.cli` in
a fresh interpreter, where numpy warnings and interpreter-exit messages
show up as a shell user sees them.
"""

import base64
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structag
from structag.cli import _load_train_config, build_parser, main
from structag.model import SlotModel
from structag.trainer import TrainConfig


def _run_cli(args, stdout=subprocess.PIPE) -> subprocess.CompletedProcess:
    src = str(Path(structag.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "structag.cli", *args],
                          stdout=stdout, stderr=subprocess.PIPE, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """A generated corpus plus one small trained checkpoint, shared below."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    assert main(["gen-synthetic", "--out", str(data_dir), "--count", "12",
                 "--seed", "3"]) == 0
    ckpt = root / "model.json"
    code = main(["train",
                 "--train", str(data_dir / "corpus.tsv"),
                 "--parses", str(data_dir / "dependencies.tsv"),
                 "--out", str(ckpt),
                 "--epochs", "2", "--embed-dim", "8", "--hidden-size", "8",
                 "--seed", "5", "--quiet"])
    assert code == 0
    return {"root": root, "data": data_dir, "ckpt": ckpt}


def test_gen_synthetic_reports_files_and_counts(tmp_path, capsys):
    out = tmp_path / "gen"
    assert main(["gen-synthetic", "--out", str(out), "--count", "9",
                 "--ambiguous-fraction", "1.0", "--seed", "11"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["n_utterances"] == 9
    assert payload["n_ambiguous"] == 9
    for path in payload["files"].values():
        lines = (tmp_path / path).read_text().strip()
        assert lines


def test_gen_synthetic_is_byte_deterministic(tmp_path, capsys):
    # The files the command writes are pinned byte for byte, on every run.
    digests = {
        "corpus.tsv": "c486a00d2f11956d0205351fc9d3176ae2290bf585c2b6836fbbbd0377c76c3b",
        "dependencies.tsv": "a36ec11c291398166acf9c8e483edfcd8fea1c5f198a6c520472e0974f5d440e",
        "graphs.tsv": "608a2463671ca31024ab24634961f340f17b3c7f55fab67050a44458656ee66b"}
    for out in (tmp_path / "a", tmp_path / "b"):
        assert main(["gen-synthetic", "--out", str(out), "--count", "40",
                     "--seed", "13"]) == 0
        for name, digest in digests.items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == digest, name
    capsys.readouterr()


def test_train_writes_checkpoint_summary_and_split_manifest(workspace, capsys):
    ckpt, log = workspace["root"] / "again.json", workspace["root"] / "again.jsonl"
    code = main(["train",
                 "--train", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--out", str(ckpt), "--log", str(log),
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs_run"] == 1
    assert [json.loads(line)["epoch"] for line in log.read_text().splitlines()] == [1]
    assert summary["checkpoint"] == str(ckpt)
    assert "best_dev_f1" in summary
    manifest = json.loads((ckpt.parent / (ckpt.name + ".splits.json")).read_text())
    assert len(manifest["train"]) + len(manifest["dev"]) == 12
    assert not set(manifest["train"]) & set(manifest["dev"])


def test_train_fraction_shrinks_training_split(workspace, capsys):
    # The parses align with the whole corpus file, so their block count
    # is checked before the fraction is drawn.
    ckpt = workspace["root"] / "half.json"
    code = main(["train",
                 "--train", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--out", str(ckpt), "--mode", "knowledge", "--encoder", "nn",
                 "--train-fraction", "0.5", "--dev-fraction", "0",
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((ckpt.parent / (ckpt.name + ".splits.json")).read_text())
    assert len(manifest["train"]) == 6  # ceil(12 * 0.5)
    assert manifest["dev"] == []


def test_every_train_flag_lands_in_its_config_field():
    flags = {"mode": "chain", "encoder": "rnn", "cell": "elman", "embed_dim": 7,
             "hidden_size": 9, "alpha": 0.3, "dropout": 0.1, "learning_rate": 0.02,
             "beta1": 0.8, "beta2": 0.99, "epsilon": 1e-6, "epochs": 3, "patience": 4,
             "seed": 99, "dev_fraction": 0.2, "train_fraction": 0.5, "clip_norm": 2.5,
             "max_substructures": 5, "unk_replace_prob": 0.25}
    argv = ["train", "--train", "corpus.tsv", "--freeze-embeddings"]
    for name, value in flags.items():
        argv += ["--" + name.replace("_", "-"), str(value)]
    expected = {**flags, "freeze_embeddings": True}
    fields = {f.name for f in dataclasses.fields(TrainConfig)}
    bare = build_parser().parse_args(argv[:3])
    assert set(vars(bare)) & fields == set(expected)    # no flag left out
    assert _load_train_config(bare) == TrainConfig()
    config = _load_train_config(build_parser().parse_args(argv))
    default = TrainConfig()
    for name in fields:
        assert getattr(config, name) == expected.get(name, getattr(default, name)), name
        assert name not in expected or getattr(default, name) != expected[name], name


_FALLBACK_NOTE = ("note: no parse file given; each utterance falls back to "
                  "a single whole-sentence substructure")
_DEV_FALLBACK_NOTE = ("note: no dev parse file given; each dev utterance falls back to "
                      "a single whole-sentence substructure")
_TRAINING_FALLBACK_NOTE = ("note: no training parse file given; each training utterance "
                           "falls back to a single whole-sentence substructure")


@pytest.fixture(scope="module")
def chain_ckpt(workspace):
    ckpt = workspace["root"] / "chain-model.json"
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--out", str(ckpt), "--mode", "chain", "--epochs", "1",
                 "--embed-dim", "8", "--hidden-size", "8", "--quiet"]) == 0
    return ckpt


@pytest.mark.parametrize("command", ["train", "eval", "inspect-attention"])
@pytest.mark.parametrize("mode", ["joint", "chain"])
def test_knowledge_model_without_parses_notes_fallback(workspace, chain_ckpt, tmp_path,
                                                       capsys, command, mode):
    """Train, eval and inspect-attention each print the fallback note once
    when a knowledge model runs without --parses; a chain model, or a run
    given --parses, prints none. Given --dev, train notes the training set
    and the dev set apart, each once outside chain mode: the training note
    without --parses, the dev note without --dev-parses."""
    data = str(workspace["data"] / "corpus.tsv")
    if command == "train":
        args = ["train", "--train", data, "--out", str(tmp_path / "m.json"), "--mode", mode,
                "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8", "--quiet"]
    else:
        model = workspace["ckpt"] if mode == "joint" else chain_ckpt
        args = [command, "--model", str(model), "--data", data]
        if command == "inspect-attention":
            args += ["--ids", "u0000"]
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().err.splitlines().count(_FALLBACK_NOTE) == (mode != "chain")
    deps = str(workspace["data"] / "dependencies.tsv")
    assert main([*args, "--parses", deps]) == 0
    err = capsys.readouterr().err.splitlines()
    assert _FALLBACK_NOTE not in err and _DEV_FALLBACK_NOTE not in err
    if command == "train":
        dev = [*args, "--parses", deps, "--dev", data]
        assert main(dev) == 0
        err = capsys.readouterr().err.splitlines()
        assert err.count(_DEV_FALLBACK_NOTE) == (mode != "chain")
        assert _FALLBACK_NOTE not in err
        assert main([*dev, "--dev-parses", deps]) == 0
        assert _DEV_FALLBACK_NOTE not in capsys.readouterr().err
        for dev_parses, notes in (([], [_TRAINING_FALLBACK_NOTE, _DEV_FALLBACK_NOTE]),
                                  (["--dev-parses", deps], [_TRAINING_FALLBACK_NOTE])):
            assert main([*args, "--dev", data, *dev_parses]) == 0
            err = capsys.readouterr().err.splitlines()
            assert [line for line in err if line.startswith("note: ")] == \
                (notes if mode != "chain" else [])


def test_config_file_with_flag_override(workspace, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"mode": "chain", "epochs": 1, "embed_dim": 8,
                               "hidden_size": 8, "dev_fraction": 0.0}))
    ckpt = tmp_path / "model.json"
    code = main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--config", str(cfg), "--out", str(ckpt),
                 "--epochs", "2", "--quiet"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs_run"] == 2  # flag wins over the config file
    stored = json.loads(ckpt.read_text())["config"]
    assert stored["mode"] == "chain"
    assert stored["epochs"] == 2


def test_eval_json_text_and_report(workspace, tmp_path, capsys):
    # --report holds byte for byte the JSON that eval prints, also when
    # --text prints the table instead.
    report_path = tmp_path / "report.json"
    code = main(["eval", "--model", str(workspace["ckpt"]),
                 "--data", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--report", str(report_path)])
    assert code == 0
    printed = capsys.readouterr().out
    assert set(json.loads(printed)) >= {"precision", "recall", "f1", "types"}
    assert report_path.read_text() == printed

    report_path.unlink()
    code = main(["eval", "--model", str(workspace["ckpt"]),
                 "--data", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--text", "--report", str(report_path)])
    assert code == 0
    assert capsys.readouterr().out.startswith("processed ")
    assert report_path.read_text() == printed


def test_eval_warns_about_unknown_tokens(workspace, tmp_path, capsys):
    corpus = tmp_path / "odd.tsv"
    corpus.write_text("wexford\tB-from_city\nflights\tO\n", encoding="utf-8")
    code = main(["eval", "--model", str(workspace["ckpt"]),
                 "--data", str(corpus)])
    assert code == 0
    captured = capsys.readouterr()
    assert "unknown token" in captured.err
    assert "1/2" in captured.err


def test_inspect_attention_outputs_weights(workspace, tmp_path, capsys):
    out = tmp_path / "attention.json"
    code = main(["inspect-attention", "--model", str(workspace["ckpt"]),
                 "--data", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--ids", "u0000", "u9999", "--out", str(out)])
    assert code == 0
    assert "u9999" in capsys.readouterr().err
    payload = json.loads(out.read_text())
    assert len(payload["records"]) == 1
    record = payload["records"][0]
    assert record["utterance_id"] == "u0000"
    weights = [s["weight"] for s in record["substructures"]]
    assert sum(weights) == pytest.approx(1.0, abs=1e-9)
    assert len(record["token_salience"]) == len(record["tokens"])


def test_inspect_attention_on_chain_model_notes_absence(workspace, tmp_path,
                                                        capsys):
    ckpt = tmp_path / "chain.json"
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--out", str(ckpt), "--mode", "chain", "--dev-fraction", "0",
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"]) == 0
    capsys.readouterr()
    code = main(["inspect-attention", "--model", str(ckpt),
                 "--data", str(workspace["data"] / "corpus.tsv"),
                 "--ids", "u0000"])
    assert code == 0
    captured = capsys.readouterr()
    assert "no attention" in captured.err
    assert json.loads(captured.out) == {"records": []}


def test_inspect_attention_on_chain_model_notes_once(workspace, chain_ckpt, tmp_path,
                                                     capsys):
    # One note for the whole corpus, not one per utterance.
    corpus = _write_blocks(_blocks(workspace["data"] / "corpus.tsv")[:3],
                           tmp_path / "three.tsv")
    assert main(["inspect-attention", "--model", str(chain_ckpt),
                 "--data", str(corpus)]) == 0
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["note: chain model, no attention to inspect"]
    assert json.loads(captured.out) == {"records": []}


def test_stats_reports_substructure_counts(workspace, capsys):
    code = main(["stats",
                 "--parses", str(workspace["data"] / "dependencies.tsv")])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["utterances"] == 12
    assert stats["max_substructures"] >= 1
    assert stats["mean_substructures"] > 0


def test_stats_on_concept_graphs(workspace, capsys):
    code = main(["stats", "--parses", str(workspace["data"] / "graphs.tsv")])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["utterances"] == 12


@pytest.mark.parametrize("kind", ["dependencies", "graphs"])
def test_parse_files_of_either_kind_load_without_a_kind_flag(workspace, tmp_path,
                                                              capsys, kind):
    # The file says which kind it is: train, eval, inspect-attention and
    # stats read a dependency file and a concept-graph file alike. The
    # model goes through a checkpoint: on trees the Elman knowledge tower,
    # whose cell holds the knowledge projection, on graphs the rnn encoder.
    data, parses = workspace["data"], str(workspace["data"] / f"{kind}.tsv")
    ckpt = tmp_path / "model.json"
    config = {"dependencies": ["--mode", "knowledge", "--encoder", "nn", "--cell", "elman"],
              "graphs": ["--encoder", "rnn"]}[kind]
    assert main(["train", "--train", str(data / "corpus.tsv"), "--parses", parses,
                 "--dev", str(data / "corpus.tsv"), "--dev-parses", parses, *config,
                 "--out", str(ckpt), "--epochs", "1", "--embed-dim", "4",
                 "--hidden-size", "4", "--quiet"]) == 0
    scored = ["--model", str(ckpt), "--data", str(data / "corpus.tsv"), "--parses", parses]
    assert main(["eval", *scored]) == 0
    assert main(["inspect-attention", *scored, "--ids", "u0003"]) == 0
    assert main(["stats", "--parses", parses]) == 0
    out = capsys.readouterr().out
    assert '"records"' in out and '"max_substructures"' in out


@pytest.mark.parametrize("command", ["train", "eval", "inspect-attention", "stats"])
def test_parse_kind_flag_is_unknown(workspace, capsys, command):
    data = workspace["data"]
    args = {"train": ["--train", str(data / "corpus.tsv")],
            "stats": []}.get(command, ["--model", str(workspace["ckpt"]),
                                       "--data", str(data / "corpus.tsv")])
    with pytest.raises(SystemExit) as exit_:
        main([command, *args, "--parses", str(data / "graphs.tsv"),
              "--parse-kind", "amr"])
    assert exit_.value.code == 1
    assert "unrecognized arguments: --parse-kind amr" in capsys.readouterr().err


@pytest.mark.parametrize("text,expected", [
    ("# a comment\n\n1\tshow\t0\n2\tme\tx\n", "non-numeric index or head"),
    ("\n# a comment\nnode\tn0\tshow\t1\nroot\tn1\n", "bad root line"),
    ("node\tn0\tshow\t1\nroot\tn0\n\n1\tshow\t0\n", "unknown line kind '1'")])
def test_malformed_parse_file_of_either_kind_exits_2(tmp_path, capsys, text, expected):
    # The first content line picks the loader, which names the fault.
    path = tmp_path / "parses.tsv"
    path.write_text(text, encoding="utf-8")
    assert main(["stats", "--parses", str(path)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error:") and expected in err[0], err


@pytest.mark.parametrize("bound", ["0", "-3"])
def test_stats_rejects_max_substructures_below_one(workspace, capsys, bound):
    code = main(["stats", "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--max-substructures", bound])
    assert code == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "max_substructures" in err


# ---------------------------------------------------------------------------
# failure modes


def test_no_arguments_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main([])
    assert err.value.code == 1


def test_unknown_flag_is_usage_error():
    with pytest.raises(SystemExit) as err:
        main(["train", "--nonsense"])
    assert err.value.code == 1


def test_missing_corpus_file_exits_2(capsys):
    assert main(["train", "--train", "/no/such/corpus.tsv",
                 "--quiet"]) == 2
    assert capsys.readouterr().err == "error: file not found: /no/such/corpus.tsv\n"


def test_missing_parse_file_exits_2(workspace, capsys):
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--parses", "/no/such/parses.tsv", "--epochs", "1",
                 "--embed-dim", "8", "--hidden-size", "8", "--quiet"]) == 2
    assert capsys.readouterr().err == "error: file not found: /no/such/parses.tsv\n"


def _with_bom(path: Path, out: Path, line: int = 1, mark: str = "\ufeff") -> Path:
    """A copy of `path` with `mark`, U+FEFF by default, at the start of its
    `line`-th line."""
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[line - 1] = mark + lines[line - 1]
    out.write_text("\n".join(lines), encoding="utf-8")
    return out


def test_corpus_with_byte_order_mark_trains_the_same_vocabulary(workspace, tmp_path):
    corpus = workspace["data"] / "corpus.tsv"
    vocabularies = []
    for data in (corpus, _with_bom(corpus, tmp_path / "bom.tsv")):
        ckpt = tmp_path / f"{data.stem}-model.json"
        assert main(["train", "--train", str(data), "--out", str(ckpt), "--mode", "chain",
                     "--epochs", "1", "--embed-dim", "4", "--hidden-size", "4",
                     "--quiet"]) == 0
        vocabularies.append(json.loads(ckpt.read_text())["vocab"])
    assert vocabularies[1] == vocabularies[0]
    assert "which" in vocabularies[0]["tokens"]


@pytest.mark.parametrize("kind", ["dependencies", "graphs"])
def test_files_with_byte_order_mark_score_as_without(workspace, tmp_path, capsys, kind):
    # Files saved as "UTF-8 with BOM", the parse file also by a converter
    # that put a comment line first: stats and eval, as JSON and as text,
    # read them as the files themselves.
    data, plain = workspace["data"], workspace["data"] / f"{kind}.tsv"
    bom_corpus = _with_bom(data / "corpus.tsv", tmp_path / "c.tsv")
    printed = []
    for corpus, parses in ((data / "corpus.tsv", plain),
                           (bom_corpus, _with_bom(plain, tmp_path / "p.tsv")),
                           (bom_corpus, _with_bom(plain, tmp_path / "converted.tsv",
                                                  mark="\ufeff# converted\n"))):
        scored = ["--model", str(workspace["ckpt"]), "--data", str(corpus),
                  "--parses", str(parses)]
        assert main(["stats", "--parses", str(parses)]) == 0
        assert main(["eval", *scored]) == 0
        assert main(["eval", *scored, "--text"]) == 0
        printed.append(capsys.readouterr().out)
    assert printed[1] == printed[0] and printed[2] == printed[0]


@pytest.mark.parametrize("name", ["corpus", "dependencies", "graphs", "corpus-cr"])
def test_byte_order_mark_or_carriage_return_inside_exits_2_naming_its_line(
        workspace, tmp_path, capsys, name):
    # A U+FEFF past the start of the file, or a CR not just before an LF
    # (it is no line break), on line 3: one error line names that line.
    name, _, cr = name.partition("-")
    mark, fault = (("\r", "carriage return (CR) inside a line") if cr else
                   ("\ufeff", "byte-order mark (U+FEFF) after the start of the file"))
    data = {"corpus": workspace["data"] / "corpus.tsv",
            "parses": workspace["data"] / "dependencies.tsv"}
    key = "corpus" if name == "corpus" else "parses"
    data[key] = _with_bom(workspace["data"] / f"{name}.tsv", tmp_path / "bad.tsv", line=3,
                          mark=mark)
    assert main(["eval", "--model", str(workspace["ckpt"]), "--data", str(data["corpus"]),
                 "--parses", str(data["parses"])]) == 2
    assert capsys.readouterr().err == f"error: {data[key]}:3: {fault}\n"


def test_empty_corpus_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert main(["train", "--train", str(empty), "--quiet"]) == 2
    assert "empty corpus" in capsys.readouterr().err


@pytest.mark.parametrize("command", ("train-dev", "inspect-attention"))
def test_empty_dev_or_inspected_corpus_exits_2(workspace, tmp_path, capsys,
                                               command):
    # An empty dev set would silently turn off model selection, and an
    # empty inspected corpus would print no records, as if it had none.
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    args = {
        "train-dev": ["train", "--train", str(workspace["data"] / "corpus.tsv"),
                      "--parses", str(workspace["data"] / "dependencies.tsv"),
                      "--dev", str(empty), "--out", str(tmp_path / "model.json"),
                      "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                      "--quiet"],
        "inspect-attention": ["inspect-attention", "--model",
                              str(workspace["ckpt"]), "--data", str(empty)],
    }[command]
    assert main(args) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {empty}: empty corpus"]
    assert not captured.out and not (tmp_path / "model.json").exists()


def test_corrupt_checkpoint_exits_3(workspace, tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{}")
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace["data"] / "corpus.tsv")]) == 3
    assert "error:" in capsys.readouterr().err


def test_non_finite_checkpoint_exits_3(workspace, tmp_path, capsys):
    payload = json.loads(workspace["ckpt"].read_text())
    entry = payload["params"]["embedding"]
    values = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").copy()
    values[3] = np.nan
    entry["data"] = base64.b64encode(values.tobytes()).decode("ascii")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace["data"] / "corpus.tsv")]) == 3
    assert "'embedding'" in capsys.readouterr().err


def test_checkpoint_with_a_parameter_of_the_wrong_shape_exits_3(workspace, tmp_path,
                                                               capsys):
    # The embedding's data read as one flat row: it decodes, but does not fit.
    payload = json.loads(workspace["ckpt"].read_text())
    entry = payload["params"]["embedding"]
    rows, cols = entry["shape"]
    entry["shape"] = [rows * cols]
    bad = tmp_path / "flat.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace["data"] / "corpus.tsv")]) == 3
    assert capsys.readouterr().err == (
        f"error: {bad}: parameter 'embedding' has shape ({rows * cols},), "
        f"expected ({rows}, {cols})\n")


def test_checkpoint_without_unknown_token_exits_3(workspace, tmp_path, capsys):
    # A consistent file otherwise: the vocabulary reindexed without <unk>,
    # the embedding one row shorter.
    payload = json.loads(workspace["ckpt"].read_text())
    tokens = sorted(payload["vocab"]["tokens"], key=payload["vocab"]["tokens"].get)
    tokens.remove("<unk>")
    payload["vocab"]["tokens"] = {t: i for i, t in enumerate(tokens)}
    entry = payload["params"]["embedding"]
    rows = np.frombuffer(base64.b64decode(entry["data"]), dtype="<f8").reshape(
        entry["shape"])
    entry["shape"] = [len(tokens), rows.shape[1]]
    entry["data"] = base64.b64encode(np.delete(rows, 1, axis=0).tobytes()).decode("ascii")
    bad = tmp_path / "no-unk.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace["data"] / "corpus.tsv")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "<unk>" in lines[0]


def test_checkpoint_with_empty_tag_index_exits_3(workspace, tmp_path, capsys):
    # A consistent file otherwise: the output layer has no tag columns.
    payload = json.loads(workspace["ckpt"].read_text())
    payload["vocab"]["tags"] = {}
    for name in ("tagger.out_weight", "tagger.out_bias"):
        entry = payload["params"][name]
        entry["shape"], entry["data"] = entry["shape"][:-1] + [0], ""
    bad = tmp_path / "no-tags.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace["data"] / "corpus.tsv")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "tags" in lines[0]


@pytest.mark.parametrize("flag", ["train --out", "train --train", "train --dev",
                                  "train --config", "train --parses", "eval --data",
                                  "train --parses chain", "eval --report",
                                  "eval --parses", "inspect-attention --parses",
                                  "stats --parses", "gen-synthetic --out"])
def test_path_of_the_wrong_kind_exits_2_naming_it(workspace, tmp_path, capsys, flag):
    # A directory where a file is wanted, or for gen-synthetic's output
    # directory an existing file: one error line naming the path, which
    # exists, so it is not reported as missing. train checks --parses in
    # every mode; a third word in `flag` names the mode.
    corpus = str(workspace["data"] / "corpus.tsv")
    command, option, *mode = flag.split()
    path = str(workspace["ckpt"] if command == "gen-synthetic" else tmp_path)
    mode = mode[0] if mode else "knowledge" if option == "--parses" else "chain"
    args = {
        "train": ["train", "--train", corpus, "--out", str(tmp_path / "m.json"),
                  "--epochs", "1", "--embed-dim", "4", "--hidden-size", "4",
                  "--mode", mode, "--quiet"],
        "eval": ["eval", "--model", str(workspace["ckpt"]), "--data", corpus],
        "inspect-attention": ["inspect-attention", "--model", str(workspace["ckpt"]),
                              "--data", corpus],
        "stats": ["stats"],
        "gen-synthetic": ["gen-synthetic", "--count", "2"],
    }[command]
    capsys.readouterr()
    assert main(args + [option, path]) == 2
    # eval also warns about unknown tokens and notes that it runs without parses
    err = capsys.readouterr().err
    lines = [ln for ln in err.splitlines() if not ln.startswith(("warning:", "note:"))]
    reason = "File exists" if command == "gen-synthetic" else "Is a directory"
    assert lines == [f"error: {reason}: {path}"]


@pytest.mark.parametrize("command, flag", [
    ("train", "--train"), ("train", "--dev"), ("train", "--parses"),
    ("train", "--dev-parses"), ("train", "--config"), ("train", "--out"),
    ("train", "--log"), ("eval", "--model"), ("eval", "--data"), ("eval", "--parses"),
    ("eval", "--report"), ("inspect-attention", "--model"),
    ("inspect-attention", "--data"), ("inspect-attention", "--parses"),
    ("inspect-attention", "--out"), ("gen-synthetic", "--out"), ("stats", "--parses")])
def test_empty_path_is_a_usage_error_naming_the_flag(workspace, tmp_path, monkeypatch,
                                                     capsys, command, flag):
    # "" is the working directory to some calls and false to `if args.x:`,
    # so it would be misread or ignored. It exits 1 before anything is
    # read or written, in the working directory or anywhere else.
    cwd, out = tmp_path / "cwd", tmp_path / "out"
    cwd.mkdir(), out.mkdir()
    monkeypatch.chdir(cwd)
    corpus, ckpt = str(workspace["data"] / "corpus.tsv"), str(workspace["ckpt"])
    args = {
        "train": ["train", "--train", corpus, "--out", str(out / "m.json"),
                  "--mode", "chain", "--epochs", "1", "--embed-dim", "4",
                  "--hidden-size", "4", "--quiet"],
        "eval": ["eval", "--model", ckpt, "--data", corpus],
        "inspect-attention": ["inspect-attention", "--model", ckpt, "--data", corpus,
                              "--ids", "u0000"],
        "gen-synthetic": ["gen-synthetic", "--out", str(out), "--count", "2"],
        "stats": ["stats", "--parses", str(workspace["data"] / "dependencies.tsv")],
    }[command]
    if flag in args:
        args[args.index(flag) + 1] = ""
    else:
        args += [flag, ""]
    capsys.readouterr()
    with pytest.raises(SystemExit) as err:
        main(args)
    assert err.value.code == 1
    captured = capsys.readouterr()
    assert not captured.out
    assert captured.err.splitlines()[-1] == (
        f"structag {command}: error: argument {flag}: "
        "expected a path, got an empty string")
    assert not any(cwd.iterdir()) and not any(out.iterdir())


@pytest.mark.parametrize("where", ("a directory", "under a missing directory",
                                   "under a file", "a directory at its manifest"))
def test_unwritable_out_exits_2_before_training(workspace, tmp_path, capsys, where):
    # Found before the first epoch, so the log that training opens is
    # never created, no progress line is printed and no checkpoint is
    # left without its split manifest.
    (tmp_path / "file").write_text("")
    (tmp_path / "m.json.splits.json").mkdir()
    out, named, reason = {
        "a directory": (tmp_path, tmp_path, "Is a directory"),
        "under a missing directory": (tmp_path / "missing" / "m.json",) * 2 + ("file not found",),
        "under a file": (tmp_path / "file" / "m.json",) * 2 + ("Not a directory",),
        "a directory at its manifest": (tmp_path / "m.json", tmp_path / "m.json.splits.json",
                                        "Is a directory"),
    }[where]
    log = tmp_path / "train.jsonl"
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--out", str(out), "--log", str(log), "--mode", "chain",
                 "--epochs", "1", "--embed-dim", "4", "--hidden-size", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {reason}: {named}"]
    assert not captured.out and not log.exists() and not out.is_file()
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("command,flag", (("eval", "--report"),
                                          ("inspect-attention", "--out")))
def test_unwritable_output_exits_2_before_tagging(workspace, tmp_path, monkeypatch,
                                                  capsys, command, flag):
    # The output path is checked once the inputs load, so nothing is
    # tagged and nothing is printed on stdout before the error.
    calls = []
    original = SlotModel.tag_utterance
    monkeypatch.setattr(SlotModel, "tag_utterance",
                        lambda self, *a: calls.append(1) or original(self, *a))
    out = tmp_path / "missing" / "out.json"
    assert main([command, "--model", str(workspace["ckpt"]),
                 "--data", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 flag, str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [f"error: file not found: {out}"]
    assert calls == [] and not (tmp_path / "missing").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_failed_training_leaves_out_untouched(workspace, tmp_path, capsys):
    out = tmp_path / "model.json"
    out.write_bytes(workspace["ckpt"].read_bytes())
    before = out.read_bytes(), out.stat().st_mtime_ns
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--out", str(out), "--mode", "joint", "--encoder", "nn",
                 "--cell", "elman", "--embed-dim", "8", "--hidden-size", "8",
                 "--epochs", "2", "--learning-rate", "1e308", "--quiet"]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert (out.read_bytes(), out.stat().st_mtime_ns) == before
    assert sorted(tmp_path.iterdir()) == [out]    # no split manifest either


def test_non_numeric_amr_token_index_exits_2(tmp_path, capsys):
    graphs = tmp_path / "graphs.tsv"
    graphs.write_text("node\tn0\twant\t1\nroot\tn0\n\n"
                      "node\tn0\twant\tx1\nroot\tn0\n")
    assert main(["stats", "--parses", str(graphs)]) == 2
    err = capsys.readouterr().err
    assert "u0001" in err and "x1" in err


def test_invalid_config_value_exits_1(workspace, capsys):
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--dropout", "1.0", "--quiet"]) == 1
    assert "dropout" in capsys.readouterr().err


OUT_OF_RANGE = [("epsilon", 0), ("beta1", 1.5), ("beta2", 1.0),
                ("clip_norm", float("nan")), ("dev_fraction", 7.0),
                ("train_fraction", 1.5)]


@pytest.mark.parametrize("field,value", OUT_OF_RANGE)
def test_out_of_range_config_file_exits_1_naming_it(workspace, tmp_path, capsys,
                                                    field, value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({field: value}))
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--config", str(cfg), "--out", str(tmp_path / "model.json"),
                 "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert field in lines[0]


@pytest.mark.parametrize("field,value", OUT_OF_RANGE)
def test_checkpoint_with_out_of_range_setting_exits_3(workspace, tmp_path, capsys,
                                                      field, value):
    payload = json.loads(workspace["ckpt"].read_text())
    payload["config"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace["data"] / "corpus.tsv")]) == 3
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert field in lines[0]


def test_unknown_config_field_exits_1(workspace, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"optimizer": "sgd"}))
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--config", str(cfg), "--quiet"]) == 1
    assert "unknown config fields" in capsys.readouterr().err
    # A config that is JSON but not an object is named by its type.
    for data, kind in (([{}], "an array"), (5, "5"), ([1], "an array"),
                       (None, "null"), ("abc", "a string")):
        cfg.write_text(json.dumps(data))
        assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                     "--config", str(cfg), "--quiet"]) == 1
        assert capsys.readouterr().err.splitlines() == [
            f"error: config must be a JSON object, got {kind}"], data


def test_checkpoint_whose_config_is_not_an_object_exits_3(workspace, tmp_path, capsys):
    payload = json.loads(workspace["ckpt"].read_text())
    payload["config"] = [1]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(payload))
    assert main(["eval", "--model", str(bad),
                 "--data", str(workspace["data"] / "corpus.tsv")]) == 3
    assert capsys.readouterr().err.splitlines() == [
        f"error: {bad}: malformed checkpoint: config must be a JSON object, got an array"]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
def test_diverged_training_exits_1_without_traceback(tmp_path, capsys):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--count", "20"]) == 0
    proc = _run_cli(["train", "--train", str(data / "corpus.tsv"),
                     "--parses", str(data / "dependencies.tsv"),
                     "--out", str(tmp_path / "model.json"),
                     "--mode", "joint", "--encoder", "nn", "--cell", "elman",
                     "--embed-dim", "8", "--hidden-size", "8", "--epochs", "2",
                     "--learning-rate", "1e308", "--quiet"])
    assert proc.returncode == 1
    # One error line: no traceback and no numpy overflow warnings. The
    # first update moves parameters by about the learning rate; the next
    # forward pass overflows and the non-finite loss check stops it.
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: loss became non-finite at epoch 1, ")


def test_infinite_step_size_exits_1_naming_the_parameter(tmp_path):
    # At beta1 0.999999 the first step size lr*sqrt(1-b2)/(1-b1) is
    # infinite at lr 1e308, so the first update is refused by the optimizer.
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--count", "20"]) == 0
    proc = _run_cli(["train", "--train", str(data / "corpus.tsv"),
                     "--out", str(tmp_path / "model.json"), "--mode", "chain",
                     "--embed-dim", "8", "--hidden-size", "8", "--epochs", "1",
                     "--learning-rate", "1e308", "--beta1", "0.999999", "--quiet"])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: non-finite update for parameter ")
    assert not (tmp_path / "model.json").exists()


@pytest.mark.parametrize("rate", ("1e100", "1e300"))
def test_overflowing_training_prints_one_error_line(tmp_path, rate):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--count", "20"]) == 0
    proc = _run_cli(["train", "--train", str(data / "corpus.tsv"),
                     "--parses", str(data / "dependencies.tsv"),
                     "--out", str(tmp_path / "model.json"),
                     "--mode", "joint", "--encoder", "nn", "--cell", "elman",
                     "--embed-dim", "8", "--hidden-size", "8", "--epochs", "2",
                     "--learning-rate", rate, "--quiet"])
    assert proc.returncode == 1
    # The forward pass overflows; only the non-finite loss check speaks.
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: loss became non-finite")


@pytest.mark.parametrize("hidden_size", ["100000000000000000", str(10 ** 30)])
def test_unallocatable_model_size_exits_1(workspace, tmp_path, hidden_size):
    # A (hidden_size, 4) tower weight: 3.2e18 bytes, refused at once with
    # a MemoryError, or a dimension numpy rejects with a ValueError.
    proc = _run_cli(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                     "--out", str(tmp_path / "model.json"), "--mode", "chain",
                     "--embed-dim", "4", "--hidden-size", hidden_size,
                     "--epochs", "1", "--quiet"])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: cannot build a model of this size")


def test_non_finite_learning_rate_exits_1_naming_it(workspace, capsys):
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--learning-rate", "nan", "--epochs", "1", "--embed-dim", "8",
                 "--hidden-size", "8", "--quiet"]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "learning_rate" in lines[0]


def test_parse_longer_than_utterance_exits_2_naming_it(tmp_path, capsys):
    corpus = tmp_path / "corpus.tsv"
    corpus.write_text("flights\tO\nto\tO\nboston\tB-to_city\n", encoding="utf-8")
    parses = tmp_path / "dependencies.tsv"
    parses.write_text("1\tflights\t0\n2\tto\t5\n3\tboston\t5\n"
                      "4\ton\t5\n5\tmonday\t1\n", encoding="utf-8")
    assert main(["train", "--train", str(corpus), "--parses", str(parses),
                 "--out", str(tmp_path / "model.json"), "--dev-fraction", "0",
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "u0000" in lines[0]


def test_closed_stdout_ends_quietly(workspace):
    # The read end is closed before the command starts, so its first
    # write fails, as in `structag stats ... | head -1` once head exits.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _run_cli(["stats", "--parses",
                         str(workspace["data"] / "dependencies.tsv")],
                        stdout=write_end)
    finally:
        os.close(write_end)
    assert proc.returncode == 0
    assert "Traceback" not in proc.stderr and "BrokenPipeError" not in proc.stderr


def test_dev_parses_without_dev_exits_1(workspace, capsys):
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--dev-parses", str(workspace["data"] / "dependencies.tsv"),
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"]) == 1
    err = capsys.readouterr().err
    assert "--dev-parses" in err and "--dev " in err


@pytest.mark.parametrize("field,value", [("learning_rate", "0.01"),
                                         ("embed_dim", 8.5)])
def test_mistyped_config_field_exits_1_naming_it(workspace, tmp_path, field,
                                                 value):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({field: value}))
    proc = _run_cli(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                     "--config", str(cfg), "--out", str(tmp_path / "model.json"),
                     "--epochs", "1", "--quiet"])
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), proc.stderr
    assert field in lines[0]


def test_config_file_not_utf8_exits_1(workspace, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_bytes(b'{"epochs": 1\xff}')
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--config", str(cfg), "--out", str(tmp_path / "model.json"),
                 "--quiet"]) == 1
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {cfg}: invalid JSON")


def _blocks(path: Path) -> list[str]:
    return path.read_text(encoding="utf-8").strip().split("\n\n")


def _write_blocks(blocks: list[str], out: Path) -> Path:
    out.write_text("\n\n".join(blocks) + "\n", encoding="utf-8")
    return out


def _drop_last_block(path: Path, out: Path) -> Path:
    return _write_blocks(_blocks(path)[:-1], out)


@pytest.mark.parametrize("command", ("train", "train-chain", "train-dev", "eval",
                                     "inspect-attention"))
def test_parse_file_missing_a_block_exits_2(workspace, tmp_path, capsys,
                                            command):
    # train checks --parses against the corpus in chain mode too, which
    # reads no parse.
    data = workspace["data"]
    short = _drop_last_block(data / "dependencies.tsv", tmp_path / "short.tsv")
    corpus = str(data / "corpus.tsv")
    args = {
        "train": ["train", "--train", corpus, "--parses", str(short)],
        "train-chain": ["train", "--train", corpus, "--parses", str(short),
                        "--mode", "chain"],
        "train-dev": ["train", "--train", corpus, "--dev", corpus,
                      "--parses", str(data / "dependencies.tsv"),
                      "--dev-parses", str(short)],
        "eval": ["eval", "--model", str(workspace["ckpt"]), "--data", corpus,
                 "--parses", str(short)],
        "inspect-attention": ["inspect-attention", "--model",
                              str(workspace["ckpt"]), "--data", corpus,
                              "--parses", str(short)],
    }[command]
    if command.startswith("train"):
        args += ["--out", str(tmp_path / "model.json"), "--epochs", "1",
                 "--embed-dim", "8", "--hidden-size", "8", "--quiet"]
    assert main(args) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert str(short) in lines[0] and "11 parse blocks" in lines[0]
    assert "12 utterances" in lines[0]
    assert not captured.out



def _inspect(workspace, parses: Path, utt_id: str) -> list:
    return ["inspect-attention", "--model", str(workspace["ckpt"]),
            "--data", str(workspace["data"] / "corpus.tsv"),
            "--parses", str(parses), "--ids", utt_id]


@pytest.mark.parametrize("same_length", (False, True))
def test_dependency_blocks_out_of_order_exit_2(workspace, tmp_path, capsys,
                                               same_length):
    # Blocks align to utterances by order, so a swapped block is another
    # sentence's tree, of another length or of the same one. Either is
    # an error before anything is tagged, not paths from the wrong words.
    blocks = _blocks(workspace["data"] / "dependencies.tsv")
    size = [len(b.splitlines()) for b in blocks]
    j = next(j for j in range(2, len(blocks))
             if (size[j] == size[1]) == same_length and blocks[j] != blocks[1])
    blocks[1], blocks[j] = blocks[j], blocks[1]
    swapped = _write_blocks(blocks, tmp_path / "swapped.tsv")
    assert main(_inspect(workspace, swapped, "u0001")) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err
    assert str(swapped) in lines[0] and "utterance u0001" in lines[0]
    if same_length:
        assert "token " in lines[0] and "but its parse node is" in lines[0]
    else:
        assert f"{size[j]} parse nodes for {size[1]} tokens" in lines[0]
    assert not captured.out


def test_concept_graph_aligned_past_its_utterance_exits_2(workspace, tmp_path,
                                                          capsys):
    # The bad block is the last one; the check runs before tagging, so
    # inspecting only the first utterance still reports it.
    blocks = _blocks(workspace["data"] / "graphs.tsv")
    lines = blocks[-1].splitlines()
    k = next(i for i, line in enumerate(lines)
             if line.startswith("node\t") and not line.endswith("\t-"))
    cols = lines[k].split("\t")
    lines[k] = "\t".join(cols[:3] + ["99"])
    blocks[-1] = "\n".join(lines)
    bad = _write_blocks(blocks, tmp_path / "graphs.tsv")
    assert main(_inspect(workspace, bad, "u0000")) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and str(bad) in err[0]
    assert f"utterance u{len(blocks) - 1:04d}" in err[0]
    assert f"node {cols[1]!r} is aligned to token 99 of" in err[0]


def test_generated_concept_graphs_pass_the_alignment_check(workspace, capsys):
    assert main(_inspect(workspace, workspace["data"] / "graphs.tsv", "u0003")) == 0
    assert json.loads(capsys.readouterr().out)["records"]
