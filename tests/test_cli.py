"""End-to-end command-line workflows, run in process via main().

The tests of exactly what reaches stderr run `python -m structag.cli` in
a fresh interpreter, where numpy warnings and interpreter-exit messages
show up as a shell user sees them.
"""

import base64
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import structag
from structag.cli import main


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
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["gen-synthetic", "--out", str(a), "--count", "14",
                 "--seed", "21"]) == 0
    assert main(["gen-synthetic", "--out", str(b), "--count", "14",
                 "--seed", "21"]) == 0
    capsys.readouterr()
    for name in ("corpus.tsv", "dependencies.tsv", "graphs.tsv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_train_writes_checkpoint_summary_and_split_manifest(workspace, capsys):
    ckpt = workspace["root"] / "again.json"
    code = main(["train",
                 "--train", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--out", str(ckpt),
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["epochs_run"] == 1
    assert summary["checkpoint"] == str(ckpt)
    assert "best_dev_f1" in summary
    manifest = json.loads((ckpt.parent / (ckpt.name + ".splits.json")).read_text())
    assert len(manifest["train"]) + len(manifest["dev"]) == 12
    assert not set(manifest["train"]) & set(manifest["dev"])


def test_train_fraction_shrinks_training_split(workspace, capsys):
    ckpt = workspace["root"] / "half.json"
    code = main(["train",
                 "--train", str(workspace["data"] / "corpus.tsv"),
                 "--out", str(ckpt), "--mode", "chain",
                 "--train-fraction", "0.5", "--dev-fraction", "0",
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"])
    assert code == 0
    capsys.readouterr()
    manifest = json.loads((ckpt.parent / (ckpt.name + ".splits.json")).read_text())
    assert len(manifest["train"]) == 6  # ceil(12 * 0.5)
    assert manifest["dev"] == []


def test_train_without_parses_notes_fallback(workspace, capsys):
    ckpt = workspace["root"] / "noparse.json"
    code = main(["train",
                 "--train", str(workspace["data"] / "corpus.tsv"),
                 "--out", str(ckpt),
                 "--epochs", "1", "--embed-dim", "8", "--hidden-size", "8",
                 "--quiet"])
    assert code == 0
    captured = capsys.readouterr()
    assert "whole-sentence substructure" in captured.err


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
    report_path = tmp_path / "report.json"
    code = main(["eval", "--model", str(workspace["ckpt"]),
                 "--data", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--report", str(report_path)])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report) >= {"precision", "recall", "f1", "types"}
    assert json.loads(report_path.read_text()) == report

    code = main(["eval", "--model", str(workspace["ckpt"]),
                 "--data", str(workspace["data"] / "corpus.tsv"),
                 "--parses", str(workspace["data"] / "dependencies.tsv"),
                 "--text"])
    assert code == 0
    assert capsys.readouterr().out.startswith("processed ")


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


def test_stats_reports_substructure_counts(workspace, capsys):
    code = main(["stats",
                 "--parses", str(workspace["data"] / "dependencies.tsv")])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["utterances"] == 12
    assert stats["max_substructures"] >= 1
    assert stats["mean_substructures"] > 0


def test_stats_on_concept_graphs(workspace, capsys):
    code = main(["stats", "--parses", str(workspace["data"] / "graphs.tsv"),
                 "--parse-kind", "amr"])
    assert code == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["utterances"] == 12


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
    assert "error:" in capsys.readouterr().err


def test_missing_parse_file_exits_2(workspace, capsys):
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--parses", "/no/such/parses.tsv", "--epochs", "1",
                 "--embed-dim", "8", "--hidden-size", "8", "--quiet"]) == 2
    assert "parse file not found" in capsys.readouterr().err


def test_empty_corpus_exits_2(tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    assert main(["train", "--train", str(empty), "--quiet"]) == 2
    assert "empty corpus" in capsys.readouterr().err


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


def test_non_numeric_amr_token_index_exits_2(tmp_path, capsys):
    graphs = tmp_path / "graphs.tsv"
    graphs.write_text("node\tn0\twant\t1\nroot\tn0\n\n"
                      "node\tn0\twant\tx1\nroot\tn0\n")
    assert main(["stats", "--parses", str(graphs), "--parse-kind", "amr"]) == 2
    err = capsys.readouterr().err
    assert "u0001" in err and "x1" in err


def test_invalid_config_value_exits_1(workspace, capsys):
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--dropout", "1.0", "--quiet"]) == 1
    assert "dropout" in capsys.readouterr().err


def test_unknown_config_field_exits_1(workspace, tmp_path, capsys):
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({"optimizer": "sgd"}))
    assert main(["train", "--train", str(workspace["data"] / "corpus.tsv"),
                 "--config", str(cfg), "--quiet"]) == 1
    assert "unknown config fields" in capsys.readouterr().err


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
    # One error line: no traceback and no numpy overflow warnings.
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: non-finite update for parameter")


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
