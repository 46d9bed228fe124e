"""Fast self-test of the benchmark at toy size (a few seconds).

    python3 -m pytest -q bench/test_bench.py

It checks the printed metric names and units against BENCHMARK.json, the
output checks, that the deterministic counts repeat exactly, and that
they equal counts computed here from the inputs alone.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from structag import model as model_mod  # noqa: E402
from structag.knowledge import substructures_with_fallback  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = list(workloads.WORKLOADS)
SECONDS = 0.3
SEED = 3


def tiny_run(name: str, trace: bool, work_root: Path) -> harness.Outcome:
    w = workloads.tiny(workloads.WORKLOADS[name])
    return harness.run_workload(w, SEED, SECONDS, trace, work_root, "self-test")


def failing(outcome: harness.Outcome) -> list:
    return [(d, detail) for d, ok, detail in outcome.checks if not ok]


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """Two traced runs of each workload sharing one state directory."""
    root = tmp_path_factory.mktemp("traced")
    return {name: (tiny_run(name, True, root), tiny_run(name, True, root))
            for name in NAMES}


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == NAMES


@pytest.mark.parametrize("name", NAMES)
def test_end_to_end_metrics_and_checks(name, tmp_path):
    out = tiny_run(name, False, tmp_path)
    assert not failing(out)
    assert out.attempted >= 1 and out.failed == 0
    assert {k: u for k, (_, u) in out.metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    for key, (value, _) in out.metrics.items():
        assert value > 0, key
    line = json.loads(out.result_line())
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


@pytest.mark.parametrize("name", NAMES)
def test_traced_run_repeats_exactly(name, traced):
    first, second = traced[name]
    assert not failing(first) and not failing(second)
    assert {k: u for k, (_, u) in first.metrics.items()} == {
        m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert first.notes["counts"] == second.notes["counts"]
    counts = [k for k, (_, unit) in first.metrics.items()
              if unit.startswith(("count", "bytes"))]
    assert counts
    for key in counts:
        assert first.metrics[key] == second.metrics[key], key
    record = dict((d, detail) for d, _, detail in second.checks)
    assert record["deterministic counts match earlier runs"].startswith("compared")


def test_bypassed_layers_read_zero(traced):
    chain = traced["train-chain-elman"][0].metrics
    for key, (value, _) in chain.items():
        if key.startswith(("encoders.", "attention.")) or key == "knowledge.extract_ms":
            assert value == 0.0, key
    assert chain["autodiff.backward_ms"][0] > 0
    tag = traced["tag-joint-cnn-gru-graphs"][0].metrics
    assert tag["autodiff.backward_ms"][0] == 0.0
    assert tag["trainer.adam_ms"][0] == 0.0
    assert tag["model.nodes.cross_entropy"][0] == 0.0
    assert tag["encoders.self_ms"][0] > 0 and tag["trainer.ckpt_bytes"][0] > 0


def test_tag_counts_match_the_inputs(traced, tmp_path):
    """Per-utterance counts of a tagging pass, recomputed from the corpus."""
    w = workloads.tiny(workloads.WORKLOADS["tag-joint-cnn-gru-graphs"])
    prep = workloads.set_up(w, SEED, tmp_path)
    subs = [substructures_with_fallback(prep.tag_parses.get(u.id), len(u.tokens),
                                        w.train_config().max_substructures)
            for u in prep.tag_utts]
    # two-token cities give the corpus I- tags for the IOB check to test
    assert any(t.startswith("I-") for u in prep.tag_utts for t in u.tags)
    n = len(prep.tag_utts)
    tokens = sum(len(u.tokens) for u in prep.tag_utts)
    n_subs = sum(len(s) for s in subs)
    sub_tokens = sum(len(x.positions) for s in subs for x in s)
    expected = {
        "knowledge.subs": n_subs / n,
        "knowledge.sub_tokens": sub_tokens / n,
        "attention.memory_rows": n_subs / n,
        "encoders.calls": (n_subs + n) / n,
        "encoders.tokens": (sub_tokens + tokens) / n,
        "tagger.steps": 2 * tokens / n,
    }
    got = traced["tag-joint-cnn-gru-graphs"][0].metrics
    assert {k: got[k][0] for k in expected} == expected


def test_broken_output_fails_the_run(tmp_path, monkeypatch):
    original = model_mod.SlotModel.tag_utterance

    def invalid_iob(self, utt, parse):
        tags, record = original(self, utt, parse)
        return ["I-bogus"] + tags[1:], record      # I- right after the start

    monkeypatch.setattr(model_mod.SlotModel, "tag_utterance", invalid_iob)
    out = tiny_run("train-chain-elman", False, tmp_path)
    assert [d for d, _ in failing(out)] == [
        "predictions have input length and valid IOB"]
    assert not out.correct


def test_failed_run_stores_no_count_record(tmp_path):
    ok, detail = harness._record_check(tmp_path, "k", {"a": 1}, store=False)
    assert ok and not (tmp_path / "k.json").exists()
    harness._record_check(tmp_path, "k", {"a": 1}, store=True)
    assert harness._record_check(tmp_path, "k", {"a": 2}, store=True)[0] is False


def test_cli_prints_result_and_exit_code(monkeypatch, capsys):
    name = "train-chain-elman"
    monkeypatch.setitem(workloads.WORKLOADS, name,
                        workloads.tiny(workloads.WORKLOADS[name]))
    code = run.main(["--workload", name, "--seed", "2", "--seconds", "0.2"])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] is True
    assert [ln.split()[0] for ln in lines[1:10]] == [
        m["name"] for m in SPEC["end_to_end"]]
    assert lines[10].startswith("ops_attempted") and lines[11].startswith("ops_failed")


def test_cli_fails_without_the_package(tmp_path):
    (tmp_path / "bench").mkdir()
    for path in BENCH.glob("*.py"):
        (tmp_path / "bench" / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "train-chain-elman",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_latency_percentiles_are_over_utterances():
    # every pass has one pause, on a different utterance each time
    passes = [workloads.TagPass(1.0, [0.001 * (i + 1) + (0.05 if i == k else 0.0)
                                      for i in range(40)], [], 0.0)
              for k in range(3)]
    phase = harness.Phase(setup_seconds=[1.0], setup_scales=[1.0], tag_passes=passes)
    t = harness.timings(phase, calibrated=False)
    assert t["tag_ms_p50"] == pytest.approx(20.5)
    assert t["tag_ms_p95"] == pytest.approx(
        1000 * statistics.quantiles([0.001 * (i + 1) for i in range(40)], n=20)[-1])
