"""Runs one workload and turns its phases into metrics and output checks.

`run_workload` with trace off measures the end-to-end metrics. With
trace on it runs the same workload twice in one process, first untraced
and then under `spans.Tracer`, and reports the per-layer metrics, the
tracing overhead, and whether both halves gave bitwise-equal results.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from structag.corpus import validate_iob

from spans import LAYERS, Totals, Tracer
from workloads import Prepared, Workload, set_up, tag_pass, train_once

END_TO_END = {
    "setup_s": "s",
    "train_utt_per_s": "1/s",
    "train_loss": "nats",
    "dev_f1": "%",
    "tag_utt_per_s": "1/s",
    "tag_ms_p50": "ms",
    "tag_ms_p95": "ms",
    "tag_f1": "%",
    "peak_rss_mb": "MB",
}

# Ops the graph of a src/ model can contain, reported per utterance.
GRAPH_OPS = ("leaf", "take_rows", "row", "matmul", "add", "add_rows", "mul",
             "affine", "tanh", "sigmoid", "softmax", "stack_rows", "hstack",
             "slice_rows", "pad_rows", "max_over_rows", "mean_over_rows",
             "dropout", "cross_entropy")

PER_LAYER = {
    "synthetic.generate_s": "s",
    "corpus.load_s": "s",
    "corpus.vocab_tokens": "count",
    "corpus.self_ms": "ms/utt",
    "knowledge.load_s": "s",
    "knowledge.extract_ms": "ms/utt",
    "knowledge.subs": "count/utt",
    "knowledge.sub_tokens": "count/utt",
    "knowledge.fallbacks": "count/utt",
    "encoders.self_ms": "ms/utt",
    "encoders.calls": "count/utt",
    "encoders.tokens": "count/utt",
    "attention.self_ms": "ms/utt",
    "attention.memory_rows": "count/utt",
    "tagger.self_ms": "ms/utt",
    "tagger.steps": "count/utt",
    "model.forward_ms": "ms/utt",
    "model.self_ms": "ms/utt",
    "model.graph_nodes": "count/utt",
    "model.matmul_nodes": "count/utt",
    **{f"model.nodes.{op}": "count/utt" for op in GRAPH_OPS},
    "autodiff.backward_ms": "ms/update",
    "trainer.adam_ms": "ms/update",
    "trainer.loop_ms": "ms/update",
    "trainer.param_floats": "count",
    "trainer.dev_eval_s": "s/epoch",
    "trainer.ckpt_save_s": "s",
    "trainer.ckpt_load_s": "s",
    "trainer.ckpt_bytes": "bytes",
    "evaluator.score_ms": "ms/call",
    "trace.hooks_ms": "ms/utt",
    "trace.overhead_pct": "%",
}

# Machine-speed calibration. The shared machines this runs on change
# speed by a third for tens of seconds at a time, which no statistic over
# one 30-second run can remove. So a fixed numpy loop is timed before the
# first step and after every step (set-up, train call, tagging pass), and
# each step's wall time is multiplied by REFERENCE_NOMINAL_S / (mean loop
# time around the step): timings read as seconds on a machine where the
# loop takes 12 ms. The loop uses no structag code, so changes to the
# program cannot move it.
REFERENCE_NOMINAL_S = 0.012
_REFERENCE_RNG = np.random.default_rng(0)
_REFERENCE_MATRIX = _REFERENCE_RNG.standard_normal((100, 100)) / 10
_REFERENCE_GRAD = _REFERENCE_RNG.standard_normal((700, 100))

# Tagging passes per loop step. Train workloads tag twice per train call
# so that each utterance gets enough latency samples in one run.
PASSES_PER_STEP = {"train": 2, "tag": 1}


def reference_seconds() -> float:
    """Fastest of three runs of the calibration loop.

    The loop has two parts, like the program: small matrix-vector
    products, bound by per-call overhead as graph building is, and an
    Adam-style update of a 700 x 100 table, bound by memory as the
    optimizer step is. Timed over many steps on a 2-core VM, the second
    part tracked the speed of train calls and tagging passes better than
    the first did alone.
    """
    best = math.inf
    for _ in range(3):
        x = np.ones(100)
        table = np.zeros_like(_REFERENCE_GRAD)
        m, v = np.zeros_like(table), np.zeros_like(table)
        start = time.perf_counter()
        for _ in range(1000):
            x = np.tanh(_REFERENCE_MATRIX @ x) + 0.5
        for _ in range(20):
            m *= 0.9
            m += 0.1 * _REFERENCE_GRAD
            v *= 0.999
            v += 0.001 * _REFERENCE_GRAD * _REFERENCE_GRAD
            table -= 0.001 * m / (np.sqrt(v) + 1e-8)
        best = min(best, time.perf_counter() - start)
    return best


@dataclass
class Phase:
    """Everything one untraced or traced half of a run produced."""
    setup_seconds: list = field(default_factory=list)
    setup_scales: list = field(default_factory=list)
    prep: Prepared | None = None
    model: object = None
    train_runs: list = field(default_factory=list)
    tag_passes: list = field(default_factory=list)
    # traced only: spans of the first set-up, spans summed per kind of
    # step ("train" calls, "tag" passes), and the counters of each step
    setup_totals: Totals | None = None
    step_totals: dict = field(default_factory=dict)
    step_counts: dict = field(default_factory=dict)


@dataclass
class Outcome:
    metrics: dict                 # name -> (value, unit)
    attempted: int
    failed: int
    checks: list                  # (description, ok, detail)
    notes: dict = field(default_factory=dict)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)

    def result_line(self) -> str:
        return json.dumps({
            "correct": self.correct, "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u}
                        for k, (v, u) in self.metrics.items()}})


# -- phases -----------------------------------------------------------------

def _fresh(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def run_phase(w: Workload, seed: int, budget_s: float, work: Path,
              setup_reps: int, tracer: Tracer | None = None) -> Phase:
    """Set up, then repeat the timed steps for `budget_s` seconds.

    A step is a `train` call followed by two tagging passes for train
    workloads, and one tagging pass for tag workloads. The remaining
    set-ups are spread evenly over the budget. Spreading every kind of
    sample over the whole run keeps a slow stretch of a shared machine
    from hitting one kind of sample only.
    """
    phase = Phase()
    last_reference = [reference_seconds()]

    def calibration() -> float:
        """Scale for the step just finished, from the loop around it."""
        before, last_reference[0] = last_reference[0], reference_seconds()
        return 2 * REFERENCE_NOMINAL_S / (before + last_reference[0])

    def set_up_once():
        start = time.perf_counter()
        prep = set_up(w, seed, _fresh(work / f"setup{len(phase.setup_seconds)}"))
        phase.setup_seconds.append(time.perf_counter() - start)
        phase.setup_scales.append(calibration())
        phase.prep = phase.prep or prep
        if w.kind == "tag":
            for run in prep.train_runs:
                run.scale = phase.setup_scales[-1]
            phase.train_runs.extend(prep.train_runs)
            phase.model = prep.model

    def step(kind, fn):
        before = tracer.totals.copy() if tracer else None
        out = fn()
        out.scale = calibration()
        if tracer:
            delta = tracer.totals.since(before)
            phase.step_totals.setdefault(kind, Totals()).add(delta)
            phase.step_counts.setdefault(kind, []).append(delta.deterministic())
        return out

    def tag_step():
        phase.tag_passes.append(step("tag", lambda: tag_pass(
            phase.model, phase.prep.tag_utts, phase.prep.tag_parses)))

    set_up_once()
    if tracer:
        phase.setup_totals = tracer.totals
        tracer.reset()
    minimum = 2 if tracer else 1   # traced: counts must repeat
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        while (len(phase.setup_seconds) < setup_reps
               and elapsed >= len(phase.setup_seconds) * budget_s / setup_reps):
            set_up_once()
        steps = len(phase.train_runs if w.kind == "train" else phase.tag_passes)
        if elapsed >= budget_s and steps >= minimum:
            break
        if w.kind == "train":
            run = step("train", lambda: train_once(w, phase.prep))
            phase.train_runs.append(run)
            phase.model = phase.model or run.model
            run.model = None      # keep one model, so memory stays flat
        if phase.model is None:
            break
        for _ in range(PASSES_PER_STEP[w.kind]):
            tag_step()
    return phase


# -- metrics and checks -----------------------------------------------------

def _quality(phase: Phase) -> dict:
    """Deterministic results: final loss and dev F1, tag F1."""
    out = {}
    first = phase.train_runs[0].history if phase.train_runs else None
    if first:
        out["train_loss"] = first[-1]["train_loss"]
        out["dev_f1"] = first[-1].get("dev_f1", float("nan"))
    if phase.tag_passes and phase.tag_passes[0].f1 is not None:
        out["tag_f1"] = phase.tag_passes[0].f1
    return out


def _ops(phase: Phase) -> tuple[int, int]:
    attempted = failed = 0
    for run in phase.train_runs:
        attempted += run.updates
        failed += run.updates if run.history is None else 0
    for tp in phase.tag_passes:
        attempted += len(tp.predicted)
        failed += sum(1 for tags in tp.predicted if tags is None)
    return attempted, failed


def _checks(w: Workload, phase: Phase) -> list:
    checks = []
    histories = [r.history for r in phase.train_runs]
    losses = [e["train_loss"] for h in histories if h for e in h]
    checks.append(("every train call finished",
                   bool(histories) and None not in histories,
                   f"{len(histories)} calls"))
    checks.append(("every loss is finite",
                   bool(losses) and all(math.isfinite(x) for x in losses),
                   f"{len(losses)} epoch losses"))
    checks.append(("train calls repeat bitwise",
                   all(h == histories[0] for h in histories), ""))
    if w.kind == "tag":
        checks.append(("checkpoint reload is exact",
                       phase.prep.model is not None
                       and phase.prep.ckpt_roundtrip_exact, ""))
    bad = []
    for tp in phase.tag_passes:
        for utt, tags in zip(phase.prep.tag_utts, tp.predicted):
            if tags is None or len(tags) != len(utt.tokens) or validate_iob(tags):
                bad.append(utt.id)
    inside = sum(1 for tags in phase.tag_passes[0].predicted if tags
                 for t in tags if t.startswith("I-")) if phase.tag_passes else 0
    checks.append(("predictions have input length and valid IOB",
                   bool(phase.tag_passes) and not bad,
                   f"{len(bad)} bad: {sorted(set(bad))[:5]}" if bad else
                   f"{len(phase.tag_passes)} passes, {inside} I- tags per pass"))
    checks.append(("tag passes repeat exactly",
                   all(tp.predicted == phase.tag_passes[0].predicted
                       for tp in phase.tag_passes), ""))
    quality = _quality(phase)
    for key in ("dev_f1", "tag_f1"):
        value = quality.get(key, float("nan"))
        checks.append((f"{key} >= floor {w.f1_floor}",
                       value >= w.f1_floor, f"{value:.4f}"))
    return checks


def timings(phase: Phase, calibrated: bool = True) -> dict:
    """The timing metrics of an untraced phase: medians over set-ups,
    train calls and tagging passes. Latency percentiles are over the
    utterances of the tagged corpus, each taken as the median of its
    times over the passes. Those times leave out collector pauses (see
    `workloads.tag_pass`); the pauses stay in `tag_utt_per_s`, which
    times whole passes."""
    def scale(x) -> float:
        return x.scale if calibrated else 1.0

    runs = [r for r in phase.train_runs if r.history]
    passes = phase.tag_passes
    per_utt = [statistics.median(t * scale(tp) for t, tp in zip(times, passes))
               for times in zip(*(tp.latencies for tp in passes))]
    setup_scales = phase.setup_scales if calibrated else [1.0] * len(phase.setup_scales)
    nan = float("nan")
    return {
        "setup_s": statistics.median(
            s * c for s, c in zip(phase.setup_seconds, setup_scales)),
        "train_utt_per_s": statistics.median(
            r.updates / (r.seconds * scale(r)) for r in runs) if runs else nan,
        "tag_utt_per_s": statistics.median(
            len(tp.latencies) / (tp.seconds * scale(tp)) for tp in passes)
        if passes else nan,
        "tag_ms_p50": 1000 * statistics.median(per_utt) if per_utt else nan,
        "tag_ms_p95": 1000 * statistics.quantiles(per_utt, n=20)[-1]
        if len(per_utt) > 1 else nan,
    }


def end_to_end(phase: Phase) -> dict:
    quality = _quality(phase)
    nan = float("nan")
    values = {
        **timings(phase),
        "train_loss": quality.get("train_loss", nan),
        "dev_f1": quality.get("dev_f1", nan),
        "tag_f1": quality.get("tag_f1", nan),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return {k: (values[k], unit) for k, unit in END_TO_END.items()}


def per_layer(phase: Phase, kind: str, overhead_pct: float) -> dict:
    """Per-layer metrics over the traced steps of one kind ("train" calls
    for train workloads, "tag" passes for tag workloads)."""
    m = phase.step_totals.get(kind, Totals())
    c, incl, self_s, calls = m.counts, m.incl_s, m.self_s, m.calls
    setup_incl = phase.setup_totals.incl_s

    def per(x, n, scale=1.0):
        return scale * x / n if n else 0.0

    utts, updates = c["model.forwards"], c["model.updates"]
    graphs, extractions = c["model.graphs"], c["knowledge.extractions"]
    evals = calls["evaluator.evaluate"] + calls["trainer.evaluate"]
    adam = incl["AdamOptimizer.step"]
    values = {
        "synthetic.generate_s": setup_incl.get("synthetic.generate", 0.0),
        "corpus.load_s": setup_incl.get("corpus.load_corpus", 0.0),
        "corpus.vocab_tokens": phase.model.vocab.n_tokens,
        "corpus.self_ms": per(self_s["corpus"], utts, 1e3),
        "knowledge.load_s": setup_incl.get("knowledge.load_dependency", 0.0)
        + setup_incl.get("knowledge.load_amr", 0.0),
        "knowledge.extract_ms": per(self_s["knowledge"], extractions, 1e3),
        "knowledge.subs": per(c["knowledge.subs"], extractions),
        "knowledge.sub_tokens": per(c["knowledge.sub_tokens"], extractions),
        "knowledge.fallbacks": per(c["knowledge.fallbacks"], extractions),
        "encoders.self_ms": per(self_s["encoders"], utts, 1e3),
        "encoders.calls": per(c["encoders.calls"], utts),
        "encoders.tokens": per(c["encoders.tokens"], utts),
        "attention.self_ms": per(self_s["attention"], utts, 1e3),
        "attention.memory_rows": per(c["attention.memory_rows"], utts),
        "tagger.self_ms": per(self_s["tagger"], utts, 1e3),
        "tagger.steps": per(c["tagger.steps"], utts),
        "model.forward_ms": per(incl["SlotModel.forward"], utts, 1e3),
        "model.self_ms": per(self_s["model"], utts, 1e3),
        "model.graph_nodes": per(c["model.nodes"], graphs),
        "model.matmul_nodes": per(c["model.nodes.matmul"], graphs),
        **{f"model.nodes.{op}": per(c[f"model.nodes.{op}"], graphs)
           for op in GRAPH_OPS},
        "autodiff.backward_ms": per(self_s["autodiff"], updates, 1e3),
        "trainer.adam_ms": per(adam, updates, 1e3),
        "trainer.loop_ms": per(self_s["trainer"] - adam, updates, 1e3),
        "trainer.param_floats": sum(p.value.size for p in phase.model.params().values()),
        "trainer.dev_eval_s": per(incl["trainer.evaluate_model"],
                                  calls["trainer.evaluate_model"]),
        "trainer.ckpt_save_s": setup_incl.get("trainer.save_checkpoint", 0.0),
        "trainer.ckpt_load_s": setup_incl.get("trainer.load_checkpoint", 0.0),
        "trainer.ckpt_bytes": phase.prep.ckpt_bytes,
        "evaluator.score_ms": per(self_s["evaluator"], evals, 1e3),
        "trace.hooks_ms": per(self_s["trace"], utts, 1e3),
        "trace.overhead_pct": overhead_pct,
    }
    return {k: (values[k], unit) for k, unit in PER_LAYER.items()}


def _step_seconds(phase: Phase, kind: str) -> float:
    """Calibrated median seconds per update or per tagging pass."""
    if kind == "train":
        return statistics.median(r.seconds * r.scale / r.updates
                                 for r in phase.train_runs)
    return statistics.median(tp.seconds * tp.scale for tp in phase.tag_passes)


def _repeat_check(step_counts: dict) -> tuple[bool, dict]:
    """Span calls and counters of every train call / tag pass must agree."""
    ok = all(d == logs[0] for logs in step_counts.values() for d in logs)
    return ok, {kind: logs[0] for kind, logs in step_counts.items()}


def _record_check(state_dir: Path, key: str, counts: dict,
                  store: bool) -> tuple[bool, str]:
    """Compare the counts with those an earlier run of the same code
    stored; with no record yet, store them if `store` is set."""
    path = state_dir / f"{key}.json"
    blob = json.loads(json.dumps(counts, sort_keys=True))
    if path.exists():
        stored = json.loads(path.read_text(encoding="utf-8"))
        return stored == blob, f"compared with {path.name}"
    if not store:
        return True, "no record yet; not stored, another check failed"
    state_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(blob, sort_keys=True), encoding="utf-8")
    return True, f"first run, stored {path.name}"


def run_workload(w: Workload, seed: int, seconds: float, trace: bool,
                 work_root: Path, code_digest: str = "") -> Outcome:
    """Run one workload; `work_root` holds its files and is removed after."""
    work = _fresh(work_root / f"run-{os.getpid()}")
    try:
        if not trace:
            phase = run_phase(w, seed, seconds, work, w.setup_reps)
            attempted, failed = _ops(phase)
            notes = {"samples": {
                "setups": len(phase.setup_seconds),
                "train_calls": len(phase.train_runs),
                "tag_passes": len(phase.tag_passes),
                "tag_utterances": len(phase.prep.tag_utts)},
                "uncalibrated": timings(phase, calibrated=False),
                "machine_speed": statistics.median(
                    [x.scale for x in phase.train_runs + phase.tag_passes]),
                "collector_ms_per_pass": statistics.median(
                    [1e3 * tp.collector_s for tp in phase.tag_passes] or [0.0])}
            return Outcome(end_to_end(phase), attempted, failed,
                           _checks(w, phase), notes)
        plain = run_phase(w, seed, seconds / 2, work / "plain", 1)
        tracer = Tracer()
        with tracer:
            traced = run_phase(w, seed, seconds / 2, work / "traced", 1, tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = _checks(w, plain) + [(f"traced: {d}", ok, detail)
                                 for d, ok, detail in _checks(w, traced)]
    q_plain, q_traced = _quality(plain), _quality(traced)
    checks.append(("traced results equal untraced bitwise",
                   q_plain == q_traced and bool(q_plain),
                   json.dumps({"untraced": q_plain, "traced": q_traced})))
    repeat_ok, counts = _repeat_check(traced.step_counts)
    checks.append(("deterministic counts repeat across calls", repeat_ok, ""))
    # The key covers the benchmark's own code too, since it decides what
    # is counted. Only a run whose other checks all pass leaves a record.
    key = hashlib.sha256(f"{code_digest}|{bench_digest()}|{w!r}|{seed}"
                         .encode()).hexdigest()[:20]
    record_ok, detail = _record_check(work_root / "counts", key, counts,
                                      store=all(ok for _, ok, _ in checks))
    checks.append(("deterministic counts match earlier runs", record_ok, detail))

    a1, f1 = _ops(plain)
    a2, f2 = _ops(traced)
    if plain.model is None or traced.model is None:   # training failed
        return Outcome({}, a1 + a2, f1 + f2, checks)
    kind = w.kind
    overhead = 100.0 * (_step_seconds(traced, kind) / _step_seconds(plain, kind) - 1.0)
    m = traced.step_totals[kind]
    notes = {"counts": counts,
             "layer_self_s": {k: m.self_s[k] for k in (*LAYERS, "trace")},
             "spans": {name: {"calls": m.calls[name], "incl_s": m.incl_s[name]}
                       for name in sorted(m.calls)}}
    return Outcome(per_layer(traced, kind, overhead), a1 + a2, f1 + f2, checks, notes)


# -- provenance -------------------------------------------------------------

def _git_commit(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_fingerprint(src: Path) -> tuple[str, int]:
    """sha256 over src/structag's python files, and their line count."""
    digest, lines = hashlib.sha256(), 0
    for path in sorted((src / "structag").glob("*.py")):
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return digest.hexdigest(), lines


def bench_digest() -> str:
    """sha256 over the benchmark's own python files."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).resolve().parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(root: Path, w: Workload, seed: int, seconds: float,
               trace: bool, blas_threads: str) -> dict:
    digest, lines = code_fingerprint(root / "src")
    return {
        "workload": w.name, "seed": seed, "seconds": seconds, "trace": int(trace),
        "python": platform.python_version(), "numpy": np.__version__,
        "nproc": os.cpu_count(), "blas_threads": blas_threads,
        "git_commit": _git_commit(root), "src_sha256": digest,
        "bench_sha256": bench_digest(),
        "src_lines": lines, "config": w.train_config().to_dict(),
        "n_utterances": w.n_utterances, "n_tag": w.n_tag,
        "setup_reps": w.setup_reps, "parse": w.parse,
    }
