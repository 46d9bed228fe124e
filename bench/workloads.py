"""Benchmark workloads: seeded inputs, set-up, and the timed phases.

Everything here goes through structag's public modules, looked up at
call time (`trainer.train`, not a name bound at import), so that the
spans in `spans.py` see every call once they are installed.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

from structag import corpus, evaluator, knowledge, synthetic, trainer
from structag.errors import StructagError
from structag.seeding import derive_seed

# The generator's default cities, split by name length. A two-token name
# ("new york") is what gives the corpus its I- tags, its multi-token
# chunks and the "name" nodes of its concept graphs.
ONE_TOKEN_CITIES = tuple(c for c in synthetic.DEFAULT_CITIES if " " not in c)
MULTI_TOKEN_CITIES = tuple(c for c in synthetic.DEFAULT_CITIES if " " in c)
# Enlarged list for the ATIS-scale vocabulary of train-chain-elman.
MANY_CITIES = ONE_TOKEN_CITIES + tuple(f"town{i:04d}" for i in range(4000))

# Every generated corpus is split into fixed shares instead of drawing per
# utterance, so the seed changes which utterances appear but not the mix
# of short and long ones; otherwise the mix, and with it throughput and
# the latency percentiles, would move with the seed.
# - The ambiguous family keeps the generator's default share.
AMBIGUOUS_SHARE = synthetic.SyntheticConfig().ambiguous_fraction
# - A share of utterances draws both cities from the two-token names, the
#   rest from the one-token names. 3/11, the two-token share of the
#   default cities, gives the default generator's expected number of
#   city tokens per utterance (2 + 2 * 3/11), and puts the latency p95
#   inside the group of longest utterances rather than on its edge.
MULTI_TOKEN_SHARE = len(MULTI_TOKEN_CITIES) / len(synthetic.DEFAULT_CITIES)


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                 # "train": timed phase trains, then tags
                              # "tag": set-up trains; timed phase only tags
    config: dict              # TrainConfig fields besides the defaults
    parse: str                # "dependency" or "amr"
    n_utterances: int         # training corpus, 10% held out as dev
    n_tag: int                # fresh corpus tagged by the trained model
    setup_reps: int           # set-ups per run; setup_s is their median
    f1_floor: float           # dev_f1 and tag_f1 must reach this
    cities: tuple = ONE_TOKEN_CITIES   # names of the one-token share

    def train_config(self) -> trainer.TrainConfig:
        return trainer.TrainConfig(**{"embed_dim": 100, "hidden_size": 100,
                                      "patience": 1000, **self.config})


WORKLOADS = {w.name: w for w in (
    Workload(
        name="train-joint-rnn-gru",
        kind="train",
        config={"mode": "joint", "encoder": "rnn", "cell": "gru",
                "epochs": 1, "learning_rate": 0.005},
        parse="dependency", n_utterances=200, n_tag=200, setup_reps=15,
        f1_floor=60.0),
    Workload(
        name="train-chain-elman",
        kind="train",
        config={"mode": "chain", "cell": "elman", "epochs": 1,
                "learning_rate": 0.003},
        parse="dependency", n_utterances=500, n_tag=300, setup_reps=15,
        f1_floor=60.0, cities=MANY_CITIES),
    Workload(
        name="tag-joint-cnn-gru-graphs",
        kind="tag",
        config={"epochs": 1, "learning_rate": 0.01},
        parse="amr", n_utterances=120, n_tag=300, setup_reps=5,
        f1_floor=60.0),
)}


def tiny(w: Workload) -> Workload:
    """The same workload at toy size, for the benchmark's self-test."""
    return replace(w, config={**w.config, "embed_dim": 8, "hidden_size": 8,
                              "epochs": 2, "learning_rate": 0.05},
                   n_utterances=20, n_tag=6, setup_reps=2, f1_floor=0.0,
                   cities=w.cities[:40])


@dataclass
class Prepared:
    """What one set-up leaves for the timed phase."""
    train_utts: list
    parses: dict
    tag_utts: list
    tag_parses: dict
    model: object = None            # tag workloads: the reloaded checkpoint
    train_runs: list = field(default_factory=list)  # tag workloads
    ckpt_bytes: int = 0
    ckpt_roundtrip_exact: bool = True


@dataclass
class TrainRun:
    seconds: float
    updates: int
    history: list | None            # None when the call failed
    model: object = None            # dropped once no longer needed
    scale: float = 1.0              # machine-speed calibration, see harness


def _load(w: Workload, files: dict) -> tuple[list, dict]:
    utts = corpus.load_corpus(files["corpus"])
    loader = knowledge.load_dependency if w.parse == "dependency" else knowledge.load_amr
    return utts, {p.id: p for p in loader(files[w.parse])}


def _generate(w: Workload, n: int, seed: int, out_dir: Path) -> dict:
    """Write a corpus of `n` utterances with the fixed shares above."""
    parts = []
    n_ambiguous = round(AMBIGUOUS_SHARE * n)
    for family, size, fraction in (("ambiguous", n_ambiguous, 1.0),
                                   ("plain", n - n_ambiguous, 0.0)):
        n_multi = round(MULTI_TOKEN_SHARE * size)
        for names, count, cities in (("multi", n_multi, MULTI_TOKEN_CITIES),
                                     ("one", size - n_multi, w.cities)):
            if not count:
                continue
            config = synthetic.SyntheticConfig(
                n_utterances=count, ambiguous_fraction=fraction, cities=cities)
            parts.append(synthetic.generate(
                config, derive_seed(seed, f"{family}:{names}")))
    joined = synthetic.SyntheticCorpus(
        corpus_text="\n".join(p.corpus_text for p in parts),
        dependency_text="\n".join(p.dependency_text for p in parts),
        amr_text="\n".join(p.amr_text for p in parts),
        n_utterances=n, n_ambiguous=n_ambiguous)
    return joined.write(out_dir)


def set_up(w: Workload, seed: int, work_dir: Path) -> Prepared:
    """Generate and load the inputs; tag workloads also train, save, reload."""
    train_files = _generate(w, w.n_utterances, seed, work_dir / "train")
    tag_files = _generate(w, w.n_tag, derive_seed(seed, "bench:tag"), work_dir / "tag")
    prep = Prepared(*_load(w, train_files), *_load(w, tag_files))
    if w.kind == "tag":
        run = train_once(w, prep)
        prep.train_runs.append(run)
        if run.model is not None:
            ckpt = work_dir / "model.json"
            trainer.save_checkpoint(run.model, ckpt)
            prep.ckpt_bytes = ckpt.stat().st_size
            prep.model = trainer.load_checkpoint(ckpt)
            saved, loaded = run.model.params(), prep.model.params()
            prep.ckpt_roundtrip_exact = all(
                (saved[k].value == loaded[k].value).all() for k in saved)
            run.model = None
    return prep


def train_once(w: Workload, prep: Prepared) -> TrainRun:
    """One `trainer.train` call; a StructagError fails all its updates."""
    config = w.train_config()
    n_train = len(prep.train_utts) - round(config.dev_fraction * len(prep.train_utts))
    gc.collect()
    start = time.perf_counter()
    try:
        result = trainer.train(prep.train_utts, config, prep.parses)
    except StructagError:
        return TrainRun(time.perf_counter() - start, n_train * config.epochs, None)
    seconds = time.perf_counter() - start
    updates = len(result.train_ids) * len(result.history)
    return TrainRun(seconds, updates, result.history, result.model)


@dataclass
class TagPass:
    seconds: float
    latencies: list                 # seconds per tag_utterance call,
                                    # collector pauses left out
    predicted: list                 # tag lists, None where the call failed
    f1: float | None                # chunk F1, None when a call failed
    scale: float = 1.0              # machine-speed calibration, see harness
    collector_s: float = 0.0        # collector pauses during the calls


class CollectorClock:
    """Adds up the time the cyclic garbage collector runs, via gc.callbacks."""

    def __init__(self):
        self.seconds = 0.0
        self._start = None

    def __call__(self, phase: str, info: dict):
        if phase == "start":
            self._start = time.perf_counter()
        elif self._start is not None:
            self.seconds += time.perf_counter() - self._start
            self._start = None

    def __enter__(self):
        gc.callbacks.append(self)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self)


def tag_pass(model, utts: list, parses: dict) -> TagPass:
    """Tag every utterance once, timing each `tag_utterance` call, then
    score the pass (outside the timing).

    A call's latency leaves out the collector pauses that fall in it.
    Each train call starts from a full collection, so the pauses land on
    the same few utterances in most passes; left in, they become part of
    those utterances' cost, and the p95 moves with the seed's choice of
    them. The pass time keeps them.
    """
    latencies, predicted = [], []
    with CollectorClock() as collector:
        start = time.perf_counter()
        for utt in utts:
            paused = collector.seconds
            t0 = time.perf_counter()
            try:
                tags = model.tag_utterance(utt, parses.get(utt.id))[0]
            except StructagError:
                tags = None
            latencies.append(time.perf_counter() - t0
                             - (collector.seconds - paused))
            predicted.append(tags)
        seconds = time.perf_counter() - start
    f1 = None
    if None not in predicted:
        f1 = evaluator.evaluate([list(u.tags) for u in utts], predicted)["f1"]
    return TagPass(seconds, latencies, predicted, f1, collector_s=collector.seconds)
