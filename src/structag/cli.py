"""Command-line entry points: train, eval, inspect-attention,
gen-synthetic, stats.

Exit codes: 0 success, 1 usage, configuration or training problems
(any other toolkit error too), 2 unreadable or malformed data files,
3 checkpoint problems. Every toolkit error ends in one `error:` line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .corpus import fractional_split, load_corpus, write_split_manifest
from .errors import (CheckpointError, ConfigError, CorpusFormatError,
                     DataError, ParseFileError, StructagError)
from .evaluator import format_report, save_report
from .knowledge import (DEFAULT_MAX_SUBSTRUCTURES, load_amr, load_dependency,
                        substructure_stats)
from .seeding import derive_seed
from .synthetic import SyntheticConfig, generate
from .trainer import (TrainConfig, evaluate_model, load_checkpoint,
                      save_checkpoint, train)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_CHECKPOINT = 3


class _Parser(argparse.ArgumentParser):
    # Usage problems exit 1, not argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _load_parses(path: str | None, kind: str, id_prefix: str = "u") -> dict | None:
    if path is None:
        return None
    if not Path(path).is_file():
        raise DataError(f"parse file not found: {path}")
    loader = load_dependency if kind == "dependency" else load_amr
    return {p.id: p for p in loader(path, id_prefix=id_prefix)}


def _load_train_config(args) -> TrainConfig:
    if args.config:
        cfg_path = Path(args.config)
        if not cfg_path.is_file():
            raise DataError(f"config file not found: {cfg_path}")
        try:
            data = json.loads(cfg_path.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{cfg_path}: invalid JSON: {exc}") from exc
        config = TrainConfig.from_dict(data)
    else:
        config = TrainConfig()
    overrides = {
        "mode": args.mode, "encoder": args.encoder, "cell": args.cell,
        "embed_dim": args.embed_dim, "hidden_size": args.hidden_size,
        "alpha": args.alpha, "dropout": args.dropout,
        "learning_rate": args.learning_rate, "epochs": args.epochs,
        "patience": args.patience, "seed": args.seed,
        "dev_fraction": args.dev_fraction,
        "train_fraction": args.train_fraction,
        "clip_norm": args.clip_norm,
        "max_substructures": args.max_substructures,
    }
    for name, value in overrides.items():
        if value is not None:
            setattr(config, name, value)
    if args.freeze_embeddings:
        config.freeze_embeddings = True
    config.validate()
    return config


def cmd_train(args) -> int:
    if args.dev_parses and not args.dev:
        raise ConfigError("--dev-parses needs --dev (without --dev the dev set "
                          "is held out of --train and uses --parses)")
    config = _load_train_config(args)
    utterances = load_corpus(args.train)
    if not utterances:
        raise DataError(f"{args.train}: empty corpus")
    if config.train_fraction < 1.0:
        utterances = fractional_split(utterances, config.train_fraction,
                                      derive_seed(config.seed, "split"))
    parses = None
    if config.mode != "chain":
        if args.parses:
            parses = _load_parses(args.parses, args.parse_kind)
        else:
            print("note: no parse file given; each utterance falls back to "
                  "a single whole-sentence substructure", file=sys.stderr)
    dev_utterances = load_corpus(args.dev, id_prefix="d") if args.dev else None
    dev_parses = _load_parses(args.dev_parses, args.parse_kind, id_prefix="d")
    result = train(utterances, config, parses=parses,
                   dev_utterances=dev_utterances, dev_parses=dev_parses,
                   log_path=args.log, quiet=args.quiet)
    save_checkpoint(result.model, args.out)
    manifest_path = Path(str(args.out) + ".splits.json")
    write_split_manifest(manifest_path, {"train": result.train_ids,
                                         "dev": result.dev_ids})
    summary = {"checkpoint": str(args.out), "epochs_run": len(result.history),
               "split_manifest": str(manifest_path),
               "best_epoch": result.best_epoch}
    if result.best_dev_f1 is not None:
        summary["best_dev_f1"] = result.best_dev_f1
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    model = load_checkpoint(args.model)
    utterances = load_corpus(args.data)
    if not utterances:
        raise DataError(f"{args.data}: empty corpus")
    parses = _load_parses(args.parses, args.parse_kind) or {}
    known = model.vocab.token_index
    oov = sum(1 for u in utterances for t in u.tokens if t not in known)
    if oov:
        total = sum(len(u.tokens) for u in utterances)
        print(f"warning: {oov}/{total} tokens are outside the checkpoint "
              f"vocabulary and map to the unknown token", file=sys.stderr)
    report = evaluate_model(model, utterances, parses)
    if args.text:
        print(format_report(report), end="")
    else:
        print(json.dumps(report, indent=2))
    if args.report:
        save_report(report, args.report)
    return EXIT_OK


def cmd_inspect(args) -> int:
    model = load_checkpoint(args.model)
    utterances = load_corpus(args.data)
    parses = _load_parses(args.parses, args.parse_kind) or {}
    if args.ids:
        by_id = {u.id: u for u in utterances}
        selected = []
        for utt_id in args.ids:
            if utt_id in by_id:
                selected.append(by_id[utt_id])
            else:
                print(f"note: skipping unknown utterance id {utt_id!r}",
                      file=sys.stderr)
    else:
        selected = utterances
    records = []
    for utt in selected:
        _, record = model.tag_utterance(utt, parses.get(utt.id))
        if record is None:
            print(f"note: {utt.id}: chain model, no attention to inspect",
                  file=sys.stderr)
        else:
            records.append(record.to_dict())
    payload = json.dumps({"records": records}, indent=2)
    if args.out:
        Path(args.out).write_text(payload + "\n", encoding="utf-8")
    else:
        print(payload)
    return EXIT_OK


def cmd_gen_synthetic(args) -> int:
    config = SyntheticConfig(n_utterances=args.count,
                             ambiguous_fraction=args.ambiguous_fraction)
    corpus = generate(config, args.seed)
    paths = corpus.write(args.out)
    print(json.dumps({
        "n_utterances": corpus.n_utterances,
        "n_ambiguous": corpus.n_ambiguous,
        "files": {k: str(v) for k, v in paths.items()},
    }, indent=2))
    return EXIT_OK


def cmd_stats(args) -> int:
    parses = _load_parses(args.parses, args.parse_kind)
    stats = substructure_stats(list(parses.values()),
                               max_substructures=args.max_substructures)
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="structag",
                     description="Slot tagging with parse-guided attention.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--train", required=True, help="training corpus (token<TAB>tag)")
    p.add_argument("--dev", help="development corpus for model selection")
    p.add_argument("--parses", help="parse file aligned with the training corpus")
    p.add_argument("--dev-parses", help="parse file aligned with the dev corpus")
    p.add_argument("--parse-kind", choices=("dependency", "amr"),
                   default="dependency")
    p.add_argument("--config", help="JSON file of TrainConfig fields")
    p.add_argument("--out", default="model.json", help="checkpoint path")
    p.add_argument("--log", help="per-epoch JSONL log path")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-epoch progress lines")
    p.add_argument("--mode", choices=("chain", "knowledge", "joint"))
    p.add_argument("--encoder", choices=("nn", "rnn", "cnn"))
    p.add_argument("--cell", choices=("elman", "gru"))
    p.add_argument("--embed-dim", type=int)
    p.add_argument("--hidden-size", type=int)
    p.add_argument("--alpha", type=float)
    p.add_argument("--dropout", type=float)
    p.add_argument("--learning-rate", type=float)
    p.add_argument("--epochs", type=int)
    p.add_argument("--patience", type=int)
    p.add_argument("--seed", type=int)
    p.add_argument("--dev-fraction", type=float)
    p.add_argument("--train-fraction", type=float)
    p.add_argument("--clip-norm", type=float)
    p.add_argument("--max-substructures", type=int)
    p.add_argument("--freeze-embeddings", action="store_true")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="score a checkpoint on a corpus")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="corpus to score")
    p.add_argument("--parses", help="parse file aligned with the corpus")
    p.add_argument("--parse-kind", choices=("dependency", "amr"),
                   default="dependency")
    p.add_argument("--report", help="also write the JSON report here")
    p.add_argument("--text", action="store_true",
                   help="print the classic text table instead of JSON")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("inspect-attention",
                       help="dump attention weights and salience as JSON")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--parses")
    p.add_argument("--parse-kind", choices=("dependency", "amr"),
                   default="dependency")
    p.add_argument("--ids", nargs="+", help="utterance ids (default: all)")
    p.add_argument("--out", help="write JSON here instead of stdout")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("gen-synthetic",
                       help="generate a disambiguation corpus with parses")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--ambiguous-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("stats", help="substructure counts for a parse file")
    p.add_argument("--parses", required=True)
    p.add_argument("--parse-kind", choices=("dependency", "amr"),
                   default="dependency")
    p.add_argument("--max-substructures", type=int,
                   default=DEFAULT_MAX_SUBSTRUCTURES)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"error: file not found: {exc.filename or exc}", file=sys.stderr)
        return EXIT_DATA
    except StructagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (CorpusFormatError, ParseFileError, DataError)):
            return EXIT_DATA
        return EXIT_CHECKPOINT if isinstance(exc, CheckpointError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
