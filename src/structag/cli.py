"""Command-line entry points: train, eval, inspect-attention,
gen-synthetic, stats.

Exit codes: 0 success, 1 usage, configuration or training problems
(any other toolkit error too), 2 unreadable or malformed data files,
3 checkpoint problems. Every toolkit error ends in one `error:` line; a
reader that closes stdout early (`| head -1`) ends the command quietly.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import json
import os
import sys
from pathlib import Path

from .corpus import load_corpus, write_split_manifest
from .encoders import ENCODER_KINDS
from .errors import (CheckpointError, ConfigError, CorpusFormatError,
                     DataError, ParseFileError, StructagError)
from .evaluator import format_report, save_report
from .knowledge import (DEFAULT_MAX_SUBSTRUCTURES, PARSE_KINDS, check_alignment,
                        load_amr, load_dependency, substructure_stats)
from .synthetic import SyntheticConfig, generate
from .tagger import CELL_KINDS, TAGGER_MODES
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


def _load_parses(path: str | None, kind: str, utterances: list | None,
                 id_prefix: str = "u") -> dict | None:
    """Parses by utterance id. Blocks align to a corpus by ordinal, so given
    its `utterances`, each block must fit its utterance (`check_alignment`)."""
    if path is None:
        return None
    if not Path(path).exists():    # any other bad path fails in the loader
        raise DataError(f"parse file not found: {path}")
    loader = load_dependency if kind == "dependency" else load_amr
    parses = {p.id: p for p in loader(path, id_prefix=id_prefix)}
    if utterances is not None:
        if len(parses) != len(utterances):
            raise DataError(f"{path}: {len(parses)} parse blocks for a corpus of "
                            f"{len(utterances)} utterances")
        check_alignment(parses, utterances, path)
    return parses


def _load_utterances(path: str, id_prefix: str = "u") -> list:
    utterances = load_corpus(path, id_prefix=id_prefix)
    if not utterances:
        raise DataError(f"{path}: empty corpus")
    return utterances


def _load_scored(args) -> tuple:
    """The checkpoint, corpus and parses that `eval` and `inspect-attention` read."""
    model = load_checkpoint(args.model)
    utterances = _load_utterances(args.data)
    parses = _load_parses(args.parses, args.parse_kind, utterances) or {}
    return model, utterances, parses


def _check_writable(path: str) -> None:
    """Raise the OSError that writing `path` would, creating and changing nothing."""
    parent = os.path.dirname(path) or "."
    if os.path.exists(path):
        os.close(os.open(path, os.O_WRONLY))    # no O_TRUNC: the file stays as it is
    elif not (os.path.isdir(parent) and os.access(parent, os.W_OK)):
        code = (errno.EACCES if os.path.isdir(parent) else
                errno.ENOTDIR if os.path.exists(parent) else errno.ENOENT)
        raise OSError(code, os.strerror(code), path)


def _load_train_config(args) -> TrainConfig:
    config = TrainConfig()
    if args.config:
        cfg_path = Path(args.config)
        try:
            data = json.loads(cfg_path.read_text(encoding="utf-8"))
        except ValueError as exc:    # not UTF-8, or not JSON
            raise ConfigError(f"{cfg_path}: invalid JSON: {exc}") from exc
        config = TrainConfig.from_dict(data)
    for f in dataclasses.fields(TrainConfig):    # each has a flag; absent is None
        if getattr(args, f.name) is not None:
            setattr(config, f.name, getattr(args, f.name))
    config.validate()
    return config


def cmd_train(args) -> int:
    if args.dev_parses and not args.dev:
        raise ConfigError("--dev-parses needs --dev (without --dev the dev set "
                          "is held out of --train and uses --parses)")
    config = _load_train_config(args)
    utterances = _load_utterances(args.train)
    parses = None
    if config.mode != "chain":
        if args.parses:
            parses = _load_parses(args.parses, args.parse_kind, utterances)
        else:
            print("note: no parse file given; each utterance falls back to "
                  "a single whole-sentence substructure", file=sys.stderr)
    dev_utterances = _load_utterances(args.dev, id_prefix="d") if args.dev else None
    dev_parses = _load_parses(args.dev_parses, args.parse_kind,
                              dev_utterances or [], id_prefix="d")
    _check_writable(args.out)    # before training, which opens --log
    result = train(utterances, config, parses=parses,
                   dev_utterances=dev_utterances, dev_parses=dev_parses,
                   log_path=args.log, quiet=args.quiet)
    save_checkpoint(result.model, args.out)
    manifest_path = Path(str(args.out) + ".splits.json")
    write_split_manifest(manifest_path, {"train": result.train_ids,
                                         "dev": result.dev_ids})
    summary = {"checkpoint": str(args.out), "epochs_run": len(result.history),
               "split_manifest": str(manifest_path), "best_epoch": result.best_epoch}
    if result.best_dev_f1 is not None:
        summary["best_dev_f1"] = result.best_dev_f1
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    model, utterances, parses = _load_scored(args)
    known = model.vocab.token_index
    oov = sum(1 for u in utterances for t in u.tokens if t not in known)
    if oov:
        total = sum(len(u.tokens) for u in utterances)
        print(f"warning: {oov}/{total} tokens are outside the checkpoint "
              f"vocabulary and map to the unknown token", file=sys.stderr)
    report = evaluate_model(model, utterances, parses)
    text = format_report(report) if args.text else json.dumps(report, indent=2) + "\n"
    print(text, end="")
    if args.report:
        save_report(report, args.report)
    return EXIT_OK


def cmd_inspect(args) -> int:
    model, utterances, parses = _load_scored(args)
    selected = utterances
    if args.ids:
        by_id = {u.id: u for u in utterances}
        for utt_id in (i for i in args.ids if i not in by_id):
            print(f"note: skipping unknown utterance id {utt_id!r}", file=sys.stderr)
        selected = [by_id[i] for i in args.ids if i in by_id]
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
    print(json.dumps({"n_utterances": corpus.n_utterances,
                      "n_ambiguous": corpus.n_ambiguous,
                      "files": {k: str(v) for k, v in paths.items()}}, indent=2))
    return EXIT_OK


def cmd_stats(args) -> int:
    parses = _load_parses(args.parses, args.parse_kind, None)
    stats = substructure_stats(list(parses.values()),
                               max_substructures=args.max_substructures)
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def _add_parse_options(p, required: bool = False):
    p.add_argument("--parses", required=required,
                   help="parse file aligned with the corpus")
    p.add_argument("--parse-kind", choices=PARSE_KINDS, default="dependency")


def _add_scoring_parser(sub, name: str, help: str, func):
    p = sub.add_parser(name, help=help)
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True, help="corpus to tag")
    _add_parse_options(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="structag",
                     description="Slot tagging with parse-guided attention.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--train", required=True, help="training corpus (token<TAB>tag)")
    p.add_argument("--dev", help="development corpus for model selection")
    _add_parse_options(p)
    p.add_argument("--dev-parses", help="parse file aligned with the dev corpus")
    p.add_argument("--config", help="JSON file of TrainConfig fields")
    p.add_argument("--out", default="model.json", help="checkpoint path")
    p.add_argument("--log", help="per-epoch JSONL log path")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-epoch progress lines")
    # One flag per TrainConfig field, of the same name; an absent flag is None.
    choices = {"mode": TAGGER_MODES, "encoder": ENCODER_KINDS, "cell": CELL_KINDS}
    for f in dataclasses.fields(TrainConfig):
        flag, hint = "--" + f.name.replace("_", "-"), f"default: {f.default}"
        if f.type == "bool":
            p.add_argument(flag, action="store_true", default=None, help=hint)
        else:
            kind = f.type.removesuffix(" | None")
            p.add_argument(flag, type={"str": str, "int": int, "float": float}[kind],
                           choices=choices.get(f.name), help=hint)
    p.set_defaults(func=cmd_train)

    p = _add_scoring_parser(sub, "eval", "score a checkpoint on a corpus", cmd_eval)
    p.add_argument("--report", help="also write the JSON report here")
    p.add_argument("--text", action="store_true",
                   help="print the classic text table instead of JSON")

    p = _add_scoring_parser(sub, "inspect-attention",
                            "dump attention weights and salience as JSON", cmd_inspect)
    p.add_argument("--ids", nargs="+", help="utterance ids (default: all)")
    p.add_argument("--out", help="write JSON here instead of stdout")

    p = sub.add_parser("gen-synthetic",
                       help="generate a disambiguation corpus with parses")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--ambiguous-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("stats", help="substructure counts for a parse file")
    _add_parse_options(p, required=True)
    p.add_argument("--max-substructures", type=int,
                   default=DEFAULT_MAX_SUBSTRUCTURES)
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()    # a closed pipe fails here, not at exit
        return code
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush is quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
    except OSError as exc:    # a missing file, a directory, an existing file, ...
        reason = "file not found" if isinstance(exc, FileNotFoundError) else exc.strerror
        print(f"error: {reason}: {exc.filename}" if reason and exc.filename
              else f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except StructagError as exc:
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, (CorpusFormatError, ParseFileError, DataError)):
            return EXIT_DATA
        return EXIT_CHECKPOINT if isinstance(exc, CheckpointError) else EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
