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
from .evaluator import format_report
from .knowledge import (DEFAULT_MAX_SUBSTRUCTURES, check_alignment, load_parses,
                        substructure_stats)
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


def _path(text: str) -> str:
    """argparse type of every path option: "" is refused, not read as "." or as absent."""
    if not text:
        raise argparse.ArgumentTypeError("expected a path, got an empty string")
    return text


def _load_data(path: str, parses_path: str | None, mode: str, which: str = "",
               id_prefix: str = "u") -> tuple[list, dict]:
    """A corpus, refused if empty, and its parses by utterance id. Parse blocks
    align to the corpus by ordinal, so each must fit its utterance
    (`check_alignment`). Without a parse file the parses are {}, and outside
    chain mode a note says that each utterance falls back."""
    utterances = load_corpus(path, id_prefix=id_prefix)
    if not utterances:
        raise DataError(f"{path}: empty corpus")
    if parses_path is None:
        if mode != "chain":
            print(f"note: no {which}parse file given; each {which}utterance falls back "
                  "to a single whole-sentence substructure", file=sys.stderr)
        return utterances, {}
    parses = {p.id: p for p in load_parses(parses_path, id_prefix=id_prefix)}
    if len(parses) != len(utterances):
        raise DataError(f"{parses_path}: {len(parses)} parse blocks for a corpus of "
                        f"{len(utterances)} utterances")
    check_alignment(parses, utterances, parses_path)
    return utterances, parses


def _load_scored(args, out: str | None) -> tuple:
    """What `eval` and `inspect-attention` read; `out` is checked before any tagging."""
    model = load_checkpoint(args.model)
    utterances, parses = _load_data(args.data, args.parses, model.config.mode)
    if out:
        _check_writable(out)
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
    # Parses are checked in chain mode too; without --dev the dev set is
    # held out of the training set and shares its parses and its note.
    utterances, parses = _load_data(args.train, args.parses, config.mode,
                                    "training " if args.dev else "")
    dev_utterances = dev_parses = None
    if args.dev:
        dev_utterances, dev_parses = _load_data(args.dev, args.dev_parses, config.mode,
                                                "dev ", id_prefix="d")
    manifest_path = str(args.out) + ".splits.json"
    for path in (args.out, manifest_path):    # before training, which opens --log
        _check_writable(path)
    result = train(utterances, config, parses=parses,
                   dev_utterances=dev_utterances, dev_parses=dev_parses,
                   log_path=args.log, quiet=args.quiet)
    save_checkpoint(result.model, args.out)
    write_split_manifest(manifest_path, {"train": result.train_ids,
                                         "dev": result.dev_ids})
    summary = {"checkpoint": str(args.out), "epochs_run": len(result.history),
               "split_manifest": manifest_path, "best_epoch": result.best_epoch}
    if result.best_dev_f1 is not None:
        summary["best_dev_f1"] = result.best_dev_f1
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def cmd_eval(args) -> int:
    model, utterances, parses = _load_scored(args, args.report)
    known = model.vocab.token_index
    oov = sum(1 for u in utterances for t in u.tokens if t not in known)
    if oov:
        total = sum(len(u.tokens) for u in utterances)
        print(f"warning: {oov}/{total} tokens are outside the checkpoint "
              f"vocabulary and map to the unknown token", file=sys.stderr)
    report = evaluate_model(model, utterances, parses)
    serialised = json.dumps(report, indent=2) + "\n"
    print(format_report(report) if args.text else serialised, end="")
    if args.report:
        Path(args.report).write_text(serialised, encoding="utf-8")
    return EXIT_OK


def cmd_inspect(args) -> int:
    model, utterances, parses = _load_scored(args, args.out)
    selected = utterances
    if args.ids:
        by_id = {u.id: u for u in utterances}
        for utt_id in (i for i in args.ids if i not in by_id):
            print(f"note: skipping unknown utterance id {utt_id!r}", file=sys.stderr)
        selected = [by_id[i] for i in args.ids if i in by_id]
    if model.config.mode == "chain":
        print("note: chain model, no attention to inspect", file=sys.stderr)
        selected = []
    records = [model.tag_utterance(u, parses.get(u.id))[1] for u in selected]
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
    stats = substructure_stats(load_parses(args.parses),
                               max_substructures=args.max_substructures)
    print(json.dumps(stats, indent=2))
    return EXIT_OK


def _add_parses_option(p, required: bool = False):
    p.add_argument("--parses", type=_path, required=required,
                   help="parse file aligned with the corpus, of either kind")


def _add_scoring_parser(sub, name: str, help: str, func):
    p = sub.add_parser(name, help=help)
    p.add_argument("--model", type=_path, required=True, help="checkpoint path")
    p.add_argument("--data", type=_path, required=True, help="corpus to tag")
    _add_parses_option(p)
    p.set_defaults(func=func)
    return p


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="structag",
                     description="Slot tagging with parse-guided attention.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    p = sub.add_parser("train", help="fit a model and write a checkpoint")
    p.add_argument("--train", type=_path, required=True,
                   help="training corpus (token<TAB>tag)")
    p.add_argument("--dev", type=_path, help="development corpus for model selection")
    _add_parses_option(p)
    p.add_argument("--dev-parses", type=_path, help="parse file aligned with the dev corpus")
    p.add_argument("--config", type=_path, help="JSON file of TrainConfig fields")
    p.add_argument("--out", type=_path, default="model.json", help="checkpoint path")
    p.add_argument("--log", type=_path, help="per-epoch JSONL log path")
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
    p.add_argument("--report", type=_path, help="also write the JSON report here")
    p.add_argument("--text", action="store_true",
                   help="print the classic text table instead of JSON")

    p = _add_scoring_parser(sub, "inspect-attention",
                            "dump attention weights and salience as JSON", cmd_inspect)
    p.add_argument("--ids", nargs="+", help="utterance ids (default: all)")
    p.add_argument("--out", type=_path, help="write JSON here instead of stdout")

    p = sub.add_parser("gen-synthetic",
                       help="generate a disambiguation corpus with parses")
    p.add_argument("--out", type=_path, required=True, help="output directory")
    p.add_argument("--count", type=int, default=200)
    p.add_argument("--ambiguous-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=13)
    p.set_defaults(func=cmd_gen_synthetic)

    p = sub.add_parser("stats", help="substructure counts for a parse file")
    _add_parses_option(p, required=True)
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
