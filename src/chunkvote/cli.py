"""Command line front end.

Every subcommand reads and writes plain text files, takes an optional
``--config`` file of flat ``key = value`` lines and prints to stdout
unless ``-o`` names an output file.  Command line flags override config
values, which override built-in defaults.  Output is deterministic:
running a command twice on the same input gives identical bytes.

Exit codes: 0 success, 1 usage error, 2 bad input data, 3 internal error.
"""

from __future__ import annotations

import argparse
import functools
import sys
from importlib import import_module
from pathlib import Path

from . import __version__
from .corpus import (
    Corpus,
    TagScheme,
    check_system_name,
    conll_text,
    convert_scheme,
    nested_text,
    parse_conll,
    parse_nested,
    with_tags,
    write_conll,
)
from .errors import ChunkvoteError, ConfigError, ParseError

# Each handler imports what it calls, and each subcommand declares its
# flags when it first parses, so that a call loads only the modules its
# subcommand runs.

STACKED_METHODS = ("stacked-knn", "stacked-knn-pos", "stacked-igtree", "stacked-igtree-pos")

SCHEMES = ("iob1", "iob2")


class UsageError(Exception):
    """Bad command line; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors raise UsageError; a subcommand's parser
    calls ``declare`` on itself before it first parses."""

    declare = None

    def parse_known_args(self, args=None, namespace=None):
        if self.declare is not None:
            declare, self.declare = self.declare, None
            declare(self)
        return super().parse_known_args(args, namespace)

    def error(self, message):
        raise UsageError(message)


#---------------------------------------------------------------------------
# settings
#
# A setting is one flag plus the config key of its long name, dashes made
# underscores.  It is declared once, with one converter from text that
# serves both: a bad config value is a ConfigError (exit 2), a bad flag
# value a usage error (exit 1).  Flags leave unset settings off the
# namespace; after parsing they are filled from the config file and
# finally from the default, so the flag always wins.

def _conv_int(value: str) -> int:
    try:
        return int(value)
    except ValueError:
        raise ConfigError(f"expected an integer, got {value!r}") from None


def _conv_float(value: str) -> float:
    try:
        return float(value)
    except ValueError:
        raise ConfigError(f"expected a number, got {value!r}") from None


def _conv_opt_float(value: str) -> float | None:
    if value.lower() == "none":
        return None
    return _conv_float(value)


def _conv_bool(value: str) -> bool:
    lowered = value.lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"expected true or false, got {value!r}")


class _Choice:
    """Converter to one of the values ``options()`` returns.

    ``options`` is called when a value is converted or help is printed,
    not when the flag is declared, so a flag can offer choices that another
    module declares without loading it.  ``str()`` gives the flag's metavar.
    """

    def __init__(self, options, conv=str):
        self.options = options
        self.conv = conv

    def __call__(self, value: str):
        result = self.conv(value)
        if result not in self.options():
            raise ConfigError(f"expected one of {self.options()}, got {value!r}")
        return result

    def __str__(self) -> str:
        return "{" + ",".join(map(str, self.options())) + "}"


def _declared(module: str, name: str):
    """``chunkvote.<module>.<name>``, loading the module if need be."""
    return getattr(import_module(f".{module}", __package__), name)


def _flag_type(conv):
    """``conv`` as an argparse type, so that a bad flag value is a usage error."""
    def convert(value: str):
        try:
            return conv(value)
        except ConfigError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _setting(sub, *flags, conv, default=None, help, **kwargs) -> None:
    """Add a setting to subcommand ``sub``; ``_conv_bool`` makes an on/off flag."""
    if default is not None and not isinstance(default, bool):
        help = f"{help} (default: {default})"
    if conv is _conv_bool:
        kwargs["action"] = argparse.BooleanOptionalAction
    else:
        kwargs["type"] = _flag_type(conv)
    action = sub.add_argument(*flags, default=argparse.SUPPRESS, help=help, **kwargs)
    if isinstance(conv, _Choice):
        action.metavar = conv  # set after add_argument, which would format it
    key = flags[-1].lstrip("-").replace("-", "_")
    sub.get_default("_settings")[key] = (action.dest, conv, default)


def _load_config(path: str, settings: dict) -> dict[str, str]:
    values: dict[str, str] = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key = key.strip().replace("-", "_")
        if key not in settings:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        if key in values:
            raise ConfigError(f"{path}:{lineno}: repeated config key {key!r}")
        values[key] = value.strip()
    return values


def _resolve(args) -> None:
    settings = args._settings
    values = _load_config(args.config, settings) if args.config is not None else {}
    for key, (dest, conv, default) in settings.items():
        if not hasattr(args, dest):
            setattr(args, dest, conv(values[key]) if key in values else default)


#---------------------------------------------------------------------------
# small IO helpers

def _read_text(path: str) -> str:
    """The text of a UTF-8 file, without a leading byte-order mark."""
    try:
        return Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: byte {exc.start} is not UTF-8 ({exc.reason})") from None


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _read_corpus(path: str, scheme: str, columns: int, strict: bool) -> Corpus:
    return parse_conll(_read_text(path), TagScheme(scheme), columns=columns, strict=strict)


def _parse_pred(text: str) -> tuple[str, str]:
    name, eq, path = text.partition("=")
    if not eq or not name or not path:
        raise UsageError(f"bad --pred {text!r}, expected NAME=PATH")
    return name, path


#---------------------------------------------------------------------------
# learner options
#
# One entry per option: its ``--system`` key, and the LearnerSpec field,
# converter and help of the ``train`` flag that sets the field.  Defaults
# come from LearnerSpec.

_LEARNER_OPTIONS = {
    "k": ("k", _conv_int, "nearest neighbour distances to consider"),
    "iterations": ("iterations", _conv_int, "maximum scaling iterations"),
    "sigma": ("sigma", _conv_opt_float, "gaussian smoothing width, or none (the default)"),
    "cutoff": ("cutoff", _conv_int, "drop features seen fewer times"),
    "threshold": ("threshold", _conv_float, "rule accuracy target"),
    "weighting": (
        "weighting", _Choice(lambda: _declared("learners", "WEIGHTINGS")), "feature weighting",
    ),
    "io": ("io_encoding", _conv_bool, "train on tags with the B/I distinction removed"),
}


def _learner_spec(name: str, learner: str, options: dict) -> LearnerSpec:
    from .learners import LearnerSpec

    try:
        return LearnerSpec(name=name, learner=learner, **options)
    except ConfigError as exc:
        raise UsageError(str(exc)) from None


def _parse_system(text: str) -> LearnerSpec:
    name, eq, rest = text.partition("=")
    parts = rest.split(",") if rest else []
    if not eq or not name or not parts or not parts[0]:
        raise UsageError(f"bad --system {text!r}, expected NAME=LEARNER[,key=value,...]")
    options = {}
    for part in parts[1:]:
        key, eq, value = part.partition("=")
        if not eq or key not in _LEARNER_OPTIONS:
            known = ", ".join(_LEARNER_OPTIONS)
            raise UsageError(f"bad --system option {part!r}, known keys: {known}")
        field, conv, _ = _LEARNER_OPTIONS[key]
        try:
            options[field] = conv(value)
        except ConfigError as exc:
            raise UsageError(f"--system option {part!r}: {exc}") from None
    return _learner_spec(name, parts[0], options)


#---------------------------------------------------------------------------
# subcommands

def _cmd_convert(args) -> None:
    text = _read_text(args.input)
    if args.nested_to_levels:
        from .cascade import cascade_training_corpus

        corpus = cascade_training_corpus(parse_nested(text), head=args.head)
        _write_text(args.output, write_conll(corpus))
        return
    if args.from_scheme is None or args.to_scheme is None:
        raise UsageError("convert needs --from and --to, or --nested-to-levels")
    source = parse_conll(text, TagScheme(args.from_scheme), columns=3, strict=True)
    sentences = tuple(
        with_tags(
            s,
            convert_scheme(
                s.chunk_tags, TagScheme(args.from_scheme), TagScheme(args.to_scheme)
            ),
        )
        for s in source.sentences
    )
    _write_text(args.output, write_conll(Corpus(sentences, TagScheme(args.to_scheme))))


def _cmd_baseline(args) -> None:
    from .learners import train_baseline

    train = _read_corpus(args.train, args.scheme, 3, strict=True)
    test = _read_corpus(args.test, args.scheme, args.columns, strict=False)
    model = train_baseline(train, io_encoding=args.io_encoding)
    _write_tagged(args.output, model, test)


def _cmd_train(args) -> None:
    from .model_io import dumps_model

    if args.learner is None:
        raise UsageError("--learner is required")
    options = {field: getattr(args, field) for field, _, _ in _LEARNER_OPTIONS.values()}
    spec = _learner_spec("model", args.learner, options)
    # No name here holds the corpus, which training frees once featurized,
    # or the model, which goes once its text is made.
    text = dumps_model(spec.train(_read_corpus(args.train, args.scheme, 3, strict=True)))
    _write_text(args.output, text)


def _cmd_tag(args) -> None:
    from .model_io import loads_model

    model = loads_model(_read_text(args.model))
    corpus = _read_corpus(args.input, "iob2", args.columns, strict=False)
    _write_tagged(args.output, model, corpus)


def _write_tagged(path, model, corpus: Corpus) -> None:
    """Tag every sentence of ``corpus``, replacing any tags it has; each
    is rendered when tagged, and the file written once all are."""
    from .learners import tag_sentence

    tagged = (conll_text(with_tags(s, tag_sentence(model, s))) for s in corpus.sentences)
    _write_text(path, "".join(tagged))


def _cmd_eval(args) -> None:
    from .metrics import format_report, format_report_kv, score_nested, score_tagged

    if args.nested:
        gold = parse_nested(_read_text(args.gold))
        pred = parse_nested(_read_text(args.pred))
        report = score_nested(gold, pred, beta=args.beta)
    else:
        gold = parse_conll(_read_text(args.gold), TagScheme.IOB1, columns=3, strict=False)
        pred = parse_conll(_read_text(args.pred), TagScheme.IOB1, columns=3, strict=False)
        report = score_tagged(gold, pred, beta=args.beta)
    _write_text(args.output, format_report_kv(report) if args.kv else format_report(report))


def _cmd_cv_tune(args) -> None:
    from .ensemble import cv_tuning_table, write_table

    if not args.system:
        raise UsageError("at least one --system NAME=LEARNER is required")
    specs = [_parse_system(text) for text in args.system]
    corpus = _read_corpus(args.train, args.scheme, 3, strict=True)
    table = cv_tuning_table(corpus, specs, folds=args.folds)
    _write_text(args.output, write_table(table))


def _cmd_weights(args) -> None:
    from .ensemble import estimate_weights, read_table, write_weights

    table = read_table(_read_text(args.table))
    _write_text(args.output, write_weights(estimate_weights(table)))


def _cmd_combine(args) -> None:
    from .ensemble import (
        combine_corpus, estimate_weights, read_table, read_weights, stacked_corpus, stacked_train,
    )

    table = read_table(_read_text(args.table))
    if args.weights is not None and args.tuning is not None:
        raise UsageError("pass --weights or --tuning, not both")
    tuning = None if args.tuning is None else read_table(_read_text(args.tuning))
    weights = None
    if args.weights is not None:
        weights = read_weights(_read_text(args.weights))
    elif tuning is not None and args.method not in STACKED_METHODS:
        weights = estimate_weights(tuning)
    words = None
    if args.words is not None:
        words = _read_corpus(args.words, "iob1", args.words_columns, strict=False)
    if args.method in STACKED_METHODS:
        if args.bracket_level:
            raise UsageError("bracket level combination works with voting methods only")
        if tuning is None:
            raise UsageError(f"method {args.method} needs --tuning")
        base = args.method.removeprefix("stacked-")
        add_pos = base.endswith("-pos")
        model = stacked_train(tuning, learner=base.removesuffix("-pos"), add_pos=add_pos)
        corpus = stacked_corpus(model, table, words=words)
    else:
        if args.method != "majority" and weights is None:
            raise UsageError(f"method {args.method} needs --weights or --tuning")
        if args.bracket_level and args.method != "majority":
            raise UsageError("bracket level combination supports the majority method only")
        corpus = combine_corpus(
            table,
            method=args.method,
            weights=weights,
            bracket_level=args.bracket_level,
            words=words,
        )
    _write_text(args.output, write_conll(corpus))


def _cmd_best_n(args) -> None:
    from .ensemble import best_n_select, evaluate_subset, read_table

    if args.n is None:
        raise UsageError("-n is required")
    table = read_table(_read_text(args.table))
    names = best_n_select(table, args.n)
    report = evaluate_subset(table, names)
    _write_text(args.output, " ".join(names) + "\n" + f"F {100 * report.f_rate:.2f}\n")


def _cmd_cascade(args) -> None:
    from .cascade import _check_head, _check_max_depth, cascade_bracket
    from .learners import tag_sentence
    from .model_io import loads_model

    _check_max_depth(args.max_depth)  # before the model and the input are read
    _check_head(args.head)
    tagger = functools.partial(tag_sentence, loads_model(_read_text(args.model)))
    corpus = _read_corpus(args.input, "iob1", args.columns, strict=False)
    nested = (
        nested_text(cascade_bracket(s, tagger, max_depth=args.max_depth, head=args.head))
        for s in corpus.sentences
    )
    _write_text(args.output, "".join(nested))


def _cmd_report(args) -> None:
    from .metrics import score_tagged

    if not args.pred:
        raise UsageError("at least one --pred NAME=PATH is required")
    preds = [_parse_pred(text) for text in args.pred]
    for name, _ in preds:
        check_system_name(name)
    if len({name for name, _ in preds}) != len(preds):
        raise ConfigError("system names must be unique")
    gold = parse_conll(_read_text(args.gold), TagScheme.IOB1, columns=3, strict=False)
    rows = []
    for name, path in preds:
        pred = parse_conll(_read_text(path), TagScheme.IOB1, columns=3, strict=False)
        rows.append((name, score_tagged(gold, pred, beta=args.beta)))
    width = max(len("system"), max(len(name) for name, _ in rows))
    lines = [f"{'system':<{width}}  {'precision':>9}  {'recall':>9}  {'F':>9}"]
    for name, report in rows:
        overall = report.overall
        lines.append(
            f"{name:<{width}}  {100 * overall.precision:>9.2f}"
            f"  {100 * overall.recall:>9.2f}  {100 * report.f_rate:>9.2f}"
        )
    _write_text(args.output, "\n".join(lines) + "\n")
    if args.tsv is not None:
        tsv = ["system\tfound\tgold\tcorrect\tprecision\trecall\tf"]
        for name, report in rows:
            o = report.overall
            tsv.append(
                f"{name}\t{o.found}\t{o.gold}\t{o.correct}"
                f"\t{o.precision!r}\t{o.recall!r}\t{report.f_rate!r}"
            )
        _write_text(args.tsv, "\n".join(tsv) + "\n")


#---------------------------------------------------------------------------
# parser assembly
#
# ``_command`` registers a subcommand by decorating the function that
# declares its settings; the parser adds the subcommand's positional
# arguments, ``--config``, ``-o`` and those settings when it first parses.

_COMMANDS: dict[str, tuple] = {}


def _command(name: str, handler, help: str, **positionals):
    def register(declare):
        _COMMANDS[name] = (handler, help, positionals, declare)
        return declare

    return register


def _declare(positionals: dict, declare, sub) -> None:
    for dest, text in positionals.items():
        sub.add_argument(dest, help=text)
    sub.add_argument("--config", default=None, help="flat key = value settings file")
    _setting(sub, "-o", "--output", conv=str, metavar="PATH", help="output file (default: stdout)")
    declare(sub)


def _scheme(sub) -> None:
    _setting(sub, "--scheme", conv=_Choice(lambda: SCHEMES), default="iob2",
             help="tag scheme of the corpus files")


def _columns(sub, flag: str, what: str) -> None:
    _setting(sub, flag, conv=_Choice(lambda: (2, 3), conv=_conv_int), default=3,
             help=f"columns in the {what} file")


def _head(sub) -> None:
    _setting(sub, "--head", conv=_Choice(lambda: _declared("cascade", "HEAD_CHOICES")),
             default="last", help="token that stands in for a collapsed chunk")


def _beta(sub) -> None:
    _setting(sub, "--beta", conv=_conv_float, default=1.0,
             help="weight of recall in the F rate")


def _learner_option(sub, key: str) -> None:
    from .learners import LearnerSpec

    field, conv, help = _LEARNER_OPTIONS[key]
    _setting(sub, "--" + field.replace("_", "-"), conv=conv, default=LearnerSpec.OPTIONS[field],
             help=help)


@_command("convert", _cmd_convert, "convert tag schemes or flatten nested files",
          input="3 column chunk file, or a nested bracket file")
def _convert_settings(sub) -> None:
    _setting(sub, "--from", dest="from_scheme", conv=_Choice(lambda: SCHEMES),
             help="scheme of the input")
    _setting(sub, "--to", dest="to_scheme", conv=_Choice(lambda: SCHEMES),
             help="scheme of the output")
    _setting(sub, "--nested-to-levels", conv=_conv_bool, default=False,
             help="read a nested bracket file, write per level training sentences")
    _head(sub)


@_command("baseline", _cmd_baseline, "tag a file with the per pos-tag majority chunk tag",
          train="3 column training file", test="file to tag")
def _baseline_settings(sub) -> None:
    _scheme(sub)
    _columns(sub, "--columns", "test")
    _learner_option(sub, "io")


@_command("train", _cmd_train, "train a chunker and save the model",
          train="3 column training file")
def _train_settings(sub) -> None:
    _scheme(sub)
    _setting(sub, "--learner", conv=_Choice(lambda: _declared("learners", "LEARNER_KINDS")),
             help="learner kind")
    for key in _LEARNER_OPTIONS:
        _learner_option(sub, key)


@_command("tag", _cmd_tag, "tag a file with a saved model",
          model="model file written by train", input="file to tag")
def _tag_settings(sub) -> None:
    _columns(sub, "--columns", "input")


@_command("eval", _cmd_eval, "score predictions against gold chunks",
          gold="gold standard file", pred="prediction file")
def _eval_settings(sub) -> None:
    _beta(sub)
    _setting(sub, "--kv", conv=_conv_bool, default=False, help="machine readable key=value output")
    _setting(sub, "--nested", conv=_conv_bool, default=False,
             help="score nested bracket files instead of chunk tags")


@_command("cv-tune", _cmd_cv_tune, "build a tuning table by cross validation",
          train="3 column training file")
def _cv_tune_settings(sub) -> None:
    sub.add_argument(
        "--system", action="append", metavar="NAME=LEARNER[,key=value,...]",
        help="a system to train; repeat for several",
    )
    _scheme(sub)
    _setting(sub, "--folds", conv=_conv_int, default=10, help="cross validation folds")


@_command("weights", _cmd_weights, "estimate combiner weights from a tuning table",
          table="prediction table with gold tags")
def _weights_settings(sub) -> None:
    pass


@_command("combine", _cmd_combine, "combine the systems of a prediction table",
          table="prediction table to combine")
def _combine_settings(sub) -> None:
    methods = _Choice(lambda: _declared("ensemble", "VOTING_METHODS") + STACKED_METHODS)
    _setting(sub, "--method", conv=methods, default="majority", help="combination method")
    _setting(sub, "--weights", conv=str, metavar="PATH", help="combiner weights file")
    _setting(sub, "--tuning", conv=str, metavar="PATH",
             help="tuning table to estimate weights or train stacking on")
    _setting(sub, "--bracket-level", conv=_conv_bool, default=False,
             help="vote on chunk starts and ends instead of tags")
    _setting(sub, "--words", conv=str, metavar="PATH",
             help="corpus supplying the words of the output")
    _columns(sub, "--words-columns", "words")


@_command("best-n", _cmd_best_n, "pick the best majority voting subset",
          table="prediction table with gold tags")
def _best_n_settings(sub) -> None:
    _setting(sub, "-n", conv=_conv_int, help="subset size")


@_command("cascade", _cmd_cascade, "parse nested chunks bottom-up with a flat model",
          model="model file written by train", input="file to parse")
def _cascade_settings(sub) -> None:
    _columns(sub, "--columns", "input")
    _setting(sub, "--max-depth", conv=_conv_int, default=5, help="nesting levels to try")
    _head(sub)


@_command("report", _cmd_report, "tabulate the scores of several prediction files",
          gold="gold standard file")
def _report_settings(sub) -> None:
    sub.add_argument(
        "--pred", action="append", metavar="NAME=PATH",
        help="a prediction file to score; repeat for several",
    )
    _beta(sub)
    _setting(sub, "--tsv", conv=str, metavar="PATH",
             help="also write a tab separated table to PATH")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chunkvote", description="shallow parsing by system combination")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (handler, help, positionals, declare) in _COMMANDS.items():
        sub = commands.add_parser(name, help=help)
        sub.set_defaults(_handler=handler, _settings={})
        sub.declare = functools.partial(_declare, positionals, declare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        _resolve(args)
        args._handler(args)
        return 0
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ChunkvoteError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit:
        raise
    except Exception as exc:  # pragma: no cover - safety net
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def cli_entry() -> None:
    sys.exit(main())
