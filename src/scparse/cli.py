"""Command-line entry points: compile, parse, bench."""

from __future__ import annotations

import argparse
import json
import sys

from . import bench as benchmod
from .engine import EngineError, init_session, lexical_symbols
from .forest import TreeCount, build_forest, count_trees, dump_forest
from .grammar import GrammarError, load_grammar
from .lattice import LatticeError, load_lattice, tokenize_plain
from .oracle import earley_count_trees, earley_recognize
from .relations import FAMILY, compile_grammar, dump_relations, load_compiled, save_compiled


class UsageError(Exception):
    pass


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise UsageError(f"cannot read {path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None


def _write(path: str, text: str):
    try:
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror}") from None


def _load_any_grammar(path: str):
    """Grammar source or compiled table of any format, detected by the header."""
    text = _read(path)
    if text.lstrip().startswith(FAMILY):
        return load_compiled(text)
    return compile_grammar(load_grammar(text))


def _load_lexicon(path: str) -> dict[str, set[str]]:
    lexicon: dict[str, set[str]] = {}
    for lineno, raw in enumerate(_read(path).splitlines(), start=1):
        line = raw.split("#")[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) < 2:
            raise UsageError(f"lexicon line {lineno}: expected 'token category...'")
        lexicon.setdefault(parts[0], set()).update(parts[1:])
    return lexicon


def cmd_compile(args) -> int:
    compiled = _load_any_grammar(args.grammar)
    if args.output:
        _write(args.output, save_compiled(compiled))
    if args.dump_relations:
        print(dump_relations(compiled))
    elif not args.output:
        print(save_compiled(compiled), end="")
    return 0


def cmd_parse(args) -> int:
    compiled = _load_any_grammar(args.grammar)
    if args.lattice:
        lat = load_lattice(_read(args.lattice))
    elif args.input is not None:
        lexicon = _load_lexicon(args.lexicon) if args.lexicon else None
        lat = tokenize_plain(args.input, lexicon)
    else:
        raise UsageError("need an input string or --lattice FILE")

    if args.engine == "earley":
        for flag, value in (("--trace", args.trace), ("--forest", args.forest),
                            ("--stats", args.stats)):
            if value:
                raise UsageError(f"{flag} needs --engine scp")
        lexical_symbols(compiled.grammar, lat)  # the same typed error as the engine's
        ok = earley_recognize(compiled.grammar, lat)
        if args.count_trees:
            print(f"trees: {_render_count(earley_count_trees(compiled.grammar, lat))}")
        return 0 if ok else 1

    chart = init_session(compiled, lat, trace=args.trace)
    chart.parse_cycle()
    if args.trace:
        for line in chart.trace_lines:
            print(line)
    roots = chart.accept()
    forest = build_forest(chart)
    if args.forest:
        _write(args.forest, dump_forest(forest))
    if args.count_trees:
        print(f"trees: {_render_count(count_trees(forest))}")
    if args.stats:
        if args.stats == "json":
            print(json.dumps(chart.stats, sort_keys=True))
        else:
            for k in sorted(chart.stats):
                print(f"{k}={chart.stats[k]}")
    return 0 if roots else 1


def _render_count(tc: TreeCount) -> str:
    if tc.kind == "infinite":
        return "infinite"
    if tc.kind == "capped":
        return f">{tc.value}"
    return str(tc.value)


def cmd_bench(args) -> int:
    lengths = None
    if args.lengths:
        try:
            lengths = [int(w) for w in args.lengths.split(",")]
        except ValueError:
            raise UsageError(f"bad --lengths value {args.lengths!r}") from None
    try:
        records = benchmod.run_suite(args.suite, lengths, args.reps)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    csv = benchmod.to_csv(records)
    if args.csv:
        _write(args.csv, csv)
    else:
        print(csv, end="")
    print(benchmod.fit_report(records))
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="scparse",
                                 description="Bidirectional constraint-propagating chart parser")
    sub = ap.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compile", help="compile a grammar to relation/coverage tables")
    c.add_argument("grammar", help="grammar source file (or compiled table)")
    c.add_argument("-o", "--output", help="write compiled table here")
    c.add_argument("--dump-relations", action="store_true",
                   help="print nullable/LPD/RPD/LA/RA/LM/RM, coverage and useless productions")
    c.set_defaults(func=cmd_compile)

    p = sub.add_parser("parse", help="parse an input string or lattice")
    p.add_argument("-g", "--grammar", required=True, help="grammar source or compiled table")
    p.add_argument("input", nargs="?", help="input string (whitespace tokenized)")
    p.add_argument("--lattice", help="input lattice file instead of a string")
    p.add_argument("--lexicon", help="token -> category file for string inputs")
    p.add_argument("--engine", choices=["scp", "earley"], default="scp")
    p.add_argument("--trace", action="store_true", help="print the event log")
    p.add_argument("--forest", help="write the shared forest dump here")
    p.add_argument("--stats", nargs="?", const="text", choices=["text", "json"],
                   help="print session counters")
    p.add_argument("--count-trees", action="store_true", help="print the derivation tree count")
    p.set_defaults(func=cmd_parse)

    b = sub.add_parser("bench", help="run a scaling benchmark suite")
    b.add_argument("--suite", required=True, choices=sorted(benchmod.SUITE_GRAMMARS))
    b.add_argument("--lengths", help="comma-separated W values (default 8,16,...,1024)")
    b.add_argument("--csv", help="write records to this CSV file")
    b.add_argument("--reps", type=int, default=1, help="repetitions per length, best time kept")
    b.set_defaults(func=cmd_bench)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.func(args)
    except (UsageError, GrammarError, LatticeError, EngineError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
