"""Command-line surface.

Subcommands: word, pc, curve, lift-preimages, proximity, enumerate, check.
Global flags --format {text,json,dot}, --precision N, --max-level N, with
environment overrides MONSTERTOWER_FORMAT, MONSTERTOWER_PRECISION and
MONSTERTOWER_MAX_LEVEL.  Exit codes: 0 success, 1 input error (or output
closed by the reader), 2 internal consistency mismatch, so CI can gate on
the invariants.

Every command is deterministic: identical invocations produce byte-identical
output.  Rationals are serialized as "p/q" strings in JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .blowup import blowup_resolve, cross_check
from .corpus import generate_corpus, with_precision_retry
from .errors import MismatchReport, MonsterTowerError, ParseError
from .invariants import (
    invariant_panel,
    multiplicity_sequence,
    proximity_diagram,
    vertical_orders,
)
from .puiseux import (
    parse_pc,
    pc_from_word_back,
    pc_from_word_front,
    word_from_pc,
)
from .series import DEFAULT_PRECISION
from .tower import (
    DEFAULT_MAX_LEVEL,
    chart_equations,
    lift_to_regularization,
    lift_trace,
    parse_curve,
)
from .words import count_words, enumerate_words, parse_word

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_MISMATCH = 2
FORMATS = ("text", "json", "dot")


def _env_default(name: str, fallback, cast):
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(f"environment variable {name}={raw!r} is invalid: {exc}") from exc


def _int_at_least(minimum: int):
    """Integer cast for a flag and its environment variable, refusing values
    below ``minimum``."""

    def cast(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    cast.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return cast


_precision = _int_at_least(1)
_max_level = _int_at_least(0)


def _format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"choose from {', '.join(FORMATS)}")
    return text


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not consistency mismatches
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument(
        "--format",
        "-f",
        choices=FORMATS,
        default=argparse.SUPPRESS,
        help="output format (default text; env MONSTERTOWER_FORMAT)",
    )
    shared.add_argument(
        "--precision",
        type=_precision,
        default=argparse.SUPPRESS,
        help="series precision in terms (env MONSTERTOWER_PRECISION)",
    )
    shared.add_argument(
        "--max-level",
        type=_max_level,
        default=argparse.SUPPRESS,
        help="lifting level budget (env MONSTERTOWER_MAX_LEVEL)",
    )
    parser = _Parser(
        prog="monstertower",
        parents=[shared],
        description="Structural invariants of curve germs and Goursat "
        "distributions: RVT words, Puiseux characteristics, lifting and "
        "blowup traces.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        return sub.add_parser(name, parents=[shared], **kwargs)

    p_word = add("word", help="invariant panel of an RVT word")
    p_word.add_argument("text", help="word over R, V, T (empty string allowed)")

    p_pc = add("pc", help="word and panel of a Puiseux characteristic")
    p_pc.add_argument("text", help="characteristic like '[27;63,83]' or '[1;]'")

    p_curve = add("curve", help="lift a parameterized curve germ")
    p_curve.add_argument("text", help="'x=t^5, y=t^7' or '@level k chart=... r=..., n=...'")
    p_curve.add_argument("--level", type=int, default=None, help="tower level for the data point")
    p_curve.add_argument(
        "--engine", choices=("nash", "blowup", "both"), default="nash",
        help="lifting engine; 'both' cross-checks them",
    )

    p_pre = add("lift-preimages", help="all words lifting to the given word")
    p_pre.add_argument("text")

    p_prox = add("proximity", help="proximity diagram of a word")
    p_prox.add_argument("text")

    p_enum = add("enumerate", help="all valid words up to a length")
    p_enum.add_argument("max_len", type=int)
    p_enum.add_argument(
        "--check",
        action="append",
        default=[],
        choices=("pc-agreement", "round-trip", "proximity-sum", "preimage-duality"),
        help="consistency suites to run over the enumeration",
    )

    p_check = add("check", help="run the full consistency suite")
    p_check.add_argument("--max-len", type=int, default=10, help="word length bound")
    p_check.add_argument("--corpus-size", type=int, default=60)
    p_check.add_argument("--seed", type=int, default=None)
    return parser


def _fill_defaults(args) -> None:
    if not hasattr(args, "format"):
        args.format = _env_default("MONSTERTOWER_FORMAT", "text", _format)
    if not hasattr(args, "precision"):
        args.precision = _env_default("MONSTERTOWER_PRECISION", DEFAULT_PRECISION, _precision)
    if not hasattr(args, "max_level"):
        args.max_level = _env_default("MONSTERTOWER_MAX_LEVEL", DEFAULT_MAX_LEVEL, _max_level)


def _emit(args, payload: dict, text: str, dot: str | None = None) -> int:
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    elif args.format == "dot":
        if dot is None:
            print("no DOT form for this command", file=sys.stderr)
            return EXIT_INPUT
        print(dot)
    else:
        print(text)
    return EXIT_OK


def _cmd_word(args) -> int:
    word = parse_word(args.text)
    panel = invariant_panel(word=word)
    return _emit(args, panel.to_json_dict(), panel.to_text(), panel.proximity.to_dot())


def _cmd_pc(args) -> int:
    pc = parse_pc(args.text)
    panel = invariant_panel(pc=pc)
    return _emit(args, panel.to_json_dict(), panel.to_text(), panel.proximity.to_dot())


def _cmd_curve(args) -> int:
    germ, presented_level = parse_curve(args.text, args.precision)
    if args.engine == "both":
        report = cross_check(germ, args.max_level)
        payload = report.to_json_dict()
        text = "engines agree\n" + "\n".join(
            f"{k:<16} {v}" for k, v in (
                ("word", report.nash_word),
                ("order profile", report.nash_profile),
                ("multiplicities", ",".join(str(m) for m in report.nash_multiplicities)),
            )
        )
        return _emit(args, payload, text)
    # The Nash lift runs first for every engine, so a germ that neither
    # engine can resolve reports the Nash engine's error.
    regular = lift_to_regularization(germ, args.max_level)
    if args.engine == "blowup":
        trace = blowup_resolve(germ, args.max_level)
        payload = trace.to_json_dict()
        text = "\n".join(
            [
                f"engine          blowup",
                f"word            {trace.word.symbols or '(empty)'}",
                f"regular level   {trace.regularity_level}",
                f"order profile   {trace.profile}",
                f"multiplicities  {','.join(str(m) for m in trace.multiplicities)}",
            ]
        )
        return _emit(args, payload, text)
    r = regular.regularization_level
    k = args.level if args.level is not None else r
    trace = regular.prefix(k) if k <= r else lift_trace(germ, levels=k)
    word = regular.curve_word(presented_level)
    panel_word = word.normalize()
    payload = trace.to_json_dict()
    payload["curve_word"] = word.symbols
    payload["point_word"] = trace.word.symbols[:k]
    payload["panel"] = invariant_panel(word=panel_word).to_json_dict()
    vo = regular.vertical_orders()
    payload["vertical_orders"] = vo.to_json_dict()
    data = ",".join(str(c) for c in trace.data_point[: k + 2])
    text = "\n".join(
        [
            f"engine                 nash",
            f"curve word             {panel_word.symbols or '(empty)'}",
            f"point word             {trace.word.symbols[:k] or '(empty)'}",
            f"chart path             {trace.chart_path[:k] or '(none)'}",
            f"regularization level   {trace.regularization_level}",
            f"data point             ({data})",
            f"vertical orders        ({','.join(str(v) for v in vo.values)})",
            "chart equations        " + "; ".join(chart_equations(trace.chart_path[:k])),
        ]
    )
    dot = proximity_diagram(panel_word).to_dot()
    return _emit(args, payload, text, dot)


def _cmd_lift_preimages(args) -> int:
    word = parse_word(args.text)
    preimages = sorted(word.lift_preimages(), key=lambda w: w.sort_key())
    payload = {
        "word": word.symbols,
        "preimages": [
            {"word": u.symbols, "pc": str(pc_from_word_front(u))} for u in preimages
        ],
    }
    text = "\n".join(f"{u.symbols}  {pc_from_word_front(u)}" for u in preimages)
    return _emit(args, payload, text)


def _cmd_proximity(args) -> int:
    word = parse_word(args.text)
    diagram = proximity_diagram(word)
    text = "\n".join(
        [
            f"multiplicities  {','.join(str(m) for m in diagram.multiplicities())}",
            f"edges           {' '.join(f'{j}->{i}' for j, i in diagram.edges)}",
            f"sum rule        {'ok' if diagram.check_sums() else 'violated'}",
        ]
    )
    return _emit(args, diagram.to_json_dict(), text, diagram.to_dot())


ENUMERATION_BOUND = 14


def _cmd_enumerate(args) -> int:
    if args.max_len > ENUMERATION_BOUND:
        print(f"enumeration bound is {ENUMERATION_BOUND}", file=sys.stderr)
        return EXIT_INPUT
    words = list(enumerate_words(args.max_len))
    counts = {n: count_words(n) for n in range(1, args.max_len + 1)}
    failures: list[str] = []
    for name in args.check:
        failures.extend(_run_word_check(name, words))
    payload = {
        "max_len": args.max_len,
        "counts": {str(n): c for n, c in counts.items()},
        "total": len(words),
        "words": [w.symbols for w in words],
        "checks": {name: "ok" for name in args.check},
        "failures": failures,
    }
    lines = [f"valid nonempty words of length <= {args.max_len}: {len(words)}"]
    lines.extend(f"  length {n}: {c}" for n, c in counts.items())
    if args.check:
        lines.append(f"checks: {', '.join(args.check)} -> "
                     f"{'ok' if not failures else f'{len(failures)} failures'}")
    lines.extend(f"  FAIL {f}" for f in failures)
    code = _emit(args, payload, "\n".join(lines))
    return EXIT_MISMATCH if failures else code


def _run_word_check(name: str, words) -> list[str]:
    failures = []
    if name == "pc-agreement":
        for w in words:
            if pc_from_word_front(w) != pc_from_word_back(w):
                failures.append(f"pc-agreement {w.symbols}")
    elif name == "round-trip":
        for w in words:
            if w.is_critical() and word_from_pc(pc_from_word_front(w)) != w:
                failures.append(f"round-trip {w.symbols}")
    elif name == "proximity-sum":
        for w in words:
            if not proximity_diagram(w).check_sums():
                failures.append(f"proximity-sum {w.symbols}")
    elif name == "preimage-duality":
        for w in words:
            for u in w.lift_preimages():
                if u.lift() != w:
                    failures.append(f"preimage-duality {w.symbols} {u.symbols}")
    return failures


def _cmd_check(args) -> int:
    words = list(enumerate_words(args.max_len))
    suites = ("pc-agreement", "round-trip", "proximity-sum", "preimage-duality")
    failures: list[str] = []
    results = {}
    for name in suites:
        bad = _run_word_check(name, words)
        failures.extend(bad)
        results[name] = {"checked": len(words), "failures": len(bad)}
    if args.seed is None:
        specs = generate_corpus(args.corpus_size)
    else:
        specs = generate_corpus(args.corpus_size, args.seed)
    engine_failures = 0
    for spec in specs:
        try:
            with_precision_retry(cross_check, spec)
        except MismatchReport:
            engine_failures += 1
            failures.append(f"engine-equivalence {spec}")
    results["engine-equivalence"] = {
        "checked": len(specs),
        "failures": engine_failures,
    }
    payload = {"results": results, "failures": failures}
    lines = [
        f"{name:<20} {info['checked']} checked, {info['failures']} failures"
        for name, info in results.items()
    ]
    lines.extend(f"  FAIL {f}" for f in failures)
    code = _emit(args, payload, "\n".join(lines))
    return EXIT_MISMATCH if failures else code


_HANDLERS = {
    "word": _cmd_word,
    "pc": _cmd_pc,
    "curve": _cmd_curve,
    "lift-preimages": _cmd_lift_preimages,
    "proximity": _cmd_proximity,
    "enumerate": _cmd_enumerate,
    "check": _cmd_check,
}


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_INPUT
    try:
        _fill_defaults(args)
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader closed the pipe (``| head``): stop without a traceback,
        # and point stdout at devnull so the flush at exit cannot fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_INPUT
    except MismatchReport as exc:
        print(f"consistency mismatch: {exc}", file=sys.stderr)
        return EXIT_MISMATCH
    except MonsterTowerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
