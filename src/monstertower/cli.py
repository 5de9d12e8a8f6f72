"""Command-line surface.

Subcommands: word, pc, curve, lift-preimages, proximity, enumerate, check.
Global flags --format {text,json,dot} and --max-level N, with environment
overrides MONSTERTOWER_FORMAT and MONSTERTOWER_MAX_LEVEL.  Series have an
exact zero test, so no setting decides a valuation; --precision N is
accepted and ignored.  Exit codes: 0 success, 1 input error (or output
closed by the reader), 2 internal consistency mismatch, so CI can gate on
the invariants.  A refusal is raised, and ``main`` alone prints it: one
line ``error: <message>`` for exit 1 (after the usage line, which the
parser prints, for a usage error) and ``consistency mismatch: <message>``
for exit 2.

Every command is deterministic: identical invocations produce byte-identical
output.  Rationals are serialized as "p/q" strings in JSON.
"""

from __future__ import annotations

import argparse
import os
import sys

from .defaults import DEFAULT_MAX_LEVEL
from .errors import MismatchReport, MonsterTowerError, ParseError
from .invariants import _build_proximity, invariant_panel, proximity_diagram
from .puiseux import (
    PuiseuxCharacteristic,
    cw_length,
    front_chain,
    parse_pc,
    pc_from_word_back,
    pc_from_word_front,
    word_from_pc,
)
from .words import count_words, enumerate_words, parse_word

# The series arithmetic, the engines and the corpus are imported by the
# handlers that run them, so a word-layer command never loads them.

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
    """Integer cast for an argument (and the environment variable of a
    global flag), refusing values below ``minimum``."""

    def cast(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    cast.__name__ = "int"  # argparse names the type in "invalid int value: 'x'"
    return cast


_nonnegative = _int_at_least(0)


def _format(text: str) -> str:
    if text not in FORMATS:
        raise ValueError(f"choose from {', '.join(FORMATS)}")
    return text


class _Parser(argparse.ArgumentParser):
    # usage problems are input errors (exit 1), not consistency mismatches:
    # the usage line is printed here, the message by main
    def error(self, message):
        self.print_usage(sys.stderr)
        raise ParseError(message)


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument(
        "--format",
        "-f",
        choices=FORMATS,
        default=argparse.SUPPRESS,
        help="output format (default text; env MONSTERTOWER_FORMAT)",
    )
    # kept for bench/run.py until ROADMAP item 1: validated, then ignored
    shared.add_argument(
        "--precision",
        type=_int_at_least(1),
        default=argparse.SUPPRESS,
        help="ignored: series are exact",
    )
    shared.add_argument(
        "--max-level",
        type=_nonnegative,
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
    p_curve.add_argument(
        "--level", type=_nonnegative, default=None, help="data point level, at most --max-level"
    )
    p_curve.add_argument(
        "--engine", choices=("nash", "blowup", "both"), default="nash",
        help="lifting engine; 'both' cross-checks them",
    )

    p_pre = add("lift-preimages", help="all words lifting to the given word")
    p_pre.add_argument("text")

    p_prox = add("proximity", help="proximity diagram of a word")
    p_prox.add_argument("text")

    p_enum = add("enumerate", help="all valid words up to a length")
    p_enum.add_argument("max_len", type=_nonnegative)
    p_enum.add_argument(
        "--check",
        action="append",
        default=[],
        choices=WORD_SUITES,
        help="consistency suites to run over the enumeration",
    )

    p_check = add("check", help="run the full consistency suite")
    p_check.add_argument("--max-len", type=_nonnegative, default=10, help="word length bound")
    p_check.add_argument("--corpus-size", type=_nonnegative, default=60)
    p_check.add_argument("--seed", type=int, default=None)
    return parser


def _fill_defaults(args) -> None:
    if not hasattr(args, "format"):
        args.format = _env_default("MONSTERTOWER_FORMAT", "text", _format)
    if not hasattr(args, "max_level"):
        args.max_level = _env_default("MONSTERTOWER_MAX_LEVEL", DEFAULT_MAX_LEVEL, _nonnegative)


def _has_dot_form(args) -> bool:
    if args.command == "curve":
        return args.engine == "nash"
    return args.command in ("word", "pc", "proximity")


def _emit(args, payload, text, dot=None) -> int:
    """Print the output in the chosen format.  ``payload``, ``text`` and
    ``dot`` are zero-argument callables, and only the one the format asks
    for is called.  ``main`` refuses ``dot`` before the work starts for a
    command with no DOT form."""
    if args.format == "json":
        import json

        print(json.dumps(payload(), indent=2, sort_keys=True))
    else:
        print((dot if args.format == "dot" else text)())
    return EXIT_OK


def _cmd_word(args) -> int:
    word = parse_word(args.text)
    panel = invariant_panel(word=word)
    return _emit(args, panel.to_json_dict, panel.to_text, panel.proximity.to_dot)


def _cmd_pc(args) -> int:
    pc = parse_pc(args.text)
    length = cw_length(pc)
    if length > PC_WORD_BOUND:
        raise ParseError(f"CW({pc}) has {length} symbols, above the pc bound {PC_WORD_BOUND}")
    panel = invariant_panel(pc=pc)
    return _emit(args, panel.to_json_dict, panel.to_text, panel.proximity.to_dot)


def _cmd_curve(args) -> int:
    from .tower import parse_curve_trace

    if args.level is not None and args.engine != "nash":
        raise ParseError(f"--level applies only to --engine nash, not {args.engine}")
    if args.level is not None and args.level > args.max_level:
        raise ParseError(f"--level {args.level} is above --max-level {args.max_level}")
    # the germ lifted to its presented level; the command continues this lift
    trace = parse_curve_trace(args.text)
    if args.engine == "both":
        from .blowup import cross_check

        report = cross_check(trace, args.max_level)
        return _emit(args, report.to_json_dict, lambda: "engines agree\n" + "\n".join(
            f"{k:<16} {v}" for k, v in (
                ("word", report.nash.word.symbols),
                ("order profile", report.nash.order_profile()),
                ("multiplicities", ",".join(str(m) for m in report.nash.multiplicities())),
            )
        ))
    if args.engine == "blowup":
        from .blowup import blowup_resolve

        resolved = blowup_resolve(trace.germ, args.max_level)
        return _emit(args, resolved.to_json_dict, lambda: "\n".join(
            [
                f"engine          blowup",
                f"word            {resolved.word.symbols or '(empty)'}",
                f"regular level   {resolved.regularization_level}",
                f"order profile   {resolved.order_profile()}",
                f"multiplicities  {','.join(str(m) for m in resolved.multiplicities())}",
            ]
        ))
    regular = trace.continued(max_level=args.max_level)
    r = regular.regularization_level
    k = args.level if args.level is not None else r
    point = regular.continued(levels=k)
    word = regular.curve_word(len(trace.steps))
    panel_word = word.normalize()
    panel = invariant_panel(word=panel_word)  # its self-checks run in every format
    vo = regular.vertical_orders()

    def payload():
        out = point.to_json_dict()
        out["regularization_level"] = r
        out["curve_word"] = word.symbols
        out["point_word"] = point.word.symbols
        out["panel"] = panel.to_json_dict()
        out["vertical_orders"] = vo.to_json_dict()
        return out

    def text():
        data = ",".join(str(c) for c in point.data_point)
        return "\n".join(
            [
                f"engine                 nash",
                f"curve word             {panel_word.symbols or '(empty)'}",
                f"point word             {point.word.symbols or '(empty)'}",
                f"chart path             {point.chart_path or '(none)'}",
                f"regularization level   {r}",
                f"data point             ({data})",
                f"vertical orders        ({','.join(str(v) for v in vo.values)})",
                "chart equations        " + ("; ".join(point.chart_equations()) or "(none)"),
            ]
        )

    return _emit(args, payload, text, panel.proximity.to_dot)


def _cmd_lift_preimages(args) -> int:
    word = parse_word(args.text)
    preimages = [
        (u, pc_from_word_front(u))
        for u in sorted(word.lift_preimages(), key=lambda w: w.sort_key())
    ]
    return _emit(
        args,
        lambda: {
            "word": word.symbols,
            "preimages": [{"word": u.symbols, "pc": str(pc)} for u, pc in preimages],
        },
        lambda: "\n".join(f"{u.symbols}  {pc}" for u, pc in preimages),
    )


def _cmd_proximity(args) -> int:
    word = parse_word(args.text)
    diagram = proximity_diagram(word)
    return _emit(args, diagram.to_json_dict, lambda: "\n".join(
        [
            f"multiplicities  {','.join(str(m) for m in diagram.multiplicities())}",
            f"edges           {' '.join(f'{j}->{i}' for j, i in diagram.edges)}",
            f"sum rule        {'ok' if diagram.check_sums() else 'violated'}",
        ]
    ), diagram.to_dot)


ENUMERATION_BOUND = 14
# Longest CW word the pc command builds.  The word of [a;a+2] already has
# about a/2 symbols, and the panel and its output grow with the word (the
# JSON form by about 200 bytes a symbol).
PC_WORD_BOUND = 100_000


def _cmd_enumerate(args) -> int:
    if args.max_len > ENUMERATION_BOUND:
        raise ParseError(f"enumeration bound is {ENUMERATION_BOUND}")
    counts = {n: count_words(n) for n in range(1, args.max_len + 1)}
    total = sum(counts.values())
    # the words themselves only for a check or the JSON list
    words = list(enumerate_words(args.max_len)) if args.check or args.format == "json" else []
    found = _run_word_checks(args.check, words)  # a suite named twice runs once
    failures = [f for suite in found.values() for f in suite]

    def status(failed: list[str]) -> str:
        return f"{len(failed)} failures" if failed else "ok"

    def text():
        lines = [f"valid nonempty words of length <= {args.max_len}: {total}"]
        lines.extend(f"  length {n}: {c}" for n, c in counts.items())
        if found:
            lines.append(f"checks: {', '.join(found)} -> {status(failures)}")
        lines.extend(f"  FAIL {f}" for f in failures)
        return "\n".join(lines)

    code = _emit(args, lambda: {
        "max_len": args.max_len,
        "counts": {str(n): c for n, c in counts.items()},
        "total": total,
        "words": [w.symbols for w in words],
        "checks": {name: status(suite) for name, suite in found.items()},
        "failures": failures,
    }, text)
    return EXIT_MISMATCH if failures else code


def _run_word_checks(names, words) -> dict[str, list[str]]:
    """The failures of each suite in ``names``, in word order, keyed in the
    order of first naming (a suite named twice runs once).  The words are
    walked once, a block at a time: the suites that read the front recursion
    share one ``front_chain`` per word, and each suite runs as its own loop
    over the block, which runs faster than one loop through every suite."""
    found = {name: [] for name in names}
    fronts = any(name != "preimage-duality" for name in found)
    for start in range(0, len(words), _CHECK_BLOCK):
        block = words[start:start + _CHECK_BLOCK]
        chains = [front_chain(w) for w in block] if fronts else []
        for name, failures in found.items():
            failures.extend(WORD_SUITES[name](block, chains))
    return found


def _pc_agreement(block, chains) -> list[str]:
    return [f"pc-agreement {w.symbols}" for w, (_, lambdas, _) in zip(block, chains)
            if PuiseuxCharacteristic(lambdas) != pc_from_word_back(w)]


def _round_trip(block, chains) -> list[str]:
    return [f"round-trip {w.symbols}" for w, (_, lambdas, _) in zip(block, chains)
            if w.is_critical() and word_from_pc(PuiseuxCharacteristic(lambdas)) != w]


def _proximity_sum(block, chains) -> list[str]:
    return [f"proximity-sum {w.symbols}" for w, (mults, _, _) in zip(block, chains)
            if not _build_proximity(w, mults).check_sums()]


def _preimage_duality(block, chains) -> list[str]:
    return [f"preimage-duality {w.symbols} {u.symbols}"
            for w in block for u in w.lift_preimages() if u.lift() != w]


# Each suite reads a block of words and their front chains and returns its
# failure lines.
WORD_SUITES = {
    "pc-agreement": _pc_agreement,
    "round-trip": _round_trip,
    "proximity-sum": _proximity_sum,
    "preimage-duality": _preimage_duality,
}
_CHECK_BLOCK = 256  # words per block; only one block's front chains are held


def _cmd_check(args) -> int:
    from .blowup import cross_check
    from .corpus import DEFAULT_SEED, generate_corpus

    if args.max_len > ENUMERATION_BOUND:
        raise ParseError(f"enumeration bound is {ENUMERATION_BOUND}")
    words = list(enumerate_words(args.max_len))
    found = _run_word_checks(WORD_SUITES, words)
    failures = [f for name in WORD_SUITES for f in found[name]]
    results = {name: {"checked": len(words), "failures": len(found[name])} for name in WORD_SUITES}
    specs = generate_corpus(args.corpus_size, DEFAULT_SEED if args.seed is None else args.seed)
    engine_failures = 0
    for spec in specs:
        try:
            cross_check(spec.curve(), args.max_level)
        except MismatchReport:
            engine_failures += 1
            failures.append(f"engine-equivalence {spec}")
    results["engine-equivalence"] = {
        "checked": len(specs),
        "failures": engine_failures,
    }
    def text():
        lines = [f"{name:<20} {info['checked']} checked, {info['failures']} failures"
                 for name, info in results.items()]
        lines.extend(f"  FAIL {f}" for f in failures)
        return "\n".join(lines)

    code = _emit(args, lambda: {"results": results, "failures": failures}, text)
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
    # An exact answer or a literal may be longer than the interpreter's cap
    # on int <-> str conversions (4,300 digits, 0 where there is none);
    # argv bounds the input, so the cap is lifted while the command runs and
    # the caller's is restored.
    cap = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if cap:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        _fill_defaults(args)
        if args.format == "dot" and not _has_dot_form(args):
            raise ParseError("no DOT form for this command")
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except SystemExit:  # --help: the parser's one exit
        return EXIT_OK
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
    except MemoryError:
        # an input such as a term t^400000000 asks for more memory than
        # there is; the failed allocation is freed by now
        print("error: the input is too large for memory", file=sys.stderr)
        return EXIT_INPUT
    finally:
        if cap:
            sys.set_int_max_str_digits(cap)


if __name__ == "__main__":
    sys.exit(main())
