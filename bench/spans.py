"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``monstertower`` modules from the
outside: no file of the package changes.  A name bound by ``from … import``
is a second reference to the same function object, so :meth:`Tracer.patch`
replaces every binding of that object in every loaded ``monstertower``
module (``blowup.lift_to_regularization``, ``invariants.front_chain``,
``cli.cross_check`` and so on), and methods are replaced on their class.

Each span records its id, name, start, end, parent span and op id.  Spans
are kept in a flat in-memory array and written out once, at the end of the
run.  A span's self time is its duration minus the time its child spans
cover; calls are single-threaded, so children never overlap.  Work the
tracer does for its own accounting (coefficient sizes, operand sizes) is
taken out of the enclosing span's self time.
"""

from __future__ import annotations

import functools
import gzip
import sys
from array import array
from time import perf_counter_ns

# Checks invariant_panel runs on itself: the back recursion, the direct
# restriction and the proximity sum rule.
SELFCHECK_SPANS = (
    "puiseux.pc_from_word_back",
    "puiseux.restrict_pc",
    "invariants.check_sums",
)
CLI_COMMANDS = ("word", "pc", "proximity", "lift-preimages", "curve")

# Every per-layer metric a traced run reports, with its unit.  Times are
# totals over the traced pass; "per_op" values are calls divided by ops.
# "count_computed" marks counts derived from operand sizes, not measured.
LAYER_METRICS = {
    "series.quotient.calls": "count",
    "series.quotient.self_s": "s",
    "series.quotient.coeff_ops": "count_computed",
    "series.derivative.calls": "count",
    "series.derivative.self_s": "s",
    "series.mul.calls": "count",
    "series.mul.self_s": "s",
    "series.mul.coeff_ops": "count_computed",
    "series.integrate.self_s": "s",
    "series.coeff_bits_max": "bits",
    "tower.lift_trace.per_op": "calls/op",
    "tower.lift_once.calls": "count",
    "tower.lift_once.self_s": "s",
    "tower.curve_from_chart_data.self_s": "s",
    "blowup.blowup_once.calls": "count",
    "blowup.blowup_once.self_s": "s",
    "blowup.cross_check.self_s": "s",
    "corpus.retry.attempts_per_op": "attempts/op",
    "corpus.retry.useful_ratio": "ratio",
    "corpus.retry.wasted_s": "s",
    "words.enumerate_words.self_s": "s",
    "words.goursat_word.self_s": "s",
    "puiseux.front_chain.per_op": "calls/op",
    "puiseux.pc_from_word_front.self_s": "s",
    "puiseux.pc_from_word_back.self_s": "s",
    "puiseux.restrict_pc.self_s": "s",
    "puiseux.word_from_pc.self_s": "s",
    "invariants.invariant_panel.self_s": "s",
    "invariants.multiplicity_sequence.per_op": "calls/op",
    "invariants.proximity_diagram.self_s": "s",
    "invariants.selfcheck.per_call_us": "us",
    "invariants.selfcheck.share": "ratio",
    "cli.interpreter_s": "s",
    "cli.import_s": "s",
    **{f"cli.main.{command}.self_s": "s" for command in CLI_COMMANDS},
    "trace.overhead_ratio": "ratio",
}


class Tracer:
    """In-memory span recorder with per-name call counts and self times."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.spans = array("q")  # id, name, start, end, parent, op per span
        self.counters: dict[str, int] = {}
        self.op = -1
        self.selfcheck_ns = 0
        self.panel_ns = 0
        self._stack: list[list[int]] = []
        self._next_span = 0
        self._patches: list[tuple[object, str, object]] = []
        self._selfcheck_ids = {self._name_id(n) for n in SELFCHECK_SPANS}
        self._panel_id = self._name_id("invariants.invariant_panel")

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.self_ns.append(0)
        return self._ids[name]

    # -- spans -----------------------------------------------------------------

    def enter(self, name: str) -> list[int]:
        nid = self._name_id(name)
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_span, nid, parent, 0, perf_counter_ns()]
        self._next_span += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: list[int]) -> int:
        end = perf_counter_ns()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError("spans closed out of order")
        span, nid, parent, child_ns, start = frame
        duration = end - start
        self.calls[nid] += 1
        self.self_ns[nid] += duration - child_ns
        if self._stack:
            top = self._stack[-1]
            top[3] += duration
            if nid in self._selfcheck_ids and top[1] == self._panel_id:
                self.selfcheck_ns += duration
        if nid == self._panel_id:
            self.panel_ns += duration
        self.spans.extend((span, nid, start, end, parent, self.op))
        return duration

    def exclude(self, ns: int) -> None:
        """Remove ``ns`` of tracer bookkeeping from the enclosing span."""
        if self._stack:
            self._stack[-1][3] += ns

    def count(self, key: str, amount: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def raise_to(self, key: str, value: int) -> None:
        if value > self.counters.get(key, 0):
            self.counters[key] = value

    # -- wrapping --------------------------------------------------------------

    def wrap(self, name: str, fn, account=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self.enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.exit(frame)
            if account is not None:
                begin = perf_counter_ns()
                account(self, args, result)
                self.exclude(perf_counter_ns() - begin)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, account=None, adapt=None) -> None:
        """Trace ``owner.attr`` as span ``name``.  ``owner`` is a class (the
        method is replaced there) or a module (every binding of the same
        function object in the loaded package modules is replaced)."""
        original = getattr(owner, attr)
        traced = self.wrap(name, adapt(original) if adapt else original, account)
        if isinstance(owner, type):
            targets = [(owner, attr)]
        else:
            targets = [
                (module, key)
                for module in _program_modules()
                for key, value in vars(module).items()
                if value is original
            ]
        for target, key in targets:
            self._patches.append((target, key, getattr(target, key)))
            setattr(target, key, traced)

    def uninstall(self) -> None:
        for target, key, original in reversed(self._patches):
            setattr(target, key, original)
        self._patches.clear()

    # -- results ---------------------------------------------------------------

    def calls_of(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def self_s(self, name: str) -> float:
        nid = self._ids.get(name)
        return 0.0 if nid is None else self.self_ns[nid] / 1e9

    def write_spans(self, path) -> None:
        """Write every span as CSV rows: id,name,start_ns,end_ns,parent,op."""
        with gzip.open(path, "wt", encoding="ascii") as out:
            out.write("id,name,start_ns,end_ns,parent,op\n")
            spans = self.spans
            for i in range(0, len(spans), 6):
                span, nid, start, end, parent, op = spans[i : i + 6]
                out.write(f"{span},{self.names[nid]},{start},{end},{parent},{op}\n")


def _program_modules():
    return [
        module
        for key, module in list(sys.modules.items())
        if key == "monstertower" or key.startswith("monstertower.")
    ]


# -- accounting hooks (run outside the span they describe) ---------------------


def _coeff_bits(tracer: Tracer, series) -> None:
    coeffs = series.coefficients
    if coeffs:
        widest = max(max(abs(c.numerator), c.denominator) for c in coeffs)
        tracer.raise_to("series.coeff_bits_max", widest.bit_length())


def _account_quotient(tracer: Tracer, args, result) -> None:
    den = args[1]
    out_terms = len(result.coefficients)
    lead = den.valuation_or_none() or 0
    nonzero = sum(1 for c in den.coefficients[lead : lead + out_terms] if c)
    tracer.count("series.quotient.coeff_ops", out_terms * nonzero)
    _coeff_bits(tracer, result)


def _account_mul(tracer: Tracer, args, result) -> None:
    nonzero = sum(1 for c in args[0].coefficients if c)
    tracer.count("series.mul.coeff_ops", len(result.coefficients) * nonzero)
    _coeff_bits(tracer, result)


def _account_bits(tracer: Tracer, args, result) -> None:
    _coeff_bits(tracer, result)


def _counting_retry(tracer: Tracer):
    """Adapt with_precision_retry so each attempt is counted, and the time
    of attempts that raised is summed as wasted."""

    def adapt(original):
        def with_precision_retry(fn, spec, *args, **kwargs):
            def attempt(curve):
                frame = tracer.enter("corpus.retry.attempt")
                useful = False
                try:
                    result = fn(curve)
                    useful = True
                    return result
                finally:
                    duration = tracer.exit(frame)
                    tracer.count("corpus.retry.attempts")
                    if useful:
                        tracer.count("corpus.retry.useful")
                    else:
                        tracer.count("corpus.retry.wasted_ns", duration)

            return original(attempt, spec, *args, **kwargs)

        return with_precision_retry

    return adapt


def _materialize(original):
    # enumerate_words is a generator: consume it inside the span so the span
    # covers the enumeration rather than the creation of the generator.
    def enumerate_words(*args, **kwargs):
        return iter(list(original(*args, **kwargs)))

    return enumerate_words


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``monstertower`` module."""
    from monstertower import blowup, corpus, invariants, puiseux, series, tower, words

    ts = series.TruncatedSeries
    tracer.patch(ts, "quotient", "series.quotient", account=_account_quotient)
    tracer.patch(ts, "derivative", "series.derivative", account=_account_bits)
    tracer.patch(ts, "__mul__", "series.mul", account=_account_mul)
    tracer.patch(ts, "integrate", "series.integrate", account=_account_bits)
    for name in ("lift_trace", "lift_once", "curve_from_chart_data"):
        tracer.patch(tower, name, f"tower.{name}")
    for name in ("blowup_once", "cross_check"):
        tracer.patch(blowup, name, f"blowup.{name}")
    tracer.patch(
        corpus, "with_precision_retry", "corpus.with_precision_retry",
        adapt=_counting_retry(tracer),
    )
    tracer.patch(words, "enumerate_words", "words.enumerate_words", adapt=_materialize)
    tracer.patch(words.RvtWord, "goursat_word", "words.goursat_word")
    for name in ("front_chain", "pc_from_word_front", "pc_from_word_back",
                 "restrict_pc", "word_from_pc"):
        tracer.patch(puiseux, name, f"puiseux.{name}")
    for name in ("invariant_panel", "multiplicity_sequence", "proximity_diagram"):
        tracer.patch(invariants, name, f"invariants.{name}")
    tracer.patch(invariants.ProximityDiagram, "check_sums", "invariants.check_sums")


def layer_metrics(tracer: Tracer, ops: int, cli_probe: dict, overhead: float) -> dict:
    """Per-layer metrics of one traced pass of ``ops`` ops."""
    counters = tracer.counters
    attempts = counters.get("corpus.retry.attempts", 0)
    panels = tracer.calls_of("invariants.invariant_panel")
    values = {
        "series.quotient.calls": tracer.calls_of("series.quotient"),
        "series.quotient.self_s": tracer.self_s("series.quotient"),
        "series.quotient.coeff_ops": counters.get("series.quotient.coeff_ops", 0),
        "series.derivative.calls": tracer.calls_of("series.derivative"),
        "series.derivative.self_s": tracer.self_s("series.derivative"),
        "series.mul.calls": tracer.calls_of("series.mul"),
        "series.mul.self_s": tracer.self_s("series.mul"),
        "series.mul.coeff_ops": counters.get("series.mul.coeff_ops", 0),
        "series.integrate.self_s": tracer.self_s("series.integrate"),
        "series.coeff_bits_max": counters.get("series.coeff_bits_max", 0),
        "tower.lift_trace.per_op": tracer.calls_of("tower.lift_trace") / ops,
        "tower.lift_once.calls": tracer.calls_of("tower.lift_once"),
        "tower.lift_once.self_s": tracer.self_s("tower.lift_once"),
        "tower.curve_from_chart_data.self_s": tracer.self_s("tower.curve_from_chart_data"),
        "blowup.blowup_once.calls": tracer.calls_of("blowup.blowup_once"),
        "blowup.blowup_once.self_s": tracer.self_s("blowup.blowup_once"),
        "blowup.cross_check.self_s": tracer.self_s("blowup.cross_check"),
        "corpus.retry.attempts_per_op": attempts / ops,
        # 0 when the ladder was never entered.
        "corpus.retry.useful_ratio": counters.get("corpus.retry.useful", 0) / attempts
        if attempts else 0.0,
        "corpus.retry.wasted_s": counters.get("corpus.retry.wasted_ns", 0) / 1e9,
        "words.enumerate_words.self_s": tracer.self_s("words.enumerate_words"),
        "words.goursat_word.self_s": tracer.self_s("words.goursat_word"),
        "puiseux.front_chain.per_op": tracer.calls_of("puiseux.front_chain") / ops,
        "puiseux.pc_from_word_front.self_s": tracer.self_s("puiseux.pc_from_word_front"),
        "puiseux.pc_from_word_back.self_s": tracer.self_s("puiseux.pc_from_word_back"),
        "puiseux.restrict_pc.self_s": tracer.self_s("puiseux.restrict_pc"),
        "puiseux.word_from_pc.self_s": tracer.self_s("puiseux.word_from_pc"),
        "invariants.invariant_panel.self_s": tracer.self_s("invariants.invariant_panel"),
        "invariants.multiplicity_sequence.per_op":
            tracer.calls_of("invariants.multiplicity_sequence") / ops,
        "invariants.proximity_diagram.self_s": tracer.self_s("invariants.proximity_diagram"),
        # Both 0 when no panel was built.
        "invariants.selfcheck.per_call_us": tracer.selfcheck_ns / panels / 1e3
        if panels else 0.0,
        "invariants.selfcheck.share": tracer.selfcheck_ns / tracer.panel_ns
        if tracer.panel_ns else 0.0,
        "cli.interpreter_s": cli_probe["interpreter_s"],
        "cli.import_s": cli_probe["import_s"],
        **{
            f"cli.main.{command}.self_s": tracer.self_s(f"cli.main.{command}")
            for command in CLI_COMMANDS
        },
        "trace.overhead_ratio": overhead,
    }
    if values.keys() != LAYER_METRICS.keys():
        raise RuntimeError("per-layer metric table and values disagree")
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}
