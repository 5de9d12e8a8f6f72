"""Benchmark of monstertower: four golden-checked, closed-loop workloads.

Run from the repository root:

    python3 bench/run.py --workload corpus_crosscheck --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload all --seed 1        # every workload, one table
    python3 bench/run.py --workload word_panel --trace 1  # per-layer metrics
    python3 bench/run.py --record-golden                # rewrite bench/golden.json

One client drives the public API from this process (``cli_cold`` starts one
fresh interpreter per op) and starts each op only after the previous one
finished.  Every workload has a fixed op pool whose outputs are recorded in
``golden.json``; ``--seed`` only shuffles the order of the pool, so runs
with different seeds do the same work and their numbers are comparable.
The timed phase makes ``round(seconds / pass_seconds)`` whole passes over
the pool, at least one.  The count does not depend on how fast the code or
the machine is, so every run takes its percentiles over the same ranks of
the same ops.  Op times are reported in reference time (see
``machine_slowdown``).  Every op output is checked against the golden
values; a mismatch, an exception or a nonzero exit is a failed op, and any
failed op makes the command exit 1.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.  With
``--trace 1`` the run makes one untraced pass and one traced pass over the
pool in the same order and reports the per-layer metrics of ``spans.py``
plus the tracing overhead; the two passes must give the same digest.
A result record with run metadata goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter_ns
from typing import NamedTuple

import spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
OUT_DIR = BENCH_DIR / "out"

DEFAULT_CORPUS_SEED = 178212
# Held out: claims measured on the default corpus must also hold on this one.
HELD_OUT_CORPUS_SEED = 20230817
CORPUS_SIZE = 220
WORD_MAX_LEN = 11
SMOKE_WORD_MAX_LEN = 4
SETUP_PROBES = 5
# Nominal time of the reference kernel (see machine_slowdown): about what it
# takes on an idle core of the 2-vCPU Xeon VM the benchmark was defined on.
REFERENCE_KERNEL_NS = 1_000_000
REFERENCE_EVERY_NS = 20_000_000
SMOOTHING = 4
CLI_PROBES = 5
CLI_ENTRY = "import sys; from monstertower.cli import main; sys.exit(main())"
IMPORT_PROBE = (
    "import time; t = time.perf_counter_ns(); import monstertower.cli; "
    "print(time.perf_counter_ns() - t)"
)

# The germ whose cost against the precision window ROADMAP item 3 wants
# flat: the same word RVVVRVT at every precision.
T15 = "x=t^15, y=t^24+t^25"
DEEP_LIFT = (
    # (kind, curve, precision); "window" lifts at a fixed precision,
    # "retry" runs the corpus retry ladder from the CLI default of 64.
    ("window", T15, 64),
    ("window", T15, 96),
    ("window", T15, 128),
    ("window", T15, 192),
    ("retry", (13, ((1, 61),)), 64),
    ("retry", (11, ((1, 57),)), 64),
    ("retry", (12, ((1, 30), (1, 61))), 64),
    ("retry", (12, ((1, 14), (1, 16), (1, 57))), 64),
    ("window", "x=t^6+t^9, y=t^8+t^11", 64),
    ("window", "x=t^4+t^5, y=t^6+t^7", 64),
    ("window", "x=t^6+t^7, y=t^9+t^10", 64),
    ("window", "x=t^8+t^9, y=t^12+t^14+t^15", 64),
    ("window", "x=t^3+t^4, y=t^7", 64),
    ("window", "@level 7 chart=oioioio, r=t, n=t", 64),
    ("window", "@level 5 chart=ooioi, r=t, n=t", 64),
    ("window", "@level 6 chart=oiiooi, r=t, n=t", 64),
    ("window", "@level 8 chart=oiioioii, r=t, n=t", 64),
)
SMOKE_DEEP_LIFT = (0, 1, 4, 8, 13)

CLI_MIX = (
    ("word", "RRVTRRRVTTTV"),
    ("pc", "[27;63,83]"),
    ("proximity", "RVTTV", "--format", "dot"),
    ("lift-preimages", "RRRVRVRV"),
    ("curve", "x=t^2, y=t^4+t^5", "--engine", "both", "--format", "json"),
    ("curve", "@level 7 chart=oioioio, r=t, n=t"),
    ("--precision", "96", "curve", T15),
)
SMOKE_CLI = (0, 2)


class Op(NamedTuple):
    index: int   # position in the golden list
    kind: str
    arg: object
    label: str


def digest(record) -> str:
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:8]


def labels_digest(ops) -> str:
    return hashlib.sha256("\n".join(op.label for op in ops).encode()).hexdigest()


# -- workloads ---------------------------------------------------------------------


class Workload:
    """One op pool.  ``load`` imports the program, ``pool`` generates the
    inputs, ``call`` is the timed op and ``record`` turns its result into
    the JSON value checked against the golden file."""

    name = ""
    modules: tuple[str, ...] = ()
    # A run makes round(seconds / pass_seconds) passes, at least one.  It
    # is about the reference time of one pass at the defining commit; for
    # pools of a few repeated ops it is set so that, at 15 s, the median and
    # tail ranks fall inside a group of repeats of one op, not at its edge.
    pass_seconds = 1.0
    digests_only = False  # golden stores short digests instead of records

    def load(self) -> None:
        for module in self.modules:
            setattr(self, module, importlib.import_module(f"monstertower.{module}"))
        package = importlib.import_module("monstertower")
        if not Path(package.__file__).resolve().is_relative_to(SRC.resolve()):
            raise SystemExit(f"error: imported monstertower from {package.__file__}, not {SRC}")

    def golden(self, golden: dict, args) -> dict:
        return golden[self.name]

    def pool(self, golden: dict, args) -> list[Op]:
        raise NotImplementedError

    def smoke(self, ops: list[Op]) -> list[Op]:
        raise NotImplementedError

    def call(self, op: Op):
        raise NotImplementedError

    def call_in_process(self, op: Op):
        return self.call(op)

    def span_name(self, op: Op) -> str:
        return "op"

    def record(self, op: Op, result):
        raise NotImplementedError


class CorpusCrosscheck(Workload):
    """The consistency suite's job: both engines on every corpus curve."""

    name = "corpus_crosscheck"
    modules = ("blowup", "corpus")
    pass_seconds = 7.2

    def golden(self, golden, args):
        entry = golden[self.name].get(str(args.corpus_seed))
        if entry is None:
            raise SystemExit(f"error: no golden values for corpus seed {args.corpus_seed}")
        return entry

    def pool(self, golden, args):
        specs = self.corpus.generate_corpus(CORPUS_SIZE, args.corpus_seed)
        return [Op(i, "curve", spec, str(spec)) for i, spec in enumerate(specs)]

    def smoke(self, ops):
        return ops[:4]

    def call(self, op):
        return self.corpus.with_precision_retry(self.blowup.cross_check, op.arg)

    def record(self, op, result):
        return result.to_json_dict()


class WordPanel(Workload):
    """Invariant panels of every valid word up to length 11, plus the panel
    of each critical word's characteristic (the ``pc`` command's path)."""

    name = "word_panel"
    modules = ("invariants", "puiseux", "words")
    pass_seconds = 4.3
    digests_only = True

    def pool(self, golden, args):
        pc_inputs = iter(golden[self.name]["pc_inputs"])
        ops = []
        for word in self.words.enumerate_words(WORD_MAX_LEN):
            ops.append(Op(len(ops), "word", word, word.symbols))
            if word.is_critical():
                pc = next(pc_inputs)
                ops.append(Op(len(ops), "pc", pc, f"{word.symbols} {pc}"))
        return ops

    def smoke(self, ops):
        return [op for op in ops if len(op.label.split()[0]) <= SMOKE_WORD_MAX_LEN]

    def call(self, op):
        if op.kind == "word":
            return self.invariants.invariant_panel(word=op.arg)
        return self.invariants.invariant_panel(pc=self.puiseux.parse_pc(op.arg))

    def record(self, op, result):
        return result.to_json_dict()


class DeepLift(Workload):
    """High-order germs lifted to regularization: precision window, retry
    ladder and big-coefficient arithmetic."""

    name = "deep_lift"
    modules = ("corpus", "tower")
    pass_seconds = 2.1  # 7 passes: the tail is the 4th of 7 @128 samples

    def pool(self, golden, args):
        ops = []
        for i, (kind, curve, precision) in enumerate(DEEP_LIFT):
            if kind == "retry":
                n, terms = curve
                spec = self.corpus.CurveSpec(n, tuple((Fraction(c), e) for c, e in terms))
                ops.append(Op(i, kind, (spec, precision), f"retry {spec} from {precision}"))
            else:
                ops.append(Op(i, kind, (curve, precision), f"{curve} @{precision}"))
        return ops

    def smoke(self, ops):
        return [ops[i] for i in SMOKE_DEEP_LIFT]

    def call(self, op):
        if op.kind == "retry":
            spec, start = op.arg
            return self.corpus.with_precision_retry(
                self.tower.lift_to_regularization, spec, start=start
            )
        text, precision = op.arg
        germ, _ = self.tower.parse_curve(text, precision)
        return self.tower.lift_to_regularization(germ)

    def record(self, op, result):
        return {
            "word": result.word.symbols,
            "chart_path": result.chart_path,
            "regularization_level": result.regularization_level,
            "data_point": [str(c) for c in result.data_point],
            "base_point": [str(c) for c in result.base_point],
        }


class CliCold(Workload):
    """One fresh ``monstertower`` process per op over a fixed command mix."""

    name = "cli_cold"
    modules = ("cli",)
    pass_seconds = 1.07  # 14 passes

    def pool(self, golden, args):
        return [Op(i, "argv", argv, " ".join(argv)) for i, argv in enumerate(CLI_MIX)]

    def smoke(self, ops):
        return [ops[i] for i in SMOKE_CLI]

    def call(self, op):
        done = subprocess.run(
            [sys.executable, "-c", CLI_ENTRY, *op.arg],
            env=child_env(), capture_output=True, timeout=120, check=False,
        )
        return done.returncode, done.stdout

    def call_in_process(self, op):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = self.cli.main(list(op.arg))
        return code, out.getvalue().encode()

    def span_name(self, op):
        return "cli.main." + next(a for a in op.arg if a in spans.CLI_COMMANDS)

    def record(self, op, result):
        code, stdout = result
        return {
            "exit": code,
            "stdout_sha256": hashlib.sha256(stdout).hexdigest(),
            "stdout_bytes": len(stdout),
        }


WORKLOADS = {w.name: w for w in (CorpusCrosscheck(), WordPanel(), DeepLift(), CliCold())}


# -- measurement ------------------------------------------------------------------


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if not k.startswith("MONSTERTOWER_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _reference_kernel() -> Fraction:
    acc = Fraction(0)
    for i in range(1, 250):
        acc += Fraction(1, i) * Fraction(i, i + 1)
    return acc


def machine_slowdown() -> float:
    """How much slower than nominal the machine runs right now: the time of
    one fixed exact-arithmetic kernel over REFERENCE_KERNEL_NS.

    The host is shared and its speed drifts by 10-20 % within seconds.  The
    ops and this kernel slow down together, so op times divided by the
    slowdown measured around them give a throughput and a median that are
    steady from run to run; a single long op keeps most of its own noise.
    Collection is off inside the kernel so a large program heap cannot slow
    it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = perf_counter_ns()
        _reference_kernel()
        return (perf_counter_ns() - start) / REFERENCE_KERNEL_NS
    finally:
        if enabled:
            gc.enable()


class PassResult(NamedTuple):
    latencies: list[tuple[int, float]]  # (golden index, reference ns) per op
    slowdown: float                     # wall-clock op time over reference time
    failures: list[str]
    digest: str
    passes: int


def run_passes(workload, ops, order, expected, passes, call, tracer=None) -> PassResult:
    """Closed loop over ``ops`` in ``order``, ``passes`` times.  Only the op
    call is timed; checking is outside.  A slowdown sample is taken every
    REFERENCE_EVERY_NS of op time (and after every longer op); the ops
    between two samples form a bucket for :func:`to_reference_time`."""
    buckets: list[list[tuple[int, int]]] = []
    samples = [machine_slowdown()]
    failures: list[str] = []
    first_pass: dict[int, str] = {}
    pending: list[tuple[int, int]] = []
    pending_ns = 0
    for done in range(passes):
        for position in order:
            op = ops[position]
            error = None
            if tracer is not None:
                tracer.op = op.index
                frame = tracer.enter(workload.span_name(op))
            start = perf_counter_ns()
            try:
                result = call(op)
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"{type(exc).__name__}: {exc}"
            end = perf_counter_ns()
            if tracer is not None:
                tracer.exit(frame)
            pending.append((op.index, end - start))
            pending_ns += end - start
            if pending_ns >= REFERENCE_EVERY_NS:
                buckets.append(pending)
                samples.append(machine_slowdown())
                pending, pending_ns = [], 0
            if error is None:
                record = workload.record(op, result)
                got = digest(record)
                want = expected[op.index]
                if want != (got if workload.digests_only else record):
                    error = f"golden mismatch: {json.dumps(record, sort_keys=True)[:300]}"
            else:
                got = "error"
            if done == 0:
                first_pass[op.index] = got
            if error is not None:
                failures.append(f"{op.label}: {error}")
    if pending:
        buckets.append(pending)
        samples.append(machine_slowdown())
    latencies = to_reference_time(buckets, samples)
    raw_ns = sum(ns for bucket in buckets for _, ns in bucket)
    run_digest = hashlib.sha256(
        "\n".join(f"{i}:{d}" for i, d in sorted(first_pass.items())).encode()
    ).hexdigest()[:16]
    return PassResult(latencies, raw_ns / sum(ns for _, ns in latencies),
                      failures, run_digest, passes)


def to_reference_time(buckets, samples) -> list[tuple[int, float]]:
    """Divide each op time by the local slowdown: the mean of the
    SMOOTHING samples on either side of its bucket (bucket i lies between
    samples i and i + 1).  The host's speed drifts within seconds, so a
    local factor tracks it where one run-wide factor does not; one sample
    alone is too noisy, hence the window."""
    out = []
    for i, bucket in enumerate(buckets):
        window = samples[max(0, i + 1 - SMOOTHING) : i + 1 + SMOOTHING]
        factor = sum(window) / len(window)
        out.extend((index, ns / factor) for index, ns in bucket)
    return out


def tail_latency(values: list[float]) -> tuple[float, float]:
    """p99 from 1000 samples up; below that the highest percentile with at
    least 10 samples beyond it (nearest rank), and the maximum when no
    sample has 10 beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n >= 1000:
        return ordered[math.ceil(0.99 * n) - 1], 99.0
    rank = n - 10 if n > 10 else n
    return ordered[rank - 1], 100.0 * rank / n


def precision_cost_ratio(latencies, ops) -> float | None:
    """Median time of the t^15 germ at its top precision over its median
    at its bottom precision (deep_lift only)."""
    by_precision: dict[int, list[float]] = {}
    window = {op.index: op.arg[1] for op in ops if op.kind == "window" and op.arg[0] == T15}
    for index, ns in latencies:
        if index in window:
            by_precision.setdefault(window[index], []).append(ns)
    if len(by_precision) < 2:
        return None
    return statistics.median(by_precision[max(by_precision)]) / statistics.median(
        by_precision[min(by_precision)]
    )


def setup_once(workload, golden, args) -> int:
    """Import plus input generation, timed in this (fresh) interpreter."""
    start = perf_counter_ns()
    workload.load()
    workload.pool(golden, args)
    return perf_counter_ns() - start


def probe_ns(argv) -> int:
    done = subprocess.run(argv, env=child_env(), capture_output=True, text=True,
                          timeout=120, check=True)
    return int(done.stdout.strip().splitlines()[-1])


def setup_seconds(args) -> float:
    """Median set-up time over fresh interpreters, after one warm-up that
    leaves the byte-code caches written."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--corpus-seed", str(args.corpus_seed), "--setup-probe"]
    probe_ns(argv)
    samples = [machine_slowdown()]
    times = []
    for _ in range(SETUP_PROBES):
        times.append(probe_ns(argv))
        samples.append(machine_slowdown())
    return statistics.median(times) / statistics.fmean(samples) / 1e9


def cli_probe() -> dict:
    """Bare interpreter start and ``import monstertower.cli``, medians."""
    subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                   capture_output=True, check=True, timeout=120)
    starts = []
    for _ in range(CLI_PROBES):
        start = perf_counter_ns()
        subprocess.run([sys.executable, "-c", "pass"], env=child_env(), check=True, timeout=120)
        starts.append(perf_counter_ns() - start)
    imports = [probe_ns([sys.executable, "-c", IMPORT_PROBE]) for _ in range(CLI_PROBES)]
    return {"interpreter_s": statistics.median(starts) / 1e9,
            "import_s": statistics.median(imports) / 1e9}


def git_commit() -> str | None:
    """HEAD of the repository rooted exactly here; None in a plain checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, env=env, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = top.stdout.split()
    return lines[1] if top.returncode == 0 and Path(lines[0]) == ROOT else None


def metadata(args) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    sources = hashlib.sha256()
    for path in sorted((SRC / "monstertower").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "pinned_cpus": sorted(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": sources.hexdigest()[:16],
        "workload_seed": args.seed,
        "corpus_seed": args.corpus_seed,
        "held_out_corpus_seed": HELD_OUT_CORPUS_SEED,
    }


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def run(workload, golden, args) -> int:
    entry = workload.golden(golden, args)
    setup_s = None if args.trace else setup_seconds(args)
    workload.load()
    ops = workload.pool(golden, args)
    if labels_digest(ops) != entry["labels_sha256"]:
        print(f"error: the {workload.name} inputs differ from the recorded ones", file=sys.stderr)
        return 1
    if args.smoke:
        ops = workload.smoke(ops)
    order = list(range(len(ops)))
    random.Random(args.seed).shuffle(order)
    expected = entry["expected"]
    extra: dict = {}

    if args.trace:
        call = workload.call_in_process
        plain = run_passes(workload, ops, order, expected, 1, call)
        tracer = spans.Tracer()
        spans.install(tracer)
        try:
            workload.pool(golden, args)  # traced again for the enumeration span
            traced = run_passes(workload, ops, order, expected, 1, call, tracer)
        finally:
            tracer.uninstall()
        overhead = sum(ns for _, ns in traced.latencies) / sum(ns for _, ns in plain.latencies)
        metrics = spans.layer_metrics(tracer, len(ops), cli_probe(), overhead)
        OUT_DIR.mkdir(exist_ok=True)
        span_path = OUT_DIR / f"spans-{workload.name}-seed{args.seed}.csv.gz"
        tracer.write_spans(span_path)
        failures = plain.failures + traced.failures
        attempted = len(plain.latencies) + len(traced.latencies)
        extra["untraced_digest"] = plain.digest
        if traced.digest != plain.digest:
            failures.append(f"traced digest {traced.digest} != untraced {plain.digest}")
        result = traced
        extra["spans_file"] = str(span_path.relative_to(ROOT))
        extra["span_count"] = len(tracer.spans) // 6
    else:
        passes = max(1, round(args.seconds / workload.pass_seconds))
        result = run_passes(workload, ops, order, expected, passes, workload.call)
        failures, attempted = result.failures, len(result.latencies)
        times = [ns for _, ns in result.latencies]
        tail_ns, tail_pct = tail_latency(times)
        usage = resource.getrusage(
            resource.RUSAGE_CHILDREN if workload.name == "cli_cold" else resource.RUSAGE_SELF
        )
        metrics = {
            "ops_per_s": metric(len(times) / (sum(times) / 1e9), "1/s"),
            "op_p50_ms": metric(statistics.median(times) / 1e6, "ms"),
            "op_tail_ms": metric(tail_ns / 1e6, "ms"),
            "setup_s": metric(setup_s, "s"),
            "peak_rss_mib": metric(usage.ru_maxrss / 1024, "MiB"),
        }
        extra["op_tail_percentile"] = tail_pct
        extra["op_tail_samples"] = len(times)
        extra["fail_ratio"] = len(failures) / attempted
        extra["slowdown"] = result.slowdown
        extra["wall_clock_ops_per_s"] = len(times) / (sum(times) * result.slowdown / 1e9)
        ratio = precision_cost_ratio(result.latencies, ops)
        if ratio is not None:
            extra["precision_cost_ratio"] = ratio

    meta = metadata(args)
    for message in failures[:5]:
        print(f"FAILED {message}", file=sys.stderr)
    print(f"# {workload.name}: " + ", ".join(f"{k} {v}" for k, v in meta.items()))
    print(f"# ops {len(ops)} per pass, {result.passes} passes, {attempted} attempted, "
          f"{len(failures)} failed, digest {result.digest}")
    for key, value in extra.items():
        print(f"# {key} {value}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:>16.6g} {m['unit']}")
    record = {
        "workload": workload.name, "trace": args.trace, "smoke": args.smoke,
        "meta": meta, "digest": result.digest, "passes": result.passes,
        "ops_per_pass": len(ops), "attempted": attempted, "failed": len(failures),
        **extra, "metrics": metrics,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_path = OUT_DIR / f"{workload.name}-trace{args.trace}-seed{args.seed}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": metrics}))
    return 1 if failures else 0


def run_all(args) -> int:
    """Every workload in its own process; one combined table."""
    combined: dict = {}
    attempted = failed = 0
    correct = True
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--corpus-seed", str(args.corpus_seed)]
        if args.smoke:
            argv.append("--smoke")
        done = subprocess.run(argv, capture_output=True, text=True, timeout=900)
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        try:
            summary = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"error: {name} printed no result", file=sys.stderr)
            return 1
        correct = correct and summary["correct"] and done.returncode == 0
        attempted += summary["attempted"]
        failed += summary["failed"]
        combined.update({f"{name}.{k}": v for k, v in summary["metrics"].items()})
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def record_golden() -> int:
    """Record every workload's outputs at the current commit."""
    golden: dict = {}
    words = importlib.import_module("monstertower.words")
    puiseux = importlib.import_module("monstertower.puiseux")
    golden["word_panel"] = {"pc_inputs": [
        str(puiseux.pc_from_word_front(w))
        for w in words.enumerate_words(WORD_MAX_LEN) if w.is_critical()
    ]}
    for workload in WORKLOADS.values():
        workload.load()
        seeds = [DEFAULT_CORPUS_SEED, HELD_OUT_CORPUS_SEED] if workload.name == "corpus_crosscheck" else [None]
        for seed in seeds:
            ns = argparse.Namespace(corpus_seed=seed)
            ops = workload.pool(golden, ns)
            expected = []
            for op in ops:
                record = workload.record(op, workload.call(op))
                expected.append(digest(record) if workload.digests_only else record)
            target = golden.setdefault(workload.name, {})
            if seed is not None:
                target = target.setdefault(str(seed), {})
            target.update(labels_sha256=labels_digest(ops), expected=expected)
            print(f"recorded {workload.name} {seed or ''}: {len(ops)} ops")
    golden["commit"] = git_commit()
    GOLDEN_PATH.write_text(_one_item_per_line(golden) + "\n")
    return 0


def _one_item_per_line(value, depth=0) -> str:
    """JSON with one list item per line, so a changed output is a small diff."""
    pad = " " * depth
    if isinstance(value, dict):
        items = [f"{pad} {json.dumps(k)}: {_one_item_per_line(v, depth + 1)}"
                 for k, v in sorted(value.items())]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, list):
        items = [f"{pad} {json.dumps(v, sort_keys=True)}" for v in value]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    return json.dumps(value)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), default="all")
    parser.add_argument("--seed", type=int, default=1, help="shuffles the op order")
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--corpus-seed", type=int, default=DEFAULT_CORPUS_SEED,
                        help=f"corpus of corpus_crosscheck (held out: {HELD_OUT_CORPUS_SEED})")
    parser.add_argument("--smoke", action="store_true", help="tiny pools, for the smoke test")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--record-golden", action="store_true",
                        help="rewrite golden.json from the current sources")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "monstertower" / "__init__.py").is_file():
        print(f"error: no monstertower sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # One CPU for this process and its children, so the reference kernel
    # runs where the ops (and the cli_cold interpreters) run.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    for key in [k for k in os.environ if k.startswith("MONSTERTOWER_")]:
        del os.environ[key]
    if args.record_golden:
        return record_golden()
    if args.workload == "all":
        return run_all(args)
    golden = json.loads(GOLDEN_PATH.read_text())
    workload = WORKLOADS[args.workload]
    if args.setup_probe:
        print(setup_once(workload, golden, args))
        return 0
    return run(workload, golden, args)


if __name__ == "__main__":
    sys.exit(main())
