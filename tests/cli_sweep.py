"""CLI digest: a fixed, seeded list of ``monstertower`` commands run in-process
through ``cli.main``, one line per command: its exit code, the sha256 of its
stdout and of its stderr, and its argv.  ``tests/data/cli_sweep.txt`` holds
the committed digest, so a change that moves one output byte of any listed
command shows up as a changed line.

Run from the repository root:

    PYTHONPATH=src python tests/cli_sweep.py > tests/data/cli_sweep.txt
    PYTHONPATH=src python tests/cli_sweep.py --check

The first form writes the digest; ``--check`` reruns every command and
exits 1 naming the first command whose line differs from the committed one.

The list is:
- both corpora's first 60 curves, in the five forms of ``CORPUS_FORMS``;
- 300 seeded ``@level`` chart inputs, in the three forms of ``CHART_FORMS``.
  They are drawn without asking the program which of them it accepts, so
  refusals are digested too;
- every ``monstertower`` command of the CI workflow that needs no address
  space cap (``CI_COMMANDS``);
- the known engine disagreements and covers (``KNOWN_FAULTS``).

Every ``MONSTERTOWER_*`` variable is unset and the terminal width is fixed
at 80 columns while the commands run.  Left out: usage errors, whose wording
is argparse's and varies with the Python version, and the CI inputs that
run under ``ulimit -v`` (their answer is the cap's).
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

from monstertower.cli import main
from monstertower.corpus import DEFAULT_SEED, generate_corpus
from monstertower.puiseux import pc_from_word_front

DIGEST = Path(__file__).resolve().parent / "data" / "cli_sweep.txt"

HELD_OUT_SEED = 20230817  # the bench's held-out corpus
CORPUS_FORMS = (
    (),
    ("--format", "json"),
    ("--level", "12"),
    ("--engine", "both", "--format", "json"),
    ("--engine", "blowup", "--format", "json"),
)
CHART_FORMS = (
    (),
    ("--format", "json"),
    ("--engine", "both", "--format", "json"),
)
CHART_SEED = 36

CI_COMMANDS = (
    ("word", "RTV"),
    ("pc", "[4;6]"),
    ("pc", "[99999999999999999999;100000000000000000001]"),
    ("--max-level", "1", "check", "--max-len", "2", "--corpus-size", "5"),
    ("curve", "x=t^2, y=t^3, z=5"),
    ("curve", "x=t^5, y=t^7", "--level", "2", "--engine", "both"),
    ("curve", "x=t^5, y=t^7", "--level", "2", "--engine", "blowup"),
    ("curve", "@level 2 chart=oi, r=t, n=t, constants=0,0,abc,0"),
    ("curve", "x=t^2, y=1/0*t^3"),
    ("curve", "@level 2 chart=oi, r=t, n=t, constants=0,0,1e2,0"),
    ("curve", "@level 2 chart=oi, r=t, n=t, constants=0,0,1.5,0"),
    ("--max-level", "3", "curve", "x=t^13, y=t^61", "--engine", "blowup"),
    ("curve", "x=t^2, y=t^3", "--level", "99999999"),
    ("curve", "x=t^2+t^3, y=2*t^2+2*t^3", "--engine", "both"),
    ("curve", "x=t^2+t^3, y=t^4+2*t^5+t^6", "--engine", "blowup"),
    ("curve", "x=t^99999999999999999999, y=t"),
    ("curve", "@level 1 chart=o, r=t^99999999999999999999, n=t"),
    ("curve", "x=t^99999999999999999999, y=t^99999999999999999999+t^100000000000000000000"),
    ("curve", "x=t^99999999999999999999+t^100000000000000000000, "
              "y=t^99999999999999999999+t^100000000000000000001"),
    ("curve", f"x=t^2, y=t^3+{'7' * 3000}*t^4", "--level", "6", "--format", "json"),
    ("curve", f"x=t^{'9' * 5000}, y=t"),
    ("word", "RV" * 1500),
    ("pc", str(pc_from_word_front("RV" * 1100))),
    ("curve", "@level 8 chart=oiioioii, r=t^2+t^3, n=t^4+2*t^5+t^6"),
    ("curve", "@level 12 chart=oiioioiioiio, r=t^2+t^3, n=t^4+2*t^5+t^6"),
    ("curve", "@level 8 chart=oiiiioio, r=3/2*t^4, n=2/1*t^0+2/1*t^3", "--level", "13"),
    ("--format", "dot", "check", "--max-len", "2", "--corpus-size", "1"),
    ("curve", "x=t^3, y=t^2"),
    ("curve", "x=t^5, y=t^7", "--level", "2"),
    ("curve", "@level 3 chart=oio, r=t, n=t", "--level", "6"),
    ("--max-level", "2", "curve", "@level 3 chart=oio, r=t, n=t"),
    ("curve", "@level 7 chart=oioioio, r=t, n=t", "--engine", "both"),
    ("curve", "@level 1 chart=o, r=3+t, n=t"),
    ("curve", "@level 2 chart=oi, r=t, n=1+t"),
    ("word", "RVTVV"),
    ("word", "RVTVV", "--format", "json"),
    ("pc", "[27;63,83]"),
    ("curve", "x=t^5, y=t^7", "--level", "5"),
    ("curve", "x=t^5, y=t^7", "--format", "dot"),
    ("curve", "x=t^2, y=t^4+t^5", "--engine", "both"),
    ("curve", "x=t^2, y=t^4+t^5", "--engine", "both", "--format", "json"),
    ("curve", "x=t^15, y=t^24+t^25", "--engine", "blowup", "--format", "json"),
    ("curve", "@level 3 chart=oio, r=t, n=t"),
    ("curve", "@level 2 chart=oi, r=t, n=t, constants=0,0,-3/4,0"),
    ("curve", "x=t^13, y=t^61"),
    ("curve", "x=t^2, y=t^3+t^100"),
    ("curve", "x=t^6, y=3/2*t^31 + 3*t^46 + -11/4*t^58"),
    ("curve", "x=t^12, y=t^14+t^16+t^57", "--engine", "both", "--format", "json"),
    ("curve", "x=t^10, y=72/5*t^14-11/4*t^52+3*t^53+3*t^57", "--engine", "both",
     "--format", "json"),
    ("curve", "@level 12 chart=oiioioiioiio, r=t, n=t"),
    ("lift-preimages", "RRRVRVRV"),
    ("proximity", "RVTTV", "--format", "dot"),
    ("proximity", "RVTTV", "--format", "json"),
    ("enumerate", "6", "--check", "pc-agreement", "--check", "proximity-sum"),
    ("enumerate", "14", "--check", "pc-agreement", "--check", "round-trip",
     "--check", "proximity-sum", "--check", "preimage-duality"),
    ("check", "--max-len", "10", "--corpus-size", "60"),
    ("check", "--max-len", "8", "--corpus-size", "220", "--seed", "20230817"),
)

# ROADMAP item 9: the engines disagree on an R-level entry of the order
# profile (the chart-data germ and the 11 realization germs of length 11-12).
# Item 3: covers that get a hedge, or are named only by an engine.  Item 7:
# a primitive germ past the default level budget.
_DISAGREEING_REALIZATIONS = (
    "x=t^24, y=t^40+t^44+t^46+t^51", "x=t^32, y=t^56+t^60+t^62+t^65",
    "x=t^24, y=t^64+t^68+t^70+t^75", "x=t^32, y=t^88+t^92+t^94+t^97",
    "x=t^24, y=t^36+t^42+t^46+t^53", "x=t^24, y=t^40+t^44+t^46+t^53",
    "x=t^36, y=t^60+t^66+t^69+t^77", "x=t^36, y=t^60+t^66+t^69+t^76",
    "x=t^32, y=t^56+t^60+t^62+t^67", "x=t^48, y=t^84+t^90+t^93+t^98",
    "x=t^48, y=t^84+t^90+t^93+t^97",
)
_COVERS = (
    "x=t^4+2*t^5+t^6, y=t^6+3*t^7+3*t^8+t^9+t^10+5*t^11+10*t^12+10*t^13+5*t^14+t^15",
    "x=t^2+t^3, y=2*t^2+2*t^3",
    "x=t^2+t^3, y=t^4+2*t^5+t^6",
    "x=t+t^2, y=t^2+2*t^3+t^4",
    "x=t^4+t^5, y=t^6+t^7",
    "x=t^3+t^4, y=t^7",
    "@level 8 chart=oiioioii, r=t^2+t^3, n=t^4+2*t^5+t^6",
)


def _power_of_cusp(k: int) -> str:
    """y = (t^2 + t^3)^k written out, so x=t^2+t^3 with it is a double cover."""
    coeffs = [1]
    for _ in range(k):
        coeffs = [a + b for a, b in zip([0, 0, *coeffs, 0], [0, 0, 0, *coeffs])]
    return "+".join(f"{c}*t^{e}" for e, c in enumerate(coeffs) if c)


KNOWN_FAULTS = (
    ("curve", "@level 6 chart=oioooo, r=t^3+3*t^4+t^5, n=3*t+2*t^2+t^4, "
              "constants=0,0,-2,0,0,-2,-2,-2", "--engine", "both"),
    *(("curve", c, "--engine", "both") for c in _DISAGREEING_REALIZATIONS),
    *(("curve", c, *engine) for c in _COVERS
      for engine in ((), ("--engine", "blowup"), ("--engine", "both"))),
    *(("curve", f"x=t^2+t^3, y={_power_of_cusp(k)}") for k in (1, 2, 3, 5, 10, 40)),
    ("curve", "x=t^2, y=t^129"),
    ("--max-level", "70", "curve", "x=t^2, y=t^129"),
)


def chart_inputs(count: int, seed: int) -> list[str]:
    """``@level`` chart inputs: a path of length 1 to 6 that starts with o,
    r and n of one to three terms, and small constants on half of them."""
    rng, out = Random(seed), []
    for _ in range(count):
        path = "o" + "".join(rng.choice("oi") for _ in range(rng.randint(0, 5)))
        r, n = (" + ".join(f"{rng.choice(['1', '2', '-3', '1/2'])}*t^{e}"
                           for e in sorted(rng.sample(range(6), rng.randint(1, 3))))
                for _ in range(2))
        text = f"@level {len(path)} chart={path}, r={r}, n={n}"
        if rng.random() < 0.5:
            text += ", constants=" + ",".join(str(rng.randint(-2, 2))
                                              for _ in range(len(path) + 2))
        out.append(text)
    return out


def commands() -> list[tuple[str, ...]]:
    """Every command of the sweep, in digest order."""
    out = [("curve", str(spec), *form)
           for seed in (DEFAULT_SEED, HELD_OUT_SEED)
           for spec in generate_corpus(60, seed)
           for form in CORPUS_FORMS]
    out += [("curve", text, *form)
            for text in chart_inputs(300, CHART_SEED) for form in CHART_FORMS]
    return out + list(CI_COMMANDS) + list(KNOWN_FAULTS)


def _shown(arg: str) -> str:
    """The argument as the digest writes it: a long one by its start, its
    length and its hash, so each line stays short."""
    if len(arg) <= 120:
        return arg
    digest = hashlib.sha256(arg.encode()).hexdigest()[:16]
    return f"{arg[:24]}...<{len(arg)} chars, sha256 {digest}>"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8", "surrogateescape")).hexdigest()


def digest_line(argv) -> str:
    """Run one command through ``cli.main`` and return its digest line."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(argv))
    shown = json.dumps([_shown(a) for a in argv], ensure_ascii=True)
    return f"{code} {_sha(out.getvalue())} {_sha(err.getvalue())} {shown}"


def fixed_environment() -> None:
    """Unset every MONSTERTOWER_* variable and fix the terminal width."""
    for name in [n for n in os.environ if n.startswith("MONSTERTOWER_")]:
        del os.environ[name]
    os.environ["COLUMNS"], os.environ["LINES"] = "80", "24"


def check() -> int:
    expected = DIGEST.read_text().splitlines()
    argvs = commands()
    if len(expected) != len(argvs):
        print(f"{DIGEST.name} has {len(expected)} lines, the sweep {len(argvs)} commands")
        return 1
    for argv, want in zip(argvs, expected):
        got = digest_line(argv)
        if got != want:
            print(f"changed: {' '.join(_shown(a) for a in argv)}\n"
                  f"  committed {want}\n  now       {got}")
            return 1
    print(f"{len(argvs)} commands, all unchanged")
    return 0


if __name__ == "__main__":
    fixed_environment()
    if sys.argv[1:] == ["--check"]:
        sys.exit(check())
    for argv in commands():
        print(digest_line(argv))
