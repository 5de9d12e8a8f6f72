"""The committed CLI digest, replayed on a fixed sample of its commands.

``tests/cli_sweep.py`` owns the CLI's expected output: every byte of it, on
every command that ``cli_sweep.commands()`` lists, is pinned by
``tests/data/cli_sweep.txt``.  ``tests/cli_sweep.py --check`` reruns the
whole digest (CI runs it against the installed package); this replays about
175 of its lines: every known fault (the engine disagreements and covers,
whose messages print the germ's series), every refusal of the curve and pc
grammars, and every 25th other command that
neither enumerates nor runs the consistency suite, so a change of one
output byte in the engines, the word layer or the formatting shows here
too.  A last test reads the command list alone and checks that it reaches
every command in every format.
"""

import os

import pytest

import cli_sweep
from monstertower.cli import FORMATS, _HANDLERS, build_parser


def sample():
    lines = cli_sweep.DIGEST.read_text().splitlines()
    argvs = cli_sweep.commands()
    assert len(lines) == len(argvs)
    pinned = set(cli_sweep.KNOWN_FAULTS) | set(cli_sweep.GRAMMAR_REFUSALS)
    pairs = list(zip(argvs, lines))
    others = [(argv, line) for argv, line in pairs
              if argv not in pinned and not {"enumerate", "check"} & set(argv)]
    return others[::25] + [(argv, line) for argv, line in pairs if argv in pinned]


@pytest.fixture
def sweep_environment(monkeypatch):
    for name in [n for n in os.environ if n.startswith("MONSTERTOWER_")]:
        monkeypatch.delenv(name)
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("LINES", "24")


def test_sampled_commands_match_the_digest(sweep_environment):
    replayed = sample()
    assert len(replayed) >= 100
    changed = [(line, got) for argv, line in replayed
               if (got := cli_sweep.digest_line(argv)) != line]
    assert changed == []


def test_every_command_appears_in_every_format():
    # argv is parsed, not run: each subcommand in text, JSON and DOT (the
    # DOT refusal of a command with no DOT form counts), and curve with
    # each engine
    parser, seen = build_parser(), set()
    for argv in cli_sweep.commands():
        args = parser.parse_args(argv)
        seen.add((args.command, getattr(args, "format", "text")))
        if args.command == "curve":
            seen.add(("curve", "--engine", args.engine))
    wanted = {(command, form) for command in _HANDLERS for form in FORMATS}
    wanted |= {("curve", "--engine", engine) for engine in ("nash", "blowup", "both")}
    assert wanted - seen == set()
