"""The committed CLI digest, replayed on a fixed sample of its commands.

``tests/cli_sweep.py --check`` reruns the whole digest; this replays about
100 of its lines: every known fault (the engine disagreements and covers,
whose messages print the germ's series) and every 25th other command that
neither enumerates nor runs the consistency suite, so a change of one
output byte in the engines, the word layer or the formatting shows here
too.
"""

import os

import pytest

import cli_sweep


def sample():
    lines = cli_sweep.DIGEST.read_text().splitlines()
    argvs = cli_sweep.commands()
    assert len(lines) == len(argvs)
    faults = set(cli_sweep.KNOWN_FAULTS)
    pairs = list(zip(argvs, lines))
    others = [(argv, line) for argv, line in pairs
              if argv not in faults and not {"enumerate", "check"} & set(argv)]
    return others[::25] + [(argv, line) for argv, line in pairs if argv in faults]


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
