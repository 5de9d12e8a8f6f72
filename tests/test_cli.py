import json
import os
import resource
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from pathlib import Path

import pytest
from jsonschema import validate

import monstertower
from monstertower.cli import main
from monstertower.corpus import generate_corpus
from monstertower.words import RvtWord

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"

# At each level: level, chart, symbol, new coordinate, its valuation and
# constant term, chain origin.
BLOWUP_TRACES = {
    "x=t^5, y=t^7": ("RVTV", "oiio", [
        (1, "o", "R", "y_1", 2, "0", None),
        (2, "i", "V", "x_1", 3, "0", 1),
        (3, "i", "T", "x_2", 1, "0", 1),
        (4, "o", "V", "y_2", 1, "0", 3),
    ]),
    "x=t^15, y=t^24+t^25": ("RVVVRVT", "oioiioo", [
        (1, "o", "R", "y_1", 9, "0", None),
        (2, "i", "V", "x_1", 6, "0", 1),
        (3, "o", "V", "y_2", 3, "0", 2),
        (4, "i", "V", "x_2", 3, "0", 3),
        (5, "i", "R", "x_3", 0, "1", 3),
        (6, "o", "V", "y_3", 2, "0", 5),
        (7, "o", "T", "y_4", 1, "0", 5),
    ]),
    "@level 7 chart=oioioio, r=t, n=t": ("RVTVTVT", "oiiooii", [
        (1, "o", "R", "y_1", 7, "0", None),
        (2, "i", "V", "x_1", 10, "0", 1),
        (3, "i", "T", "x_2", 3, "0", 1),
        (4, "o", "V", "y_2", 4, "0", 3),
        (5, "o", "T", "y_3", 1, "0", 3),
        (6, "i", "V", "x_3", 2, "0", 5),
        (7, "i", "T", "x_4", 1, "0", 5),
    ]),
}


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestWordCommand:
    def test_text_panel(self, capsys):
        code, out, _ = run(capsys, "word", "RVTVV")
        assert code == 0
        assert "[8;11]" in out
        assert "8,3,3,2,1,1" in out

    def test_json_panel(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "word", "RVVVRVT")
        payload = json.loads(out)
        assert payload["vertical_orders"]["values"] == [6, 3, 3, 0, 2, 0]
        validate(payload, json.loads((SCHEMAS / "invariant_panel.schema.json").read_text()))

    def test_trivial_word(self, capsys):
        code, out, _ = run(capsys, "word", "RRR")
        assert code == 0 and "[1;]" in out

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "-f", "dot", "word", "RV")
        assert code == 0 and out.startswith("digraph proximity {")

    def test_parse_error_exit_code(self, capsys):
        code, _, err = run(capsys, "word", "RTX")
        assert code == 1 and "error" in err

    def test_unbalanced_proximity_sums_are_a_mismatch(self, capsys, monkeypatch):
        # RVV's chain edge p_2 -> p_0 dropped: m_0 is no longer the sum of
        # the multiplicities proximate to it
        from monstertower import invariants

        edges = invariants._chain_edges
        monkeypatch.setattr(invariants, "_chain_edges",
                            lambda symbols: tuple(e for e in edges(symbols) if e != (2, 0)))
        code, out, err = run(capsys, "word", "RVV")
        assert (code, out) == (2, "")
        assert err == "consistency mismatch: proximity sums do not balance for RVV\n"


class TestPcCommand:
    def test_cw_word(self, capsys):
        code, out, _ = run(capsys, "pc", "[2;7]")
        assert code == 0 and "RRRV" in out

    def test_trivial(self, capsys):
        code, out, _ = run(capsys, "pc", "[1;]")
        assert code == 0 and "(empty)" in out

    def test_longer(self, capsys):
        code, out, _ = run(capsys, "pc", "[4;6,7]")
        assert code == 0 and "RVRV" in out

    def test_invalid(self, capsys):
        code, _, err = run(capsys, "pc", "[2;4,5]")
        assert code == 1

    def test_word_past_the_bound_exits_1(self, capsys):
        huge = "[99999999999999999999;100000000000000000001]"
        code, out, err = run(capsys, "pc", huge)
        assert (code, out) == (1, "")
        assert err == (f"error: CW({huge}) has 50000000000000000001 symbols, "
                       "above the pc bound 100000\n")

    def test_a_word_of_another_characteristic_is_a_mismatch(self, capsys, monkeypatch):
        # the panel checks the characteristic of the word CW(pc) it builds
        from monstertower import invariants

        monkeypatch.setattr(invariants, "word_from_pc", lambda pc: RvtWord("RV"))
        code, out, err = run(capsys, "pc", "[3;5]")
        assert (code, out) == (2, "")
        assert err == "consistency mismatch: CW([3;5]) = RV has characteristic [2;3]\n"

    def test_bound_admits_its_own_length(self, capsys, monkeypatch):
        from monstertower import cli

        monkeypatch.setattr(cli, "PC_WORD_BOUND", 12)
        code, out, _ = run(capsys, "pc", "[27;63,83]")  # RRVTRRRVTTTV
        assert code == 0 and "RRVTRRRVTTTV" in out
        code, _, err = run(capsys, "pc", "[2;25]")  # R^12 V
        assert code == 1 and "has 13 symbols" in err


class TestCurveCommand:
    def test_quintic_level_5(self, capsys):
        code, out, _ = run(capsys, "curve", "x=t^5, y=t^7", "--level", "5")
        assert code == 0
        assert "oioio" in out
        assert "RVTVR" in out
        assert "537824/703125" in out

    def test_ramphoid(self, capsys):
        code, out, _ = run(capsys, "curve", "x=t^2, y=t^4+t^5")
        assert code == 0 and "RRV" in out

    def test_line(self, capsys):
        code, out, _ = run(capsys, "curve", "x=t, y=t")
        assert code == 0 and "(empty)" in out

    def test_json_trace_schema(self, capsys):
        code, out, _ = run(capsys, "--format", "json", "curve", "x=t^5, y=t^7", "--level", "5")
        payload = json.loads(out)
        assert payload["engine"] == "nash"
        assert payload["chart_path"] == "oioio"
        validate(payload, json.loads((SCHEMAS / "curve_trace.schema.json").read_text()))

    def test_blowup_engine(self, capsys):
        code, out, _ = run(capsys, "-f", "json", "curve", "x=t^5, y=t^7", "--engine", "blowup")
        payload = json.loads(out)
        assert payload["engine"] == "blowup"
        assert payload["word"] == "RVTV"
        validate(payload, json.loads((SCHEMAS / "curve_trace.schema.json").read_text()))

    @pytest.mark.parametrize("curve", sorted(BLOWUP_TRACES))
    def test_blowup_json_is_pinned(self, capsys, curve):
        word, path, levels = BLOWUP_TRACES[curve]
        keys = ("level", "chart", "symbol", "new_coordinate", "valuation", "constant_term",
                "chain_origin")
        expected = {
            "engine": "blowup",
            "base_point": ["0", "0"],
            "levels": [dict(zip(keys, level)) for level in levels],
            "word": word,
            "chart_path": path,
            "regularization_level": len(levels),
        }
        code, out, err = run(capsys, "-f", "json", "curve", curve, "--engine", "blowup")
        assert (code, err) == (0, "")
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_both_engines(self, capsys):
        code, out, _ = run(capsys, "curve", "x=t^5, y=t^7", "--engine", "both")
        assert code == 0 and "agree" in out

    def test_leveled_germ(self, capsys):
        code, out, _ = run(capsys, "curve", "@level 3 chart=oio, r=t, n=t")
        assert code == 0


class TestCurveReadsItsTraces:
    """The point's chart data comes from the k-level trace, and the curve's
    facts from the regular trace, at any --level."""

    @pytest.mark.parametrize(
        "argv,equations",
        [
            (("x=t^3, y=t^2",), "dx = x' dy; dy = y' dx'"),
            (("x=1+t^3, y=2+t^2", "--level", "3"), "dx = x' dy; dy = y' dx'; dy' = y'' dx'"),
            (("x=0, y=t", "--level", "3"), "dx = x' dy; dx' = x'' dy; dx'' = x^(3) dy"),
        ],
        ids=["cusp", "base-point", "vertical-line"],
    )
    def test_germs_retaining_y_first(self, capsys, argv, equations):
        code, out, _ = run(capsys, "curve", *argv)
        assert code == 0
        assert out.splitlines()[-1] == f"chart equations        {equations}"

    def test_equations_name_the_json_coordinates(self, capsys):
        for spec in generate_corpus(60):
            _, text, _ = run(capsys, "curve", str(spec))
            _, out, _ = run(capsys, "-f", "json", "curve", str(spec))
            expected = "; ".join(
                f"d{s['deactivated_coordinate']} = {s['new_coordinate']} "
                f"d{s['retained_coordinate']}"
                for s in json.loads(out)["levels"]
            )
            assert text.splitlines()[-1] == f"chart equations        {expected}", str(spec)

    def test_no_chart_equations_at_level_0(self, capsys):
        code, out, err = run(capsys, "curve", "x=t^2, y=t^3", "--level", "0")
        assert (code, err) == (0, "")
        assert out == (
            "engine                 nash\n"
            "curve word             RV\n"
            "point word             (empty)\n"
            "chart path             (none)\n"
            "regularization level   2\n"
            "data point             (0,0)\n"
            "vertical orders        (1)\n"
            "chart equations        (none)\n"
        )

    @pytest.mark.parametrize(
        "budget,curve",
        [
            # the check trace of oo is regular at level 1, below its level 2
            ("0", "@level 2 chart=oo, r=t, n=t"),
            ("2", "@level 3 chart=oio, r=t, n=t"),
        ],
    )
    def test_budget_refuses_chart_data_regular_past_it(self, capsys, budget, curve):
        code, out, err = run(capsys, "--max-level", budget, "curve", curve)
        assert (code, out) == (1, "")
        assert err == (f"error: no regular lift within {budget} levels; "
                       "the germ may be critical or the budget too small\n")

    def test_regularization_level_is_the_curves(self, capsys):
        code, out, _ = run(capsys, "curve", "x=t^5, y=t^7", "--level", "2")
        assert code == 0
        assert "regularization level   4\n" in out
        assert "curve word             RVTV\n" in out
        _, out, _ = run(capsys, "-f", "json", "curve", "x=t^5, y=t^7", "--level", "2")
        payload = json.loads(out)
        assert (payload["regularization_level"], payload["chart_path"]) == (4, "oi")


class TestCurveLiftsOnce:
    """A ``curve`` command lifts each level once: the Nash engine steps
    through levels 1 to max(presented level, --level, regularization
    level) in order, continuing the one trace it started."""

    @pytest.mark.parametrize(
        "extra",
        [(), ("--level", "2"), ("--level", "4"), ("--engine", "both"), ("--engine", "blowup")],
    )
    def test_one_nash_lift(self, capsys, lift_calls, extra):
        # --engine blowup runs the blowup engine alone
        code, _, _ = run(capsys, "curve", "x=t^5, y=t^7", *extra)
        assert code == 0
        assert lift_calls == ([] if extra == ("--engine", "blowup") else [1, 2, 3, 4])

    def test_level_past_regularization_continues_the_lift(self, capsys, lift_calls):
        code, _, _ = run(capsys, "curve", "x=t^5, y=t^7", "--level", "6")
        assert code == 0
        assert lift_calls == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize(
        "curve,extra,levels",
        [
            # the rebuild's check trace reaches the regularization level
            ("@level 7 chart=oioioio, r=t, n=t", (), 7),
            ("@level 7 chart=oioioio, r=t, n=t", ("--level", "9"), 9),
            ("@level 7 chart=oioioio, r=t, n=t", ("--level", "2"), 7),
            ("@level 12 chart=oiioioiioiio, r=t, n=t", (), 12),
            # a check trace past the regularization level (r = 1)
            ("@level 2 chart=oo, r=t, n=t", (), 2),
            # continued past the check trace: to --level 6 past r = 3, and
            # from a 1-level check trace to r = 3
            ("@level 3 chart=oio, r=t, n=t", ("--level", "6"), 6),
            ("@level 1 chart=o, r=t^2, n=t^3", (), 3),
            # the cross-check continues the check trace too, instead of
            # lifting the rebuilt germ again from the base
            ("@level 7 chart=oioioio, r=t, n=t", ("--engine", "both"), 7),
            ("@level 6 chart=oiiooi, r=t, n=t", ("--engine", "both"), 6),
            ("@level 2 chart=oo, r=t, n=t", ("--engine", "both"), 2),
        ],
    )
    def test_chart_data_continues_its_check_trace(self, capsys, lift_calls, curve, extra, levels):
        code, _, _ = run(capsys, "curve", curve, *extra)
        assert code == 0
        assert lift_calls == list(range(1, levels + 1))

    def test_both_engines_cut_a_check_trace_past_regularization(self, capsys):
        # the check trace of oo has 2 levels, past r = 1: the report reads 1
        code, out, _ = run(capsys, "curve", "@level 2 chart=oo, r=t, n=t", "--engine", "both")
        assert code == 0
        assert "word             R\n" in out
        assert "multiplicities   1,1" in out


class TestLiftPreimages:
    def test_four_words(self, capsys):
        code, out, _ = run(capsys, "lift-preimages", "RRRVRVRV")
        assert code == 0
        for word in ("RRRRVRVRV", "RVRRVRVRV", "RVTRVRVRV", "RVTTVRVRV"):
            assert word in out
        assert "[28;36,38,39]" in out


class TestProximity:
    def test_text(self, capsys):
        code, out, _ = run(capsys, "proximity", "RVTVV")
        assert code == 0 and "sum rule        ok" in out

    def test_dot(self, capsys):
        code, out, _ = run(capsys, "-f", "dot", "proximity", "RVTTV")
        assert code == 0 and "v2 -> v0;" in out


class TestEnumerate:
    def test_counts(self, capsys):
        code, out, _ = run(capsys, "-f", "json", "enumerate", "4")
        payload = json.loads(out)
        assert payload["counts"] == {"1": 1, "2": 2, "3": 5, "4": 13}
        assert payload["total"] == 21
        assert payload["words"][:3] == ["R", "RR", "RV"]

    def test_max_len_has_the_enumeration_bound(self, capsys):
        code, out, err = run(capsys, "enumerate", "15")
        assert code == 1 and out == ""
        assert err == "error: enumeration bound is 14\n"

    def test_checks_pass(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "6", "--check", "pc-agreement", "--check", "proximity-sum"
        )
        assert code == 0 and "ok" in out

    def test_failures_come_suite_by_suite(self, capsys, monkeypatch):
        # Forced failures in two suites over the 377 words of length <= 7:
        # the lines come in --check order, a repeated suite lists its lines
        # once, and each suite lists its words in enumeration order.
        from monstertower import cli
        from monstertower.invariants import ProximityDiagram
        from monstertower.words import enumerate_words

        back = cli.pc_from_word_back
        monkeypatch.setattr(ProximityDiagram, "check_sums", lambda d: not d.symbols.endswith("TV"))
        monkeypatch.setattr(
            cli, "pc_from_word_back", lambda w: None if "VV" in w.symbols else back(w)
        )
        words = [w.symbols for w in enumerate_words(7)]
        sums = [f"proximity-sum {s}" for s in words if s.endswith("TV")]
        agreement = [f"pc-agreement {s}" for s in words if "VV" in s]
        code, out, _ = run(
            capsys, "-f", "json", "enumerate", "7", "--check", "proximity-sum",
            "--check", "pc-agreement", "--check", "proximity-sum", "--check", "round-trip",
        )
        assert code == 2
        assert json.loads(out)["failures"] == sums + agreement

    @pytest.fixture
    def round_trip_fails_on(self, monkeypatch):
        """Patch the round-trip suite to fail on one word; returns the
        blocks it was run on."""
        from monstertower import cli

        runs = []

        def patch(symbols):
            def suite(block, chains):
                runs.append(block)
                return [f"round-trip {w.symbols}" for w in block if w.symbols == symbols]

            monkeypatch.setitem(cli.WORD_SUITES, "round-trip", suite)
            return runs

        return patch

    def test_a_failing_suite_reads_its_own_failures(self, capsys, round_trip_fails_on):
        round_trip_fails_on("RVT")
        code, out, _ = run(capsys, "enumerate", "3", "--check", "round-trip",
                           "--check", "pc-agreement", "--format", "json")
        payload = json.loads(out)
        assert code == 2
        assert payload["checks"] == {"round-trip": "1 failures", "pc-agreement": "ok"}
        assert payload["failures"] == ["round-trip RVT"]
        code, out, _ = run(capsys, "enumerate", "3", "--check", "round-trip",
                           "--check", "pc-agreement")
        assert code == 2
        assert out.endswith("checks: round-trip, pc-agreement -> 1 failures\n"
                            "  FAIL round-trip RVT\n")

    def test_a_suite_named_twice_runs_once(self, capsys, round_trip_fails_on):
        runs = round_trip_fails_on("RV")
        code, out, _ = run(capsys, "enumerate", "2", "--check", "round-trip",
                           "--check", "round-trip")
        assert code == 2 and len(runs) == 1
        assert out.endswith("checks: round-trip -> 1 failures\n  FAIL round-trip RV\n")
        code, out, _ = run(capsys, "enumerate", "2", "--check", "round-trip",
                           "--check", "round-trip", "--format", "json")
        payload = json.loads(out)
        assert code == 2 and len(runs) == 2
        assert payload["checks"] == {"round-trip": "1 failures"}
        assert payload["failures"] == ["round-trip RV"]


class TestCheck:
    def test_suite_green(self, capsys):
        code, out, _ = run(capsys, "check", "--max-len", "6", "--corpus-size", "8")
        assert code == 0
        assert "engine-equivalence" in out
        assert "0 failures" in out

    def test_max_len_has_the_enumeration_bound(self, capsys):
        code, out, err = run(capsys, "check", "--max-len", "15")
        assert code == 1 and out == ""
        assert err == "error: enumeration bound is 14\n"

    @pytest.mark.parametrize("argv,env", [(("--max-level", "1"), None), ((), "1")])
    def test_max_level_reaches_the_corpus(self, capsys, monkeypatch, argv, env):
        if env is not None:
            monkeypatch.setenv("MONSTERTOWER_MAX_LEVEL", env)
        code, out, err = run(capsys, *argv, "check", "--max-len", "2", "--corpus-size", "5")
        _, _, curve_err = run(capsys, *argv, "curve", "x=t^5, y=t^7")
        assert code == 1 and out == ""
        assert err == curve_err == (
            "error: no regular lift within 1 levels; "
            "the germ may be critical or the budget too small\n"
        )

    @pytest.mark.parametrize(
        "argv,env,budget",
        [(("--precision", "8"), None, 8), ((), "12", 12), ((), None, 64)],
    )
    def test_corpus_curves_built_at_the_budget(self, capsys, monkeypatch, argv, env, budget):
        # Each corpus curve is built once, with no term budget: --precision
        # is accepted and ignored, and MONSTERTOWER_PRECISION is not read,
        # so the budgets these cases once set change nothing.
        from monstertower.corpus import CurveSpec

        built = []
        original = CurveSpec.curve

        def spying(spec):
            built.append(str(spec))
            return original(spec)

        monkeypatch.setattr(CurveSpec, "curve", spying)
        if env is not None:
            monkeypatch.setenv("MONSTERTOWER_PRECISION", env)
        code, out, _ = run(capsys, *argv, "check", "--max-len", "2", "--corpus-size", "6")
        assert code == 0 and "6 checked, 0 failures" in out
        assert len(set(built)) == len(built) == 6  # one attempt per curve

    def test_seed_picks_the_corpus(self, capsys):
        code, out, _ = run(capsys, "check", "--max-len", "2", "--corpus-size", "220",
                           "--seed", "20230817")
        assert code == 0
        assert "engine-equivalence   220 checked, 0 failures" in out.splitlines()

    def test_failure_names_the_seeded_curve(self, capsys, monkeypatch):
        from monstertower import blowup
        from monstertower.errors import MismatchReport

        def mismatch(curve, max_level=None):
            raise MismatchReport("engines disagree")

        monkeypatch.setattr(blowup, "cross_check", mismatch)
        code, out, _ = run(capsys, "check", "--max-len", "2", "--corpus-size", "220",
                           "--seed", "20230817")
        first = generate_corpus(220, 20230817)[0]
        assert first != generate_corpus(220)[0]  # the seed reaches the corpus
        fails = [line for line in out.splitlines() if "FAIL" in line]
        assert code == 2 and len(fails) == 220
        assert fails[0] == f"  FAIL engine-equivalence {first}"


class TestLongWords:
    # more blocks than the interpreter's recursion limit, in-process
    def test_word(self, capsys):
        code, out, err = run(capsys, "word", "RVT" * 1000)
        assert code == 0 and err == ""
        assert f"word                        {'RVT' * 1000}" in out.splitlines()

    def test_pc(self, capsys):
        from monstertower.puiseux import pc_from_word_front

        pc = pc_from_word_front("RV" * 1100)
        code, out, err = run(capsys, "pc", str(pc))
        assert code == 0 and err == ""
        assert f"word                        {'RV' * 1100}" in out.splitlines()


class TestDeterminismAndEnv:
    def test_byte_identical_runs(self, capsys):
        _, out1, _ = run(capsys, "-f", "json", "word", "RVTVV")
        _, out2, _ = run(capsys, "-f", "json", "word", "RVTVV")
        assert out1 == out2

    def test_env_format_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MONSTERTOWER_FORMAT", "json")
        code, out, _ = run(capsys, "word", "RV")
        assert code == 0
        json.loads(out)

    def test_env_precision_override(self, capsys, monkeypatch):
        # the variable is no longer read: even a malformed value changes
        # nothing
        _, expected, _ = run(capsys, "-f", "json", "curve", "x=t^5, y=t^7")
        monkeypatch.setenv("MONSTERTOWER_PRECISION", "abc")
        code, out, err = run(capsys, "-f", "json", "curve", "x=t^5, y=t^7")
        assert (code, out, err) == (0, expected, "")

    def test_env_max_level_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MONSTERTOWER_MAX_LEVEL", "2")
        code, _, err = run(capsys, "curve", "x=t^5, y=t^7")
        assert code == 1 and "levels" in err

    @pytest.mark.parametrize(
        "name,value",
        [
            ("MONSTERTOWER_MAX_LEVEL", "1.5"),
            ("MONSTERTOWER_FORMAT", "xml"),
        ],
    )
    def test_malformed_env_exits_1(self, capsys, monkeypatch, name, value):
        monkeypatch.setenv(name, value)
        code, out, err = run(capsys, "word", "RV")
        assert code == 1
        assert out == ""
        assert name in err

    def test_flag_wins_over_malformed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("MONSTERTOWER_MAX_LEVEL", "abc")
        code, _, _ = run(capsys, "--max-level", "64", "word", "RV")
        assert code == 0


@pytest.fixture
def no_work(monkeypatch):
    """Each job that a command with no DOT form would start raises instead."""
    from monstertower import blowup, cli, corpus, tower

    def refuse(*args, **kwargs):
        raise AssertionError("work started before the format was refused")

    for module, name in ((cli, "parse_word"), (cli, "enumerate_words"),
                         (tower, "parse_curve_trace"), (corpus, "generate_corpus"),
                         (blowup, "cross_check"), (blowup, "blowup_resolve")):
        monkeypatch.setattr(module, name, refuse)


class TestDotRefusedUpFront:
    @pytest.mark.parametrize(
        "argv",
        [
            ("lift-preimages", "RRRVRVRV"),
            ("enumerate", "14", "--check", "pc-agreement"),
            ("check", "--max-len", "12", "--corpus-size", "220"),
            ("curve", "x=t^5, y=t^7", "--engine", "both"),
            ("curve", "x=t^5, y=t^7", "--engine", "blowup"),
        ],
    )
    @pytest.mark.parametrize("by_env", [False, True])
    def test_before_any_work(self, capsys, monkeypatch, no_work, argv, by_env):
        if by_env:
            monkeypatch.setenv("MONSTERTOWER_FORMAT", "dot")
        else:
            argv = ("--format", "dot", *argv)
        assert run(capsys, *argv) == (1, "", "error: no DOT form for this command\n")


class TestOnlyTheAskedFormIsBuilt:
    """The output is built in the format asked for only: the panel's JSON
    dict and DOT form are not made for text, its text and DOT form not for
    JSON, and neither its text nor its JSON dict for DOT."""

    FORMS = {
        "text": ("to_json_dict", "to_dot"),
        "json": ("to_text", "to_dot"),
        "dot": ("to_json_dict", "to_text"),
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    @pytest.mark.parametrize(
        "argv", [("word", "RVTVV"), ("pc", "[27;63,83]"), ("curve", "x=t^5, y=t^7")],
    )
    def test_the_other_forms_are_not_built(self, capsys, monkeypatch, form, argv):
        from monstertower.invariants import InvariantPanel, ProximityDiagram

        def refuse(self):
            raise AssertionError("built an output form the format did not ask for")

        for name in self.FORMS[form]:
            for cls in (InvariantPanel, ProximityDiagram):
                if hasattr(cls, name):
                    monkeypatch.setattr(cls, name, refuse)
        code, out, err = run(capsys, "--format", form, *argv)
        assert (code, err) == (0, "") and out.strip()
        if form == "json":
            json.loads(out)


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--precision", "0", "curve", "x=t^2, y=t^3"), "--precision: must be at least 1, got 0"),
            (("--precision", "-5", "word", "RV"), "--precision: must be at least 1, got -5"),
            (("--max-level", "-1", "curve", "x=t^2, y=t^3"), "--max-level: must be at least 0, got -1"),
            (("curve", "x=t^2, y=t^3", "--level", "-1"), "--level: must be at least 0, got -1"),
            (("enumerate", "-1"), "max_len: must be at least 0, got -1"),
            (("check", "--max-len", "-1"), "--max-len: must be at least 0, got -1"),
            (("check", "--corpus-size", "-3"), "--corpus-size: must be at least 0, got -3"),
        ],
    )
    def test_out_of_range_flag_exits_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert f"error: argument {message}\n" in err

    def test_usage_error_prints_the_usage_then_one_error_line(self, capsys):
        code, out, err = run(capsys, "word")
        assert code == 1 and out == ""
        assert err.startswith("usage: monstertower word ") and err.count("error: ") == 1
        assert err.endswith("\nerror: the following arguments are required: text\n")

    def test_help_exits_0(self, capsys):
        code, out, err = run(capsys, "--help")
        assert code == 0 and err == "" and out.startswith("usage: monstertower ")

    @pytest.mark.parametrize("engine", ["both", "blowup"])
    def test_level_needs_the_nash_engine(self, capsys, engine):
        code, out, err = run(capsys, "curve", "x=t^5, y=t^7", "--level", "2", "--engine", engine)
        assert code == 1 and out == ""
        assert err == f"error: --level applies only to --engine nash, not {engine}\n"

    @pytest.mark.parametrize(
        "argv,level,cap",
        [((), "65", "64"), (("--max-level", "3"), "4", "3"), ((), "99999999", "64")],
    )
    def test_level_above_max_level_exits_1(self, capsys, argv, level, cap):
        # refused before the curve is parsed, so a huge level costs nothing
        code, out, err = run(capsys, *argv, "curve", "x=t^2, y=", "--level", level)
        assert code == 1 and out == ""
        assert err == f"error: --level {level} is above --max-level {cap}\n"

    def test_level_at_max_level_lifts(self, capsys):
        code, out, err = run(capsys, "--max-level", "70", "curve", "x=t^2, y=t^3", "--level", "70")
        assert code == 0 and err == ""
        assert "point word             RV" + "R" * 68 + "\n" in out

    @pytest.mark.parametrize(
        "curve,message",
        [
            ("@level 2 chart=oi, r=t, n=t, constants=0,0,abc,0",
             "bad constant 'abc'; expected an integer or a fraction p/q"),
            ("@level 2 chart=oi, r=t, n=t, constants=",
             "bad constant ''; expected an integer or a fraction p/q"),
            ("@level 2 chart=oi, r=t, n=t, constants=0,0,1/0,0",
             "bad constant '1/0'; expected an integer or a fraction p/q"),
            ("x=t^2, y=1/0*t^3", "zero denominator in series term '1/0*t^3' (at position 0)"),
            # a sign after ^ stays in its term, which is named whole
            ("x=t^-2, y=t^3", "bad series term 't^-2' (at position 0)"),
            ("x=t^2, y=t^3 - t^-2", "bad series term '- t^-2' (at position 4)"),
            # a polynomial stores its terms, so a huge exponent is read off
            # them; a lift that must fill a dense prefix past the index range
            # cannot allocate it
            ("x=t^99999999999999999999+t^100000000000000000000, "
             "y=t^99999999999999999999+t^100000000000000000001",
             "the input is too large for memory"),
            # a slope over a monomial x is divided term by term, so the germ
            # [N; N + 1], N = 10^20 - 1, lifts without a prefix up to the budget
            ("x=t^99999999999999999999, y=t^99999999999999999999+t^100000000000000000000",
             "no regular lift within 64 levels; the germ may be critical or the budget too small"),
            # the rebuilt germ is [N; N + 1], N = 10^20 - 1: N levels to lift
            ("@level 1 chart=o, r=t^99999999999999999999, n=t",
             "no regular lift within 64 levels; the germ may be critical or the budget too small"),
        ],
    )
    def test_bad_number_exits_1_without_a_traceback(self, curve, message):
        # a fresh interpreter, so that an uncaught exception would print its
        # traceback to stderr
        done = subprocess.run(
            [sys.executable, "-c", ENTRY, "curve", curve],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
            timeout=120, check=False,
        )
        assert (done.returncode, done.stdout) == (1, "")
        assert done.stderr == f"error: {message}\n"

    @pytest.mark.parametrize(
        "curve,outcome",
        [
            # three terms, whatever their exponents
            ("x=t^2, y=t^3+t^400000000", (0, "regularization level   2\n", "")),
            # over a monomial x each slope is divided term by term: the germ
            # [N; N + 1] needs N levels, past the budget
            ("x=t^400000000, y=t^400000000+t^400000001",
             (1, "", "error: no regular lift within 64 levels; the germ may be critical "
                     "or the budget too small\n")),
            # x' has two terms, so the lift's slope is a stream that reads a
            # dense prefix of about 4 * 10^8 coefficients, about 6.4 GB
            ("x=t^400000000+t^400000001, y=t^400000000+t^400000002",
             (1, "", "error: the input is too large for memory\n")),
        ],
    )
    def test_huge_exponents_under_a_memory_cap(self, curve, outcome):
        # The real input runs in a child whose address space is capped at
        # 1 GiB, so an allocation that large fails there.
        def cap_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        done = subprocess.run(
            [sys.executable, "-c", ENTRY, "curve", curve],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
            timeout=120, check=False, preexec_fn=cap_address_space,
        )
        code, line, err = outcome
        assert (done.returncode, done.stderr) == (code, err)
        assert line in done.stdout if line else done.stdout == ""

    def test_a_huge_exponent_is_read_off_its_term(self, capsys):
        code, out, err = run(capsys, "curve", "x=t^99999999999999999999, y=t")
        assert code == 0 and err == ""
        assert "regularization level   1\n" in out

    def test_term_beyond_the_window_is_not_a_curve_property(self, capsys):
        # --precision is accepted and ignored: a term past the budget it
        # names is part of the polynomial, and nothing is dropped or refused
        code, out, err = run(capsys, "--precision", "3", "curve", "x=t^2, y=t^3")
        assert code == 0 and err == ""
        assert "curve word             RV\n" in out


class TestExactSeriesInputs:
    """High degrees, long gaps and deep chart data lift, whatever
    --precision says."""

    @pytest.mark.parametrize(
        "argv,word",
        [
            (("curve", "x=t^13, y=t^61"), "RRRRVVTVTT"),
            (("curve", "x=t^2, y=t^3+t^100"), "RV"),
            (("curve", "@level 10 chart=oiioioiioi, r=t, n=t"), "RVVTVTVVTV"),
            (("curve", "@level 12 chart=oiioioiioiio, r=t, n=t"), "RVVTVTVVTVVT"),
            (("--precision", "8", "curve", "@level 12 chart=oiioioiioiio, r=t, n=t"), "RVVTVTVVTVVT"),
            (("--precision", "24", "curve", "@level 7 chart=oioioio, r=t, n=t"), "RVTVTVT"),
        ],
    )
    def test_lifts(self, capsys, argv, word):
        code, out, err = run(capsys, "--format", "json", *argv)
        assert code == 0 and err == ""
        assert json.loads(out)["word"] == word


BIG_RATIONAL_CURVE = f"x=t^2, y=t^3+{'7' * 3000}*t^4"
LONG_LITERAL = "9" * 5000
_DIGIT_CAP = getattr(sys, "get_int_max_str_digits", lambda: 0)()


@contextmanager
def _digit_cap(cap):
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(cap)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


@pytest.mark.skipif(_DIGIT_CAP == 0, reason="no cap on int <-> str conversions")
class TestLongIntegers:
    """Exact answers and literals past the interpreter's cap on int <-> str
    conversions (4,300 digits by default) are answered, not a traceback."""

    def test_big_rational_data_point_in_text(self, capsys):
        code, out, err = run(capsys, "curve", BIG_RATIONAL_CURVE, "--level", "6")
        assert code == 0 and err == ""
        assert "regularization level   2\n" in out

    def test_big_rational_data_point_in_json(self, capsys):
        code, out, err = run(capsys, "curve", BIG_RATIONAL_CURVE, "--level", "6",
                             "--format", "json")
        assert code == 0 and err == ""
        with _digit_cap(0):
            point = json.loads(out)["data_point"]
            assert max(map(len, point)) > _DIGIT_CAP
            assert all(str(Fraction(c)) == c for c in point)

    @pytest.mark.parametrize(
        "argv,code",
        [
            (("curve", f"x=t^{LONG_LITERAL}, y=t"), 0),
            (("curve", f"@level 2 chart=oo, r=t, n=t, constants={LONG_LITERAL},0,0,0"), 0),
            (("pc", f"[{LONG_LITERAL};{LONG_LITERAL}1]"), 1),
        ],
        ids=["exponent", "constant", "pc"],
    )
    def test_long_literals(self, capsys, argv, code):
        got, out, err = run(capsys, *argv)
        assert got == code
        if code:
            assert out == "" and err.startswith("error: CW(") and "above the pc bound" in err
        else:
            assert err == "" and "regularization level   1\n" in out

    @pytest.mark.parametrize("argv", [("word", "RV"), ("curve", "x=t^2, y=")])
    def test_the_callers_cap_is_restored(self, capsys, argv):
        with _digit_cap(5000):
            run(capsys, *argv)
            assert sys.get_int_max_str_digits() == 5000


DATA = Path(__file__).resolve().parent / "data"
# Germs whose Nash lift divides by the retained derivative at every level of
# a long R chain: 29 levels with coefficients of about 390 bits, and 25
# levels with about 690 bits.
BIG_COEFFICIENT_GERMS = {
    "t12": "x=t^12, y=t^14+t^16+t^57",
    "t10": "x=t^10, y=72/5*t^14-11/4*t^52+3*t^53+3*t^57",
}


class TestBigCoefficientBytes:
    """The exact JSON of two deep lifts, recorded before the series kernel
    moved to integer pairs, so that every data point, trace value and
    constant term keeps its digits."""

    @pytest.mark.parametrize("germ", sorted(BIG_COEFFICIENT_GERMS))
    @pytest.mark.parametrize("engine", ["nash", "both"])
    def test_json_bytes(self, capsys, germ, engine):
        engine_args = ("--engine", "both") if engine == "both" else ()
        code, out, err = run(
            capsys, "curve", BIG_COEFFICIENT_GERMS[germ], *engine_args, "--format", "json"
        )
        assert (code, err) == (0, "")
        assert out == (DATA / f"curve_{germ}_{engine}.json").read_text()

    @pytest.mark.parametrize(
        "name,curve",
        [
            # valuations that cancel: the searches read past the leading terms
            ("adversarial", "x=t^2+t^3, y=-4/11*t^4-8/11*t^5+12/11*t^7+t^8"),
            # searches that read about 40 coefficients, printed as check
            # prints a corpus curve
            ("corpus74", "x=t^3, y=3*t^6 + -5/7*t^47 + 2*t^52"),
        ],
    )
    def test_bytes_recorded_against_a_term_budget(self, capsys, name, curve):
        # recorded when --precision was a term budget; every budget from 1 to
        # 1024 gave these bytes
        code, out, err = run(capsys, "curve", curve, "--engine", "both", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (DATA / f"curve_{name}_both.json").read_text()


# Chart-data germs whose command continues the rebuild's check trace: to
# its own level, past it to --level 9 or to --level 6 past r = 3, and with
# integration constants.
CHART_DATA_COMMANDS = {
    "oioioio": ("@level 7 chart=oioioio, r=t, n=t",),
    "oioioio_level9": ("@level 7 chart=oioioio, r=t, n=t", "--level", "9"),
    "oio_level6": ("@level 3 chart=oio, r=t, n=t", "--level", "6"),
    "oi_constants": ("@level 2 chart=oi, r=t, n=t, constants=0,0,-3/4,0",),
}


class TestChartDataBytes:
    """The exact JSON of chart-data commands, recorded when the command
    lifted the rebuilt germ again from the base, so that reading the
    point and the curve off the continued check trace keeps every byte."""

    @pytest.mark.parametrize("name", sorted(CHART_DATA_COMMANDS))
    def test_json_bytes(self, capsys, name):
        code, out, err = run(capsys, "curve", *CHART_DATA_COMMANDS[name], "--format", "json")
        assert (code, err) == (0, "")
        assert out == (DATA / f"curve_{name}_nash.json").read_text()


class TestBlowupBytes:
    """The exact JSON of the blowup engine alone, recorded when its steps
    were a record of their own, so that each level's fields, its chain
    origin among them, keep every byte now that both engines make one
    ``ChartStep``."""

    @pytest.mark.parametrize(
        "name,curve",
        [*sorted(BIG_COEFFICIENT_GERMS.items()), ("oioioio", CHART_DATA_COMMANDS["oioioio"][0])],
    )
    def test_json_bytes(self, capsys, name, curve):
        code, out, err = run(capsys, "curve", curve, "--engine", "blowup", "--format", "json")
        assert (code, err) == (0, "")
        assert out == (DATA / f"curve_{name}_blowup.json").read_text()


class TestCovers:
    """Both double covers of x = t^2 + t^3 exit 1 with the cover's degree
    under every engine, at the level (or blowup) of the constant coordinate
    that shows it; --engine blowup reports the blowup engine's message."""

    @pytest.mark.parametrize("engine", ["nash", "blowup", "both"])
    @pytest.mark.parametrize(
        "curve,level",
        [("x=t^2+t^3, y=2*t^2+2*t^3", 2), ("x=t^2+t^3, y=t^4+2*t^5+t^6", 3)],
    )
    def test_degree_named(self, capsys, curve, level, engine):
        code, out, err = run(capsys, "curve", curve, "--engine", engine)
        assert code == 1 and out == ""
        if engine == "blowup":
            assert err == (f"error: y_{level - 1} is constant at blowup {level} while x_0 has "
                           "order 2: the germ is a cover of degree 2\n")
            return
        assert err.startswith("error: dy")
        assert err.endswith(f"/dt vanishes identically at level {level} while dx/dt has "
                            "order 1: the germ is a cover of degree 2\n")

    @pytest.mark.parametrize(
        "path,message",
        [
            ("oiioioii", "dx^(6)/dt vanishes identically at level 11 while dy^(4)/dt"),
            ("oiioioiioiio", "dx^(9)/dt vanishes identically at level 15 while dy^(5)/dt"),
        ],
    )
    def test_chart_cover_named_off_the_walks_polynomials(self, capsys, computed, path, message):
        # n = r^2 at the presented level, so the pair is a function of r,
        # of order 2; the lift continued from the check trace steps on from
        # the walk's polynomials and meets the constant slope 2 a few
        # coefficients in
        curve = f"@level {len(path)} chart={path}, r=t^2+t^3, n=t^4+2*t^5+t^6"
        code, out, err = run(capsys, "curve", curve)
        assert (code, out) == (1, "")
        assert err == f"error: {message} has order 1: the germ is a cover of degree 2\n"
        assert computed["coefficients"] <= 1000


class TestChartDataLetters:
    """Chart data whose rebuilt germ lifts along other letters exits 1,
    naming the path of that germ's lift to the presented level: the
    letters after the first conflict are the lift's too."""

    @pytest.mark.parametrize(
        "path,actives,lifted",
        [
            ("oi", "r=t, n=1+t", "oo"),
            # the first conflict is at level 5, below the top
            ("ooioii", "r=1+t, n=1", "ooiooo"),
        ],
    )
    def test_lifted_path_named(self, capsys, path, actives, lifted):
        code, out, err = run(capsys, "curve", f"@level {len(path)} chart={path}, {actives}")
        assert (code, out) == (1, "")
        assert err == f"error: rebuilt curve lifts along {lifted!r}, not {path!r}\n"

    def test_continued_past_the_walk_reads_few_coefficients(self, capsys, computed):
        # the check trace holds the walk's polynomials, so the lift on to
        # level 13 takes slopes of polynomials, not of slopes of slopes
        code, out, err = run(capsys, "curve", "@level 8 chart=oiiiioio, r=3/2*t^4, "
                             "n=2/1*t^0+2/1*t^3", "--level", "13")
        assert (code, err) == (0, "")
        assert "chart path             oiiiioioiiooo\n" in out
        assert computed["coefficients"] <= 1000


ENTRY = "import sys; from monstertower.cli import main; sys.exit(main())"
SRC = str(Path(monstertower.__file__).resolve().parents[1])
ENGINES = ("series", "tower", "blowup", "corpus")
LOADED_AFTER = (
    "import sys; from monstertower.cli import main; main(sys.argv[1:]); "
    "print(*sorted(m for m in sys.modules if m.startswith('monstertower.')))"
)


class TestImportIsolation:
    @pytest.mark.parametrize(
        "argv,loaded",
        [
            (("word", "RV"), ()),
            (("curve", "x=t^2, y=t^3"), ("series", "tower")),
            (("curve", "x=t^2, y=t^3", "--engine", "both"), ("series", "tower", "blowup")),
        ],
    )
    def test_command_loads_only_what_it_runs(self, argv, loaded):
        # a fresh interpreter, so no other test's imports count
        done = subprocess.run(
            [sys.executable, "-c", LOADED_AFTER, *argv],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
            timeout=120, check=True,
        )
        modules = set(done.stdout.splitlines()[-1].split())
        assert {f"monstertower.{m}" for m in ENGINES} & modules == {
            f"monstertower.{m}" for m in loaded
        }

    def test_an_engine_run_loads_no_characteristic_or_panel_code(self):
        # the converse: a lift and a cross-check read the front walk, the
        # multiplicities and VerticalOrders from words
        run = (
            "import sys; from monstertower import blowup, corpus, tower; "
            "c = tower.parse_curve(str(corpus.generate_corpus(1)[0]))[0]; "
            "trace = tower.lift_trace(c); assert blowup.cross_check(trace).ok; "
            "trace.vertical_orders(); "
            "print(*sorted(m for m in sys.modules if m.startswith('monstertower.')))"
        )
        done = subprocess.run(
            [sys.executable, "-c", run],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC),
            timeout=120, check=True,
        )
        modules = set(done.stdout.splitlines()[-1].split())
        assert {"monstertower.words", "monstertower.blowup"} <= modules
        assert {"monstertower.puiseux", "monstertower.invariants"} & modules == set()


class TestClosedOutput:
    @pytest.mark.parametrize(
        "argv",
        [
            ("--format", "json", "enumerate", "12"),
            ("curve", "x=t^15, y=t^24+t^25"),
        ],
    )
    def test_reader_gone_prints_nothing(self, argv):
        # the read end is closed before the command starts, as after ``| head``
        read_end, write_end = os.pipe()
        os.close(read_end)
        src = str(Path(monstertower.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=src)
        try:
            done = subprocess.run(
                [sys.executable, "-c", ENTRY, *argv],
                stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=120, check=False,
            )
        finally:
            os.close(write_end)
        assert done.stderr == b""
        assert done.returncode == 1
