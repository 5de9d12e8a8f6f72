import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from jsonschema import validate

import monstertower
from monstertower.cli import main

SCHEMAS = Path(__file__).resolve().parent.parent / "docs" / "schemas"


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

    def test_both_engines(self, capsys):
        code, out, _ = run(capsys, "curve", "x=t^5, y=t^7", "--engine", "both")
        assert code == 0 and "agree" in out

    def test_leveled_germ(self, capsys):
        code, out, _ = run(capsys, "curve", "@level 3 chart=oio, r=t, n=t")
        assert code == 0


class TestCurveLiftsOnce:
    @pytest.mark.parametrize(
        "extra",
        [(), ("--level", "2"), ("--level", "4"), ("--engine", "both"), ("--engine", "blowup")],
    )
    def test_one_nash_lift(self, capsys, lift_calls, extra):
        code, _, _ = run(capsys, "curve", "x=t^5, y=t^7", *extra)
        assert code == 0
        assert lift_calls == [None]

    def test_level_past_regularization_lifts_again(self, capsys, lift_calls):
        code, _, _ = run(capsys, "curve", "x=t^5, y=t^7", "--level", "6")
        assert code == 0
        assert lift_calls == [None, 6]


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

    def test_checks_pass(self, capsys):
        code, out, _ = run(
            capsys, "enumerate", "6", "--check", "pc-agreement", "--check", "proximity-sum"
        )
        assert code == 0 and "ok" in out


class TestCheck:
    def test_suite_green(self, capsys):
        code, out, _ = run(capsys, "check", "--max-len", "6", "--corpus-size", "8")
        assert code == 0
        assert "engine-equivalence" in out
        assert "0 failures" in out


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
        monkeypatch.setenv("MONSTERTOWER_PRECISION", "100")
        code, out, _ = run(capsys, "-f", "json", "curve", "x=t^5, y=t^7")
        assert code == 0

    def test_env_max_level_override(self, capsys, monkeypatch):
        monkeypatch.setenv("MONSTERTOWER_MAX_LEVEL", "2")
        code, _, err = run(capsys, "curve", "x=t^5, y=t^7")
        assert code == 1 and "levels" in err

    @pytest.mark.parametrize(
        "name,value",
        [
            ("MONSTERTOWER_PRECISION", "abc"),
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
        monkeypatch.setenv("MONSTERTOWER_PRECISION", "abc")
        code, _, _ = run(capsys, "--precision", "64", "word", "RV")
        assert code == 0


class TestInputValidation:
    @pytest.mark.parametrize(
        "argv,message",
        [
            (("--precision", "0", "curve", "x=t^2, y=t^3"), "--precision: must be at least 1, got 0"),
            (("--precision", "-5", "word", "RV"), "--precision: must be at least 1, got -5"),
            (("--max-level", "-1", "curve", "x=t^2, y=t^3"), "--max-level: must be at least 0, got -1"),
        ],
    )
    def test_out_of_range_flag_exits_1(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert f"error: argument {message}\n" in err

    def test_zero_precision_env_exits_1(self, capsys, monkeypatch):
        monkeypatch.setenv("MONSTERTOWER_PRECISION", "0")
        code, out, err = run(capsys, "word", "RV")
        assert code == 1 and out == ""
        assert err == (
            "error: environment variable MONSTERTOWER_PRECISION='0' is invalid: "
            "must be at least 1, got 0\n"
        )

    def test_term_beyond_the_window_is_not_a_curve_property(self, capsys):
        # dropping t^3 used to leave x = t^2, y = 0 and blame the curve
        code, out, err = run(capsys, "--precision", "3", "curve", "x=t^2, y=t^3")
        assert code == 1 and out == ""
        assert err == "error: term t^3 does not fit in a window of precision 3\n"


ENTRY = "import sys; from monstertower.cli import main; sys.exit(main())"


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
