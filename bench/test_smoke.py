"""Smoke test of the benchmark itself, at tiny pool sizes.

Run from the repository root:  python3 -m pytest -q bench/test_smoke.py

Every workload must print every metric named in BENCHMARK.json with its
unit, pass its golden checks, and give the same output digest traced and
untraced, which shows the tracing wrappers change no output.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RUN = ROOT / "bench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd=ROOT, script=RUN):
    done = subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "7",
         "--seconds", "0", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_emits_every_metric_and_traced_digest_matches(workload):
    digests = {}
    for trace, table in ((0, "end_to_end"), (1, "per_layer")):
        done = _run(workload, trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        expected_units = {m["name"]: m["unit"] for m in SPEC[table]}
        got_units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert got_units == expected_units
        for m in result["metrics"].values():
            assert isinstance(m["value"], (int, float))
        record = json.loads(
            (ROOT / "bench" / "out" / f"{workload}-trace{trace}-seed7.json").read_text()
        )
        digests[trace] = record["digest"]
        if trace:
            assert record["untraced_digest"] == record["digest"]
    assert digests[0] == digests[1]


def test_fails_without_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(SPEC["workloads"][0]["name"], 0, cwd=tmp_path,
                script=tmp_path / "bench" / "run.py")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
