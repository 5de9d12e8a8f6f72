import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import monstertower


def test_all_names_resolve_and_none_is_a_module():
    assert len(set(monstertower.__all__)) == len(monstertower.__all__)
    for name in monstertower.__all__:
        value = getattr(monstertower, name)
        assert not isinstance(value, types.ModuleType), name


def test_one_public_name_per_operation():
    # lift_to_regularization is lift_trace(c, max_level=...) and
    # with_precision_retry is one call; neither is part of the public surface,
    # and both engines' steps are one ChartStep
    assert len(monstertower.__all__) == 49
    for name in ("BlowupState", "BlowupStep", "LiftStep", "lift_to_regularization",
                 "with_precision_retry"):
        assert name not in monstertower.__all__
        assert not hasattr(monstertower, name)


def test_star_import_binds_every_name():
    namespace = {}
    exec("from monstertower import *", namespace)
    assert set(monstertower.__all__) <= set(namespace)
    for name in monstertower.__all__:
        assert namespace[name] is getattr(monstertower, name), name


def test_each_name_is_its_defining_modules_object():
    for name in monstertower.__all__:
        value = getattr(monstertower, name)
        home = getattr(value, "__module__", None)
        if home is None:  # a constant: look it up where the table says it lives
            home = f"monstertower.{monstertower._SUBMODULE[name]}"
        assert getattr(importlib.import_module(home), name) is value, name


def test_dir_lists_every_public_name():
    assert set(monstertower.__all__) <= set(dir(monstertower))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="module 'monstertower' has no attribute 'nope'"):
        monstertower.nope
    assert not hasattr(monstertower, "nope")


def test_errors_is_a_module_attribute():
    assert monstertower.errors is importlib.import_module("monstertower.errors")


def test_submodules_import_from_the_package():
    from monstertower import cli, tower

    assert (cli.__name__, tower.__name__) == ("monstertower.cli", "monstertower.tower")


def test_import_loads_only_errors():
    src = str(Path(monstertower.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c",
         "import sys, monstertower; "
         "print(*sorted(m for m in sys.modules if m.startswith('monstertower.')))"],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120, check=True,
    )
    assert done.stdout.split() == ["monstertower.errors"]


def _run_cli_bare(argv):
    """Modules loaded by ``main(argv)`` in a fresh interpreter started with
    ``-S``, so that no site hook preloads anything."""
    src = str(Path(monstertower.__file__).resolve().parents[1])
    code = (
        "import sys, io, contextlib; from monstertower.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()): code = main(sys.argv[1:])\n"
        "print(code, *sorted(sys.modules))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-c", code, *argv],
        capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=src), timeout=120,
        check=True,
    )
    exit_code, *modules = done.stdout.split()
    assert exit_code == "0", done
    return set(modules)


def test_cold_cli_loads_no_dataclasses_inspect_typing_or_json():
    loaded = _run_cli_bare(["word", "RVTVV"])
    assert not loaded & {"dataclasses", "inspect", "typing", "json"}
    loaded = _run_cli_bare(["curve", "x=t^2, y=t^3", "--engine", "both"])
    assert "dataclasses" not in loaded


def test_json_output_loads_json():
    assert "json" in _run_cli_bare(["word", "RVTVV", "--format", "json"])
