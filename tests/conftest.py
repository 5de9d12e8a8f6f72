import pytest

from monstertower import tower


@pytest.fixture
def lift_calls(monkeypatch):
    """The ``levels`` argument of every ``tower.lift_trace`` call, in order."""
    calls = []
    original = tower.lift_trace

    def counting(*args, **kwargs):
        calls.append(kwargs.get("levels"))
        return original(*args, **kwargs)

    monkeypatch.setattr(tower, "lift_trace", counting)
    return calls
