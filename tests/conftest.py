from collections import Counter

import pytest

from monstertower import blowup, tower
from monstertower.series import TruncatedSeries


@pytest.fixture
def lift_calls(monkeypatch):
    """The ``levels`` argument of every ``lift_trace`` call, in order: the
    name is patched in ``tower`` and in ``blowup``, which imports it."""
    calls = []
    original = tower.lift_trace

    def counting(*args, **kwargs):
        calls.append(kwargs.get("levels"))
        return original(*args, **kwargs)

    for module in (tower, blowup):
        monkeypatch.setattr(module, "lift_trace", counting)
    return calls


@pytest.fixture
def computed(monkeypatch):
    """Counts of ``TruncatedSeries._force`` calls (``"force"``) and of the
    coefficients that series made by operations compute (``"coefficients"``),
    counting from when the fixture is set up.  Leading zeros known from the
    operands and zeros past a polynomial's degree are filled in, not
    computed, and are not counted."""
    counts = Counter()
    force, lazy = TruncatedSeries._force, TruncatedSeries._lazy.__func__

    def counting_force(self, n):
        counts["force"] += 1
        return force(self, n)

    def counting_lazy(cls, *args):
        series = lazy(cls, *args)
        extend = series._extend

        def counting_extend(out, m):
            before = len(out)
            extend(out, m)
            counts["coefficients"] += len(out) - before

        series._extend = counting_extend
        return series

    monkeypatch.setattr(TruncatedSeries, "_force", counting_force)
    monkeypatch.setattr(TruncatedSeries, "_lazy", classmethod(counting_lazy))
    return counts
