from collections import Counter

import pytest

import monstertower.series
from monstertower import tower
from monstertower.records import Record
from monstertower.series import TruncatedSeries


def agree_on_prefix(a, b, n):
    """a == b, except that two series need only agree on their first n
    coefficients: records of one class field by field, tuples and lists
    entry by entry, anything else by ==, and the same object at once.  It
    serves the few deep lifts built twice whose exact series equality still
    reads thousands of terms (``DEEP_COMPARES`` in test_tower.py)."""
    if a is b:
        return True
    if isinstance(a, TruncatedSeries):
        return isinstance(b, TruncatedSeries) and a.prefix(n) == b.prefix(n)
    if isinstance(a, Record):
        return type(a) is type(b) and all(
            agree_on_prefix(getattr(a, f), getattr(b, f), n) for f in a._fields)
    if isinstance(a, (tuple, list)):
        return (type(a) is type(b) and len(a) == len(b)
                and all(agree_on_prefix(x, y, n) for x, y in zip(a, b)))
    return a == b


@pytest.fixture
def lift_calls(monkeypatch):
    """The level of every chart step of the Nash engine, in order: each
    lift, of ``lift_trace`` or ``LiftTrace.continued``, runs its steps
    through ``tower.lift_once``."""
    calls = []
    original = tower.lift_once

    def counting(retained, new_coord, level, *names_and_chain):
        calls.append(level)
        return original(retained, new_coord, level, *names_and_chain)

    monkeypatch.setattr(tower, "lift_once", counting)
    return calls


@pytest.fixture
def computed(monkeypatch):
    """Counts of ``TruncatedSeries._force`` calls (``"force"``), of those
    that had to compute, each a walk of the pending operands (``"walks"``),
    of the ``extend`` calls, one per pending series that a walk computes
    (``"extends"``), of the coefficients that streams compute
    (``"coefficients"``), and of the dense prefix fills of term polynomials
    (``"fills"``), counting from when the fixture is set up: each stream's
    kernel wraps the extend it builds.  Leading zeros known from the
    operands and the coefficients of a term polynomial are filled in, not
    computed, and are not counted as coefficients; a polynomial fills its
    prefix only when it is itself read, since a stream reads a polynomial
    operand off its terms."""
    counts = Counter()
    force, lazy = TruncatedSeries._force, TruncatedSeries._lazy.__func__
    fill = monstertower.series._fill

    def counting_force(self, n):
        counts["force"] += 1
        if len(self._known) < n:
            counts["walks"] += 1
        return force(self, n)

    def counting_lazy(cls, *args):
        series = lazy(cls, *args)
        kernel = series._kernel

        def counting_kernel():
            extend = kernel()

            def counting_extend(out, dens, m):
                before = len(out)
                counts["extends"] += 1
                extend(out, dens, m)
                counts["coefficients"] += len(out) - before

            return counting_extend

        series._kernel = counting_kernel
        return series

    def counting_fill(terms, known, dens, upto):
        counts["fills"] += 1
        fill(terms, known, dens, upto)

    monkeypatch.setattr(TruncatedSeries, "_force", counting_force)
    monkeypatch.setattr(monstertower.series, "_fill", counting_fill)
    monkeypatch.setattr(TruncatedSeries, "_lazy", classmethod(counting_lazy))
    return counts
