"""Deterministic curve corpus for the engine-equivalence checks.

Curves have the shape x = t^n, y = sum of rational-coefficient terms, with
small n, bounded exponents, and a primitive exponent set.  Generation is
seeded, so every run sees the same corpus.  Every curve is an exact
polynomial.
"""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

from .errors import wrong_type
from .records import Record
from .series import TruncatedSeries
from .tower import CurveGerm

DEFAULT_SEED = 178212
MAX_N = 12          # x = t^n with 1 <= n <= MAX_N
MAX_EXPONENT = 60   # the exponents of y lie in (n, MAX_EXPONENT]
COEFF_POOL = [
    Fraction(1), Fraction(-1), Fraction(2), Fraction(3), Fraction(-2),
    Fraction(14), Fraction(3, 2), Fraction(-5, 7), Fraction(72, 5),
    Fraction(7, 5), Fraction(-11, 4), Fraction(95, 3),
]


class CurveSpec(Record):
    """x = t^n, y = sum(c_i t^(e_i)); exponents strictly above n."""

    __slots__ = ()
    _fields = ("n", "terms")

    def curve(self) -> CurveGerm:
        return CurveGerm.from_series(
            TruncatedSeries.from_terms([(1, self.n)]), TruncatedSeries.from_terms(self.terms)
        )

    @property
    def exponents(self) -> tuple[int, ...]:
        return tuple(e for _, e in self.terms)

    def __str__(self) -> str:
        y = " + ".join(f"{c}*t^{e}" for c, e in self.terms)
        return f"x=t^{self.n}, y={y}"


def generate_corpus(count: int = 220, seed: int = DEFAULT_SEED) -> list[CurveSpec]:
    """``count`` distinct curves drawn with ``seed``; a count or seed that
    is not an int is TypeError."""
    if count.__class__ is not int or seed.__class__ is not int:
        raise wrong_type("count and seed must be ints", (count, seed), (tuple,))
    rng = random.Random(seed)
    out: list[CurveSpec] = []
    seen: set[tuple] = set()
    while len(out) < count:
        n = rng.randint(1, MAX_N)
        # one to four terms; MAX_EXPONENT - MAX_N >= 4 leaves room for them
        exponents = sorted(rng.sample(range(n + 1, MAX_EXPONENT + 1), rng.randint(1, 4)))
        d = n
        for e in exponents:
            d = gcd(d, e)
        if d != 1:
            continue
        terms = tuple((rng.choice(COEFF_POOL), e) for e in exponents)
        key = (n, terms)
        if key in seen:
            continue
        seen.add(key)
        out.append(CurveSpec(n, terms))
    return out


# kept for bench/run.py until ROADMAP item 1; start is ignored
def with_precision_retry(fn, spec: CurveSpec, start=None):
    return fn(spec.curve())
