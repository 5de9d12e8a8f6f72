"""Panel sweep: the invariant panel of every word up to a given length, and
of every critical word's characteristic.

Run from the repository root:  PYTHONPATH=src python tests/panel_sweep.py 13

For every word W of length <= N, ``invariant_panel(word=W)`` must run its
self-checks through, and its multiplicities must satisfy the conductor
identity with its characteristic; for every critical W,
``invariant_panel(pc=P)`` on the characteristic P of the first panel must
run through too and give back the word W.  Exits 1 naming the first
failure; otherwise prints the counts, the seconds spent in word panels and
in pc panels, and the seconds taken.

The conductor identity is Noether's formula for 2 delta: the sum of
m(m - 1) over the multiplicity sequence equals Zariski's conductor of the
characteristic.  Neither side is computed from the other.
"""

import sys
import time
from math import gcd

from monstertower.invariants import invariant_panel
from monstertower.words import enumerate_words


def conductor(pc) -> int:
    """Zariski's conductor sum_i (e_(i-1) - e_i) * beta_i - n + 1 of the
    characteristic [n; beta_1, ..., beta_g], where e_0 = n and
    e_i = gcd(e_(i-1), beta_i)."""
    n, *betas = pc.lambdas
    e, c = n, 1 - n
    for beta in betas:
        d = gcd(e, beta)
        c, e = c + (e - d) * beta, d
    return c


def noether_sum(multiplicities) -> int:
    """The sum of m(m - 1) over a multiplicity sequence."""
    return sum(m * (m - 1) for m in multiplicities)


def first_failure(max_len: int, seconds: dict) -> tuple[int, int, str | None]:
    """The numbers of word and pc panels built, and a line naming the first
    panel that raised, broke the conductor identity or whose pc panel gave
    another word (None if none).  The time of each panel call is added to
    ``seconds["word"]`` or ``seconds["pc"]``."""
    words = pcs = 0
    clock = time.perf_counter
    for w in enumerate_words(max_len, min_len=0):
        start = clock()
        try:
            panel = invariant_panel(word=w)
        except Exception as exc:
            return words, pcs, f"word {w.symbols or '(empty)'}: {type(exc).__name__}: {exc}"
        finally:
            seconds["word"] += clock() - start
        words += 1
        total, c = noether_sum(panel.multiplicities), conductor(panel.pc)
        if total != c:
            return words, pcs, (f"word {w.symbols or '(empty)'}: sum of m(m-1) over "
                                f"{panel.multiplicities} is {total}, the conductor of "
                                f"{panel.pc} is {c}")
        if not w.is_critical():
            continue
        start = clock()
        try:
            back = invariant_panel(pc=panel.pc).word
        except Exception as exc:
            return words, pcs, f"pc {panel.pc} of {w.symbols}: {type(exc).__name__}: {exc}"
        finally:
            seconds["pc"] += clock() - start
        pcs += 1
        if back != w:
            return words, pcs, f"pc {panel.pc} of {w.symbols}: panel word {back.symbols}"
    return words, pcs, None


if __name__ == "__main__":
    start = time.perf_counter()
    seconds = {"word": 0.0, "pc": 0.0}
    words, pcs, failure = first_failure(int(sys.argv[1]), seconds)
    if failure is not None:
        print(failure)
        sys.exit(1)
    print(f"{words} word panels ({seconds['word']:.1f} s), {pcs} pc panels "
          f"({seconds['pc']:.1f} s), {time.perf_counter() - start:.1f} s")
