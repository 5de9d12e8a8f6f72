"""Panel sweep: the invariant panel of every word up to a given length, and
of every critical word's characteristic.

Run from the repository root:  PYTHONPATH=src python tests/panel_sweep.py 13

For every word W of length <= N, ``invariant_panel(word=W)`` must run its
self-checks through; for every critical W, ``invariant_panel(pc=P)`` on the
characteristic P of the first panel must run through too and give back the
word W.  Exits 1 naming the first failure; otherwise prints the counts and
the seconds taken.
"""

import sys
import time

from monstertower.invariants import invariant_panel
from monstertower.words import enumerate_words


def first_failure(max_len: int) -> tuple[int, int, str | None]:
    """The numbers of word and pc panels built, and a line naming the first
    panel that raised or whose pc panel gave another word (None if none)."""
    words = pcs = 0
    for w in enumerate_words(max_len, min_len=0):
        try:
            panel = invariant_panel(word=w)
        except Exception as exc:
            return words, pcs, f"word {w.symbols or '(empty)'}: {type(exc).__name__}: {exc}"
        words += 1
        if not w.is_critical():
            continue
        try:
            back = invariant_panel(pc=panel.pc).word
        except Exception as exc:
            return words, pcs, f"pc {panel.pc} of {w.symbols}: {type(exc).__name__}: {exc}"
        pcs += 1
        if back != w:
            return words, pcs, f"pc {panel.pc} of {w.symbols}: panel word {back.symbols}"
    return words, pcs, None


if __name__ == "__main__":
    start = time.perf_counter()
    words, pcs, failure = first_failure(int(sys.argv[1]))
    if failure is not None:
        print(failure)
        sys.exit(1)
    print(f"{words} word panels, {pcs} pc panels, {time.perf_counter() - start:.1f} s")
