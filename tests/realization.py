"""Realization sweep: every critical word W is the word of the germ
x = t^n, y = t^b1 + t^b2 + ..., where [n; b1, b2, ...] is
``pc_from_word_front(W)``.

Run from the repository root:  PYTHONPATH=src python tests/realization.py 12

For every critical word up to the given length, both engines' normalized
words must equal W, and the Nash, blowup and word-route multiplicities
(``multiplicity_sequence(W)``) must agree.  Order profiles are not compared:
at length 11 and 12 some germs carry a nonzero constant term in one Nash
coordinate where the blowup one is zero (ROADMAP item 9).  Prints each
difference and the count, and exits 1 if there is one.
"""

import sys

from monstertower.blowup import blowup_resolve
from monstertower.invariants import multiplicity_sequence
from monstertower.puiseux import pc_from_word_front
from monstertower.series import TruncatedSeries
from monstertower.tower import CurveGerm, lift_trace
from monstertower.words import enumerate_words


def realization(word) -> CurveGerm:
    """The monomial germ of the characteristic ``pc_from_word_front(word)``."""
    n, *betas = pc_from_word_front(word).lambdas
    return CurveGerm(TruncatedSeries.from_terms([(1, n)]),
                     TruncatedSeries.from_terms([(1, b) for b in betas]))


def critical_words(max_len: int):
    return (w for w in enumerate_words(max_len) if w.is_critical())


def differences(max_len: int) -> tuple[int, list[str]]:
    """The number of critical words up to ``max_len``, and one line per
    word whose realization the engines read differently from it."""
    found, count = [], 0
    for w in critical_words(max_len):
        count += 1
        c = realization(w)
        nash, blow = lift_trace(c), blowup_resolve(c)
        words = (nash.word.normalize(), blow.word.normalize())
        mults = (nash.multiplicities(), blow.multiplicities(), multiplicity_sequence(w))
        if words != (w, w) or not mults[0] == mults[1] == mults[2]:
            found.append(f"{w.symbols} {c}: words {words[0].symbols} {words[1].symbols}, "
                         f"multiplicities {mults}")
    return count, found


if __name__ == "__main__":
    count, found = differences(int(sys.argv[1]))
    for line in found:
        print(line)
    print(f"{count} critical words, {len(found)} differences")
    sys.exit(1 if found else 0)
