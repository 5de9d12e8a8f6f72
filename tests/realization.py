"""Realization sweep: every critical word W is the word of the germ
x = t^n, y = t^b1 + t^b2 + ..., where [n; b1, b2, ...] is
``pc_from_word_front(W)``, and of its swap x = t^b1 + t^b2 + ..., y = t^n,
whose y has the smaller valuation.

Run from the repository root:  PYTHONPATH=src python tests/realization.py 12

For every critical word up to the given length and both of its germs,
both engines' normalized words must equal W, and the Nash, blowup and
word-route multiplicities (``multiplicity_sequence(W)``) must agree.  The
engines' order profiles must agree too, except on the known faults of
ROADMAP item 9: at length 11 and 12 some germs carry a nonzero constant
term in one Nash coordinate where the blowup one is zero.  Those germs are
the CLI digest's ``_DISAGREEING_REALIZATIONS`` and their swaps, and the
germs whose profiles disagree must be exactly the ones of them that the
sweep reaches.  Both engines' step letters must be equal everywhere, those
germs included: both step from (x, y), and a letter means the same in
both (``o`` keeps the first coordinate of the pair).  Prints each
difference, each disagreeing germ and each germ whose letters differ,
their counts, and exits 1 on any difference, a disagreement off that list
included, a listed germ whose profiles agree, or a letter difference.
"""

import sys

from cli_sweep import _DISAGREEING_REALIZATIONS
from monstertower.blowup import blowup_resolve
from monstertower.invariants import multiplicity_sequence
from monstertower.puiseux import pc_from_word_front
from monstertower.series import TruncatedSeries
from monstertower.tower import CurveGerm, lift_trace, parse_curve
from monstertower.words import enumerate_words

def realization(word) -> CurveGerm:
    """The monomial germ of the characteristic ``pc_from_word_front(word)``."""
    n, *betas = pc_from_word_front(word).lambdas
    return CurveGerm(TruncatedSeries.from_terms([(1, n)]),
                     TruncatedSeries.from_terms([(1, b) for b in betas]))


def swapped(c: CurveGerm) -> CurveGerm:
    """``c`` with its coordinates exchanged: the germ (y, x)."""
    return CurveGerm(c.y, c.x, c.base_point[::-1])


# the germs, not their text: the digest prints a germ as it is typed
_KNOWN = [parse_curve(text)[0] for text in _DISAGREEING_REALIZATIONS]
KNOWN_PROFILE_DISAGREEMENTS = frozenset([*_KNOWN, *map(swapped, _KNOWN)])


def critical_words(max_len: int):
    return (w for w in enumerate_words(max_len) if w.is_critical())


def letters(trace) -> str:
    """The letters of a trace's steps, which mean the same in both engines."""
    return "".join([s.chart_letter for s in trace.steps])


def differences(max_len: int) -> tuple[int, list[str], list[CurveGerm], list[CurveGerm],
                                       list[str]]:
    """The number of critical words up to ``max_len``; one line per germ,
    a word's realization or its swap, that the engines read differently
    from the word; the germs whose order profiles the engines read
    differently; the known ones among the germs, both lists in sweep
    order; and one line per germ whose step letters differ between the
    engines."""
    found, disagreeing, known, letter_diffs, count = [], [], [], [], 0
    for w in critical_words(max_len):
        count += 1
        straight = realization(w)
        for c in (straight, swapped(straight)):
            nash, blow = lift_trace(c), blowup_resolve(c)
            words = (nash.word.normalize(), blow.word.normalize())
            mults = (nash.multiplicities(), blow.multiplicities(), multiplicity_sequence(w))
            if words != (w, w) or not mults[0] == mults[1] == mults[2]:
                found.append(f"{w.symbols} {c}: words {words[0].symbols} {words[1].symbols}, "
                             f"multiplicities {mults}")
            if nash.order_profile() != blow.order_profile():
                disagreeing.append(c)
            if c in KNOWN_PROFILE_DISAGREEMENTS:
                known.append(c)
            if letters(nash) != letters(blow):
                letter_diffs.append(f"step letters differ on {c}: nash {letters(nash)}, "
                                    f"blowup {letters(blow)}")
    return count, found, disagreeing, known, letter_diffs


if __name__ == "__main__":
    count, found, disagreeing, known, letter_diffs = differences(int(sys.argv[1]))
    for line in (*found, *letter_diffs):
        print(line)
    for c in disagreeing:
        print(f"order profiles disagree on {c}{'' if c in known else ' (not a known fault)'}")
    for c in known:
        if c not in disagreeing:
            print(f"order profiles agree on {c} (a known fault)")
    print(f"{count} critical words, {2 * count} germs, {len(found)} differences, "
          f"{len(disagreeing)} order-profile disagreements ({len(known)} known), "
          f"{len(letter_diffs)} letter differences")
    sys.exit(1 if found or disagreeing != known or letter_diffs else 0)
