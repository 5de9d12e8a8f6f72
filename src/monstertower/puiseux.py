"""Puiseux characteristics and their conversions to and from RVT code words.

Two independent recursions compute the characteristic of a word:

* the front-end recursion peels one structural block off the front of the
  word at a time, transforming the characteristic of the lifted word; it
  runs for every lift level at once as one backward walk over the symbols;
* the back-end recursion splits a critical word as P R^rho Q (Q the maximal
  trailing entirely-critical block) and combines PC(P) with the pair E(R^rho Q)
  computed by the auxiliary E map.

The front walk itself (``front_chain``) lives in ``words`` and is bound
here: the engines read its multiplicities, and so load none of this
module.  The back recursion still shares no code with it.

Both are implemented and cross-checked exhaustively in the test suite.  The
inverse direction is available twice as well: the CW map built on the
Euclidean word Euc(a, b), and a case-peeling inverse of the front-end
recursion.

Each map is one loop, so no input is too deep for the interpreter's
recursion limit: the back recursion reads its blocks in one scan from the
end of the word (its own reading of the split that ``RvtWord.decompose``
makes with ``words._split_pq``), the front inverse peels down to [1;] and
then rebuilds, and the CW map is one walk over the pieces R^n V T^t of
the word (``_cw_pieces``), which ``cw_length`` reads too, to measure a
word without building it, and ``euclid`` reads for its one block.  Both
inverses refuse a word longer than the longest string with an
OverflowError that names its length.
"""

from __future__ import annotations

import re
import sys
from collections import namedtuple
from itertools import accumulate
from math import gcd

from .errors import (
    BadOrder,
    InvalidCharacteristic,
    MalformedString,
    NotCoprime,
    ParseError,
    RemainderInvalid,
    TrivialCharacteristic,
    literal_text,
    wrong_type,
)
from .records import Record, _new
from .words import RvtWord, _word_text, front_chain, is_entirely_critical

_PC_RE = re.compile(r"\[\s*(\d+)\s*;\s*((?:\d+\s*(?:,\s*\d+\s*)*)?)\]")


class PuiseuxCharacteristic(Record):
    """[lambda_0; lambda_1, ..., lambda_g] with the usual invariants:
    strictly increasing, gcd 1, every entry past the first essential
    (not divisible by the gcd of its predecessors), and lambda_0 = 1
    only for the trivial characteristic [1;].  The entries come in a list
    or tuple (``_integral_entries``): integer text and integral values are
    normalized to ints, and a bool, or an entry that int() would truncate
    or cannot convert, is refused, by name."""

    __slots__ = ()
    _fields = ("lambdas",)

    def __new__(cls, lambdas):
        if lambdas.__class__ is tuple and {x.__class__ for x in lambdas} <= {int}:
            lam = lambdas  # one set for a tuple of ints
        else:
            lam = _integral_entries(lambdas)
        if _is_valid(lam):
            return _new(cls, (lam,))
        raise InvalidCharacteristic(_first_violation(lam))

    @property
    def g(self) -> int:
        return len(self.lambdas) - 1

    @property
    def leading(self) -> int:
        return self.lambdas[0]

    def is_trivial(self) -> bool:
        return self.lambdas == (1,)

    def __str__(self) -> str:
        head, tail = self.lambdas[0], self.lambdas[1:]
        return f"[{head};{','.join(str(x) for x in tail)}]"

    def __iter__(self):
        return iter(self.lambdas)


def _entries(pc: PuiseuxCharacteristic) -> tuple[int, ...]:
    """The entries of ``pc``; a value that is not a PuiseuxCharacteristic
    is refused by its type."""
    if isinstance(pc, PuiseuxCharacteristic):
        return pc.lambdas
    raise InvalidCharacteristic(f"expected a PuiseuxCharacteristic, got {type(pc).__name__}; "
                                "parse text with parse_pc")


def _integral_entries(values: list | tuple) -> tuple[int, ...]:
    """The entries of a list or tuple as ints: integer text and integral
    values keep their value.  Another container, or a bool entry, is
    TypeError naming its type, and an entry that int() would truncate or
    cannot convert is an InvalidCharacteristic that names it."""
    if values.__class__ not in (list, tuple):
        raise wrong_type("entries must be a list or tuple", values)
    for x in values:
        if x.__class__ is bool:
            raise wrong_type(f"entry {x!r} is not an integer", x)
        try:
            n = int(x)
        except (TypeError, ValueError, OverflowError):
            raise InvalidCharacteristic(f"entry {x!r} is not an integer") from None
        if n != x and not isinstance(x, (str, bytes)):
            raise InvalidCharacteristic(f"entry {x!r} is not an integer")
    return tuple(map(int, values))


def _is_valid(lam: tuple[int, ...]) -> bool:
    """One pass over a valid characteristic: increasing, every entry
    essential, the running gcd reaching 1 only at the end."""
    if lam == (1,):
        return True
    d = prev = lam[0] if lam else 0
    if d < 2:
        return False
    for x in lam[1:]:
        if x <= prev or not x % d:
            return False
        prev = x
        d = gcd(d, x)
    return d == 1


def _first_violation(lam: tuple[int, ...]) -> str:
    """Message for the first characteristic rule that ``lam`` breaks, in
    the order of the class docstring."""
    if not lam:
        return "characteristic needs a leading entry"
    if any(x < 1 for x in lam):
        return f"entries must be positive: {lam}"
    if any(a >= b for a, b in zip(lam, lam[1:])):
        return f"entries must strictly increase: {lam}"
    if lam[0] == 1:
        return "leading entry 1 forces the trivial [1;]"
    d = lam[0]
    for x in lam[1:]:
        if x % d == 0:
            return f"{x} is inessential in {lam}"
        d = gcd(d, x)
    return f"gcd of {lam} is {d}, expected 1"


TRIVIAL_PC = PuiseuxCharacteristic((1,))


EPair = namedtuple("EPair", ("a", "b"))
EPair.__doc__ = "Coprime ordered pair produced by the E map; a < b always."


class CaseTag(Record):
    """Front-end recursion case: A, or B/C with the tangency count tau.  A
    kind that is not a str, or a tau that is neither None nor an int, is
    TypeError."""

    __slots__ = ()
    _fields = ("kind", "tau")

    def __new__(cls, kind: str, tau: int | None = None):
        if kind.__class__ is not str:
            raise wrong_type("kind must be a str", kind)
        if tau is not None and tau.__class__ is not int:
            raise wrong_type("tau must be None or an int", tau)
        return _new(cls, (kind, tau))

    def __str__(self) -> str:
        return self.kind if self.tau is None else f"{self.kind}(tau={self.tau})"


def parse_pc(text: str) -> PuiseuxCharacteristic:
    """Parse ``[27;63,83]``; the trivial characteristic is ``[1;]``."""
    m = _PC_RE.fullmatch(literal_text(text, "characteristic").strip())
    if m is None:
        raise ParseError(f"bad characteristic literal {text!r}")
    head, tail = m.groups()  # int() strips the spaces the pattern allows
    return PuiseuxCharacteristic((int(head), *map(int, tail.split(",") if tail else ())))


def essential_characteristic(leading: int, exponents) -> PuiseuxCharacteristic:
    """Characteristic from a leading order and an exponent set, by the
    gcd-chain scan: an exponent is essential when the gcd of everything
    seen before it does not divide it.  The exponents are a list, tuple,
    set or frozenset (anything else is TypeError) of integral entries."""
    if exponents.__class__ not in (list, tuple, set, frozenset):
        raise wrong_type("exponents must be a list, tuple, set or frozenset", exponents)
    (leading,) = _integral_entries((leading,))
    exponents = _integral_entries(tuple(exponents))
    if leading < 1:
        raise InvalidCharacteristic("leading order must be positive")
    out = [leading]
    d = leading
    for e in sorted(set(exponents)):
        if d == 1:
            break
        if e % d:
            out.append(e)
            d = gcd(d, e)
    if d != 1:
        raise InvalidCharacteristic(
            f"exponents {sorted(set(exponents))} with leading {leading} share a factor {d}"
        )
    return PuiseuxCharacteristic(tuple(out))


# -- front-end recursion -------------------------------------------------------


def front_r_step(sub: tuple[int, ...]) -> tuple[int, ...]:
    """Front-end step for a word R W' whose lift W' starts with R: the raw
    characteristic of R W' from the raw characteristic ``sub`` of W'."""
    return (sub[0], *(x + sub[0] for x in sub[1:]))


def pc_from_word_front(word: RvtWord | str) -> PuiseuxCharacteristic:
    """Front-end recursion: PC(W) from PC(L(W)), one structural block at a
    time.  A word with no critical symbols has characteristic [1;]."""
    return PuiseuxCharacteristic(front_chain(word)[1])


def classify_case(pc: PuiseuxCharacteristic) -> CaseTag:
    """Which front block the characteristic forces: A iff ``_is_restricted``,
    B when the gap divides lambda_0, C otherwise (with the matching tau)."""
    lam = _entries(pc)
    if len(lam) == 1:  # [1;], the one valid characteristic with g = 0
        raise TrivialCharacteristic("[1;] determines no leading case")
    if _is_restricted(lam):
        return CaseTag("A")
    gap = lam[1] - lam[0]
    if lam[0] % gap == 0:
        return CaseTag("B", lam[0] // gap - 2)
    return CaseTag("C", (lam[0] - 1) // gap - 1)


def peel_case(pc: PuiseuxCharacteristic) -> tuple[CaseTag, PuiseuxCharacteristic]:
    """Inverse single step of the front-end recursion: the case tag of pc and
    the characteristic of the lifted word."""
    tag = classify_case(pc)
    lam = pc.lambdas
    gap = lam[1] - lam[0]
    if tag.kind == "A":
        down = (lam[0], *(x - lam[0] for x in lam[1:]))
    elif tag.kind == "B":
        down = (gap, *(x - gap for x in lam[2:])) if pc.g >= 2 else (1,)
    else:
        down = (gap, lam[0], *(x - gap for x in lam[2:]))
    return tag, PuiseuxCharacteristic(down)


# -- back-end recursion ---------------------------------------------------------


def e_value(symbols: RvtWord | str) -> EPair:
    """The E map on strings R^rho Q with Q entirely critical.

    E(empty) = [1;2]; prepending T or R sends [a;b] to [a;a+b], prepending V
    sends it to [b;a+b].
    """
    s = symbols if isinstance(symbols, str) else _word_text(symbols)
    first_v = s.find("V")
    head = s if first_v < 0 else s[:first_v]
    tail = "" if first_v < 0 else s[first_v:]
    if set(head) - {"R"}:
        raise MalformedString(f"{s!r}: only R may precede the first V")
    if not is_entirely_critical(tail):
        raise MalformedString(f"{s!r}: R after the first V")
    return EPair(*_e_pair(s))


def _e_pair(s: str) -> tuple[int, int]:
    """E of a string already known to have the R^rho Q shape."""
    a, b = 1, 2
    for ch in reversed(s):
        a, b = (b, a + b) if ch == "V" else (a, a + b)
    return a, b


def pc_from_word_back(word: RvtWord | str) -> PuiseuxCharacteristic:
    """Back-end recursion via the decomposition W = P R^rho Q."""
    s = word.symbols if isinstance(word, RvtWord) else RvtWord(word).symbols
    return PuiseuxCharacteristic(_back_lambdas(s.rstrip("R")))


def _back_lambdas(s: str) -> tuple[int, ...]:
    """Raw characteristic of a valid word that is empty or critical.

    Reads s = P R^rho Q block by block in one scan from the end, carrying
    E(Q) = (a, b) over the V's and T's of Q and the length rho of the R
    run before it; a V or T before that run closes the block, and so does
    the V the scan reads before the word.  Read from the first block:
    PC(R^rho Q) is (a, b + (rho-1)*a), and each later block scales the
    characteristic by a and appends a*lambda_last + b + (rho-2)*a.  So
    lambda_0 is the product of the a's, and lambda_j - lambda_(j-1) is
    b + (rho-2)*a of block j times the a's of the blocks after it: the
    scan carries that product.  The blocks are those of ``_split_pq``,
    which the scan does not call.
    """
    scale, gaps, a, b, rho = 1, [], 1, 2, 0
    for ch in reversed("V" + s):
        if ch == "R":
            rho += 1
            continue
        if rho:
            gaps.append(scale * (b + (rho - 2) * a))
            scale, a, b, rho = scale * a, 1, 2, 0
        a, b = (b, a + b) if ch == "V" else (a, a + b)
    return (*accumulate(reversed(gaps), initial=scale),)


# -- inverse maps ------------------------------------------------------------------


def euclid(a: int, b: int) -> str:
    """Entirely-critical string of the slow Euclidean algorithm on (a, b):
    V then Euc(b-a, a) when b < 2a, T then Euc(a, b-a) when b > 2a,
    empty at (1, 2).  It is CW([b; a+b]) past its leading RV (the one
    block of ``_cw_pieces``).  An a or b that is not an int is TypeError."""
    if a.__class__ is not int or b.__class__ is not int:
        raise wrong_type("a and b must be ints", (a, b), (tuple,))
    if a < 1 or b < 1 or a >= b:
        raise BadOrder(f"need 0 < a < b, got ({a}, {b})")
    if gcd(a, b) != 1:
        raise NotCoprime(f"gcd({a}, {b}) = {gcd(a, b)}")
    return _cw_string((b, a + b))[2:]


def word_from_pc(pc: PuiseuxCharacteristic) -> RvtWord:
    """The CW map: the critical word with the given characteristic.

    Rejects exponent lists that are not genuine characteristics instead of
    silently repairing them; use :func:`essential_characteristic` to
    canonicalize raw exponent data first.  CW of [1;] is the empty word.  A
    word longer than the longest string is OverflowError, and one that fits
    that range but no allocation MemoryError, each naming its length.  The
    word is measured only when building it fails: a word that long has a
    block or run far past any allocation, so building it fails at once.
    """
    try:
        return RvtWord(_cw_string(_entries(pc)))
    except (OverflowError, MemoryError):
        _check_index_range(pc, length := cw_length(pc))
        raise MemoryError(f"CW({pc}) has {length} symbols") from None


def _cw_pieces(lam: tuple[int, ...]) -> list[tuple[int, int]]:
    """CW(lam) of a valid characteristic as its pieces R^n V T^t, one per
    V, in order: ``(n, t)``.

    Block m (m = 1..g) is R^(k+1) V Euc(r, a), with a = e_(m-1)/e_m,
    e_m = gcd(lambda_0..lambda_m), and k + 1, r the quotient and
    remainder of (lambda_m - lambda_(m-1))/e_m + a by a.  Euc(r, a) is
    read inline: a = q*r + r' with r > 1 gives q - 1 T's, V, Euc(r', r),
    and Euc(1, a) is a - 2 T's.  So a block is one R run and its V T^t
    pieces, and the walk divides by the running gcd instead of rebuilding
    entries.
    """
    pieces, d = [], lam[0]
    for prev, x in zip(lam, lam[1:]):
        e = gcd(d, x)
        a, d = d // e, e
        n, r = divmod((x - prev) // e + a, a)
        while r > 1:
            pieces.append((n, a // r - 1))
            n, a, r = 0, r, a % r
        pieces.append((n, a - 2))
    return pieces


def _cw_string(lam: tuple[int, ...]) -> str:
    """CW of a valid characteristic, as a string."""
    return "".join(["R" * n + "V" + "T" * t for n, t in _cw_pieces(lam)])


def cw_length(pc: PuiseuxCharacteristic) -> int:
    """len(word_from_pc(pc)) without building the word: the R's, V and
    T's of each piece."""
    return sum(n + 1 + t for n, t in _cw_pieces(_entries(pc)))


def _check_index_range(pc: PuiseuxCharacteristic, length: int) -> None:
    """OverflowError when CW(pc), of the given length, is longer than the
    longest string (``sys.maxsize``), so no word of it can be built."""
    if length > sys.maxsize:
        raise OverflowError(f"CW({pc}) has {length} symbols, more than the longest "
                            f"string ({sys.maxsize})")


def word_from_pc_front_inverse(pc: PuiseuxCharacteristic) -> RvtWord:
    """Invert the front-end recursion by repeated case peeling.

    Case A contributes R, case B contributes R V T^tau R (the block together
    with the R that must follow it in the padded word), case C contributes
    R V T^tau; the overlap with the lifted word's leading R run is dropped.
    Peels down to [1;], then rebuilds the word from the innermost peel out;
    each peel adds at least one symbol, so there are at most
    cw_length(pc) + 1 peels, and a word longer than the longest string is
    OverflowError before the first peel, as in word_from_pc.  The output
    may carry a trailing R; it normalizes to word_from_pc(pc).
    """
    _check_index_range(pc, cw_length(pc))
    peels = []
    while not pc.is_trivial():
        tag, down = peel_case(pc)
        peels.append((pc, tag))
        pc = down
    word = ""
    for pc, tag in reversed(peels):
        if tag.kind == "A":
            word = "R" + word
            continue
        drop = tag.tau + 2 if tag.kind == "B" else tag.tau + 1
        if word[:drop].strip("R"):
            raise InvalidCharacteristic(f"peel of {pc} expected {drop} leading R's, found {word!r}")
        word = "RV" + "T" * tag.tau + ("R" if tag.kind == "B" else "") + word[drop:]
    return RvtWord(word)


# -- restriction ----------------------------------------------------------------------


def is_restricted(pc: PuiseuxCharacteristic) -> bool:
    """lambda_1 > 2*lambda_0, vacuously true for [1;] (``_is_restricted``)."""
    return _is_restricted(_entries(pc))


def _is_restricted(lam: tuple[int, ...]) -> bool:
    """The restriction rule on the entries: lambda_1 > 2*lambda_0, or g = 0."""
    return len(lam) == 1 or lam[1] > 2 * lam[0]


def restrict_pc(pc: PuiseuxCharacteristic) -> PuiseuxCharacteristic:
    """Replace lambda_0 by lambda_1 mod lambda_0 when not yet restricted.

    A remainder of 1 collapses to the trivial characteristic (the germ of a
    Goursat trivially-framed level).  A remainder that breaks the
    characteristic invariants is reported via RemainderInvalid rather than
    repaired; the Goursat-word route stays available for those words.  The
    rule itself is ``_restricted_lambdas``, which the invariant panel reads
    directly, so a panel raises nothing where this raises.
    """
    lam = _entries(pc)
    out = _restricted_lambdas(lam)
    if out is lam:
        return pc
    if out == (1,):
        return TRIVIAL_PC
    if out is not None:
        return _new(PuiseuxCharacteristic, (out,))
    remainder = lam[1] % lam[0]
    cause = InvalidCharacteristic(_first_violation((remainder, *lam[1:])))
    raise RemainderInvalid(
        f"remainder {remainder} of {pc} is not a valid leading entry: {cause}"
    ) from cause


def _restricted_lambdas(lam: tuple[int, ...]) -> tuple[int, ...] | None:
    """The entries of the restriction of the valid characteristic ``lam``:
    ``lam`` itself when it is already restricted, (1,) for a remainder of
    1, and None when the remainder is not a valid leading entry."""
    if _is_restricted(lam):
        return lam
    out = (lam[1] % lam[0], *lam[1:])
    if out[0] == 1:
        return (1,)
    return out if _is_valid(out) else None
