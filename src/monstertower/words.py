"""RVT code words and the word calculus.

A code word is a finite word over {R, V, T} subject to two rules: a nonempty
word starts with R, and every T immediately follows a V or a T.  Words are
stored without trailing R padding semantics attached; ``normalize`` trims
trailing R's, which changes none of the invariants computed from a word.

Two readings of a word that the other modules build on are made here and
nowhere else: the V T^tau chain through each position (``_chain_edges``,
which gives the proximity edges, and ``chain_origins``, read off them for
the level split) and the Goursat word (``goursat_word``, R followed by the
lifted word when the second symbol is V).  The split P R^rho Q of a
critical word is made here for ``decompose`` (``_split_pq``); the back
recursion of the Puiseux characteristic reads the same blocks in its own
scan from the end, and the tests hold the two readings equal.

A word is validated where it enters: ``RvtWord(str)`` and ``parse_word`` run
``validate_symbols``, and so do the two maps that build a word from other
data, ``puiseux.word_from_pc`` and an engine trace's ``word``.  A word the
calculus derives from a valid word is valid by construction, and is built
as a record directly (``_new``) without the validator: each word of
``enumerate_words``, ``lift``, ``lift_preimages``, ``normalize``,
``goursat_word``, both halves of ``split_at_level``, ``decompose``'s prefix
and ``WordDecomposition.reconstruct``.  The tests run the validator over
every such derivation to length 10.

The front walk (``front_chain``), one backward pass that gives the
multiplicity of every lift and the raw characteristics of the word and of
its lifted word, lives here too, with the multiplicity sequence it yields
and the ``VerticalOrders`` record.  Those are all the engines read of the
word calculus, so a lift or a cross-check loads this module and never
``puiseux`` or ``invariants``, which build the characteristic and the panel
on the same walk.
"""

from __future__ import annotations

from .errors import (
    EmptyWord,
    InvalidSymbol,
    LeadingNonR,
    LevelOutOfRange,
    NotCritical,
    OrphanT,
    literal_text,
    wrong_type,
)
from .records import Record, _new

ALPHABET = "RVT"
_SYMBOLS = frozenset(ALPHABET)
_INT = frozenset((int,))  # the class of a vertical order; a bool is not one

# R before V before T: the order of sort_key, in which enumerate_words yields
_SYMBOL_ORDER = {"R": 0, "V": 1, "T": 2}


def validate_symbols(symbols: str) -> None:
    # A valid word passes three C-level scans; anything else is diagnosed
    # below: a value that is not a str by its type, a str by the loop, which
    # names the first offending position.
    if isinstance(symbols, str) and (
        not symbols
        or (symbols[0] == "R" and "RT" not in symbols and _SYMBOLS.issuperset(symbols))
    ):
        return
    if not isinstance(symbols, str):
        raise _not_a_word(symbols)
    for i, ch in enumerate(symbols):
        if ch not in ALPHABET:
            raise InvalidSymbol(f"symbol {ch!r} is not one of R, V, T", i)
    if symbols and symbols[0] != "R":
        raise LeadingNonR(f"word starts with {symbols[0]!r}, expected R", 0)
    for i in range(1, len(symbols)):
        if symbols[i] == "T" and symbols[i - 1] not in "VT":
            raise OrphanT("T must immediately follow V or T", i)


def _not_a_word(value) -> InvalidSymbol:
    return InvalidSymbol(f"a word is a str of R, V, T; got {type(value).__name__}")


def _word_text(symbols) -> str:
    """The symbols of a word argument that is not a str (callers take a
    str as it is): an RvtWord's, and anything else is refused by its type."""
    if isinstance(symbols, RvtWord):
        return symbols.symbols
    raise _not_a_word(symbols)


def lift_string(s: str) -> str:
    """String form of the lifted word (input assumed valid and nonempty)."""
    s = s[1:]
    if s and s[0] == "V":
        i = 1
        while i < len(s) and s[i] == "T":
            i += 1
        s = "R" * i + s[i:]
    return s


def is_critical(symbols: RvtWord | str) -> bool:
    """Last symbol is V or T."""
    s = symbols if isinstance(symbols, str) else _word_text(symbols)
    return bool(s) and s[-1] in "VT"


def is_entirely_critical(symbols: RvtWord | str) -> bool:
    """Every symbol is V or T (vacuously true for the empty string)."""
    s = symbols if isinstance(symbols, str) else _word_text(symbols)
    return all(ch in "VT" for ch in s)


class RvtWord(Record):
    __slots__ = ()
    _fields = ("symbols",)

    def __new__(cls, symbols: str = ""):
        validate_symbols(symbols)
        return _new(cls, (symbols,))

    def __str__(self) -> str:
        return self.symbols

    def __len__(self) -> int:
        return len(self.symbols)

    def __bool__(self) -> bool:
        return bool(self.symbols)

    def __iter__(self):
        return iter(self.symbols)

    def sort_key(self) -> tuple:
        return (len(self.symbols), tuple(_SYMBOL_ORDER[c] for c in self.symbols))

    # -- predicates ----------------------------------------------------------

    def is_critical(self) -> bool:
        return is_critical(self.symbols)

    def is_entirely_critical(self) -> bool:
        return is_entirely_critical(self.symbols)

    # -- normal forms ----------------------------------------------------------

    def normalize(self) -> "RvtWord":
        """Trim trailing R's; the result is empty or critical."""
        return _new(RvtWord, (self.symbols.rstrip("R"),))

    def goursat_word(self) -> "RvtWord":
        """Rewrite a second-position V chain to R's.

        If there is a V in second position, it and any immediately succeeding
        T's become R's; Goursat distributions cannot see that initial chain.
        So the Goursat word is R followed by the lifted word, and every other
        word is its own Goursat word.  Either way it begins with RR when it
        has length >= 2.
        """
        s = self.symbols
        if s[1:2] != "V":
            return self
        return _new(RvtWord, ("R" + lift_string(s),))

    # -- lifting ----------------------------------------------------------------

    def lift(self) -> "RvtWord":
        """Code word of the once-lifted germ.

        Drop the leading R; if the word now starts with V, that V and any
        T's chained to it become R's.
        """
        if not self.symbols:
            raise EmptyWord("cannot lift the empty word")
        return _new(RvtWord, (lift_string(self.symbols),))

    def lift_preimages(self) -> frozenset["RvtWord"]:
        """All words u with u.lift() == self.

        A leading run R^sigma may be replaced by V T^(sigma-1) (sigma = 0
        meaning no replacement), then an R is prepended; one preimage per
        sigma up to the leading R run length.
        """
        s = self.symbols
        run = 0
        while run < len(s) and s[run] == "R":
            run += 1
        out = set()
        for sigma in range(run + 1):
            replaced = ("V" + "T" * (sigma - 1)) if sigma else ""
            out.add(_new(RvtWord, ("R" + replaced + s[sigma:],)))
        return frozenset(out)

    # -- decompositions -----------------------------------------------------------

    def decompose(self) -> "WordDecomposition":
        """Write a critical word as P R^rho Q with Q the maximal trailing
        entirely-critical block."""
        s = self.symbols
        if not is_critical(s):
            raise NotCritical(f"{s!r} does not end in V or T")
        r, q = _split_pq(s)
        return WordDecomposition(prefix=_new(RvtWord, (s[:r],)), rho=q - r, critical_block=s[q:])

    def chain_origins(self) -> tuple[int | None, ...]:
        """For each position (1-indexed entries, index 0 unused as None):
        the level at which the V/T chain through it started, read off the
        chain edges (``_chain_edges``)."""
        origins: list[int | None] = [None] * (len(self.symbols) + 1)
        for j, i in _chain_edges(self.symbols):
            if i != j - 1:
                origins[j] = i + 2
        return tuple(origins)

    def split_at_level(self, k: int) -> tuple["RvtWord", "RvtWord"]:
        """Split the full incidence word of a curve at tower level k.

        Returns (point word, curve word): the first k symbols, and the rest
        with every symbol whose chain started at level <= k+1 replaced by R.
        Chains are tracked by origin position, so a cut landing inside a
        V T^tau chain replaces exactly the symbols of that chain.  A k
        that is not an int is TypeError.
        """
        if k.__class__ is not int:
            raise wrong_type("k must be an int", k)
        if k < 0 or k > len(self.symbols):
            raise LevelOutOfRange(f"level {k} outside word of length {len(self.symbols)}")
        origins = self.chain_origins()
        tail = []
        for pos in range(k + 1, len(self.symbols) + 1):
            ch = self.symbols[pos - 1]
            if ch in "VT" and origins[pos] is not None and origins[pos] >= k + 2:
                tail.append(ch)
            else:
                tail.append("R")
        return _new(RvtWord, (self.symbols[:k],)), _new(RvtWord, ("".join(tail),))


def _chain_edges(s: str) -> tuple[tuple[int, int], ...]:
    """The V T^tau chain rule in one walk, as proximity edges sorted by
    position: position j (1-indexed) gets (j, o - 2) when it lies on the
    chain that a V at position o started, then (j, j - 1)."""
    edges = []
    origin = None
    for j, ch in enumerate(s, 1):
        origin = j if ch == "V" else origin if ch == "T" else None
        if origin is not None:
            edges.append((j, origin - 2))
        edges.append((j, j - 1))
    return tuple(edges)


def _split_pq(s: str) -> tuple[int, int]:
    """Cut points (r, q) of a valid critical string s = P R^rho Q: Q = s[q:]
    is the maximal trailing V/T block, R^rho = s[r:q] the run before it and
    P = s[:r], empty or critical."""
    q = len(s.rstrip("VT"))
    return len(s[:q].rstrip("R")), q


class WordDecomposition(Record):
    """P R^rho Q: the prefix P, empty or critical; rho >= 1, the number of
    R's between P and Q; the block Q, nonempty, entirely critical and
    beginning with V.  A prefix that is not an RvtWord is built into one,
    so a str is validated and any other value refused by its type, and a
    rho whose class is not int (a bool, a float) is refused.  Every other
    record is a NotCritical: it decomposes no critical word.  A rho of 0
    would join P's last V or T to Q (RV, 0, V rebuilds RVV, which is ('',
    1, VV)), and an empty Q rebuilds a word that is not critical.  So
    reconstruct builds a valid word, and decompose gives this record
    back."""

    __slots__ = ()
    _fields = ("prefix", "rho", "critical_block")

    def __new__(cls, prefix: RvtWord, rho: int, critical_block: str):
        if critical_block and not is_entirely_critical(critical_block):
            raise NotCritical("Q block must be entirely critical")
        if critical_block and critical_block[0] != "V":
            raise NotCritical("nonempty Q block must begin with V")
        if not isinstance(prefix, RvtWord):
            prefix = RvtWord(prefix)
        if prefix.symbols and not prefix.is_critical():
            raise NotCritical("P must be empty or critical")
        if rho.__class__ is not int or rho < 1:
            raise NotCritical(f"rho must be an int >= 1; got {rho!r}")
        if not critical_block:
            raise NotCritical("Q block must be nonempty")
        return _new(cls, (prefix, rho, critical_block))

    def reconstruct(self) -> RvtWord:
        return _new(RvtWord, (self.prefix.symbols + "R" * self.rho + self.critical_block,))


def parse_word(text: str) -> RvtWord:
    """Parse a word literal: uppercase R/V/T, no separators."""
    return RvtWord(literal_text(text, "word").strip())


def enumerate_words(max_len: int, min_len: int = 1):
    """An iterator over every valid word of length min_len..max_len in
    (length, R<V<T) order.  Each length extends the words of the one
    before, in their order, by R, V and (after V or T) T, so it comes out
    in order.  The grammar builds only valid words (R first, R or V after
    any symbol, T only after V or T), so each is built without the
    validator.  A length that is not an int is TypeError, raised by the
    call, before any word is made."""
    if max_len.__class__ is not int or min_len.__class__ is not int:
        raise wrong_type("max_len and min_len must be ints", (max_len, min_len), (tuple,))
    return _words(max_len, min_len)


def _words(max_len: int, min_len: int):
    if min_len <= 0:
        yield _new(RvtWord, ("",))
    level = ["R"]
    for n in range(1, max_len + 1):
        if n > 1:
            level = [w + c for w in level for c in ("RV" if w[-1] == "R" else "RVT")]
        if n >= min_len:
            for s in level:
                yield _new(RvtWord, (s,))


def count_words(n: int) -> int:
    """Number of valid words of length exactly n, by the R/V/T state
    recurrence implied by the two word rules; 0 for a negative n, and
    TypeError for an n that is not an int."""
    if n.__class__ is not int:
        raise wrong_type("n must be an int", n)
    if n <= 0:
        return 1 if n == 0 else 0
    r, v, t = 1, 0, 0
    for _ in range(n - 1):
        total = r + v + t
        r, v, t = total, total, v + t
    return r + v + t


# -- the front walk -------------------------------------------------------------


def front_chain(word: RvtWord | str) -> tuple[tuple[int, ...], ...]:
    """``(multiplicities, lambdas, lifted)`` in one backward walk: the
    leading characteristic entry of each j-fold lift, j = 0..len(word), and
    the raw characteristics of the word and of its lifted word.

    A lift drops the leading symbol and turns a V T^tau run into R's, so
    lift level j reads its block at the word's own symbol j+1: a V opens a
    B block when its T run ends the word or meets R, a C block when it
    meets V; anything else is an A step.  Each level is O(1) on the head and
    the tail stored minus a running offset: O(len(word)) time and memory.
    """
    s = word.symbols if isinstance(word, RvtWord) else RvtWord(word).symbols
    mults = [1] * (len(s) + 1)
    head, tail, off, lifted = 1, [], 0, (1,)  # tail: last entry first
    last_v = s.rfind("V")
    tau, closed = s.count("T", last_v), True  # the last V is followed by T^tau R*
    for j in range(last_v - 1, -1, -1):
        ch = s[j + 1]
        if ch != "V":
            off += head
            if ch == "T":
                tau += 1
            else:
                tau, closed = 0, True
        elif closed:
            off += head
            tail.append((tau + 3) * head - off)
            head *= tau + 2
            tau, closed = 0, False
        else:
            head, off, tau = tail[-1] + off, off + head, 0
        mults[j] = head
        if j == 1:
            lifted = (head, *[x + off for x in reversed(tail)])
    return tuple(mults), (head, *[x + off for x in reversed(tail)]), lifted


def multiplicity_sequence(word: RvtWord | str) -> tuple[int, ...]:
    """Leading characteristic entries down the lift chain: entry j is the
    multiplicity of the j-fold lift, for j = 0..len(word)."""
    w = word if isinstance(word, RvtWord) else RvtWord(word)
    return front_chain(w)[0]


class VerticalOrders(Record):
    """Intersection orders of the regularized lift with the divisors at
    infinity, indexed by absolute tower level starting at first_level.
    Values that are not a tuple of ints, or a first level that is not an
    int, are TypeError; the orders the package derives are built without
    the check (``_new``)."""

    __slots__ = ()
    _fields = ("values", "first_level")

    def __new__(cls, values: tuple[int, ...], first_level: int = 2):
        if values.__class__ is not tuple or not {v.__class__ for v in values} <= _INT:
            raise wrong_type("values must be a tuple of ints", values, (tuple,))
        if first_level.__class__ is not int:
            raise wrong_type("first_level must be an int", first_level)
        return _new(cls, (values, first_level))

    def __iter__(self):
        return iter(self.values)

    def restricted(self) -> "VerticalOrders":
        """Orders from the next level on: the restricted vertical orders."""
        return _new(VerticalOrders, (self.values[1:], self.first_level + 1))

    def to_json_dict(self) -> dict:
        return {"first_level": self.first_level, "values": list(self.values)}
