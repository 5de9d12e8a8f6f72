"""Proximity diagrams, vertical orders, and the aggregated invariant panel
of a code word.

Everything here is driven by the word alone; the lifting engines recompute
the same data geometrically and the two routes are cross-checked in the
test suite.  Diagrams and sequences are truncated one position past the
last stored symbol: all later data is forced (multiplicity 1, no extra
proximity edges).  The multiplicity sequence and the ``VerticalOrders``
record live in ``words``, beside the front walk that gives them, and are
bound here: they are all the engines read, so an engine run loads neither
this module nor ``puiseux``.
"""

from __future__ import annotations

from operator import sub

from .errors import MismatchReport, wrong_type
from .puiseux import (
    PuiseuxCharacteristic,
    _back_lambdas,
    _restricted_lambdas,
    front_r_step,
    word_from_pc,
)
from .records import Record, _new
from .words import RvtWord, VerticalOrders, _chain_edges, front_chain, multiplicity_sequence


class ProximityDiagram(Record):
    """Vertices are the germ p_0 and its lifts p_1..p_r, p_j carrying symbol
    j of the word and multiplicity mults[j]; p_j is proximate to p_i when
    j = i+1 or p_j sits on the chain prolongation hanging off position i+2."""

    __slots__ = ()
    _fields = ("symbols", "mults", "edges")  # an edge (j, i): p_j proximate to p_i

    def multiplicities(self) -> tuple[int, ...]:
        return self.mults

    def check_sums(self) -> bool:
        """Proximity sum rule: each multiplicity is the sum of the
        multiplicities proximate to it (checkable below the last vertex).

        The sums are accumulated in one pass over the edges; an edge into
        an index that is not a vertex counts towards no sum."""
        m = self.mults
        n = len(m)
        sums = [0] * n
        for j, i in self.edges:
            if 0 <= i < n:
                sums[i] += m[j]
        return sums[:-1] == list(m[:-1])

    def _vertices(self):
        """(index, symbol, multiplicity) per vertex; the germ has no symbol."""
        return ((j, self.symbols[j - 1] if j else None, m) for j, m in enumerate(self.mults))

    def to_dot(self) -> str:
        # left-to-right layout is a free choice; only vertices, labels and
        # proximity edges carry information
        lines = ["digraph proximity {", "  rankdir=LR;"]
        for j, symbol, m in self._vertices():
            lines.append(f'  v{j} [label="{j}:{symbol or "-"}:{m}"];')
        for j, i in self.edges:
            lines.append(f"  v{j} -> v{i};")
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"index": j, "symbol": symbol, "multiplicity": m}
                for j, symbol, m in self._vertices()
            ],
            "edges": [list(e) for e in self.edges],
        }


def proximity_diagram(word: RvtWord | str) -> ProximityDiagram:
    w = word if isinstance(word, RvtWord) else RvtWord(word)
    return _build_proximity(w, multiplicity_sequence(w))


def _build_proximity(w: RvtWord, mults: tuple[int, ...]) -> ProximityDiagram:
    """Diagram of ``w`` with the multiplicity sequence ``mults`` of ``w``.

    p_j is proximate to p_(j-1), and to p_(o-2) when it lies on a V T^tau
    chain started at position o (``words._chain_edges``); edges come out
    sorted."""
    return ProximityDiagram(w.symbols, mults, _chain_edges(w.symbols))


def _orders_from_multiplicities(m: tuple[int, ...]) -> VerticalOrders:
    return _new(VerticalOrders, (tuple(map(sub, m, m[1:-1])), 2))


def vertical_orders(word: RvtWord | str) -> VerticalOrders:
    """VO_(j+2) = m_j - m_(j+1) along the multiplicity sequence, for levels
    2..r where r is the word length."""
    return _orders_from_multiplicities(multiplicity_sequence(word))


def restricted_vertical_orders(word: RvtWord | str) -> VerticalOrders:
    return vertical_orders(word).restricted()


class InvariantPanel(Record):
    __slots__ = ()
    _fields = ("word", "goursat_word", "pc", "restricted_pc", "proximity", "orders",
               "restricted_orders")

    @property
    def multiplicities(self) -> tuple[int, ...]:
        """The multiplicity sequence, on which the proximity diagram is built."""
        return self.proximity.mults

    def to_json_dict(self) -> dict:
        return {
            "word": self.word.symbols,
            "goursat_word": self.goursat_word.symbols,
            "pc": str(self.pc),
            "restricted_pc": str(self.restricted_pc),
            "multiplicity_sequence": list(self.multiplicities),
            "proximity_diagram": self.proximity.to_json_dict(),
            "vertical_orders": self.orders.to_json_dict(),
            "restricted_vertical_orders": self.restricted_orders.to_json_dict(),
        }

    def to_text(self) -> str:
        word = self.word.symbols or "(empty)"
        lines = [
            f"word                        {word}",
            f"goursat word                {self.goursat_word.symbols or '(empty)'}",
            f"puiseux characteristic      {self.pc}",
            f"restricted characteristic   {self.restricted_pc}",
            f"multiplicity sequence       {','.join(str(m) for m in self.multiplicities)}",
            f"vertical orders (VO_{self.orders.first_level}..)    "
            f"({','.join(str(v) for v in self.orders.values)})",
            f"restricted orders (RO_{self.restricted_orders.first_level}..)  "
            f"({','.join(str(v) for v in self.restricted_orders.values)})",
            f"proximity edges             {' '.join(f'{j}->{i}' for j, i in self.proximity.edges)}",
        ]
        return "\n".join(lines)


def invariant_panel(
    word: RvtWord | str | None = None, pc: PuiseuxCharacteristic | None = None
) -> InvariantPanel:
    """Assemble all invariants from a word or from a characteristic.

    One front chain of the word gives the multiplicity sequence (on which
    the proximity diagram is built), the characteristic and the lifted
    word's characteristic.  The Goursat word (``RvtWord.goursat_word``) is
    the word itself unless its second symbol is V; it is then R followed by
    the lifted word, so its characteristic is the front R step applied to
    the lifted word's.

    Every panel checks itself, and validates each characteristic it
    returns once: the checks compare raw entries with it.  The back
    recursion's entries must equal the front ones, the proximity sums must
    balance, and when the direct restriction of the characteristic is
    defined its entries must equal the Goursat-word route's.  The direct
    restriction is read from ``puiseux._restricted_lambdas``, the rule
    ``restrict_pc`` wraps, as entries or None, so no panel raises and
    catches on its path; where it agrees with the route it is the
    restricted characteristic, already valid, and the route is validated
    only where the two differ or the rule is undefined.  A ``pc`` panel
    whose front chain gives back the entries of ``pc`` returns ``pc``
    itself as its characteristic.  Neither or both of ``word`` and ``pc``
    is TypeError.
    """
    if (word is None) == (pc is None):
        raise wrong_type("give exactly one of word, pc", (word, pc), (tuple,))
    if word is None:
        w = word_from_pc(pc)
    else:
        w = word if isinstance(word, RvtWord) else RvtWord(word)
    multiplicities, lambdas, lifted = front_chain(w)
    if pc is not None and pc.lambdas == lambdas:
        front = pc
    else:
        front = PuiseuxCharacteristic(lambdas)
    back = _back_lambdas(w.symbols.rstrip("R"))
    if back != lambdas:
        raise MismatchReport(f"recursions disagree on {w}: {front} vs "
                             f"{PuiseuxCharacteristic(back)}")
    if pc is not None and front is not pc:
        raise MismatchReport(f"CW({pc}) = {w} has characteristic {front}")
    goursat = w.goursat_word()
    direct = _restricted_lambdas(lambdas)
    if goursat is w:
        restricted = front
    else:
        route = front_r_step(lifted)
        restricted = (_new(PuiseuxCharacteristic, (direct,)) if direct == route
                      else PuiseuxCharacteristic(route))
    if direct is not None and direct != restricted.lambdas:
        raise MismatchReport(f"restriction mismatch on {w}: {PuiseuxCharacteristic(direct)} "
                             f"vs Goursat route {restricted}")
    diagram = _build_proximity(w, multiplicities)
    if not diagram.check_sums():
        raise MismatchReport(f"proximity sums do not balance for {w}")
    orders = _orders_from_multiplicities(multiplicities)
    return InvariantPanel(w, goursat, front, restricted, diagram, orders, orders.restricted())
