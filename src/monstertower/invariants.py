"""Multiplicity sequences, proximity diagrams, vertical orders, and the
aggregated invariant panel of a code word.

Everything here is driven by the word alone; the lifting engines recompute
the same data geometrically and the two routes are cross-checked in the
test suite.  Diagrams and sequences are truncated one position past the
last stored symbol: all later data is forced (multiplicity 1, no extra
proximity edges).
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .errors import MismatchReport, RemainderInvalid
from .puiseux import (
    PuiseuxCharacteristic,
    front_chain,
    pc_from_word_back,
    pc_from_word_front,
    restrict_pc,
    word_from_pc,
)
from .words import RvtWord


def multiplicity_sequence(word: RvtWord | str) -> tuple[int, ...]:
    """Leading characteristic entries down the lift chain: the j-th entry is
    the multiplicity of the j-fold lift, one entry per symbol plus the germ
    itself.  The tail of the chain confirms the final 1."""
    w = word if isinstance(word, RvtWord) else RvtWord(str(word))
    leads = [pc[0] for pc in front_chain(w)]
    leads.extend([1] * (len(w.symbols) + 1 - len(leads)))
    return tuple(leads)


@dataclass(frozen=True)
class ProximityVertex:
    index: int
    symbol: str | None
    multiplicity: int


@dataclass(frozen=True)
class ProximityDiagram:
    """Vertices are the germ and its lifts; p_j is proximate to p_i when
    j = i+1 or p_j sits on the chain prolongation hanging off position i+2."""

    vertices: tuple[ProximityVertex, ...]
    edges: tuple[tuple[int, int], ...]  # (j, i): p_j proximate to p_i

    def multiplicities(self) -> tuple[int, ...]:
        return tuple(v.multiplicity for v in self.vertices)

    def check_sums(self) -> bool:
        """Proximity sum rule: each multiplicity is the sum of the
        multiplicities proximate to it (checkable below the last vertex)."""
        m = self.multiplicities()
        for i in range(len(m) - 1):
            total = sum(m[j] for j, i2 in self.edges if i2 == i)
            if total != m[i]:
                return False
        return True

    def to_dot(self) -> str:
        # left-to-right layout is a free choice; only vertices, labels and
        # proximity edges carry information
        lines = ["digraph proximity {", "  rankdir=LR;"]
        for v in self.vertices:
            symbol = v.symbol if v.symbol is not None else "-"
            lines.append(f'  v{v.index} [label="{v.index}:{symbol}:{v.multiplicity}"];')
        for j, i in self.edges:
            lines.append(f"  v{j} -> v{i};")
        lines.append("}")
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "vertices": [
                {"index": v.index, "symbol": v.symbol, "multiplicity": v.multiplicity}
                for v in self.vertices
            ],
            "edges": [list(e) for e in self.edges],
        }


def proximity_diagram(word: RvtWord | str) -> ProximityDiagram:
    w = word if isinstance(word, RvtWord) else RvtWord(str(word))
    mults = multiplicity_sequence(w)
    vertices = tuple(
        ProximityVertex(j, w.symbols[j - 1] if j else None, mults[j])
        for j in range(len(w.symbols) + 1)
    )
    edges = [(j + 1, j) for j in range(len(w.symbols))]
    symbols = w.symbols
    for pos in range(1, len(symbols) + 1):
        if symbols[pos - 1] != "V":
            continue
        tau = 0
        while pos + tau < len(symbols) and symbols[pos + tau] == "T":
            tau += 1
        for q in range(pos, pos + tau + 1):
            edges.append((q, pos - 2))
    return ProximityDiagram(vertices, tuple(sorted(edges)))


@dataclass(frozen=True)
class VerticalOrders:
    """Intersection orders of the regularized lift with the divisors at
    infinity, indexed by absolute tower level starting at first_level."""

    values: tuple[int, ...]
    first_level: int = 2

    def __iter__(self):
        return iter(self.values)

    def restricted(self) -> "VerticalOrders":
        """Orders from the next level on: the restricted vertical orders."""
        return VerticalOrders(self.values[1:], self.first_level + 1)

    def to_json_dict(self) -> dict:
        return {"first_level": self.first_level, "values": list(self.values)}


def _orders_from_multiplicities(m: tuple[int, ...]) -> VerticalOrders:
    return VerticalOrders(tuple(m[j] - m[j + 1] for j in range(max(len(m) - 2, 0))))


def vertical_orders(word: RvtWord | str) -> VerticalOrders:
    """VO_(j+2) = m_j - m_(j+1) along the multiplicity sequence, for levels
    2..r where r is the word length."""
    return _orders_from_multiplicities(multiplicity_sequence(word))


def restricted_vertical_orders(word: RvtWord | str) -> VerticalOrders:
    return vertical_orders(word).restricted()


@dataclass(frozen=True)
class InvariantPanel:
    word: RvtWord
    goursat_word: RvtWord
    pc: PuiseuxCharacteristic
    restricted_pc: PuiseuxCharacteristic
    multiplicities: tuple[int, ...]
    proximity: ProximityDiagram
    orders: VerticalOrders
    restricted_orders: VerticalOrders

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

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

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

    The two Puiseux recursions are required to agree, the proximity sums
    must balance, and when the direct restriction of the characteristic is
    defined it must match the Goursat-word route.
    """
    if (word is None) == (pc is None):
        raise ValueError("give exactly one of word, pc")
    if word is None:
        w = word_from_pc(pc)
    else:
        w = word if isinstance(word, RvtWord) else RvtWord(str(word))
    front = pc_from_word_front(w)
    back = pc_from_word_back(w)
    if front != back:
        raise MismatchReport(f"recursions disagree on {w}: {front} vs {back}")
    if pc is not None and front != pc:
        raise MismatchReport(f"CW({pc}) = {w} has characteristic {front}")
    goursat = w.goursat_word()
    restricted = pc_from_word_front(goursat)
    try:
        direct = restrict_pc(front)
    except RemainderInvalid:
        direct = None
    if direct is not None and direct != restricted:
        raise MismatchReport(
            f"restriction mismatch on {w}: {direct} vs Goursat route {restricted}"
        )
    diagram = proximity_diagram(w)
    if not diagram.check_sums():
        raise MismatchReport(f"proximity sums do not balance for {w}")
    multiplicities = diagram.multiplicities()
    orders = _orders_from_multiplicities(multiplicities)
    return InvariantPanel(
        word=w,
        goursat_word=RvtWord(goursat.symbols),
        pc=front,
        restricted_pc=restricted,
        multiplicities=multiplicities,
        proximity=diagram,
        orders=orders,
        restricted_orders=orders.restricted(),
    )
