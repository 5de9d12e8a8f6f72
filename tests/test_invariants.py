import json

import pytest

from monstertower.invariants import (
    invariant_panel,
    multiplicity_sequence,
    proximity_diagram,
    restricted_vertical_orders,
    vertical_orders,
)
from monstertower.puiseux import parse_pc, pc_from_word_front
from monstertower.words import enumerate_words, parse_word


class TestMultiplicitySequence:
    def test_worked_example(self):
        assert multiplicity_sequence("RVTVV") == (8, 3, 3, 2, 1, 1)

    def test_empty(self):
        assert multiplicity_sequence("") == (1,)

    def test_against_lift_chain_oracle(self):
        # oracle: recompute each entry via the characteristic of the
        # explicitly lifted word
        for word in ("RVTV", "RVVVRVT", "RRVTRRRVTTTV"):
            w = parse_word(word)
            expect = []
            cur = w
            for j in range(len(w) + 1):
                expect.append(pc_from_word_front(cur).leading)
                if j < len(w):
                    cur = cur.lift()
            assert multiplicity_sequence(w) == tuple(expect)

    def test_shape(self):
        for w in enumerate_words(9):
            m = multiplicity_sequence(w)
            assert len(m) == len(w) + 1
            assert all(a >= b for a, b in zip(m, m[1:]))
            assert m[-1] == 1


class TestProximityDiagram:
    def test_rvtvv_satisfies_sum_rule(self):
        d = proximity_diagram("RVTVV")
        assert d.multiplicities() == (8, 3, 3, 2, 1, 1)
        assert d.check_sums()

    def test_all_r_path_graph(self):
        d = proximity_diagram("RRR")
        assert d.multiplicities() == (1, 1, 1, 1)
        assert set(d.edges) == {(1, 0), (2, 1), (3, 2)}

    def test_rvttv_back_edges(self):
        d = proximity_diagram("RVTTV")
        back = {(j, i) for j, i in d.edges if i != j - 1}
        assert back == {(2, 0), (3, 0), (4, 0), (5, 3)}
        assert d.check_sums()

    def test_sum_rule_to_length_10(self):
        for w in enumerate_words(10):
            assert proximity_diagram(w).check_sums()

    def test_dot_output(self):
        dot = proximity_diagram("RV").to_dot()
        assert dot.startswith("digraph proximity {") and dot.endswith("}")
        assert 'v0 [label="0:-:2"];' in dot
        assert "v1 -> v0;" in dot


class TestVerticalOrders:
    def test_examples(self):
        assert tuple(vertical_orders("RVVVRVT")) == (6, 3, 3, 0, 2, 0)
        assert tuple(vertical_orders("RRVVRVT")) == (0, 3, 3, 0, 2, 0)
        assert tuple(vertical_orders("RRRRR")) == (0, 0, 0, 0)

    def test_restricted(self):
        assert tuple(restricted_vertical_orders("RVVVRVT")) == (3, 3, 0, 2, 0)
        assert tuple(restricted_vertical_orders("RRVVRVT")) == (3, 3, 0, 2, 0)
        assert tuple(restricted_vertical_orders("")) == ()

    def test_levels(self):
        assert vertical_orders("RVVVRVT").first_level == 2
        assert restricted_vertical_orders("RVVVRVT").first_level == 3

    def test_nonnegative_and_telescoping(self):
        for w in enumerate_words(10):
            m = multiplicity_sequence(w)
            vo = tuple(vertical_orders(w))
            assert all(v >= 0 for v in vo)
            if len(w):
                assert sum(vo) == m[0] - 1

    def test_ro_determined_by_goursat_word(self):
        groups = {}
        for w in enumerate_words(9):
            groups.setdefault(w.goursat_word().symbols, set()).add(
                tuple(restricted_vertical_orders(w))
            )
        for goursat, ros in groups.items():
            assert len(ros) == 1, goursat


class TestPanel:
    def test_from_word(self):
        panel = invariant_panel(word="RVTVV")
        assert str(panel.pc) == "[8;11]"
        assert panel.multiplicities == (8, 3, 3, 2, 1, 1)
        assert panel.goursat_word.symbols == "RRRVV"
        assert str(panel.restricted_pc) == "[3;11]"

    def test_from_pc(self):
        panel = invariant_panel(pc=parse_pc("[27;63,83]"))
        assert panel.word.symbols == "RRVTRRRVTTTV"

    def test_trivial(self):
        panel = invariant_panel(word="")
        assert str(panel.pc) == "[1;]"
        assert panel.multiplicities == (1,)
        assert tuple(panel.orders) == ()

    def test_restriction_falls_back_to_goursat_route(self):
        # [6;8,9] has an invalid direct remainder; the panel still restricts
        panel = invariant_panel(word="RVTRV")
        assert str(panel.pc) == "[6;8,9]"
        assert str(panel.restricted_pc) == "[2;9]"

    def test_json_round_trip(self):
        panel = invariant_panel(word="RVTVV")
        payload = json.loads(panel.to_json())
        assert payload["word"] == "RVTVV"
        assert payload["pc"] == "[8;11]"
        assert payload["multiplicity_sequence"] == [8, 3, 3, 2, 1, 1]
        assert payload["vertical_orders"]["first_level"] == 2

    def test_one_multiplicity_sequence_per_panel(self, monkeypatch):
        from monstertower import invariants

        calls = []
        original = invariants.multiplicity_sequence

        def counting(word):
            calls.append(word)
            return original(word)

        monkeypatch.setattr(invariants, "multiplicity_sequence", counting)
        panel = invariant_panel(word="RVVVRVT")
        assert len(calls) == 1
        assert panel.multiplicities == original("RVVVRVT")
        assert panel.orders == vertical_orders("RVVVRVT")
        assert panel.restricted_orders == restricted_vertical_orders("RVVVRVT")

    def test_requires_exactly_one_input(self):
        with pytest.raises(ValueError):
            invariant_panel()
        with pytest.raises(ValueError):
            invariant_panel(word="RV", pc=parse_pc("[2;3]"))
