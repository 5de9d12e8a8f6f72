import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monstertower import invariants
from monstertower.invariants import (
    ProximityDiagram,
    invariant_panel,
    multiplicity_sequence,
    proximity_diagram,
    restricted_vertical_orders,
    vertical_orders,
)
from monstertower.puiseux import parse_pc, pc_from_word_back, pc_from_word_front
from monstertower.words import RvtWord, enumerate_words, parse_word
from panel_sweep import conductor, noether_sum


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


class TestConductorIdentity:
    """Noether's formula: the sum of m(m - 1) over the multiplicity sequence
    is Zariski's conductor of the characteristic.  The characteristic comes
    from the back recursion, which shares no code with the front walk that
    gives the multiplicities."""

    @staticmethod
    def failures(words):
        return [w.symbols for w in words
                if noether_sum(multiplicity_sequence(w)) != conductor(pc_from_word_back(w))]

    def test_worked_example(self):
        # (8, 3, 3, 2, 1, 1): 56 + 6 + 6 + 2; [8;11]: (8 - 1) * 11 - 8 + 1
        assert noether_sum(multiplicity_sequence("RVTVV")) == 70
        assert conductor(parse_pc("[8;11]")) == 70
        assert conductor(parse_pc("[1;]")) == 0

    def test_every_critical_word_to_length_12(self):
        words = [w for w in enumerate_words(12) if w.is_critical()]
        assert len(words) == 28656 and self.failures(words) == []

    def test_a_seeded_wrong_multiplicity_fails(self, monkeypatch):
        # multiplicity_sequence reads the front walk where both live, in words
        from monstertower import words

        front_chain = words.front_chain

        def wrong(word):
            mults, lambdas, lifted = front_chain(word)
            return (mults[0], mults[1] + 1, *mults[2:]), lambdas, lifted

        monkeypatch.setattr(words, "front_chain", wrong)
        critical = [w for w in enumerate_words(6) if w.is_critical()]
        assert self.failures(critical) == [w.symbols for w in critical]


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

    def test_edges_match_chain_scan(self):
        # reference: scan each V T^tau chain and hang its positions off the
        # vertex two before its V, add the path edges, then sort
        for w in enumerate_words(10):
            s = w.symbols
            edges = [(j + 1, j) for j in range(len(s))]
            for pos in range(1, len(s) + 1):
                if s[pos - 1] != "V":
                    continue
                tau = 0
                while pos + tau < len(s) and s[pos + tau] == "T":
                    tau += 1
                edges.extend((q, pos - 2) for q in range(pos, pos + tau + 1))
            assert proximity_diagram(w).edges == tuple(sorted(edges)), s

    def test_unbalanced_sums_fail(self):
        def diagram(mults, edges):
            return ProximityDiagram("R" * (len(mults) - 1), mults, edges)

        edges = ((1, 0), (2, 0), (2, 1))
        assert diagram((2, 1, 1), edges).check_sums() is True
        assert diagram((3, 1, 1), edges).check_sums() is False
        assert diagram((2, 2, 1), edges).check_sums() is False

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_one_pass_sums_match_quadratic_rule(self, data):
        mults = data.draw(st.lists(st.integers(0, 4), max_size=7))
        n = len(mults)
        # sources are vertices; targets may miss the vertex set on both sides
        edges = data.draw(st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(-2, n + 1)), max_size=12,
        )) if n else []
        quadratic = all(
            sum(mults[j] for j, i2 in edges if i2 == i) == mults[i] for i in range(n - 1)
        )
        diagram = ProximityDiagram("R" * (n - 1), tuple(mults), tuple(edges))
        assert diagram.check_sums() is quadratic

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

    def test_json_round_trip(self, capsys):
        # the CLI alone sets the encoder options
        from monstertower.cli import main

        assert main(["--format", "json", "word", "RVTVV"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload == invariant_panel(word="RVTVV").to_json_dict()
        assert payload["word"] == "RVTVV"
        assert payload["pc"] == "[8;11]"
        assert payload["multiplicity_sequence"] == [8, 3, 3, 2, 1, 1]
        assert payload["vertical_orders"]["first_level"] == 2

    def test_long_word_memory_is_linear(self):
        # CW([20001;20003]) has 10,002 symbols; a front recursion that keeps
        # every lifted suffix peaks near 50 MiB on it
        import tracemalloc

        pc = parse_pc("[20001;20003]")
        tracemalloc.start()
        try:
            panel = invariant_panel(pc=pc)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(panel.word) == 10_002
        assert peak < 10 * 2**20

    def test_one_front_chain_per_panel(self, monkeypatch):
        from monstertower import invariants

        calls = []
        original = invariants.front_chain

        def counting(word):
            calls.append(str(word))
            return original(word)

        monkeypatch.setattr(invariants, "front_chain", counting)
        panel = invariant_panel(word="RVVVRVT")
        assert calls == ["RVVVRVT"]
        invariant_panel(pc=parse_pc("[27;63,83]"))
        assert calls == ["RVVVRVT", "RRVTRRRVTTTV"]
        assert panel.multiplicities == multiplicity_sequence("RVVVRVT")
        assert panel.orders == vertical_orders("RVVVRVT")
        assert panel.restricted_orders == restricted_vertical_orders("RVVVRVT")

    @pytest.mark.parametrize(
        "kind,text,validated",
        [
            # an RvtWord is valid already; a second symbol R reuses it as
            # the Goursat word, a V derives that word from it unvalidated
            ("word", "RRVTRRRVTTTV", []),
            ("word", "RVTTVRV", []),
            # the CW map validates the one word it returns
            ("pc", "[27;63,83]", ["RRVTRRRVTTTV"]),
        ],
    )
    def test_validations_per_panel(self, monkeypatch, kind, text, validated):
        from monstertower import words

        calls = []
        original = words.validate_symbols

        def counting(symbols):
            calls.append(symbols)
            return original(symbols)

        arg = RvtWord(text) if kind == "word" else parse_pc(text)
        monkeypatch.setattr(words, "validate_symbols", counting)
        invariant_panel(**{kind: arg})
        assert calls == validated

    def test_a_seeded_restriction_fault_is_reported(self, monkeypatch):
        # the Goursat route of RVTVV gives [3;11]; a wrong route tuple that
        # is still a valid characteristic must fail the panel's own check
        from monstertower import invariants
        from monstertower.errors import MismatchReport

        monkeypatch.setattr(invariants, "front_r_step", lambda lifted: (4, 11))
        with pytest.raises(MismatchReport,
                           match=r"^restriction mismatch on RVTVV: \[3;11\] "
                                 r"vs Goursat route \[4;11\]$"):
            invariant_panel(word="RVTVV")

    def test_a_seeded_back_recursion_fault_is_reported(self, monkeypatch):
        # the panel compares the back recursion's entries with the front
        # ones; a wrong back tuple that is still a valid characteristic is
        # built only to name it in the report
        from monstertower import invariants
        from monstertower.errors import MismatchReport

        monkeypatch.setattr(invariants, "_back_lambdas", lambda s: (5, 11))
        with pytest.raises(MismatchReport,
                           match=r"^recursions disagree on RVTVV: \[8;11\] vs \[5;11\]$"):
            invariant_panel(word="RVTVV")

    def test_an_invalid_back_tuple_is_an_invalid_characteristic(self, monkeypatch):
        from monstertower import invariants
        from monstertower.errors import InvalidCharacteristic

        monkeypatch.setattr(invariants, "_back_lambdas", lambda s: (4, 8))
        with pytest.raises(InvalidCharacteristic, match=r"^8 is inessential in \(4, 8\)$"):
            invariant_panel(word="RVTVV")

    def test_an_invalid_goursat_route_is_an_invalid_characteristic(self, monkeypatch):
        # the route differs from the direct restriction [3;11], so it is
        # validated, and fails before the two are compared
        from monstertower import invariants
        from monstertower.errors import InvalidCharacteristic

        monkeypatch.setattr(invariants, "front_r_step", lambda lifted: (4, 8))
        with pytest.raises(InvalidCharacteristic, match=r"^8 is inessential in \(4, 8\)$"):
            invariant_panel(word="RVTVV")

    @pytest.mark.parametrize(
        "kind,text,validated",
        [
            # the front entries only: the back entries equal them, and a
            # second symbol R makes the characteristic its own restriction
            ("word", "RRVTRRRVTTTV", 1),
            # the front entries and the direct remainder, which the Goursat
            # route then equals
            ("word", "RVTTVRV", 2),
            ("word", "RVTVV", 2),
            # the front chain gives back the entries of pc, which is returned
            ("pc", "[27;63,83]", 0),
            # the remainder 2 is invalid, so the route is validated
            ("pc", "[6;8,9]", 2),
        ],
    )
    def test_characteristic_validations_per_panel(self, monkeypatch, kind, text, validated):
        from monstertower import puiseux

        calls = []
        original = puiseux._is_valid

        def counting(lam):
            calls.append(lam)
            return original(lam)

        arg = RvtWord(text) if kind == "word" else parse_pc(text)
        monkeypatch.setattr(puiseux, "_is_valid", counting)
        invariant_panel(**{kind: arg})
        assert len(calls) == validated, calls

    def test_a_value_that_is_not_a_characteristic_is_refused(self):
        from monstertower.errors import InvalidCharacteristic

        for value in ("[3;7]", (3, 7)):
            with pytest.raises(InvalidCharacteristic,
                               match=r"^expected a PuiseuxCharacteristic, got \w+; "
                                     r"parse text with parse_pc$"):
                invariant_panel(pc=value)

    def test_a_pc_panel_returns_its_characteristic(self):
        pc = parse_pc("[27;63,83]")
        assert invariant_panel(pc=pc).pc is pc

    def test_panels_raise_nothing_on_their_path(self, monkeypatch):
        # an invalid direct remainder is read as None, never raised and
        # caught: no panel of a word of length <= 10 builds an exception
        from monstertower.errors import InvalidCharacteristic, RemainderInvalid
        from monstertower.puiseux import _restricted_lambdas

        built = []

        def recording(self, *args):
            built.append((type(self).__name__, args))

        words = list(enumerate_words(10, min_len=0))
        invalid = sum(_restricted_lambdas(pc_from_word_front(w).lambdas) is None
                      for w in words)
        pcs = [pc_from_word_front(w) for w in words if w.is_critical()]
        for cls in (RemainderInvalid, InvalidCharacteristic):
            monkeypatch.setattr(cls, "__init__", recording)
        for w in words:
            invariant_panel(word=w)
        for pc in pcs:
            invariant_panel(pc=pc)
        assert built == []
        assert invalid > 1000

    def test_equals_panel_from_public_pieces(self):
        # reference: the panel assembled from one public call per invariant
        for w in enumerate_words(10, min_len=0):
            goursat = w.goursat_word()
            orders = vertical_orders(w)
            reference = {
                "word": w.symbols,
                "goursat_word": goursat.symbols,
                "pc": str(pc_from_word_front(w)),
                "restricted_pc": str(pc_from_word_front(goursat)),
                "multiplicity_sequence": list(multiplicity_sequence(w)),
                "proximity_diagram": proximity_diagram(w).to_json_dict(),
                "vertical_orders": orders.to_json_dict(),
                "restricted_vertical_orders": orders.restricted().to_json_dict(),
            }
            assert invariant_panel(word=w).to_json_dict() == reference, w.symbols

    def test_requires_exactly_one_input(self):
        with pytest.raises(TypeError):
            invariant_panel()
        with pytest.raises(TypeError):
            invariant_panel(word="RV", pc=parse_pc("[2;3]"))
