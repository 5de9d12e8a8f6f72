import re
import sys
from fractions import Fraction
from math import gcd
from pathlib import PurePosixPath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monstertower import puiseux
from monstertower.errors import (
    BadOrder,
    InvalidCharacteristic,
    InvalidSymbol,
    LeadingNonR,
    NotCoprime,
    OrphanT,
    ParseError,
    RemainderInvalid,
    TrivialCharacteristic,
)
from monstertower.invariants import (
    invariant_panel,
    multiplicity_sequence,
    proximity_diagram,
    vertical_orders,
)
from monstertower.puiseux import (
    CaseTag,
    EPair,
    PuiseuxCharacteristic,
    TRIVIAL_PC,
    classify_case,
    cw_length,
    e_value,
    essential_characteristic,
    euclid,
    front_chain,
    is_restricted,
    parse_pc,
    pc_from_word_back,
    pc_from_word_front,
    peel_case,
    restrict_pc,
    word_from_pc,
    word_from_pc_front_inverse,
)
from monstertower.words import RvtWord, enumerate_words, lift_string


def PC(text):
    return parse_pc(text)


WORKED_CHAIN = {
    "R": "[1;]",
    "RV": "[2;3]",
    "RRRRV": "[2;9]",
    "RVTTTV": "[9;11]",
    "RRRRRVTTTV": "[9;47]",
    "RVTRRRVTTTV": "[27;36,56]",
    "RRVTRRRVTTTV": "[27;63,83]",
}
# every public entry that takes a word
WORD_ENTRIES = (front_chain, pc_from_word_front, pc_from_word_back, multiplicity_sequence,
                proximity_diagram, vertical_orders, lambda w: invariant_panel(word=w))
FOUR_WORD_FAMILY = {
    "RRRRVRVRV": "[8;36,38,39]",
    "RVRRVRVRV": "[16;24,36,38,39]",
    "RVTRVRVRV": "[24;32,36,38,39]",
    "RVTTVRVRV": "[28;36,38,39]",
}


class TestCharacteristicType:
    def test_parse_and_str(self):
        assert str(PC("[27;63,83]")) == "[27;63,83]"
        assert PC("[1;]") == TRIVIAL_PC

    @pytest.mark.parametrize(
        "text,expect",
        [("[ 27 ; 63 , 83 ]", (27, 63, 83)), ("[1; ]", (1,)), (" [1;] ", (1,)),
         ("[2;\t3]", (2, 3))],
    )
    def test_parse_allows_spaces_around_entries(self, text, expect):
        assert parse_pc(text).lambdas == expect

    def test_a_literal_that_is_not_a_str_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^a characteristic literal is a str; got int$"):
            parse_pc(123)

    @pytest.mark.parametrize("value", ["[3;7]", (3, 7)])
    def test_a_value_that_is_not_a_characteristic_is_refused(self, value):
        name = type(value).__name__
        entries = [word_from_pc, cw_length, restrict_pc, is_restricted, classify_case,
                   peel_case, word_from_pc_front_inverse]
        for entry in entries:
            with pytest.raises(InvalidCharacteristic,
                               match=f"^expected a PuiseuxCharacteristic, got {name}; "
                                     f"parse text with parse_pc$"):
                entry(value)

    @pytest.mark.parametrize(
        "bad",
        [(2, 4, 5), (4, 6), (3, 3), (2,), (1, 5), (6, 9, 12)],
    )
    def test_invalid(self, bad):
        with pytest.raises(InvalidCharacteristic):
            PuiseuxCharacteristic(bad)

    @settings(max_examples=500, deadline=None)
    @given(st.lists(st.integers(-1, 30), max_size=5))
    def test_one_pass_matches_rule_by_rule_checks(self, lam):
        # reference: the invariants checked one rule at a time, each over
        # the whole tuple, in the order of the class docstring
        def reference(lam):
            lam = tuple(lam)
            if not lam:
                return "characteristic needs a leading entry"
            if any(x < 1 for x in lam):
                return f"entries must be positive: {lam}"
            if any(a >= b for a, b in zip(lam, lam[1:])):
                return f"entries must strictly increase: {lam}"
            if lam[0] == 1 and len(lam) > 1:
                return "leading entry 1 forces the trivial [1;]"
            d = lam[0]
            for x in lam[1:]:
                if x % d == 0:
                    return f"{x} is inessential in {lam}"
                d = gcd(d, x)
            return None if d == 1 else f"gcd of {lam} is {d}, expected 1"

        try:
            PuiseuxCharacteristic(tuple(lam))
            outcome = None
        except InvalidCharacteristic as exc:
            outcome = str(exc)
        assert outcome == reference(lam)

    def test_essential_scan(self):
        assert essential_characteristic(8, [16, 24, 11, 22]) == PC("[8;11]")
        assert essential_characteristic(2, [4, 5]) == PC("[2;5]")
        assert essential_characteristic(1, [7]) == TRIVIAL_PC
        with pytest.raises(InvalidCharacteristic):
            essential_characteristic(4, [6, 8])

    @pytest.mark.parametrize(
        "entries,shown",
        [
            ((2.5, 3), "2.5"),
            ((2, 3.9), "3.9"),
            ((Fraction(5, 2), 3), "Fraction(5, 2)"),
            (("2.5", 3), "'2.5'"),
            ((2, None), "None"),
            ((float("inf"), 3), "inf"),
        ],
    )
    def test_an_entry_that_is_not_an_integer_is_named(self, entries, shown):
        # int() would truncate these or cannot convert them at all
        with pytest.raises(InvalidCharacteristic,
                           match=rf"^entry {re.escape(shown)} is not an integer$"):
            PuiseuxCharacteristic(entries)

    @pytest.mark.parametrize("leading", [0, -2])
    def test_essential_scan_refuses_a_leading_order_below_1(self, leading):
        with pytest.raises(InvalidCharacteristic, match="^leading order must be positive$"):
            essential_characteristic(leading, [3])

    def test_essential_scan_refuses_a_fractional_exponent(self):
        with pytest.raises(InvalidCharacteristic, match=r"^entry 6\.5 is not an integer$"):
            essential_characteristic(4, [6.5, 7])
        with pytest.raises(InvalidCharacteristic, match=r"^entry 4\.5 is not an integer$"):
            essential_characteristic(4.5, [6, 7])

    @pytest.mark.parametrize("exponents, got", [(b"RV", "bytes"), ({4: 5}, "dict"),
                                                (iter([4, 5]), "list_iterator"), ("45", "str")])
    def test_essential_scan_refuses_an_exponent_collection_of_another_type(self, exponents, got):
        # bytes once gave their byte values as exponents, and a dict its keys
        message = rf"^exponents must be a list, tuple, set or frozenset; got {got}$"
        with pytest.raises(TypeError, match=message):
            essential_characteristic(3, exponents)

    def test_essential_scan_takes_each_collection(self):
        for exponents in ([4, 5], (4, 5), {4, 5}, frozenset({4, 5})):
            assert essential_characteristic(3, exponents) == PC("[3;4]")

    def test_integral_values_are_normalised(self):
        assert PuiseuxCharacteristic((2.0, Fraction(3))).lambdas == (2, 3)
        assert PuiseuxCharacteristic(["4", 6, 7]).lambdas == (4, 6, 7)

    @pytest.mark.parametrize("entries, got", [({1: 2}, "dict"), (b"\x02\x03", "bytes"),
                                              (iter([2, 3]), "list_iterator"), ("23", "str")])
    def test_entries_come_in_a_list_or_tuple(self, entries, got):
        # a dict once gave its keys, bytes their byte values, and an
        # iterator was drained
        with pytest.raises(TypeError, match=f"^entries must be a list or tuple; got {got}$"):
            PuiseuxCharacteristic(entries)

    @pytest.mark.parametrize("entries", [(True,), (2, True), [2, False, 3]])
    def test_a_bool_entry_is_refused_by_its_type(self, entries):
        # True == 1, so a bool once passed as the int it equals
        with pytest.raises(TypeError, match=r"^entry (True|False) is not an integer; got bool$"):
            PuiseuxCharacteristic(entries)
        assert essential_characteristic(4.0, [6.0, "7"]) == PC("[4;6,7]")

    def test_a_tuple_of_ints_skips_the_entry_scan(self, monkeypatch):
        # the panel path builds characteristics from tuples of ints: one
        # comparison with their int() images accepts them
        def scanned(values):
            raise AssertionError(f"entries of {values} scanned one by one")

        monkeypatch.setattr(puiseux, "_integral_entries", scanned)
        assert str(PuiseuxCharacteristic((27, 63, 83))) == "[27;63,83]"
        with pytest.raises(InvalidCharacteristic, match="inessential"):
            PuiseuxCharacteristic((6, 9, 12))


class TestFrontRecursion:
    def test_worked_chain(self):
        for word, expect in WORKED_CHAIN.items():
            assert str(pc_from_word_front(word)) == expect

    def test_no_critical_symbols(self):
        assert pc_from_word_front("RRRRR") == TRIVIAL_PC
        assert pc_from_word_front("") == TRIVIAL_PC

    def test_multiplicity_chain_word(self):
        assert str(pc_from_word_front("RVTVV")) == "[8;11]"

    @pytest.mark.parametrize("value", [["R", "V"], 123, b"RVV", PurePosixPath("RVV")],
                             ids=["list", "int", "bytes", "path"])
    def test_a_value_that_is_not_a_word_is_refused(self, value):
        # every entry that takes a word refuses by its type whatever is
        # neither a str nor an RvtWord, as RvtWord does; str(value) is not
        # read, so a path that prints as a word is refused too
        name = type(value).__name__
        for entry in WORD_ENTRIES:
            with pytest.raises(InvalidSymbol, match=f"^a word is a str of R, V, T; got {name}$"):
                entry(value)

    def test_a_str_and_its_word_give_the_same(self):
        for entry in WORD_ENTRIES:
            for text in ("", "RVTVV", "RRVTRRRVTTTV", "RVRR"):
                assert entry(text) == entry(RvtWord(text))

    def test_four_word_family(self):
        for word, pc in FOUR_WORD_FAMILY.items():
            assert str(pc_from_word_front(word)) == pc
        assert str(pc_from_word_front("RRRVRVRV")) == "[8;28,30,31]"

    def test_walk_matches_suffix_recursion(self):
        """The backward walk against the front recursion written the long
        way: lift every suffix, then build one tuple per level back up."""

        def suffix_chain(s):
            suffixes = []
            while "V" in s:
                suffixes.append(s)
                s = s[1:] if s[1] == "R" else lift_string(s)
            chain = [(1,)]
            for w in reversed(suffixes):
                sub = chain[-1]
                rest = tuple(x + sub[0] for x in sub[1:])
                if w[1] == "R":
                    chain.append((sub[0], *rest))
                    continue
                tau = len(w) - 2 - len(w[2:].lstrip("T"))
                if w[2 + tau:3 + tau] in ("", "R"):
                    chain.append(((tau + 2) * sub[0], (tau + 3) * sub[0], *rest))
                else:
                    chain.append((sub[1], *rest))
            chain.reverse()
            return chain

        for w in enumerate_words(12, min_len=0):
            chain = suffix_chain(w.symbols)
            leads = tuple(pc[0] for pc in chain) + (1,) * (len(w) + 1 - len(chain))
            lifted = chain[1] if len(chain) > 1 else (1,)
            assert front_chain(w) == (leads, chain[0], lifted), w


class TestCaseClassification:
    @pytest.mark.parametrize(
        "pc,kind,tau",
        [
            ("[8;36,38,39]", "A", None),
            ("[24;32,36,38,39]", "B", 1),
            ("[28;36,38,39]", "C", 2),
            ("[2;3]", "B", 0),
        ],
    )
    def test_examples(self, pc, kind, tau):
        tag = classify_case(PC(pc))
        assert (tag.kind, tag.tau) == (kind, tau)

    def test_trivial_rejected(self):
        with pytest.raises(TrivialCharacteristic):
            classify_case(TRIVIAL_PC)

    def test_text(self):
        assert str(CaseTag("A")) == "A"
        assert str(CaseTag("B", 2)) == "B(tau=2)"
        assert str(classify_case(PC("[28;36,38,39]"))) == "C(tau=2)"

    def test_peeling_matches_word_prefix(self):
        # the tag of PC(w) reflects how w actually begins, and peeling
        # reproduces PC(L(w))
        for w in enumerate_words(10):
            pc = pc_from_word_front(w)
            if pc.is_trivial():
                continue
            tag, down = peel_case(pc)
            s = w.normalize().symbols
            if tag.kind == "A":
                assert s[1] == "R"
            else:
                assert s[1] == "V"
                run = len(s[2:]) - len(s[2:].lstrip("T"))
                assert run == tag.tau
                nxt = s[2 + tag.tau :]
                if tag.kind == "B":
                    assert nxt == "" or nxt[0] == "R"
                else:
                    assert nxt[0] == "V"
            assert down == pc_from_word_front(w.lift())


class TestEMap:
    @pytest.mark.parametrize(
        "s,pair",
        [("RRRRVV", (3, 17)), ("", (1, 2)), ("RVT", (3, 7)), ("RRRVTTTV", (9, 38))],
    )
    def test_values(self, s, pair):
        assert e_value(s) == EPair(*pair)

    def test_malformed(self):
        from monstertower.errors import MalformedString

        with pytest.raises(MalformedString):
            e_value("RVRV")
        with pytest.raises(MalformedString):
            e_value("TV")

    def test_a_word_record_is_read_through_its_symbols(self):
        assert e_value(RvtWord("RVT")) == EPair(3, 7)

    @pytest.mark.parametrize("value", [["V"], b"V", 7])
    def test_a_value_that_is_not_a_word_is_refused(self, value):
        name = type(value).__name__
        with pytest.raises(InvalidSymbol, match=f"^a word is a str of R, V, T; got {name}$"):
            e_value(value)

    def test_base_identity(self):
        # PC(R^rho Q) = E(R^(rho-1) Q) for entirely critical Q
        def critical_blocks(max_len):
            out = [""]
            frontier = [""]
            for _ in range(max_len):
                frontier = [s + ch for s in frontier for ch in "VT"]
                out.extend(frontier)
            return [s for s in out if s.startswith("V")]

        for q in critical_blocks(8):
            for rho in range(1, 5):
                word = "R" * rho + q
                a, b = e_value("R" * (rho - 1) + q)
                assert pc_from_word_front(word).lambdas == (a, b)


class TestBackRecursion:
    def test_worked_example(self):
        assert str(pc_from_word_back("RRVT")) == "[3;7]"
        assert str(pc_from_word_back("RRVTRRRVTTTV")) == "[27;63,83]"

    def test_single_v_formula(self):
        for rho in range(1, 5):
            for tau in range(0, 4):
                word = "R" * rho + "V" + "T" * tau
                expect = (tau + 2, rho * (tau + 2) + 1)
                assert pc_from_word_back(word).lambdas == expect

    def test_empty(self):
        assert pc_from_word_back("") == TRIVIAL_PC
        assert pc_from_word_back("RRR") == TRIVIAL_PC

    def test_agrees_with_front_to_length_10(self):
        for w in enumerate_words(10):
            assert pc_from_word_front(w) == pc_from_word_back(w)


class TestBackRecursionIndependence:
    """The back recursion is the panel's check on the front one, so it must
    reach its values with the front machinery out of reach."""

    @pytest.fixture(autouse=True)
    def no_front_machinery(self, monkeypatch):
        from monstertower import puiseux, words

        def refuse(*args, **kwargs):
            raise AssertionError("the back recursion used the front recursion")

        # the front walk lives in words and is bound in puiseux too
        monkeypatch.setattr(puiseux, "front_chain", refuse)
        monkeypatch.setattr(words, "front_chain", refuse)
        monkeypatch.setattr(puiseux, "front_r_step", refuse)
        monkeypatch.setattr(words, "lift_string", refuse)

    def test_stored_values(self):
        expected = {**WORKED_CHAIN, **FOUR_WORD_FAMILY, "RRVT": "[3;7]", "RRR": "[1;]", "": "[1;]"}
        for word, pc in expected.items():
            assert str(pc_from_word_back(word)) == pc
            assert str(pc_from_word_back(RvtWord(word))) == pc

    @pytest.mark.parametrize(
        "text,error,message,position",
        [
            ("RTV", OrphanT, "T must immediately follow V or T (at position 1)", 1),
            ("VR", LeadingNonR, "word starts with 'V', expected R (at position 0)", 0),
            ("RXV", InvalidSymbol, "symbol 'X' is not one of R, V, T (at position 1)", 1),
        ],
    )
    def test_invalid_strings(self, text, error, message, position):
        with pytest.raises(error) as info:
            pc_from_word_back(text)
        assert type(info.value) is error
        assert str(info.value) == message
        assert info.value.position == position


class TestEuclid:
    @pytest.mark.parametrize(
        "a,b,expect", [(2, 7, "TTV"), (1, 2, ""), (5, 8, "VVV"), (2, 3, "V"), (3, 7, "TVT")]
    )
    def test_values(self, a, b, expect):
        assert euclid(a, b) == expect

    def test_fibonacci_family(self):
        fib = [1, 1, 2, 3, 5, 8, 13, 21]
        for k in range(1, 6):
            assert euclid(fib[k + 1], fib[k + 2]) == "V" * k

    def test_errors(self):
        with pytest.raises(NotCoprime):
            euclid(4, 6)
        with pytest.raises(BadOrder):
            euclid(7, 2)


class TestWordFromPC:
    @pytest.mark.parametrize(
        "pc,word",
        [
            ("[2;7]", "RRRV"),
            ("[4;6,7]", "RVRV"),
            ("[10;15,27]", "RVRRRVTV"),
            ("[27;63,83]", "RRVTRRRVTTTV"),
            ("[1;]", ""),
        ],
    )
    def test_values(self, pc, word):
        assert word_from_pc(PC(pc)).symbols == word

    def test_rejects_non_characteristic(self):
        with pytest.raises(InvalidCharacteristic):
            word_from_pc(PuiseuxCharacteristic((2, 4, 5)))

    def test_round_trips_to_length_10(self):
        for w in enumerate_words(10):
            if w.is_critical():
                assert word_from_pc(pc_from_word_front(w)) == w

    def test_pc_of_output(self):
        for w in enumerate_words(9):
            pc = pc_from_word_front(w)
            assert pc_from_word_front(word_from_pc(pc)) == pc

    def test_length_without_the_word(self):
        for w in enumerate_words(12):
            if w.is_critical():
                pc = pc_from_word_front(w)
                assert cw_length(pc) == len(word_from_pc(pc)), w
        assert cw_length(TRIVIAL_PC) == 0
        # CW([a;a+2]) = R R V T^((a-3)/2) V for odd a
        assert cw_length(PC("[99999999999999999999;100000000000000000001]")) == 5 * 10**19 + 1


class TestFrontInverse:
    def test_worked_example(self):
        assert word_from_pc_front_inverse(PC("[10;15,27]")).symbols == "RVRRRVTVR"

    def test_trivial(self):
        assert word_from_pc_front_inverse(TRIVIAL_PC).symbols == ""

    def test_round_trip_oracle(self):
        w = word_from_pc_front_inverse(PC("[2;3]"))
        assert pc_from_word_front(w) == PC("[2;3]")

    def test_normalizes_to_cw(self):
        for w in enumerate_words(10):
            pc = pc_from_word_front(w)
            inv = word_from_pc_front_inverse(pc)
            assert inv.normalize() == word_from_pc(pc)
            assert pc_from_word_front(inv) == pc


class TestLongWords:
    """Each word map is one loop, so a word with more blocks or peels than
    the interpreter's recursion limit still gets its answers."""

    @pytest.mark.parametrize("unit,count", [("RV", 1100), ("RVT", 1000)])
    def test_panel_and_cw_of_a_long_word(self, unit, count):
        from monstertower.invariants import invariant_panel

        word = unit * count
        pc = invariant_panel(word=word).pc  # the panel checks back against front
        assert pc_from_word_back(word) == pc_from_word_front(word) == pc
        assert word_from_pc(pc) == RvtWord(word).normalize()
        assert cw_length(pc) == len(word)

    def test_front_inverse_of_a_long_peel(self):
        pc = PC("[2;2201]")
        assert word_from_pc_front_inverse(pc).normalize() == word_from_pc(pc)

    @pytest.mark.parametrize("inverse", [word_from_pc, word_from_pc_front_inverse])
    @pytest.mark.parametrize("text,length", [
        # the front inverse would peel one A step per 2 in lambda_1, 5 * 10^19 of them
        ("[2;100000000000000000001]", 50000000000000000001),
        ("[99999999999999999999;100000000000000000001]", 5 * 10**19 + 1),
        # two blocks R^(2^62) V, each shorter than the longest string
        ("[8;12,18446744073709551626,27670116110564327433]", 2**63 + 4),
    ])
    def test_a_word_past_the_longest_string_is_refused(self, inverse, text, length):
        pc = PC(text)
        assert cw_length(pc) == length > sys.maxsize
        with pytest.raises(OverflowError,
                           match=rf"^CW\({re.escape(text)}\) has {length} symbols, more than "
                                 rf"the longest string \({sys.maxsize}\)$"):
            inverse(pc)

    def test_a_word_past_every_allocation_names_its_length(self, monkeypatch):
        # a word within the index range whose string cannot be allocated;
        # the failed allocation is stood in for, since a real one needs a
        # word of about 2^62 symbols
        def no_memory(lam):
            raise MemoryError()

        monkeypatch.setattr(puiseux, "_cw_string", no_memory)
        with pytest.raises(MemoryError, match=r"^CW\(\[4;6,7\]\) has 4 symbols$"):
            word_from_pc(PC("[4;6,7]"))


class TestRestriction:
    def test_examples(self):
        assert restrict_pc(PC("[15;24,25]")) == PC("[9;24,25]")
        assert restrict_pc(PC("[8;36,38,39]")) == PC("[8;36,38,39]")
        assert restrict_pc(PC("[2;3]")) == TRIVIAL_PC

    def test_invalid_remainder_reported(self):
        with pytest.raises(RemainderInvalid) as info:
            restrict_pc(PC("[6;8,9]"))
        assert str(info.value) == ("remainder 2 of [6;8,9] is not a valid leading entry: "
                                   "8 is inessential in (2, 8, 9)")
        assert isinstance(info.value.__cause__, InvalidCharacteristic)
        assert str(info.value.__cause__) == "8 is inessential in (2, 8, 9)"

    def test_is_restricted(self):
        assert is_restricted(PC("[9;24,25]"))
        assert not is_restricted(PC("[2;3]"))
        assert is_restricted(TRIVIAL_PC)

    def test_goursat_route_agreement(self):
        # where the remainder rule succeeds it matches PC of the Goursat word
        for w in enumerate_words(10):
            pc = pc_from_word_front(w)
            try:
                direct = restrict_pc(pc)
            except RemainderInvalid:
                continue
            assert direct == pc_from_word_front(w.goursat_word())

    def test_entries_agree_with_restrict_pc(self):
        # the rule restrict_pc wraps, and the panel reads: the restricted
        # entries, or None exactly where restrict_pc raises; is_restricted,
        # case A of classify_case and the entries left as they are all
        # read the one rule lambda_1 > 2*lambda_0
        invalid = 0
        for w in enumerate_words(12):
            if not w.is_critical():
                continue
            pc = pc_from_word_front(w)
            entries = puiseux._restricted_lambdas(pc.lambdas)
            restricted = pc.lambdas[1] > 2 * pc.lambdas[0]
            assert is_restricted(pc) == (classify_case(pc).kind == "A") == restricted
            assert (entries is pc.lambdas) == restricted
            if entries is None:
                invalid += 1
                message = rf"^remainder \d+ of {re.escape(str(pc))} is not a valid leading entry: "
                with pytest.raises(RemainderInvalid, match=message):
                    restrict_pc(pc)
            else:
                assert restrict_pc(pc).lambdas == entries
        assert invalid > 0

    def test_outputs_are_valid_characteristics(self):
        for w in enumerate_words(10):
            pc = pc_from_word_front(w)  # constructor validates
            assert pc.lambdas[0] >= 1
