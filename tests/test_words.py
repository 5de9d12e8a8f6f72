from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from monstertower.errors import (
    EmptyWord,
    InvalidSymbol,
    LeadingNonR,
    LevelOutOfRange,
    NotCritical,
    OrphanT,
    ParseError,
)
from monstertower.words import (
    RvtWord,
    WordDecomposition,
    count_words,
    enumerate_words,
    is_critical,
    is_entirely_critical,
    parse_word,
    _split_pq,
    validate_symbols,
)


def brute_valid(s):
    # independent check of the two word rules
    if not s:
        return True
    if s[0] != "R":
        return False
    for i, ch in enumerate(s):
        if ch == "T" and (i == 0 or s[i - 1] not in "VT"):
            return False
    return all(ch in "RVT" for ch in s)


def all_strings(n):
    if n == 0:
        yield ""
        return
    for prefix in all_strings(n - 1):
        for ch in "RVT":
            yield prefix + ch


class TestParse:
    def test_valid(self):
        assert parse_word("RVTTV").symbols == "RVTTV"

    def test_empty_is_valid(self):
        assert parse_word("").symbols == ""

    def test_orphan_t(self):
        with pytest.raises(OrphanT):
            parse_word("RT")

    def test_leading_non_r(self):
        with pytest.raises(LeadingNonR):
            parse_word("VR")

    def test_bad_symbol(self):
        with pytest.raises(InvalidSymbol):
            parse_word("RXV")

    @pytest.mark.parametrize("value", [["R", "V"], ("R", "V"), b"RV", 7])
    def test_a_value_that_is_not_a_str_is_refused(self, value):
        # a sequence of valid symbols is not a word: its record would hold
        # the sequence, which str() and the panel cannot print
        name = type(value).__name__
        with pytest.raises(InvalidSymbol, match=f"^a word is a str of R, V, T; got {name}$"):
            RvtWord(value)

    def test_a_literal_that_is_not_a_str_is_a_parse_error(self):
        with pytest.raises(ParseError, match="^a word literal is a str; got int$"):
            parse_word(123)


def reference_validate(symbols):
    # the rule-by-rule loop that validate_symbols falls back to
    for i, ch in enumerate(symbols):
        if ch not in "RVT":
            raise InvalidSymbol(f"symbol {ch!r} is not one of R, V, T", i)
    if symbols and symbols[0] != "R":
        raise LeadingNonR(f"word starts with {symbols[0]!r}, expected R", 0)
    for i in range(1, len(symbols)):
        if symbols[i] == "T" and symbols[i - 1] not in "VT":
            raise OrphanT("T must immediately follow V or T", i)


def outcome(check, symbols):
    try:
        check(symbols)
    except ParseError as exc:
        return type(exc), str(exc), exc.position
    return None


class TestValidateSymbols:
    @settings(max_examples=1000, deadline=None)
    @given(st.text(alphabet="RVTx", max_size=12))
    def test_matches_reference_loop(self, symbols):
        assert outcome(validate_symbols, symbols) == outcome(reference_validate, symbols)

    def test_exhaustive_to_length_6(self):
        for n in range(7):
            for symbols in map("".join, product("RVTx", repeat=n)):
                assert outcome(validate_symbols, symbols) == outcome(
                    reference_validate, symbols
                ), symbols


class TestNormalize:
    @pytest.mark.parametrize(
        "before,after",
        [("RVVRRR", "RVV"), ("RRRR", ""), ("RVTV", "RVTV")],
    )
    def test_trims_trailing_rs(self, before, after):
        assert parse_word(before).normalize().symbols == after


class TestGoursat:
    @pytest.mark.parametrize(
        "word,expect",
        [
            ("RVTTTVRVT", "RRRRRVRVT"),
            ("RVVVRVT", "RRVVRVT"),
            ("RRV", "RRV"),
            ("R", "R"),
            ("", ""),
        ],
    )
    def test_examples(self, word, expect):
        assert parse_word(word).goursat_word().symbols == expect

    def test_idempotent_and_length_preserving(self):
        for w in enumerate_words(7):
            g = w.goursat_word()
            assert len(g) == len(w)
            assert g.goursat_word().symbols == g.symbols

    def test_begins_with_rr_and_fixes_words_without_second_v(self):
        for w in enumerate_words(10):
            g = w.goursat_word()
            assert g.symbols[:2] == "RR" or len(w) < 2, w.symbols
            if w.symbols[1:2] != "V":
                assert g is w


class TestLift:
    def test_chain_rewrite(self):
        assert parse_word("RVTTVRVRV").lift().symbols == "RRRVRVRV"

    def test_full_chain(self):
        w = parse_word("RVTV")
        chain = []
        while len(w):
            w = w.lift()
            chain.append(w.symbols)
        assert chain == ["RRV", "RV", "R", ""]

    def test_single_r(self):
        assert parse_word("R").lift().symbols == ""

    def test_empty_raises(self):
        with pytest.raises(EmptyWord):
            parse_word("").lift()

    def test_normalize_commutes_with_lift(self):
        for w in enumerate_words(8):
            a = w.normalize()
            lhs = (a.lift().normalize() if len(a) else None)
            rhs = w.lift().normalize()
            if lhs is not None:
                assert lhs == rhs


class TestLiftPreimages:
    def test_four_word_family(self):
        pre = {u.symbols for u in parse_word("RRRVRVRV").lift_preimages()}
        assert pre == {"RRRRVRVRV", "RVRRVRVRV", "RVTRVRVRV", "RVTTVRVRV"}

    def test_empty_word_brute_force(self):
        # oracle: all valid words of length 1 whose lift is empty
        expect = {
            s for s in all_strings(1) if brute_valid(s) and RvtWord(s).lift().symbols == ""
        }
        assert {u.symbols for u in parse_word("").lift_preimages()} == expect == {"R"}

    def test_single_r_brute_force(self):
        expect = {
            s for s in all_strings(2) if brute_valid(s) and RvtWord(s).lift().symbols == "R"
        }
        assert {u.symbols for u in parse_word("R").lift_preimages()} == expect == {"RR", "RV"}

    def test_count_is_leading_run_plus_one(self):
        for w in enumerate_words(8):
            run = len(w.symbols) - len(w.symbols.lstrip("R"))
            assert len(w.lift_preimages()) == run + 1

    def test_exhaustive_duality(self):
        # every preimage lifts back; every lifting word is a preimage
        for w in enumerate_words(7, min_len=0):
            pre = w.lift_preimages()
            for u in pre:
                assert u.lift() == w
        by_lift = {}
        for u in enumerate_words(8):
            by_lift.setdefault(u.lift().symbols, set()).add(u.symbols)
        for w in enumerate_words(7, min_len=0):
            assert by_lift.get(w.symbols, set()) == {u.symbols for u in w.lift_preimages()}


class TestDecompose:
    @pytest.mark.parametrize(
        "word,p,rho,q",
        [
            ("RRVTRRRVTTTV", "RRVT", 3, "VTTTV"),
            ("RRVT", "", 2, "VT"),
            ("RV", "", 1, "V"),
        ],
    )
    def test_examples(self, word, p, rho, q):
        dec = parse_word(word).decompose()
        assert (dec.prefix.symbols, dec.rho, dec.critical_block) == (p, rho, q)
        assert dec.reconstruct().symbols == word

    def test_not_critical(self):
        with pytest.raises(NotCritical):
            parse_word("RVR").decompose()

    @pytest.mark.parametrize("block,message", [("VR", "entirely critical"),
                                               ("TV", "begin with V")])
    def test_a_block_that_is_not_a_critical_v_block_is_refused(self, block, message):
        with pytest.raises(NotCritical, match=message):
            WordDecomposition(RvtWord(""), 0, block)

    def test_reconstruction_everywhere(self):
        # both round trips: a critical word and its decomposition
        for w in enumerate_words(9):
            if w.is_critical():
                dec = w.decompose()
                assert dec.reconstruct() == w
                assert dec.reconstruct().decompose() == dec

    @pytest.mark.parametrize(
        "prefix,rho,block,message",
        [
            # RV R^-1 V would rebuild RVV, which is ('', 1, VV)
            ("RV", -1, "V", r"^rho must be an int >= 1; got -1$"),
            # and so would RV R^0 V: a rho of 0 joins P's V to Q
            ("RV", 0, "V", r"^rho must be an int >= 1; got 0$"),
            # with P empty, VT would be no word at all
            ("", 0, "VT", r"^rho must be an int >= 1; got 0$"),
            ("RV", 2.5, "V", r"^rho must be an int >= 1; got 2.5$"),
            # RVRR is not critical
            ("RV", 2, "", r"^Q block must be nonempty$"),
            # a bool is an int to isinstance, but no count of R's
            ("RV", True, "V", r"^rho must be an int >= 1; got True$"),
        ],
    )
    def test_a_record_that_decomposes_no_critical_word_is_refused(
            self, prefix, rho, block, message):
        with pytest.raises(NotCritical, match=message):
            WordDecomposition(RvtWord(prefix), rho, block)

    def test_a_prefix_that_is_not_a_word_is_built_into_one(self):
        # a str is validated as RvtWord(str) validates it, and the record
        # holds the word
        dec = WordDecomposition("RV", 1, "V")
        assert dec == WordDecomposition(RvtWord("RV"), 1, "V") and dec.prefix == RvtWord("RV")
        with pytest.raises(LeadingNonR):
            WordDecomposition("VR", 1, "V")
        with pytest.raises(NotCritical, match="^P must be empty or critical$"):
            WordDecomposition("RVR", 1, "V")
        # anything else is refused by its type, after the Q checks
        for value in (["R", "V"], 12, b"RV"):
            with pytest.raises(InvalidSymbol, match=rf"^a word is a str of R, V, T; "
                                                    rf"got {type(value).__name__}$"):
                WordDecomposition(value, 1, "V")
        with pytest.raises(NotCritical, match="^nonempty Q block must begin with V$"):
            WordDecomposition(12, 1, "TV")

    def test_cut_points_match_the_two_loops(self):
        def reference(s):
            # the cut walked one character at a time
            q = len(s)
            while q and s[q - 1] != "R":
                q -= 1
            r = q
            while r and s[r - 1] == "R":
                r -= 1
            return r, q

        for w in enumerate_words(12):
            if w.is_critical():
                assert _split_pq(w.symbols) == reference(w.symbols), w.symbols


class TestSplitAtLevel:
    def test_mid_chain_cut(self):
        point, curve = parse_word("RVTTVRV").split_at_level(2)
        assert point.symbols == "RV"
        assert curve.symbols == "RRVRV"

    def test_trivial_cuts(self):
        assert parse_word("RVTV").split_at_level(0)[1].symbols == "RVTV"
        point, curve = parse_word("RVTTVRV").split_at_level(7)
        assert (point.symbols, curve.symbols) == ("RVTTVRV", "")

    def test_out_of_range(self):
        with pytest.raises(LevelOutOfRange):
            parse_word("RV").split_at_level(3)

    def test_chain_origins_match_the_walk_over_symbols(self):
        def reference(s):
            # the origin carried along the symbols: a V starts a chain, a T
            # continues it, an R ends it
            origins = [None]
            for pos, ch in enumerate(s, 1):
                origins.append(pos if ch == "V" else origins[-1] if ch == "T" else None)
            return tuple(origins)

        for w in enumerate_words(10, min_len=0):
            assert w.chain_origins() == reference(w.symbols), w.symbols

    def test_splits_are_valid_words(self):
        for w in enumerate_words(8):
            for k in range(len(w) + 1):
                point, curve = w.split_at_level(k)
                assert point.symbols == w.symbols[:k]
                assert len(curve) == len(w) - k


class TestPredicates:
    def test_examples(self):
        assert is_critical("RVTV") and not is_entirely_critical("RVTV")
        assert is_entirely_critical("VTTV")
        assert not is_critical("RRR") and not is_entirely_critical("RRR")

    def test_empty(self):
        assert not is_critical("")
        assert is_entirely_critical("")

    def test_a_word_record_is_read_through_its_symbols(self):
        assert is_critical(RvtWord("RV")) and not is_critical(RvtWord("RVR"))
        assert is_entirely_critical(RvtWord("")) and not is_entirely_critical(RvtWord("RV"))

    def test_the_methods_agree_with_the_functions(self):
        # a nonempty word starts with R, so only the empty word is
        # entirely critical
        for w in enumerate_words(5, min_len=0):
            assert w.is_critical() == is_critical(w.symbols)
            assert w.is_entirely_critical() == is_entirely_critical(w.symbols) == (not w)

    @pytest.mark.parametrize("value", [["R", "V"], ("V",), b"RV", 7])
    def test_a_value_that_is_not_a_word_is_refused(self, value):
        # str() of these is no word: str(["R", "V"]) ends in "]", not V
        name = type(value).__name__
        for predicate in (is_critical, is_entirely_critical):
            with pytest.raises(InvalidSymbol,
                               match=f"^a word is a str of R, V, T; got {name}$"):
                predicate(value)


class TestCounting:
    def test_recurrence_matches_brute_force(self):
        for n in range(0, 8):
            brute = sum(1 for s in all_strings(n) if brute_valid(s))
            assert count_words(n) == brute

    def test_enumeration_matches_counts(self):
        words = list(enumerate_words(6))
        by_len = {}
        for w in words:
            by_len[len(w)] = by_len.get(len(w), 0) + 1
        assert by_len == {n: count_words(n) for n in range(1, 7)}

    def test_length_four_count(self):
        assert count_words(4) == 13

    def test_negative_length_has_no_words(self):
        assert count_words(-1) == count_words(-5) == 0

    def test_enumeration_order(self):
        head = [w.symbols for w in enumerate_words(3)]
        assert head == ["R", "RR", "RV", "RRR", "RRV", "RVR", "RVV", "RVT"]

    def test_enumeration_is_in_sort_key_order(self):
        # generated in order, never sorted: 46,369 words with the empty one
        words = list(enumerate_words(12, min_len=0))
        assert len(words) == sum(count_words(n) for n in range(13))
        assert words == sorted(words, key=RvtWord.sort_key)
        assert len(set(words)) == len(words)
        # built without the validator, which accepts each of them
        for w in words:
            validate_symbols(w.symbols)


# The words each derivation builds from a word w (none where it does not
# apply: lift of the empty word, decompose of a word that is not critical).
DERIVATIONS = {
    "lift": lambda w: [w.lift()] if w else [],
    "lift_preimages": lambda w: list(w.lift_preimages()),
    "normalize": lambda w: [w.normalize()],
    "goursat_word": lambda w: [w.goursat_word()],
    "split_at_level": lambda w: [half for k in range(len(w) + 1)
                                 for half in w.split_at_level(k)],
    "decompose_prefix": lambda w: [w.decompose().prefix] if w.is_critical() else [],
    "reconstruct": lambda w: [w.decompose().reconstruct()] if w.is_critical() else [],
}


class TestTrustedDerivations:
    """Enumeration and the word calculus build the words they derive
    without the validator; these tests run it over what they build."""

    @pytest.mark.parametrize("name", DERIVATIONS)
    def test_every_derived_word_is_valid(self, name):
        for w in enumerate_words(10, min_len=0):
            for u in DERIVATIONS[name](w):
                assert type(u) is RvtWord
                validate_symbols(u.symbols)

    @staticmethod
    def _count(monkeypatch):
        from monstertower import words

        calls = []
        original = words.validate_symbols

        def counting(symbols):
            calls.append(symbols)
            return original(symbols)

        monkeypatch.setattr(words, "validate_symbols", counting)
        return calls

    def test_enumeration_and_derivations_never_validate(self, monkeypatch):
        trusted = [RvtWord(s) for s in ("", "R", "RVTTVRV", "RRVTRRRVTTTV", "RVRR")]
        calls = self._count(monkeypatch)
        assert len(list(enumerate_words(8))) == sum(map(count_words, range(1, 9)))
        assert list(enumerate_words(0, min_len=0)) == trusted[:1]
        for derive in DERIVATIONS.values():
            for w in trusted:
                derive(w)
        assert calls == []

    def test_each_entry_validates_once(self, monkeypatch):
        from monstertower.puiseux import parse_pc, word_from_pc

        pc = parse_pc("[27;63,83]")
        calls = self._count(monkeypatch)
        RvtWord("RVTV")
        parse_word(" RVV ")
        word_from_pc(pc)
        assert calls == ["RVTV", "RVV", "RRVTRRRVTTTV"]
