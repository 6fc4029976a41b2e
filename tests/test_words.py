"""Free-group word arithmetic.

The oracle here is an intentionally naive reducer: scan for any
adjacent cancelling pair, delete it, and start over until no pair is
left.  The library's single-pass stack reducer must agree with it on
arbitrary letter sequences.
"""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from postgroup_lab.errors import AlphabetMismatchError, UnknownNameError
from postgroup_lab.words import (
    Alphabet,
    Letter,
    ReducedWord,
    dot,
    invert,
    parse_word,
    reduce_word,
    unit,
    word_str,
)

ABC = Alphabet(("a", "b", "c"))


def naive_reduce(pairs: list[tuple[int, int]]) -> list[tuple[int, int]]:
    out = list(pairs)
    changed = True
    while changed:
        changed = False
        for i in range(len(out) - 1):
            (g1, s1), (g2, s2) = out[i], out[i + 1]
            if g1 == g2 and s1 == -s2:
                del out[i : i + 2]
                changed = True
                break
    return out


letters_st = st.tuples(st.integers(0, 2), st.sampled_from((1, -1)))
raw_words_st = st.lists(letters_st, max_size=14)


@given(raw_words_st)
def test_stack_reducer_matches_naive_oracle(pairs):
    expected = naive_reduce(pairs)
    got = reduce_word(ABC, (Letter(g, s) for g, s in pairs))
    assert [(l.gen, l.sign) for l in got.letters] == expected


def words_st(max_size=10):
    return st.builds(
        lambda pairs: reduce_word(ABC, (Letter(g, s) for g, s in pairs)),
        st.lists(letters_st, max_size=max_size),
    )


class TestParsing:
    def test_example_reduces_on_parse(self):
        w = parse_word("a b' b a", ABC)
        assert [(l.gen, l.sign) for l in w.letters] == [(0, 1), (0, 1)]

    def test_empty_text_is_unit(self):
        assert not parse_word("", ABC).letters
        assert not parse_word("   ", ABC).letters

    def test_unit_token(self):
        assert not parse_word("e", ABC).letters
        assert parse_word("a e b", ABC) == parse_word("a b", ABC)

    def test_unit_prints_as_e(self):
        assert word_str(unit(ABC)) == "e"
        assert str(parse_word("a a'", ABC)) == "e"

    def test_roundtrip_through_text(self):
        w = parse_word("a b' c c a'", ABC)
        assert parse_word(word_str(w), ABC) == w

    def test_unknown_generator_reports_position(self):
        with pytest.raises(UnknownNameError, match="token 2"):
            parse_word("a d b", ABC)

    def test_inverted_unit_token_rejected(self):
        with pytest.raises(UnknownNameError):
            parse_word("e'", ABC)

    def test_reserved_name_rejected_in_alphabet(self):
        with pytest.raises(UnknownNameError):
            Alphabet(("a", "e"))

    def test_bad_names_rejected(self):
        with pytest.raises(UnknownNameError):
            Alphabet(("a", "a"))
        with pytest.raises(UnknownNameError):
            Alphabet(("x y",))
        with pytest.raises(UnknownNameError):
            Alphabet(("x'",))
        with pytest.raises(UnknownNameError):
            Alphabet(())


class TestInvariants:
    def test_unreduced_construction_rejected(self):
        with pytest.raises(ValueError):
            ReducedWord(ABC, (Letter(0, 1), Letter(0, -1)))

    def test_out_of_range_letter_rejected(self):
        with pytest.raises(ValueError):
            ReducedWord(ABC, (Letter(3, 1),))

    def test_bad_sign_rejected(self):
        with pytest.raises(ValueError):
            Letter(0, 0)

    def test_alphabet_mismatch(self):
        other = Alphabet(("a", "b"))
        with pytest.raises(AlphabetMismatchError):
            dot(unit(ABC), unit(other))


class TestGroupLaws:
    @given(words_st(), words_st())
    def test_dot_matches_naive_reduction(self, u, v):
        pairs = [(l.gen, l.sign) for l in u.letters + v.letters]
        expected = naive_reduce(pairs)
        got = dot(u, v)
        assert [(l.gen, l.sign) for l in got.letters] == expected

    @given(words_st(), words_st(), words_st())
    def test_associativity(self, u, v, w):
        assert dot(dot(u, v), w) == dot(u, dot(v, w))

    @given(words_st())
    def test_unit_laws(self, u):
        e = unit(ABC)
        assert dot(e, u) == u
        assert dot(u, e) == u

    @given(words_st())
    def test_inverse_laws(self, u):
        e = unit(ABC)
        assert dot(u, invert(u)) == e
        assert dot(invert(u), u) == e

    @given(words_st())
    def test_invert_is_involutive(self, u):
        assert invert(invert(u)) == u

    @given(words_st(), words_st())
    def test_conjugate_by_unit_and_self(self, u, v):
        assert dot(dot(unit(ABC), v), invert(unit(ABC))) == v
        assert dot(dot(u, unit(ABC)), invert(u)) == unit(ABC)
