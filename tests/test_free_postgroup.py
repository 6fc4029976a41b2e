"""Laws of the free post-group over small diagonal magmas.

Frozen values below were worked out by hand on the cyclic-shift magma
(every row is the shift b -> b+1 mod 3) and on a mixed-shift magma
whose rows are shifts by 0, 2, 1.  Laws are then checked on random
words with hypothesis, including well-definedness of the action on
unreduced spellings, which bypasses the public reducing constructors.
The single-pass kernels are compared with the letter-at-a-time
versions kept in reference_free on words of up to 200 letters, and
on the magmas of the finite post-groups below; jmap and kmap build their
output through the trusted constructor, so each output must also pass
the validating one.  The step table jmap reads is checked entry by
entry against the letter permutations of the magma module.  Words
evaluated in the dot group of a finite post-group whose triangle table
is a diagonal left-regular magma must respect the action and the
product, since evaluation is a post-group morphism out of the free
post-group.
"""

from __future__ import annotations

import random

import pytest
import reference_free as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from postgroup_lab.finite_postgroup import (
    conjugation_postgroup,
    opposite,
    symmetric_group,
)
from postgroup_lab.free_postgroup import (
    act,
    act_perm,
    act_perm_raw,
    gl_inverse,
    gl_product,
    inverse_act,
    jmap,
    kmap,
    parse_over,
)
from postgroup_lab.magma import shift_family_magma, validate_magma
from postgroup_lab.perms import compose_perm, identity_perm
from postgroup_lab.selftest import acceptance_corpus
from postgroup_lab.words import (
    Letter,
    ReducedWord,
    dot,
    invert,
    reduce_word,
    unit,
    word_str,
)

SHIFT3 = shift_family_magma((1, 1, 1))
TRIV3 = shift_family_magma((0, 0, 0))
MIXED3 = shift_family_magma((0, 2, 1))
MAGMAS = (SHIFT3, TRIV3, MIXED3)
ABC = SHIFT3.alphabet
# shift rows all commute; the rows of NONABELIAN3 do not, so a kernel
# that composes permutations in the wrong order fails on it
NONABELIAN3 = validate_magma(ABC.names, ((0, 1, 2), (0, 2, 1), (1, 2, 0)))
ORACLE_MAGMAS = MAGMAS + (shift_family_magma((0, 2, 4, 1, 3)), NONABELIAN3)

letters_st = st.builds(Letter, st.integers(0, 2), st.sampled_from((1, -1)))
raw_st = st.lists(letters_st, max_size=10)
words_st = st.builds(lambda ls: reduce_word(ABC, ls), raw_st)


def long_raw_st(magma, max_size=200):
    # draw the length first: st.lists alone averages a handful of letters
    letter = st.builds(
        Letter, st.integers(0, len(magma) - 1), st.sampled_from((1, -1))
    )
    return st.integers(0, max_size).flatmap(
        lambda size: st.lists(letter, min_size=size, max_size=size)
    )


oracle_magma_st = st.sampled_from(ORACLE_MAGMAS)


class TestFrozenExamples:
    def test_act_perm_two_letters(self):
        assert act_perm(SHIFT3, parse_over(SHIFT3, "x0 x1")) == (2, 0, 1)

    def test_act_perm_negative_letter(self):
        assert act_perm(SHIFT3, parse_over(SHIFT3, "x0'")) == (2, 0, 1)

    def test_act_on_word(self):
        u = parse_over(SHIFT3, "x0")
        v = parse_over(SHIFT3, "x1 x2'")
        assert word_str(act(SHIFT3, u, v)) == "x2 x0'"

    def test_inverse_act(self):
        u = parse_over(SHIFT3, "x0")
        assert word_str(inverse_act(SHIFT3, u, u)) == "x2"

    def test_gl_product(self):
        u = parse_over(SHIFT3, "x0")
        v = parse_over(SHIFT3, "x1")
        assert word_str(gl_product(SHIFT3, u, v)) == "x0 x2"

    def test_gl_inverse(self):
        assert word_str(gl_inverse(SHIFT3, parse_over(SHIFT3, "x0"))) == "x2'"

    def test_jmap_examples(self):
        assert word_str(jmap(SHIFT3, parse_over(SHIFT3, "x0 x1"))) == "x0 x2"
        assert word_str(jmap(SHIFT3, parse_over(SHIFT3, "x0'"))) == "x2'"
        assert word_str(jmap(SHIFT3, parse_over(SHIFT3, "x1'"))) == "x0'"

    def test_kmap_examples(self):
        assert word_str(kmap(SHIFT3, parse_over(SHIFT3, "x0 x2"))) == "x0 x1"
        assert word_str(kmap(SHIFT3, parse_over(SHIFT3, "x2'"))) == "x0'"

    def test_mixed_magma_values(self):
        assert act_perm(MIXED3, parse_over(MIXED3, "x1 x2")) == (2, 0, 1)
        assert act_perm(MIXED3, parse_over(MIXED3, "x2 x1")) == (1, 2, 0)
        assert word_str(gl_product(MIXED3, parse_over(MIXED3, "x1"),
                                   parse_over(MIXED3, "x2"))) == "x1 x1"
        assert word_str(gl_inverse(MIXED3, parse_over(MIXED3, "x1"))) == "x2'"
        assert word_str(jmap(MIXED3, parse_over(MIXED3, "x1'"))) == "x2'"


class TestLetterRecursion:
    def test_single_letter_cancellation_without_reduction(self):
        # feed a . a^{-1} and a^{-1} . a through the raw recursion
        for magma in MAGMAS:
            for gen in range(3):
                for sign in (1, -1):
                    a = Letter(gen, sign)
                    seq = (a, a.inverse())
                    assert act_perm_raw(magma, seq) == identity_perm(3)

    @given(raw_st, st.integers(0, 20), st.sampled_from(range(3)),
           st.sampled_from((1, -1)))
    def test_well_defined_on_unreduced_spellings(self, letters, where, gen, sign):
        # inserting a cancelling pair anywhere leaves the permutation alone
        index = where % (len(letters) + 1)
        noisy = (
            letters[:index]
            + [Letter(gen, sign), Letter(gen, -sign)]
            + letters[index:]
        )
        for magma in MAGMAS:
            assert act_perm_raw(magma, noisy) == act_perm_raw(magma, letters)

    @given(raw_st)
    def test_raw_recursion_matches_reduced_word(self, letters):
        for magma in MAGMAS:
            reduced = reduce_word(ABC, letters)
            assert act_perm_raw(magma, letters) == act_perm(magma, reduced)


@pytest.mark.parametrize("magma", MAGMAS, ids=("shift", "trivial", "mixed"))
class TestPostGroupLaws:
    @settings(max_examples=60)
    @given(u=words_st, v=words_st, w=words_st)
    def test_weighted_associativity(self, magma, u, v, w):
        left = act(magma, gl_product(magma, u, v), w)
        right = act(magma, u, act(magma, v, w))
        assert left == right

    @settings(max_examples=60)
    @given(u=words_st, v=words_st, w=words_st)
    def test_action_is_an_automorphism(self, magma, u, v, w):
        assert act(magma, u, dot(v, w)) == dot(act(magma, u, v), act(magma, u, w))
        assert act(magma, u, invert(v)) == invert(act(magma, u, v))

    @settings(max_examples=60)
    @given(u=words_st, v=words_st)
    def test_perm_multiplicative_over_star(self, magma, u, v):
        product = gl_product(magma, u, v)
        composed = compose_perm(act_perm(magma, u), act_perm(magma, v))
        assert act_perm(magma, product) == composed

    @settings(max_examples=60)
    @given(u=words_st, v=words_st, w=words_st)
    def test_star_is_a_group(self, magma, u, v, w):
        e = unit(ABC)
        assert gl_product(magma, gl_product(magma, u, v), w) == gl_product(
            magma, u, gl_product(magma, v, w)
        )
        assert gl_product(magma, e, u) == u
        assert gl_product(magma, u, e) == u
        ui = gl_inverse(magma, u)
        assert gl_product(magma, u, ui) == e
        assert gl_product(magma, ui, u) == e

    @settings(max_examples=60)
    @given(u=words_st, v=words_st)
    def test_inverse_act_inverts_act(self, magma, u, v):
        assert inverse_act(magma, u, act(magma, u, v)) == v
        assert act(magma, u, inverse_act(magma, u, v)) == v

    @settings(max_examples=60)
    @given(u=words_st, v=words_st)
    def test_opposite_companion_action(self, magma, u, v):
        # the opposite dot v . u composed with the companion action
        # reproduces the same * product
        assert dot(ref.opposite_act(magma, u, v), u) == gl_product(magma, u, v)

    @settings(max_examples=60)
    @given(u=words_st, v=words_st)
    def test_jmap_is_a_homomorphism_onto_star(self, magma, u, v):
        assert jmap(magma, dot(u, v)) == gl_product(
            magma, jmap(magma, u), jmap(magma, v)
        )

    @settings(max_examples=100)
    @given(u=words_st)
    def test_jmap_kmap_roundtrip(self, magma, u):
        assert kmap(magma, jmap(magma, u)) == u
        assert jmap(magma, kmap(magma, u)) == u

    @settings(max_examples=60)
    @given(u=words_st)
    def test_jmap_preserves_length(self, magma, u):
        assert len(jmap(magma, u)) == len(u)

    def test_jmap_fixes_generators(self, magma):
        for gen in range(3):
            w = reduce_word(ABC, [Letter(gen, 1)])
            assert jmap(magma, w) == w
            assert kmap(magma, w) == w


class TestTrivialMagmaDegeneracies:
    @given(u=words_st, v=words_st)
    def test_action_is_identity(self, u, v):
        assert act(TRIV3, u, v) == v
        assert act_perm(TRIV3, u) == identity_perm(3)

    @given(u=words_st, v=words_st)
    def test_gl_is_dot(self, u, v):
        assert gl_product(TRIV3, u, v) == dot(u, v)
        assert gl_inverse(TRIV3, u) == invert(u)

    @given(u=words_st)
    def test_jmap_is_identity(self, u):
        assert jmap(TRIV3, u) == u
        assert kmap(TRIV3, u) == u

    @given(u=words_st, v=words_st)
    def test_opposite_action_is_conjugation(self, u, v):
        assert ref.opposite_act(TRIV3, u, v) == dot(dot(u, v), invert(u))


def assert_matches_reference(magma, u):
    """jmap and kmap equal the oracle's, keep the length of u, and pass
    the validating constructor, which the trusted one they use skips."""
    for kernel, oracle in ((jmap, ref.jmap), (kmap, ref.kmap)):
        out = kernel(magma, u)
        assert out == oracle(magma, u)
        assert len(out) == len(u)
        assert ReducedWord(magma.alphabet, out.letters) == out


class TestAgainstReference:
    # no deadline: the quadratic reference takes tens of ms on 200 letters
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_act_perm_raw_on_unreduced_letters(self, data):
        magma = data.draw(oracle_magma_st)
        letters = data.draw(long_raw_st(magma))
        assert act_perm_raw(magma, letters) == ref.act_perm_raw(magma, letters)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_jmap_and_kmap(self, data):
        magma = data.draw(oracle_magma_st)
        u = reduce_word(magma.alphabet, data.draw(long_raw_st(magma)))
        assert_matches_reference(magma, u)

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_gl_product(self, data):
        magma = data.draw(oracle_magma_st)
        u = reduce_word(magma.alphabet, data.draw(long_raw_st(magma)))
        v = reduce_word(magma.alphabet, data.draw(long_raw_st(magma)))
        assert gl_product(magma, u, v) == ref.gl_product(magma, u, v)


def _finite_postgroups():
    """Each selftest corpus table and its opposite, and conjugation on
    S4, with its triangle table as a magma: all 19 of them validate."""
    tables = [conjugation_postgroup(symmetric_group(4))]
    for _, pg in acceptance_corpus():
        tables += [pg, opposite(pg)]
    return [(pg, validate_magma(pg.elements, pg.triangle)) for pg in tables]


FINITE = _finite_postgroups()


class TestStepTable:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_jmap_and_kmap_on_finite_magmas(self, data):
        # rows that do not commute, lam not the identity, up to 24 generators
        _, magma = data.draw(st.sampled_from(FINITE))
        assert_matches_reference(
            magma, reduce_word(magma.alphabet, data.draw(long_raw_st(magma, 60)))
        )

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_solve_on_finite_magmas(self, data):
        # act_perm_raw, act, inverse_act and kmap all run the one solve
        _, magma = data.draw(st.sampled_from(FINITE))
        raw = data.draw(long_raw_st(magma, 60))
        assert act_perm_raw(magma, raw) == ref.act_perm_raw(magma, raw)
        u = reduce_word(magma.alphabet, raw)
        v = reduce_word(magma.alphabet, data.draw(long_raw_st(magma, 60)))
        assert act(magma, u, v) == ref.act(magma, u, v)
        assert inverse_act(magma, u, v) == ref.inverse_act(magma, u, v)
        assert kmap(magma, v) == ref.kmap(magma, v)

    @pytest.mark.parametrize("magma", ORACLE_MAGMAS + tuple(m for _, m in FINITE))
    def test_entries_match_the_letter_permutations(self, magma):
        n = len(magma)
        for sign in (1, -1):
            for gen in range(n):
                letters, image, perm = magma._steps[sign][gen]
                assert letters == tuple(Letter(g, sign) for g in range(n))
                # the jmap image of the letter is m or lam(m)^-1
                assert image == (gen if sign == 1 else magma.lam[gen])
                assert perm == ref.generator_perm(magma, Letter(image, sign))


def evaluate(pg, word):
    """The image of a word in the dot group: m^-1 goes to m's dot inverse."""
    value = pg.unit
    for letter in word.letters:
        value = pg.dot[value][letter.gen if letter.sign == 1 else pg.inv[letter.gen]]
    return value


class TestEvaluationInFinitePostgroups:
    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_evaluation_is_a_postgroup_morphism(self, data):
        pg, magma = data.draw(st.sampled_from(FINITE))
        u = reduce_word(magma.alphabet, data.draw(long_raw_st(magma, 12)))
        v = reduce_word(magma.alphabet, data.draw(long_raw_st(magma, 12)))
        ev_u, ev_v = evaluate(pg, u), evaluate(pg, v)
        assert evaluate(pg, act(magma, u, v)) == pg.triangle[ev_u][ev_v]
        assert evaluate(pg, dot(u, v)) == pg.dot[ev_u][ev_v]


def test_roundtrips_on_a_word_of_ten_thousand_letters():
    # no timing assertion: the letter-at-a-time versions take minutes here
    rng = random.Random(3)
    letters = [Letter(0, 1)]
    while len(letters) < 10_000:
        letter = Letter(rng.randrange(3), rng.choice((1, -1)))
        if letter != letters[-1].inverse():
            letters.append(letter)
    u = ReducedWord(MIXED3.alphabet, tuple(letters))
    assert kmap(MIXED3, jmap(MIXED3, u)) == u
    assert jmap(MIXED3, kmap(MIXED3, u)) == u
