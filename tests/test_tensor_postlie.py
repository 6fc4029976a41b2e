"""Tensor algebra over the free magma: coproduct, triangle, K.

Oracles come first: an unshuffle built from itertools.combinations, a
pair-algebra product for multiplicativity, and exact Gaussian
elimination to invert the K matrix degree by degree.  Frozen expansions
were derived by hand from the recursions and are spelled out in full.
"""

from __future__ import annotations

import itertools
import pickle
from fractions import Fraction

import pytest
import reference_magnus as ref
import reference_tensor
from hypothesis import example, given, settings
from hypothesis import strategies as st

from postgroup_lab.errors import NotPrimitiveError, SizeCapError
from postgroup_lab.laws import check_postlie_axioms
from postgroup_lab.tensor_postlie import (
    DEGREE_CAP,
    Leaf,
    Node,
    TensorPoly,
    antipode_dot,
    antipode_star,
    concat,
    format_poly,
    format_tree,
    format_word,
    gl_lie_bracket,
    gl_star,
    is_primitive,
    kmap_tensor,
    kmap_tensor_inverse,
    pair_tensor,
    tree_key,
    trees_of_degree,
    triangle,
    unshuffle,
    word_degree,
    word_key,
    word_count,
    words_of_degree,
)

A0, A1, A2 = Leaf(0), Leaf(1), Leaf(2)
X1, X2, X3 = (TensorPoly.from_word((a,)) for a in (A0, A1, A2))


def wpoly(*trees):
    return TensorPoly.from_word(tuple(trees))


# ---------------------------------------------------------------- oracles

def unshuffle_oracle(word):
    """Position-subset coproduct assembled from itertools.combinations."""
    acc = {}
    n = len(word)
    for k in range(n + 1):
        for subset in itertools.combinations(range(n), k):
            chosen = set(subset)
            left = tuple(word[i] for i in range(n) if i in chosen)
            right = tuple(word[i] for i in range(n) if i not in chosen)
            key = (left, right)
            acc[key] = acc.get(key, 0) + 1
    return TensorPoly(acc)


def pair_mult(p, q):
    """Componentwise concatenation product on the tensor square."""
    acc = {}
    for (u1, u2), a in p.terms.items():
        for (v1, v2), b in q.terms.items():
            key = (u1 + v1, u2 + v2)
            acc[key] = acc.get(key, 0) + a * b
    return TensorPoly(acc)


def gaussian_inverse(matrix):
    """Exact inverse of a square Fraction matrix by row reduction."""
    n = len(matrix)
    work = [[Fraction(v) for v in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(matrix)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if work[r][col])
        work[col], work[pivot] = work[pivot], work[col]
        scale = work[col][col]
        work[col] = [v / scale for v in work[col]]
        for r in range(n):
            if r != col and work[r][col]:
                factor = work[r][col]
                work[r] = [v - factor * u for v, u in zip(work[r], work[col])]
    return [row[n:] for row in work]


def struct_less_oracle(a, b):
    if isinstance(a, Leaf) and isinstance(b, Leaf):
        return a.index < b.index
    if isinstance(a, Leaf) != isinstance(b, Leaf):
        return isinstance(a, Leaf)
    if a.left != b.left:
        return struct_less_oracle(a.left, b.left)
    return struct_less_oracle(a.right, b.right)


def tree_less_oracle(a, b):
    """Reference comparator: degree first, then purely structural."""
    da, db = reference_tensor.tree_degree(a), reference_tensor.tree_degree(b)
    if da != db:
        return da < db
    return struct_less_oracle(a, b)


def trees_over(generators, max_leaves):
    return st.recursive(
        st.integers(min_value=0, max_value=generators - 1).map(Leaf),
        lambda inner: st.tuples(inner, inner).map(lambda p: Node(*p)),
        max_leaves=max_leaves,
    )


@st.composite
def tree_of_degree(draw, degree, generators):
    if degree == 1:
        return Leaf(draw(st.integers(min_value=0, max_value=generators - 1)))
    left = draw(st.integers(min_value=1, max_value=degree - 1))
    return Node(
        draw(tree_of_degree(left, generators)),
        draw(tree_of_degree(degree - left, generators)),
    )


@st.composite
def polys_up_to_degree_six(draw):
    """Fraction combinations of words of degree at most 6 over 2 or 3 generators."""
    generators = draw(st.sampled_from((2, 3)))
    poly = TensorPoly.zero()
    for _ in range(draw(st.integers(min_value=0, max_value=4))):
        word, left = [], draw(st.integers(min_value=0, max_value=6))
        while left:
            degree = draw(st.integers(min_value=1, max_value=left))
            word.append(draw(tree_of_degree(degree, generators)))
            left -= degree
        poly = poly + draw(fractions_small) * TensorPoly.from_word(tuple(word))
    return poly


trees_small = trees_over(2, max_leaves=3)
words_small = st.lists(trees_small, max_size=3).map(tuple).filter(
    lambda w: word_degree(w) <= 6
)
fractions_small = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def primitivity_candidates(draw):
    """Brackets of trees, which are primitive, plus any words, the unit
    among them, all with Fraction coefficients; zero included."""
    total = TensorPoly.zero()
    trees = st.lists(st.tuples(fractions_small, trees_small, trees_small), max_size=3)
    for c, s, t in draw(trees):
        bracket = wpoly(s, t) - wpoly(t, s)
        if draw(st.booleans()):
            bracket = concat(wpoly(s), bracket) - concat(bracket, wpoly(s))
        total = total + c * bracket
    return total + TensorPoly(draw(st.dictionaries(words_small, fractions_small, max_size=3)))


@st.composite
def primitives(draw):
    """Fraction combinations of trees, of commutators of two trees, and of
    commutators of a tree with such a commutator: all primitive."""
    total = TensorPoly.zero()
    terms = st.tuples(fractions_small, trees_small, trees_small, st.integers(0, 2))
    for c, s, t, depth in draw(st.lists(terms, max_size=3)):
        term = wpoly(s)
        if depth:
            term = wpoly(s, t) - wpoly(t, s)
        if depth == 2:
            term = concat(wpoly(t), term) - concat(term, wpoly(t))
        total = total + c * term
    return total


# ------------------------------------------------------------------ trees

class TestTrees:
    def test_product_is_a_node(self):
        t = Node(A0, A1)
        assert (t.left, t.right) == (A0, A1)
        assert word_degree((t,)) == 2

    @given(trees_small, trees_small)
    def test_degree_is_additive(self, s, t):
        assert word_degree((Node(s, t),)) == word_degree((s,)) + word_degree((t,))

    @given(st.sampled_from((2, 3)).flatmap(lambda g: trees_over(g, max_leaves=8)))
    def test_cached_degree_and_key_match_the_recursion(self, tree):
        assert tree._key[0] == reference_tensor.tree_degree(tree)
        assert tree._key == tree_key(tree) == reference_tensor.tree_key(tree)
        word = (tree, A1)
        assert word_key(word) == (
            sum(map(reference_tensor.tree_degree, word)),
            2,
            tuple(map(reference_tensor.tree_key, word)),
        )

    def test_deep_node_survives_a_pickle_round_trip(self):
        tree = Leaf(0)
        for i in range(300):
            tree = Node(Leaf(i % 3), tree) if i % 2 else Node(tree, Leaf(i % 3))
        again = pickle.loads(pickle.dumps(tree))
        assert again is tree
        assert again._key[0] == 301 == reference_tensor.tree_degree(tree)
        assert again._key == reference_tensor.tree_key(tree)

    def test_order_separates_association(self):
        right = Node(A0, Node(A1, A2))
        left = Node(Node(A0, A1), A2)
        assert tree_key(right) != tree_key(left)
        assert tree_less_oracle(right, left)
        assert tree_key(right) < tree_key(left)

    def test_order_matches_the_recursive_comparator(self):
        trees = [t for d in (1, 2, 3, 4) for t in trees_of_degree(d, 2)]
        for a, b in itertools.combinations(trees, 2):
            assert (tree_key(a) < tree_key(b)) == tree_less_oracle(a, b)

    def test_tree_counts_follow_catalan(self):
        assert [len(trees_of_degree(d, 1)) for d in (1, 2, 3, 4)] == [1, 1, 2, 5]
        assert [len(trees_of_degree(d, 2)) for d in (1, 2, 3, 4)] == [2, 4, 16, 80]

    def test_word_counts(self):
        assert [len(words_of_degree(d, 2)) for d in range(5)] == [1, 2, 8, 40, 224]
        assert words_of_degree(0, 2) == ((),)

    @pytest.mark.parametrize("generators", [1, 2, 3])
    def test_closed_form_word_count(self, generators):
        for degree in range(6):
            assert word_count(degree, generators) == len(words_of_degree(degree, generators))


# ------------------------------------------------------------------- poly

class TestPoly:
    def test_zero_coefficients_are_dropped(self):
        assert TensorPoly({(A0,): 0}).is_zero()
        assert (X1 - X1).is_zero()

    def test_arithmetic(self):
        p = X1 + X2
        assert p - X2 == X1
        assert -p == TensorPoly({(A0,): -1, (A1,): -1})
        assert 2 * p == p + p
        assert Fraction(1, 2) * (p + p) == p

    def test_unit_and_counit(self):
        assert TensorPoly.unit().coeff(()) == 1
        assert X1.coeff(()) == 0
        assert (TensorPoly.unit() - 3 * X1).coeff(()) == 1

    def test_poly_is_immutable(self):
        with pytest.raises(AttributeError):
            X1.terms = {}


# ------------------------------------------------------------- unshuffle

class TestUnshuffle:
    def test_matches_subset_oracle_through_degree_four(self):
        for degree in range(5):
            for word in words_of_degree(degree, 2):
                got = unshuffle(TensorPoly.from_word(word))
                assert got == unshuffle_oracle(word)

    def test_unit_and_letter(self):
        assert unshuffle(TensorPoly.unit()) == TensorPoly({((), ()): 1})
        assert unshuffle(X1) == TensorPoly(
            {((A0,), ()): 1, ((), (A0,)): 1}
        )

    def test_two_letter_word_has_four_terms(self):
        got = unshuffle(concat(X1, X2))
        assert got == TensorPoly({
            ((A0, A1), ()): 1,
            ((A0,), (A1,)): 1,
            ((A1,), (A0,)): 1,
            ((), (A0, A1)): 1,
        })

    @given(words_small, words_small)
    @settings(max_examples=60)
    def test_multiplicative(self, u, v):
        left = unshuffle(TensorPoly.from_word(u))
        right = unshuffle(TensorPoly.from_word(v))
        product = unshuffle(TensorPoly.from_word(u + v))
        assert product == pair_mult(left, right)

    def test_cocommutative_and_coassociative(self):
        for degree in range(4):
            for word in words_of_degree(degree, 2):
                pairs = unshuffle(TensorPoly.from_word(word)).terms
                flipped = {(b, a): c for (a, b), c in pairs.items()}
                assert flipped == pairs
                left, right = {}, {}
                for (a, b), c in pairs.items():
                    for (a1, a2), c1 in unshuffle(TensorPoly.from_word(a)).terms.items():
                        key = (a1, a2, b)
                        left[key] = left.get(key, 0) + c * c1
                    for (b1, b2), c2 in unshuffle(TensorPoly.from_word(b)).terms.items():
                        key = (a, b1, b2)
                        right[key] = right.get(key, 0) + c * c2
                assert left == right

    def test_counit_law(self):
        for word in words_of_degree(3, 2):
            total = TensorPoly.zero()
            for (a, b), c in unshuffle(TensorPoly.from_word(word)).terms.items():
                if not a:
                    total = total + c * TensorPoly.from_word(b)
            assert total == TensorPoly.from_word(word)

    def test_degree_cap(self):
        big = TensorPoly.from_word((A0,) * (DEGREE_CAP + 1))
        lifted = unshuffle(big)
        # repeated letters collapse the subset terms to binomials
        assert len(lifted.terms) == DEGREE_CAP + 2
        assert sum(lifted.terms.values()) == 2 ** (DEGREE_CAP + 1)


# -------------------------------------------------------------- triangle

class TestTriangle:
    def test_letters_multiply_to_a_node(self):
        assert triangle(X1, X2) == wpoly(Node(A0, A1))

    def test_letter_acts_as_a_derivation(self):
        got = triangle(X1, concat(X2, X3))
        expected = wpoly(Node(A0, A1), A2) + wpoly(A1, Node(A0, A2))
        assert got == expected

    def test_two_letter_word_acts_by_the_associator(self):
        got = triangle(concat(X1, X2), X3)
        expected = wpoly(Node(A0, Node(A1, A2))) - wpoly(Node(Node(A0, A1), A2))
        assert got == expected

    def test_unit_rules(self):
        body = concat(X1, X2) + 5 * X3
        assert triangle(TensorPoly.unit(), body) == body
        assert triangle(body, TensorPoly.unit()).is_zero()
        assert triangle(body + TensorPoly.unit(), TensorPoly.unit()) == TensorPoly.unit()

    @given(trees_small, words_small, words_small)
    @settings(max_examples=40)
    def test_single_tree_leibniz_over_concat(self, x, u, v):
        letter = wpoly(x)
        pu, pv = TensorPoly.from_word(u), TensorPoly.from_word(v)
        got = triangle(letter, concat(pu, pv))
        expected = concat(triangle(letter, pu), pv) + concat(
            pu, triangle(letter, pv)
        )
        assert got == expected

    def test_degree_additive_on_homogeneous_parts(self):
        for du, dv in ((1, 2), (2, 2), (3, 1)):
            for u in words_of_degree(du, 2)[:6]:
                for v in words_of_degree(dv, 2)[:6]:
                    got = triangle(TensorPoly.from_word(u), TensorPoly.from_word(v))
                    for word in got.terms:
                        assert word_degree(word) == du + dv

    def test_splits_over_concatenation(self):
        # A |> (B.C) agrees with acting through the two coproduct legs
        for da, db, dc in itertools.product(range(3), repeat=3):
            if da + db + dc > 4:
                continue
            for a in words_of_degree(da, 2):
                pa = TensorPoly.from_word(a)
                legs = unshuffle(pa).terms
                for b in words_of_degree(db, 2):
                    pb = TensorPoly.from_word(b)
                    for c in words_of_degree(dc, 2):
                        pc = TensorPoly.from_word(c)
                        got = triangle(pa, concat(pb, pc))
                        expected = TensorPoly.zero()
                        for (a1, a2), coeff in legs.items():
                            expected = expected + coeff * concat(
                                triangle(TensorPoly.from_word(a1), pb),
                                triangle(TensorPoly.from_word(a2), pc),
                            )
                        assert got == expected

    def test_act_composes_through_the_twisted_product(self):
        for da, db, dc in itertools.product(range(3), repeat=3):
            if da + db + dc > 4:
                continue
            for a in words_of_degree(da, 2):
                pa = TensorPoly.from_word(a)
                for b in words_of_degree(db, 2):
                    pb = TensorPoly.from_word(b)
                    left = gl_star(pa, pb)
                    for c in words_of_degree(dc, 2):
                        pc = TensorPoly.from_word(c)
                        assert triangle(left, pc) == triangle(pa, triangle(pb, pc))

    def test_coproduct_is_a_morphism_for_triangle(self):
        for da, db in itertools.product(range(4), repeat=2):
            if da + db > 4:
                continue
            for a in words_of_degree(da, 2):
                pa = TensorPoly.from_word(a)
                for b in words_of_degree(db, 2):
                    pb = TensorPoly.from_word(b)
                    got = unshuffle(triangle(pa, pb))
                    expected = TensorPoly()
                    for (a1, a2), ca in unshuffle(pa).terms.items():
                        for (b1, b2), cb in unshuffle(pb).terms.items():
                            expected = expected + (ca * cb) * pair_tensor(
                                triangle(TensorPoly.from_word(a1), TensorPoly.from_word(b1)),
                                triangle(TensorPoly.from_word(a2), TensorPoly.from_word(b2)),
                            )
                    assert got == expected

    def test_degree_cap(self):
        big = TensorPoly.from_word((A0,) * (DEGREE_CAP + 1))
        lifted = triangle(X1, big)
        assert len(lifted.terms) == DEGREE_CAP + 1


# --------------------------------------------------------------- gl star

class TestGlStar:
    def test_unit_is_neutral(self):
        body = concat(X1, X2) - 2 * X3
        assert gl_star(TensorPoly.unit(), body) == body
        assert gl_star(body, TensorPoly.unit()) == body

    def test_two_letters(self):
        assert gl_star(X1, X2) == concat(X1, X2) + wpoly(Node(A0, A1))

    def test_associative_through_total_degree_four(self):
        words = [w for d in range(3) for w in words_of_degree(d, 2)]
        for a, b, c in itertools.product(words, repeat=3):
            if word_degree(a) + word_degree(b) + word_degree(c) > 4:
                continue
            pa, pb, pc = map(TensorPoly.from_word, (a, b, c))
            assert gl_star(gl_star(pa, pb), pc) == gl_star(pa, gl_star(pb, pc))

    def test_degree_additive(self):
        for u in words_of_degree(2, 2)[:6]:
            for v in words_of_degree(2, 2)[:6]:
                got = gl_star(TensorPoly.from_word(u), TensorPoly.from_word(v))
                assert {word_degree(w) for w in got.terms} == {4}

    def test_coproduct_is_a_morphism_for_star(self):
        for da, db in itertools.product(range(4), repeat=2):
            if da + db > 4:
                continue
            for a in words_of_degree(da, 2):
                pa = TensorPoly.from_word(a)
                for b in words_of_degree(db, 2):
                    pb = TensorPoly.from_word(b)
                    got = unshuffle(gl_star(pa, pb))
                    expected = TensorPoly()
                    for (a1, a2), ca in unshuffle(pa).terms.items():
                        for (b1, b2), cb in unshuffle(pb).terms.items():
                            expected = expected + (ca * cb) * pair_tensor(
                                gl_star(TensorPoly.from_word(a1), TensorPoly.from_word(b1)),
                                gl_star(TensorPoly.from_word(a2), TensorPoly.from_word(b2)),
                            )
                    assert got == expected


# ------------------------------------------------------------- antipodes

class TestAntipodes:
    def test_signed_reversal(self):
        assert antipode_dot(X1) == -X1
        assert antipode_dot(concat(X1, X2)) == concat(X2, X1)
        three = concat(concat(X1, X2), X3)
        assert antipode_dot(three) == -concat(concat(X3, X2), X1)

    def test_star_antipode_negates_letters(self):
        assert antipode_star(X1) == -X1
        assert antipode_star(wpoly(Node(A0, A1))) == -wpoly(Node(A0, A1))

    def _convolution(self, word, antipode, product):
        total = TensorPoly.zero()
        for (a, b), c in unshuffle(TensorPoly.from_word(word)).terms.items():
            total = total + c * product(
                antipode(TensorPoly.from_word(a)), TensorPoly.from_word(b)
            )
        return total

    def test_convolution_laws_through_degree_four(self):
        for degree in range(5):
            for word in words_of_degree(degree, 2):
                expected = TensorPoly.unit() if not word else TensorPoly.zero()
                assert self._convolution(word, antipode_dot, concat) == expected
                assert self._convolution(word, antipode_star, gl_star) == expected

    def test_both_antipodes_are_involutions(self):
        for degree in range(4):
            for word in words_of_degree(degree, 2):
                poly = TensorPoly.from_word(word)
                assert antipode_dot(antipode_dot(poly)) == poly
                assert antipode_star(antipode_star(poly)) == poly

    @pytest.mark.parametrize("degree", range(6))
    def test_star_antipode_equals_the_split_by_split_loop(self, degree):
        for word in words_of_degree(degree, 2):
            got = antipode_star(TensorPoly.from_word(word))
            assert got == reference_tensor.antipode_star_word(word)


# ------------------------------------------------------------------ kmap

class TestKmap:
    def test_identity_on_short_words(self):
        assert kmap_tensor(TensorPoly.unit()) == TensorPoly.unit()
        assert kmap_tensor(X1) == X1
        deep = wpoly(Node(Node(A0, A1), A2))
        assert kmap_tensor(deep) == deep

    def test_two_letter_expansion(self):
        got = kmap_tensor(concat(X1, X2))
        assert got == concat(X1, X2) - wpoly(Node(A0, A1))

    def test_three_letter_expansion_has_six_terms(self):
        got = kmap_tensor(concat(concat(X1, X2), X3))
        expected = (
            wpoly(A0, A1, A2)
            - wpoly(A0, Node(A1, A2))
            - wpoly(Node(A0, A1), A2)
            - wpoly(A1, Node(A0, A2))
            + wpoly(Node(A1, Node(A0, A2)))
            + wpoly(Node(Node(A0, A1), A2))
        )
        assert got == expected
        assert all(abs(c) == 1 for c in got.terms.values())

    def test_preserves_degree_and_lowers_length(self):
        for degree in range(1, 5):
            for word in words_of_degree(degree, 2):
                image = kmap_tensor(TensorPoly.from_word(word))
                assert {word_degree(w) for w in image.terms} == {degree}
                tail = image - TensorPoly.from_word(word)
                assert all(len(w) < len(word) for w in tail.terms)

    def test_inverse_matches_gaussian_elimination(self):
        for degree in range(1, 4):
            basis = words_of_degree(degree, 2)
            index = {word: i for i, word in enumerate(basis)}
            matrix = [[Fraction(0)] * len(basis) for _ in basis]
            for j, word in enumerate(basis):
                for image, coeff in kmap_tensor(TensorPoly.from_word(word)).terms.items():
                    matrix[index[image]][j] = coeff
            inverse = gaussian_inverse(matrix)
            for j, word in enumerate(basis):
                expected = TensorPoly(
                    {basis[i]: inverse[i][j] for i in range(len(basis))}
                )
                assert kmap_tensor_inverse(TensorPoly.from_word(word)) == expected

    def test_roundtrips_through_degree_five(self):
        for degree in range(6):
            for word in words_of_degree(degree, 2):
                poly = TensorPoly.from_word(word)
                assert kmap_tensor_inverse(kmap_tensor(poly)) == poly
                assert kmap_tensor(kmap_tensor_inverse(poly)) == poly

    @given(st.lists(st.tuples(words_small, st.fractions(max_denominator=6)), max_size=5))
    @example([])
    @settings(max_examples=60)
    def test_inverse_is_two_sided_on_polynomials(self, terms):
        poly = TensorPoly.zero()
        for word, coeff in terms:
            poly = poly + coeff * TensorPoly.from_word(word)
        inverse = kmap_tensor_inverse(poly, max_degree=None)
        assert kmap_tensor(inverse) == poly
        image = kmap_tensor(poly)
        assert kmap_tensor_inverse(image, max_degree=None) == poly

    @given(polys_up_to_degree_six())
    @settings(max_examples=80, deadline=None)
    def test_inverse_matches_the_series(self, poly):
        assert kmap_tensor_inverse(poly) == reference_tensor.kmap_tensor_inverse(poly)

    def test_turns_star_into_concatenation(self):
        for da, db in itertools.product(range(5), repeat=2):
            if da + db > 4:
                continue
            for a in words_of_degree(da, 2):
                pa = TensorPoly.from_word(a)
                ka = kmap_tensor(pa)
                for b in words_of_degree(db, 2):
                    pb = TensorPoly.from_word(b)
                    assert kmap_tensor(gl_star(pa, pb)) == concat(ka, kmap_tensor(pb))

    def test_commutes_with_the_coproduct(self):
        for degree in range(5):
            for word in words_of_degree(degree, 2):
                poly = TensorPoly.from_word(word)
                got = unshuffle(kmap_tensor(poly))
                expected = TensorPoly()
                for (a, b), c in unshuffle(poly).terms.items():
                    expected = expected + c * pair_tensor(
                        kmap_tensor(TensorPoly.from_word(a)),
                        kmap_tensor(TensorPoly.from_word(b)),
                    )
                assert got == expected

    def test_degree_cap(self):
        big = TensorPoly.from_word((A0,) * (DEGREE_CAP + 1))
        with pytest.raises(SizeCapError):
            kmap_tensor_inverse(big)


# ------------------------------------------------------------- lie layer

class TestLieLayer:
    def test_primitivity(self):
        assert is_primitive(X1)
        assert is_primitive(wpoly(Node(A0, Node(A0, A1))))
        assert not is_primitive(concat(X1, X2))
        assert not is_primitive(TensorPoly.unit())
        assert is_primitive(ref.lie_bracket(X1, X2))
        assert is_primitive(ref.lie_bracket(X1, ref.lie_bracket(X1, X2)))

    @settings(max_examples=100, deadline=None)
    @given(poly=primitivity_candidates())
    @example(poly=TensorPoly.zero())
    @example(poly=TensorPoly.unit())
    @example(poly=Fraction(-1, 2) * TensorPoly.unit() + X1)
    @example(poly=Fraction(1, 3) * (concat(X1, X2) - concat(X2, X1)))
    def test_primitivity_matches_the_full_coproduct(self, poly):
        assert is_primitive(poly) == reference_tensor.is_primitive(poly)

    def test_non_primitive_inputs_are_rejected(self):
        bad = concat(X1, X2)
        with pytest.raises(NotPrimitiveError):
            ref.lie_bracket(bad, X1)
        with pytest.raises(NotPrimitiveError):
            gl_lie_bracket(X1, bad)
        with pytest.raises(NotPrimitiveError):
            check_postlie_axioms(X1, X2, bad)

    def test_twisted_bracket_on_letters(self):
        got = gl_lie_bracket(X1, X2)
        expected = (
            concat(X1, X2) - concat(X2, X1)
            + wpoly(Node(A0, A1)) - wpoly(Node(A1, A0))
        )
        assert got == expected

    @settings(max_examples=100, deadline=None)
    @given(primitives(), primitives())
    def test_twisted_bracket_matches_the_four_products(self, x, y):
        assert is_primitive(x) and is_primitive(y)
        assert gl_lie_bracket(x, y) == reference_tensor.gl_lie_bracket(x, y)

    def _primitive_basis(self):
        out = [wpoly(t) for d in (1, 2, 3) for t in trees_of_degree(d, 2)]
        out.append(ref.lie_bracket(X1, X2))
        out.append(ref.lie_bracket(X1, ref.lie_bracket(X1, X2)))
        out.append(ref.lie_bracket(X2, wpoly(Node(A0, A1))))
        out.append(ref.lie_bracket(X1, wpoly(Node(A1, A1))))
        return out

    def test_twisted_bracket_is_the_star_commutator(self):
        for x in self._primitive_basis():
            for y in self._primitive_basis():
                assert gl_lie_bracket(x, y) == gl_star(x, y) - gl_star(y, x)

    def test_axioms_hold_on_letter_triples(self):
        letters = (X1, X2)
        for x, y, z in itertools.product(letters, repeat=3):
            assert check_postlie_axioms(x, y, z).ok

    def test_axioms_hold_on_nested_primitives(self):
        picks = (
            X1,
            wpoly(Node(A0, A1)),
            ref.lie_bracket(X1, X2),
            ref.lie_bracket(X1, wpoly(Node(A1, A0))),
            wpoly(Node(Node(A0, A1), A0)),
        )
        for x, y, z in itertools.combinations(picks, 3):
            assert check_postlie_axioms(x, y, z).ok

    def test_concat_recovered_from_the_twisted_product(self):
        # x.y equals the star product twisted by the star antipode
        for da, db in itertools.product(range(4), repeat=2):
            if da + db > 4:
                continue
            for a in words_of_degree(da, 2):
                pa = TensorPoly.from_word(a)
                legs = unshuffle(pa).terms
                for b in words_of_degree(db, 2):
                    pb = TensorPoly.from_word(b)
                    total = TensorPoly.zero()
                    for (a1, a2), c in legs.items():
                        total = total + c * gl_star(
                            TensorPoly.from_word(a1),
                            triangle(antipode_star(TensorPoly.from_word(a2)), pb),
                        )
                    assert total == concat(pa, pb)


# ------------------------------------------------------------ formatting

class TestFormatting:
    def test_tree_and_word_text(self):
        tree = Node(A0, Node(A1, A2))
        assert format_tree(tree) == "(x1>(x2>x3))"
        assert format_word((A0, tree)) == "x1.(x1>(x2>x3))"
        assert format_word(()) == "1"

    def test_poly_text(self):
        assert format_poly(TensorPoly.zero()) == "0"
        assert format_poly(TensorPoly.unit()) == "1"
        assert format_poly(kmap_tensor(concat(X1, X2))) == "-(x1>x2) + x1.x2"
        assert format_poly(Fraction(3, 2) * X1 - TensorPoly.unit()) == "-1 + 3/2*x1"

    def test_coproduct_text_names_both_legs(self):
        assert repr(unshuffle(X1)) == "TensorPoly([1 | x1] + [x1 | 1])"
        assert format_poly(2 * unshuffle(TensorPoly.unit())) == "2*[1 | 1]"

    def test_terms_print_in_canonical_order(self):
        jumble = concat(X2, X1) + X1 + wpoly(Node(A0, A0))
        assert format_poly(jumble) == "x1 + (x1>x1) + x2.x1"
