"""Truncated series: exponentials, the deformation series, Magnus.

The one-generator fixtures are small enough to freeze by hand.  With
x the generator and t the tree product x|>x:

    exp^.(tx)   = 1 + t x + t^2 x.x/2 + ...
    alpha(tx)   = x - t (x|>x) + t^2 (x|>(x|>x) + (x|>x)|>x)/2 - ...
    flow Y      = 1 + t x + t^2 (x.x - x|>x)/2 + ...
    Magnus      = t x - t^2 (x|>x)/2 + ...

Lie group integrators built from the series kernels must have their
classical orders: Lie-Euler 1, the exponential midpoint 2 and
Crouch-Grossman 3.
"""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_magnus as ref
from postgroup_lab.errors import NotPrimitiveError, ShapeError, SizeCapError
from postgroup_lab.magnus import (
    TruncatedSeries,
    _convolve,
    _log_series,
    _magnus_rhs,
    _power_sum,
    alpha_series,
    bernoulli_modified,
    check_alpha_ode,
    check_magnus_fixed_point,
    check_primitivity_of_log,
    exp_dot_series,
    exp_star_series,
    flow_matches_twisted_exp,
    integrate,
    log_dot_series,
    magnus_gl,
    right_flow,
    series_concat,
    series_star,
    solve_right_flow,
)
from postgroup_lab.tensor_postlie import (
    Leaf,
    Node,
    TensorPoly,
    _bracket_word,
    _tri_word,
    concat,
    gl_lie_bracket,
    gl_star,
    is_primitive,
    kmap_tensor,
    pair_tensor,
    triangle,
    unshuffle,
    trees_of_degree,
    word_degree,
    words_of_degree,
)

X = Leaf(0)
T2 = Node(X, X)
T3L = Node(T2, X)
T3R = Node(X, T2)
XP = TensorPoly.from_word((X,))


def tseries(*polys):
    return TruncatedSeries(tuple(polys))


def constant_series(poly, order):
    return tseries(poly, *[TensorPoly.zero()] * order)


class TestSeriesType:
    def test_needs_a_constant_coefficient(self):
        with pytest.raises(ShapeError):
            TruncatedSeries(())

    def test_reads_beyond_the_order_as_zero(self):
        s = constant_series(XP, 2)
        assert s.order == 2
        assert s.coeff(7).is_zero()

    def test_addition_truncates_to_the_shorter_order(self):
        a = TruncatedSeries.unit(4)
        b = constant_series(XP, 2)
        assert (a + b).order == 2

    def test_derivative_and_integral_are_inverse(self):
        s = alpha_series(X, 4)
        assert ref.derivative(integrate(s)).coeffs == s.coeffs

    def test_scalar_multiplication(self):
        s = exp_dot_series(X, 3)
        assert (ref.scaled(2, s) - s).coeffs == s.coeffs


class TestExpDot:
    def test_order_zero_is_the_unit(self):
        assert exp_dot_series(X, 0).coeffs == (TensorPoly.unit(),)

    def test_quadratic_coefficient(self):
        got = exp_dot_series(X, 3).coeff(2)
        assert got == TensorPoly({(X, X): Fraction(1, 2)})

    def test_satisfies_its_flow_equation(self):
        # shift-and-compare: d/dt exp = exp . x through the truncation
        exp = exp_dot_series(X, 6)
        rhs = series_concat(exp, constant_series(XP, 6))
        assert ref.derivative(exp).coeffs == rhs.coeffs[:6]

    def test_coefficients_are_group_like(self):
        exp = exp_dot_series(X, 5)
        for k in range(6):
            pairs = unshuffle(exp.coeff(k)).terms
            expected = {}
            for i in range(k + 1):
                for u, a in exp.coeff(i).terms.items():
                    for v, b in exp.coeff(k - i).terms.items():
                        expected[(u, v)] = expected.get((u, v), 0) + a * b
            assert pairs == expected

    def test_order_cap(self):
        with pytest.raises(SizeCapError):
            exp_dot_series(X, 8)
        with pytest.raises(ShapeError):
            exp_dot_series(X, -1)


class TestExpStarAndLog:
    def test_twisted_exp_needs_zero_constant(self):
        with pytest.raises(ShapeError):
            exp_star_series(constant_series(XP, 3))

    def test_twisted_exp_of_zero(self):
        got = exp_star_series(ref.zero_series(3))
        assert got.coeffs == TruncatedSeries.unit(3).coeffs

    def test_resizing_pads_with_zeros(self):
        z = tseries(TensorPoly.zero(), XP, TensorPoly.zero(), TensorPoly.zero())
        extended = exp_star_series(z)
        assert extended.order == 3
        assert extended.coeff(1) == XP

    def test_log_needs_the_unit_constant(self):
        with pytest.raises(ShapeError):
            log_dot_series(constant_series(XP, 3))

    def test_log_undoes_exp(self):
        logs = log_dot_series(exp_dot_series(X, 5))
        assert logs.coeff(1) == XP
        for k in (0, 2, 3, 4, 5):
            assert logs.coeff(k).is_zero()


class TestBernoulli:
    def test_listed_values(self):
        got = [bernoulli_modified(n) for n in range(7)]
        assert got == [
            Fraction(1),
            Fraction(1, 2),
            Fraction(1, 6),
            Fraction(0),
            Fraction(-1, 30),
            Fraction(0),
            Fraction(1, 42),
        ]

    def test_beyond_the_listed_prefix(self):
        assert bernoulli_modified(7) == 0
        assert bernoulli_modified(8) == Fraction(-1, 30)

    def test_rejects_negative_index(self):
        with pytest.raises(ShapeError):
            bernoulli_modified(-1)


class TestAlpha:
    def test_first_three_coefficients(self):
        alpha = alpha_series(X, 2)
        assert alpha.coeff(0) == XP
        assert alpha.coeff(1) == -TensorPoly.from_word((T2,))
        expected = TensorPoly({(T3R,): Fraction(1, 2), (T3L,): Fraction(1, 2)})
        assert alpha.coeff(2) == expected

    def test_homogeneity_and_primitivity(self):
        alpha = alpha_series(X, 5)
        for k in range(6):
            coeff = alpha.coeff(k)
            assert {word_degree(w) for w in coeff.terms} == {k + 1}
            assert all(len(w) == 1 for w in coeff.terms)
            assert is_primitive(coeff)

    def test_flow_equation_holds(self):
        assert check_alpha_ode(X, 5).ok

    def test_perturbed_series_fails_at_the_right_order(self):
        alpha = alpha_series(X, 4)
        broken = list(alpha.coeffs)
        broken[2] = broken[2] + TensorPoly.from_word((T3R,))
        report = check_alpha_ode(X, 4, series=TruncatedSeries(tuple(broken)))
        assert not report.ok
        assert "order 1" in report.witness


class TestRightFlow:
    def test_first_three_coefficients(self):
        flow = solve_right_flow(X, 2)
        assert flow.coeff(0) == TensorPoly.unit()
        assert flow.coeff(1) == XP
        expected = TensorPoly({(X, X): Fraction(1, 2), (T2,): Fraction(-1, 2)})
        assert flow.coeff(2) == expected

    def test_flow_is_the_twist_of_exp(self):
        flow = solve_right_flow(X, 5)
        exp = exp_dot_series(X, 5)
        for k in range(6):
            assert flow.coeff(k) == kmap_tensor(exp.coeff(k))

    def test_log_of_the_flow_is_primitive(self):
        assert check_primitivity_of_log(solve_right_flow(X, 4)).ok

    def test_log_of_exp_is_primitive(self):
        assert check_primitivity_of_log(exp_dot_series(X, 4)).ok

    def test_non_primitive_log_is_detected(self):
        exp = exp_dot_series(X, 3)
        broken = list(exp.coeffs)
        broken[2] = TensorPoly.from_word((X, X))
        report = check_primitivity_of_log(TruncatedSeries(tuple(broken)))
        assert not report.ok
        assert "order 2" in report.witness


class TestMagnus:
    def test_first_coefficients(self):
        omega = magnus_gl(X, 3)
        assert omega.coeff(0).is_zero()
        assert omega.coeff(1) == XP
        assert omega.coeff(2) == TensorPoly({(T2,): Fraction(-1, 2)})

    def test_quadratic_coefficient_from_one_recursion_step(self):
        alpha = alpha_series(X, 2)
        omega = magnus_gl(X, 2)
        step = alpha.coeff(1) + Fraction(1, 2) * gl_lie_bracket(
            omega.coeff(1), alpha.coeff(0)
        )
        assert omega.coeff(2) == Fraction(1, 2) * step

    def test_twisted_exp_recovers_exp_dot(self):
        omega = magnus_gl(X, 5)
        assert exp_star_series(omega).coeffs == exp_dot_series(X, 5).coeffs

    def test_combined_report(self):
        assert flow_matches_twisted_exp(X, 5).ok

    def test_magnus_coefficients_are_primitive(self):
        omega = magnus_gl(X, 5)
        for k in range(1, 6):
            assert is_primitive(omega.coeff(k))

    @pytest.mark.parametrize("order", range(7))
    def test_equals_the_order_by_order_solver(self, order):
        omega = magnus_gl(X, order)
        assert omega.coeffs == ref.magnus_gl(X, order).coeffs
        assert check_magnus_fixed_point(alpha_series(X, order), omega).ok

    def test_twisted_log_undoes_twisted_exp(self):
        for z in (magnus_gl(X, 5), integrate(alpha_series(X, 4))):
            assert _log_series(exp_star_series(z), series_star).coeffs == z.coeffs


class TestMagnusFixedPoint:
    """Negative controls: a wrong Omega must fail, and at the right order."""

    @staticmethod
    def perturbed(k, word):
        broken = list(magnus_gl(X, 5).coeffs)
        broken[k] = broken[k] + TensorPoly.from_word(word)
        return TruncatedSeries(tuple(broken))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_extra_tree_fails_at_its_order(self, k):
        comb = X
        for _ in range(k - 1):
            comb = Node(comb, X)
        report = check_magnus_fixed_point(alpha_series(X, 5), self.perturbed(k, (comb,)))
        assert not report.ok
        assert report.witness.endswith(f"at order {k}")

    def test_non_primitive_perturbation_is_refused_by_the_bracket(self):
        # the texts name the first non-primitive coefficient that the
        # bracket's per-pair guard meets
        for k, word, text in [
            (2, (X, X), "-1/2*(x1>x1) + x1.x1"),
            (
                3,
                (X, T2),
                "1/12*(x1>(x1>x1)) + 1/4*((x1>x1)>x1) + 11/12*x1.(x1>x1) + 1/12*(x1>x1).x1",
            ),
        ]:
            with pytest.raises(NotPrimitiveError) as info:
                check_magnus_fixed_point(alpha_series(X, 5), self.perturbed(k, word))
            assert str(info.value) == f"{text} is not primitive for the unshuffle coproduct"


class TestSeriesProducts:
    def test_convolution_orders(self):
        a = exp_dot_series(X, 4)
        b = alpha_series(X, 2)
        assert series_concat(a, b).order == 2
        assert series_star(a, b).order == 2

    def test_star_convolution_matches_poly_product(self):
        a = exp_dot_series(X, 3)
        b = solve_right_flow(X, 3)
        got = series_star(a, b).coeff(2)
        expected = TensorPoly.zero()
        for i in range(3):
            expected = expected + gl_star(a.coeff(i), b.coeff(2 - i))
        assert got == expected


# ---------------------------------------------- the power-sum kernel

WORDS = {d: words_of_degree(d, 2) for d in range(1, 6)}
TREES = {d: tuple((t,) for t in trees_of_degree(d, 2)) for d in range(1, 6)}


@st.composite
def graded_series(draw, constant, words=WORDS):
    """A series of order 0 to 5 with the given constant; its t^k
    coefficient combines up to two words of degree 1 to k over two
    generators, so no product passes the degree cap.  Over TREES every
    coefficient is primitive."""
    coeffs = [constant]
    for k in range(1, draw(st.integers(0, 5)) + 1):
        terms = {}
        for _ in range(draw(st.integers(0, 2))):
            word = draw(st.sampled_from(words[draw(st.integers(1, k))]))
            terms[word] = draw(st.fractions(-3, 3, max_denominator=4))
        coeffs.append(TensorPoly(terms))
    return TruncatedSeries(tuple(coeffs))


def comb_tree(degree, leaf):
    tree = X
    for _ in range(degree - 1):
        tree = Node(tree, leaf)
    return tree


class TestPowerSumAgainstReference:
    """exp^*, both logarithms, the Magnus right side and the deformation
    check against the loops they replaced (tests/reference_magnus.py)."""

    @settings(max_examples=40, deadline=None)
    @given(z=graded_series(TensorPoly.zero()))
    def test_twisted_exp(self, z):
        assert exp_star_series(z) == ref.exp_star_series(z)

    @settings(max_examples=40, deadline=None)
    @given(y=graded_series(TensorPoly.unit()))
    @pytest.mark.parametrize(
        "series_product, product", [(series_concat, concat), (series_star, gl_star)]
    )
    def test_log(self, y, series_product, product):
        assert _log_series(y, series_product) == ref.log_series(y, product)

    @settings(max_examples=30, deadline=None)
    @given(
        omega=graded_series(TensorPoly.zero(), TREES),
        alpha=graded_series(TensorPoly.from_word((Leaf(1),)), TREES),
    )
    def test_magnus_right_side_on_primitive_series(self, omega, alpha):
        assert _magnus_rhs(omega, alpha) == ref.magnus_rhs(omega, alpha)

    @pytest.mark.parametrize("order", range(7))
    def test_magnus_right_side(self, order):
        omega, alpha = magnus_gl(X, order), alpha_series(X, order)
        assert _magnus_rhs(omega, alpha) == ref.magnus_rhs(omega, alpha)

    @pytest.mark.parametrize("order", range(6))
    def test_deformation_check_with_one_extra_tree(self, order):
        alpha = alpha_series(X, order)
        assert check_alpha_ode(X, order, alpha) == ref.check_alpha_ode(alpha)
        for k in range(order + 1):
            for leaf in (X, Leaf(1)):
                broken = list(alpha.coeffs)
                broken[k] = broken[k] + TensorPoly.from_word((comb_tree(k + 1, leaf),))
                broken = TruncatedSeries(tuple(broken))
                report = check_alpha_ode(X, order, broken)
                assert report == ref.check_alpha_ode(broken)
                if order:
                    assert report.witness.endswith(f"at order {max(k - 1, 0)}")
                else:
                    assert report.ok


class TestConvolutionAgainstReference:
    """Series products and the right flow against the loops that summed
    one TensorPoly per cross term (tests/reference_magnus.py)."""

    @settings(max_examples=30, deadline=None)
    @given(left=graded_series(TensorPoly.unit()), right=graded_series(XP))
    @pytest.mark.parametrize(
        "series_product, product", [(series_concat, concat), (series_star, gl_star)]
    )
    def test_series_products(self, left, right, series_product, product):
        assert series_product(left, right) == ref.convolve(left, right, product)

    @settings(max_examples=30, deadline=None)
    @given(alpha=graded_series(XP))
    def test_right_flow_on_random_series(self, alpha):
        assert right_flow(alpha) == ref.right_flow(alpha)

    @pytest.mark.parametrize("order", range(8))
    def test_right_flow_of_the_deformation_series(self, order):
        alpha = alpha_series(X, order)
        assert right_flow(alpha) == ref.right_flow(alpha)


# ------------------------------------------ one dict per order, checked

SERIES_PRODUCTS = {
    "concat": (series_concat, concat),
    "star": (series_star, gl_star),
    "triangle": (lambda a, b: _convolve(a, b, _tri_word), triangle),
    "bracket": (lambda a, b: _convolve(a, b, _bracket_word, set()), gl_lie_bracket),
}


def outcome(fn, *args):
    """fn(*args), or the type and text of the NotPrimitiveError it raised."""
    try:
        return fn(*args)
    except NotPrimitiveError as error:
        return type(error), str(error)


@st.composite
def mixed_series(draw):
    """A graded series with a zero, letter, unit or two-letter constant,
    over all words or over single trees only, so that it is primitive or
    not, and two refused series are named apart."""
    constants = (TensorPoly.zero(), XP, TensorPoly.unit(), TensorPoly.from_word((X, Leaf(1))))
    constant = draw(st.sampled_from(constants))
    return draw(graded_series(constant, draw(st.sampled_from((WORDS, TREES)))))


class TestOneDictPerOrderAgainstReference:
    """The series layer against the per-term loops it replaced: one
    TensorPoly per cross term, per weighted power and per antipode, and
    a primitivity guard on every pair of the bracket
    (tests/reference_magnus.py)."""

    @settings(max_examples=40, deadline=None)
    @given(left=mixed_series(), right=mixed_series())
    @pytest.mark.parametrize("name", SERIES_PRODUCTS)
    def test_series_products(self, left, right, name):
        library, product = SERIES_PRODUCTS[name]
        assert outcome(library, left, right) == outcome(ref.series_product, left, right, product)

    @settings(max_examples=40, deadline=None)
    @given(
        term=graded_series(TensorPoly.zero()),
        z=graded_series(TensorPoly.zero()),
        weights=st.lists(st.fractions(-2, 2, max_denominator=3), max_size=5),
    )
    def test_power_sum(self, term, z, weights):
        got = _power_sum(term, lambda p: series_star(p, z), weights)
        assert got == ref.power_sum(term, lambda p: ref.series_product(p, z, gl_star), weights)

    @pytest.mark.parametrize("order", range(8))
    def test_alpha_series(self, order):
        assert alpha_series(X, order) == ref.alpha_series(X, order)


# ------------------------------ grouplike series form a post-group

X1, X2 = Leaf(0), Leaf(1)


def is_grouplike(series):
    """unshuffle(S) = S (x) S, order by order."""
    square = ref.series_product(series, series, pair_tensor)
    return all(unshuffle(c) == d for c, d in zip(series.coeffs, square.coeffs))


def post_group_laws(X, Y, Z):
    """The laws of the post-group of grouplikes of a post-Hopf algebra
    (Li, Sheng and Tang, 2023), with . concat, * star, |> triangle."""
    tri = ref.series_triangle
    return {
        "X |> (Y.Z) = (X |> Y).(X |> Z)": (
            tri(X, series_concat(Y, Z)) == series_concat(tri(X, Y), tri(X, Z))
        ),
        "(X*Y) |> Z = X |> (Y |> Z)": tri(series_star(X, Y), Z) == tri(X, tri(Y, Z)),
        "X*Y = X.(X |> Y)": series_star(X, Y) == series_concat(X, tri(X, Y)),
        "X |> Y is grouplike": is_grouplike(tri(X, Y)),
    }


class TestGrouplikeSeriesFormAPostGroup:
    """X, Y and Z are exp^.(t x) of the primitives x1, x2 and x1 |> x2."""

    @staticmethod
    def series(order):
        return tuple(exp_dot_series(x, order) for x in (X1, X2, Node(X1, X2)))

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_laws_hold(self, order):
        laws = post_group_laws(*self.series(order))
        assert [name for name, ok in laws.items() if not ok] == []

    @pytest.mark.parametrize("order", [3, 4, 5])
    def test_wrong_quadratic_coefficient_breaks_the_star_law(self, order):
        X, Y, Z = self.series(order)
        broken = list(X.coeffs)
        broken[2] = TensorPoly.from_word((X1, X1))
        laws = post_group_laws(TruncatedSeries(tuple(broken)), Y, Z)
        assert not laws["X*Y = X.(X |> Y)"]


# ------------------------------ order conditions of Lie group integrators

LIE_EULER = ((), (1,))
EXPONENTIAL_MIDPOINT = (((Fraction(1, 2),),), (0, 1))
# Crouch and Grossman (1993), as given in Hairer, Lubich and Wanner,
# Geometric Numerical Integration, IV.8
CG_A = ((Fraction(3, 4),), (Fraction(119, 216), Fraction(17, 108)))
CG_B = (Fraction(13, 51), Fraction(-2, 3), Fraction(24, 17))
fractions_st = st.fractions(min_value=-2, max_value=2, max_denominator=6)


class TestLieGroupIntegratorOrders:
    """The classical order of a Lie group method is a fact from outside
    this library: one step of it, built from the series kernels, must
    agree with the exact flow exp^*(t x) through t^p and not at t^(p+1)
    (Munthe-Kaas and Wright, 2008, for the post-Lie setting)."""

    @pytest.mark.parametrize("a, b, p", [
        (*LIE_EULER, 1), (*EXPONENTIAL_MIDPOINT, 2), (CG_A, CG_B, 3),
    ], ids=["Lie-Euler", "exponential midpoint", "Crouch-Grossman"])
    def test_agrees_through_its_order_and_no_further(self, a, b, p):
        for order in (p + 1, 5):
            assert ref.agreement_order(X, a, b, order) == p

    def test_wrong_coefficient_drops_crouch_grossman_to_order_one(self):
        a = ((Fraction(2, 3),), CG_A[1])
        assert ref.agreement_order(X, a, CG_B, 4) == 1

    @settings(max_examples=40, deadline=None)
    @given(b1=fractions_st, b2=fractions_st, a21=fractions_st,
           consistent=st.booleans(), second_order=st.booleans())
    def test_two_stage_order_conditions(self, b1, b2, a21, consistent, second_order):
        # order 1 needs b1 + b2 = 1, order 2 also b2 a21 = 1/2; two
        # explicit stages never reach order 3
        if consistent:
            b1 = 1 - b2
        if second_order and b2:
            a21 = Fraction(1, 2) / b2
        expected = 0 if b1 + b2 != 1 else 1 if b2 * a21 != Fraction(1, 2) else 2
        assert ref.agreement_order(X, ((a21,),), (b1, b2), 3) == expected
