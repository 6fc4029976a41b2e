"""Hand-written series loops, kept as oracles for the library's kernel.

This is the original magnus_gl: it solves the paper's Bernoulli fixed
point omega = integral of sum_n (B~_n / n!) ad^n_omega(alpha(tx)) one
order at a time, rebuilding the whole right side at every order.  The
library now takes the twisted logarithm of exp^.(tx) instead, so this
solver is kept only as an oracle.  It carries its own convolution and
right side, and uses only public library names.

The concatenation bracket and the term-wise derivative of a series are
kept here too: tests use them as a second path to the twisted bracket
and to the flow equations, and the library itself needs neither.  So
are the zero series and a scalar times a series, which only these
loops use.

exp_star_series, log_series, magnus_rhs and check_alpha_ode are the
loops the library had before its one power-sum kernel: each starts from
the unit series and multiplies it out, and the deformation check sums
its triangle products by hand.  convolve and right_flow are the loops
the library had before its one convolution helper: each adds the cross
terms of one order with a TensorPoly sum per term.

convolution_coeff, power_sum and alpha_series are the library's series
layer before it summed each order into one dict over the word kernels:
they build one TensorPoly per cross term, per weighted power and per
antipode, and the bracket guards every pair.  series_triangle is the
triangle product of two series, which the library does not need.

lie_group_method builds one step of an explicit Lie group integrator
from the library's own series kernels.  Its oracle is the method's
classical order, a fact from outside the library: agreement_order
reads how far the step agrees with the exact flow.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial

from postgroup_lab import magnus
from postgroup_lab.errors import CheckResult, NotPrimitiveError, ShapeError
from postgroup_lab.magnus import TruncatedSeries, bernoulli_modified, exp_dot_series
from postgroup_lab.tensor_postlie import (
    MagmaTree,
    TensorPoly,
    _tri_word,
    antipode_star,
    concat,
    format_poly,
    gl_lie_bracket,
    gl_star,
    is_primitive,
    triangle,
)


def lie_bracket(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """Concatenation commutator of two primitive elements."""
    for poly in (left, right):
        if not is_primitive(poly):
            raise NotPrimitiveError(
                f"{format_poly(poly)} is not primitive for the unshuffle coproduct"
            )
    return concat(left, right) - concat(right, left)


def zero_series(order: int) -> TruncatedSeries:
    return TruncatedSeries(tuple(TensorPoly.zero() for _ in range(order + 1)))


def scaled(scalar, series: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries(tuple(scalar * c for c in series.coeffs))


def derivative(series: TruncatedSeries) -> TruncatedSeries:
    if series.order == 0:
        return zero_series(0)
    return TruncatedSeries(
        tuple((k + 1) * series.coeffs[k + 1] for k in range(series.order))
    )


def convolve(left: TruncatedSeries, right: TruncatedSeries, product) -> TruncatedSeries:
    order = min(left.order, right.order)
    out = []
    for k in range(order + 1):
        total = TensorPoly.zero()
        for i in range(k + 1):
            a, b = left.coeffs[i], right.coeffs[k - i]
            if a.is_zero() or b.is_zero():
                continue
            total = total + product(a, b)
        out.append(total)
    return TruncatedSeries(tuple(out))


def exp_star_series(z: TruncatedSeries) -> TruncatedSeries:
    order = z.order
    if not z.coeffs[0].is_zero():
        raise ShapeError("twisted exp needs a vanishing constant term")
    total = TruncatedSeries.unit(order)
    power = TruncatedSeries.unit(order)
    factorial = 1
    for m in range(1, order + 1):
        power = convolve(power, z, gl_star)
        factorial *= m
        total = total + scaled(Fraction(1, factorial), power)
    return total


def log_series(y: TruncatedSeries, product) -> TruncatedSeries:
    """product is a TensorPoly product: concat or gl_star."""
    if y.coeffs[0] != TensorPoly.unit():
        raise ShapeError("log needs the constant coefficient to be the unit")
    shifted = y - TruncatedSeries.unit(y.order)
    total = zero_series(y.order)
    power = TruncatedSeries.unit(y.order)
    for m in range(1, y.order + 1):
        power = convolve(power, shifted, product)
        sign = Fraction(1, m) if m % 2 else Fraction(-1, m)
        total = total + scaled(sign, power)
    return total


def check_alpha_ode(alpha: TruncatedSeries) -> CheckResult:
    for k in range(alpha.order):
        lhs = (k + 1) * alpha.coeffs[k + 1]
        rhs = TensorPoly.zero()
        for i in range(k + 1):
            rhs = rhs - triangle(alpha.coeffs[i], alpha.coeffs[k - i])
        if lhs != rhs:
            return CheckResult(
                False, f"flow equation for the deformation series fails at order {k}"
            )
    return CheckResult(True)


def right_flow(alpha: TruncatedSeries) -> TruncatedSeries:
    """Solve Y' = Y.alpha, Y(0) = 1, through the order of alpha."""
    polys = [TensorPoly.unit()]
    for k in range(alpha.order):
        total = TensorPoly.zero()
        for i in range(k + 1):
            total = total + concat(polys[i], alpha.coeffs[k - i])
        polys.append(Fraction(1, k + 1) * total)
    return TruncatedSeries(tuple(polys))


def magnus_rhs(omega: TruncatedSeries, alpha: TruncatedSeries) -> TruncatedSeries:
    total = zero_series(alpha.order)
    iterated = alpha
    factorial = 1
    for n in range(alpha.order + 1):
        factorial *= max(n, 1)
        weight = bernoulli_modified(n)
        if weight:
            total = total + scaled(weight * Fraction(1, factorial), iterated)
        iterated = convolve(omega, iterated, gl_lie_bracket)
        if iterated.is_zero():
            break
    return total


def magnus_gl(x: MagmaTree, order: int) -> TruncatedSeries:
    """Solve the Bernoulli fixed point for coefficient k+1 from 0..k."""
    alpha = alpha_series(x, order)
    coeffs = [TensorPoly.zero() for _ in range(order + 1)]
    for k in range(order):
        rhs = magnus_rhs(TruncatedSeries(tuple(coeffs)), alpha)
        coeffs[k + 1] = Fraction(1, k + 1) * rhs.coeffs[k]
    return TruncatedSeries(tuple(coeffs))


def convolution_coeff(left, right, k: int, product) -> TensorPoly:
    """sum over i + j = k of product(left[i], right[j]), in one dict."""
    acc = {}
    for i in range(k + 1):
        a, b = left[i], right[k - i]
        if a.terms and b.terms:
            for word, coeff in product(a, b).terms.items():
                acc[word] = acc.get(word, 0) + coeff
    return TensorPoly(acc)


def series_product(left: TruncatedSeries, right: TruncatedSeries, product) -> TruncatedSeries:
    order = min(left.order, right.order)
    return TruncatedSeries(tuple(
        convolution_coeff(left.coeffs, right.coeffs, k, product) for k in range(order + 1)
    ))


def series_triangle(left: TruncatedSeries, right: TruncatedSeries) -> TruncatedSeries:
    return series_product(left, right, triangle)


def power_sum(term: TruncatedSeries, step, weights) -> TruncatedSeries:
    """term + sum_n weights[n-1] step^n(term), up to the first zero power."""
    total = power = term
    for weight in weights:
        power = step(power)
        if power.is_zero():
            break
        if weight:
            total = total + scaled(weight, power)
    return total


def alpha_series(x: MagmaTree, order: int) -> TruncatedSeries:
    """The deformation series S_*(exp^.(tx)) |> x; t^k has degree k+1."""
    letter = TensorPoly({(x,): 1})
    exp = exp_dot_series(x, order)
    return TruncatedSeries(tuple(triangle(antipode_star(c), letter) for c in exp.coeffs))


# ------------------------------------------- Lie group integrators


def _constant(x: MagmaTree, order: int) -> TruncatedSeries:
    """The series with x at t^0 and zero above."""
    return TruncatedSeries((TensorPoly.from_word((x,)), *zero_series(order - 1).coeffs))


def _times_t(series: TruncatedSeries) -> TruncatedSeries:
    return TruncatedSeries((TensorPoly.zero(), *series.coeffs[:-1]))


def _exp_dot(series: TruncatedSeries) -> TruncatedSeries:
    """exp of a zero-constant series for the concatenation product."""
    weights = [Fraction(1, factorial(m)) for m in range(2, series.order + 1)]
    powers = magnus._power_sum(series, lambda p: magnus.series_concat(p, series), weights)
    return TruncatedSeries.unit(series.order) + powers


def _frozen_flows(coeffs, fields, order: int) -> TruncatedSeries:
    """exp^.(c_1 F_1) ... exp^.(c_k F_k), each new factor on the right."""
    flow = TruncatedSeries.unit(order)
    for c, field in zip(coeffs, fields):
        if c:
            flow = magnus.series_concat(flow, _exp_dot(scaled(c, field)))
    return flow


def lie_group_method(x: MagmaTree, a, b, order: int) -> TruncatedSeries:
    """One step of length t of an explicit Lie group method, as a series.

    The vector field is the constant series x.  Stage i freezes it at
    G_i, the flow of the earlier stages weighted by row i of a, as
    F_i = t (G_i |> x); the first stage has no row, so G_1 = 1.  The
    step is the flow of all stages weighted by b.  Each stage scales
    its field by its coefficient and leaves t alone, since G_i depends
    on the full step.
    """
    field = _constant(x, order)
    fields = []
    for row in ((), *a):
        frozen = magnus._convolve(_frozen_flows(row, fields, order), field, _tri_word)
        fields.append(_times_t(frozen))
    return _frozen_flows(b, fields, order)


def exact_flow(x: MagmaTree, order: int) -> TruncatedSeries:
    """The exact flow of the constant field x over time t: exp^*(t x)."""
    return magnus.exp_star_series(_times_t(_constant(x, order)))


def agreement_order(x: MagmaTree, a, b, order: int) -> int:
    """The largest p <= order with method and exact flow equal through t^p."""
    pairs = zip(lie_group_method(x, a, b, order).coeffs, exact_flow(x, order).coeffs)
    return next((k - 1 for k, (c, d) in enumerate(pairs) if c != d), order)
