"""Order-by-order reference solver for the twisted Magnus series.

This is the original magnus_gl: it solves the paper's Bernoulli fixed
point omega = integral of sum_n (B~_n / n!) ad^n_omega(alpha(tx)) one
order at a time, rebuilding the whole right side at every order.  The
library now takes the twisted logarithm of exp^.(tx) instead, so this
solver is kept only as an oracle.  It carries its own convolution and
right side, and uses only public library names.

The concatenation bracket and the term-wise derivative of a series are
kept here too: tests use them as a second path to the twisted bracket
and to the flow equations, and the library itself needs neither.
"""

from __future__ import annotations

from fractions import Fraction

from postgroup_lab.errors import NotPrimitiveError
from postgroup_lab.magnus import TruncatedSeries, alpha_series, bernoulli_modified
from postgroup_lab.tensor_postlie import (
    MagmaTree,
    TensorPoly,
    concat,
    format_poly,
    gl_lie_bracket,
    is_primitive,
)


def lie_bracket(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """Concatenation commutator of two primitive elements."""
    for poly in (left, right):
        if not is_primitive(poly):
            raise NotPrimitiveError(
                f"{format_poly(poly)} is not primitive for the unshuffle coproduct"
            )
    return concat(left, right) - concat(right, left)


def derivative(series: TruncatedSeries) -> TruncatedSeries:
    if series.order == 0:
        return TruncatedSeries.zero(0)
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


def magnus_rhs(omega: TruncatedSeries, alpha: TruncatedSeries) -> TruncatedSeries:
    total = TruncatedSeries.zero(alpha.order)
    iterated = alpha
    factorial = 1
    for n in range(alpha.order + 1):
        factorial *= max(n, 1)
        weight = bernoulli_modified(n)
        if weight:
            total = total + weight * Fraction(1, factorial) * iterated
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
