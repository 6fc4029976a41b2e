"""Order-by-order reference solver for the twisted Magnus series.

This is the original magnus_gl: it solves the paper's Bernoulli fixed
point omega = integral of sum_n (B~_n / n!) ad^n_omega(alpha(tx)) one
order at a time, rebuilding the whole right side at every order.  The
library now takes the twisted logarithm of exp^.(tx) instead, so this
solver is kept only as an oracle.  It carries its own convolution and
right side, and uses only public library names.
"""

from __future__ import annotations

from fractions import Fraction

from postgroup_lab.magnus import TruncatedSeries, alpha_series, bernoulli_modified
from postgroup_lab.tensor_postlie import MagmaTree, TensorPoly, gl_lie_bracket


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
