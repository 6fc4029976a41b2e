"""Truncated formal series over the tensor algebra.

A series holds one TensorPoly per power of t up to a fixed order;
products keep the cross terms that fit and drop the rest.  The module
builds the dot exponential of a generator, the twisted exponential, one
logarithm for both products, the deformation series alpha(tx) =
S_*(exp^.(tx)) |> x, the right flow Y' = Y.alpha solved order by order,
and the twisted Magnus series: the twisted logarithm of exp^.(tx),
checked against the paper's Bernoulli fixed point.  All exact.

The twisted exponential, the logarithm and the right side of the
fixed point are one computation, a weighted sum of the powers of one
operator applied to a series, and share the kernel _power_sum.  Each
order of a product, a power sum, an integral, a flow step or alpha is
one dict summed over memoised word kernels, then wrapped once.  The
bracket's word kernel is the tensor layer's, the one gl_lie_bracket
extends to polynomials.

The order is checked once, in exp_dot_series, where every series the
verbs build starts; the other functions take any series they are given.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .errors import CheckResult, ShapeError, SizeCapError
from .interned import Record
from .tensor_postlie import (
    DEGREE_CAP,
    _ONE,
    MagmaTree,
    TensorPoly,
    _add_into,
    _bilinear,
    _bracket_word,
    _gl_word,
    _require_primitive,
    _sstar_word,
    _tri_word,
    is_primitive,
    kmap_tensor,
)


class TruncatedSeries(Record):
    """Polynomial in t with TensorPoly coefficients, exact truncation."""

    __slots__ = ("coeffs",)
    coeffs: tuple  # tuple[TensorPoly, ...], index = power of t

    def __init__(self, coeffs: tuple) -> None:
        (set_coeffs,) = self._setters
        set_coeffs(self, tuple(coeffs))
        if not self.coeffs:
            raise ShapeError("a series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, k: int) -> TensorPoly:
        if 0 <= k <= self.order:
            return self.coeffs[k]
        return TensorPoly.zero()

    @classmethod
    def unit(cls, order: int) -> "TruncatedSeries":
        polys = [TensorPoly.unit()]
        polys += [TensorPoly.zero() for _ in range(order)]
        return cls(tuple(polys))

    def __add__(self, other):
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[k] + other.coeffs[k] for k in range(order + 1))
        )

    def __sub__(self, other):
        order = min(self.order, other.order)
        return TruncatedSeries(
            tuple(self.coeffs[k] - other.coeffs[k] for k in range(order + 1))
        )

    def is_zero(self) -> bool:
        return all(c.is_zero() for c in self.coeffs)


def _scaled(terms: dict, scalar) -> TensorPoly:
    """The terms times a nonzero scalar."""
    return TensorPoly._of({word: scalar * c for word, c in terms.items()})


def _concat_word(u, v) -> TensorPoly:
    return TensorPoly._of({u + v: _ONE})


def _convolution_coeff(left, right, k: int, word_product, checked=None) -> dict:
    """sum over i + j = k of left[i] right[j], in one dict.  Given a set
    checked, each coefficient is checked primitive at its first pair."""
    acc = {}
    for i in range(k + 1):
        a, b = left[i], right[k - i]
        if a.terms and b.terms:
            if checked is not None:
                _require_primitive(*(poly for poly in (a, b) if id(poly) not in checked))
                checked.update((id(a), id(b)))
            _bilinear(word_product, a, b, acc)
    return acc


def _convolve(left: TruncatedSeries, right: TruncatedSeries, word_product, checked=None):
    orders = range(min(left.order, right.order) + 1)
    sums = (_convolution_coeff(left.coeffs, right.coeffs, k, word_product, checked) for k in orders)
    return TruncatedSeries(tuple(map(TensorPoly._of, sums)))


def series_concat(left: TruncatedSeries, right: TruncatedSeries) -> TruncatedSeries:
    return _convolve(left, right, _concat_word)


def series_star(left: TruncatedSeries, right: TruncatedSeries) -> TruncatedSeries:
    return _convolve(left, right, _gl_word)


def integrate(series: TruncatedSeries) -> TruncatedSeries:
    tail = (_scaled(c.terms, Fraction(1, k + 1)) for k, c in enumerate(series.coeffs))
    return TruncatedSeries((TensorPoly.zero(), *tail))


def exp_dot_series(x: MagmaTree, order: int) -> TruncatedSeries:
    """exp of tx for the concatenation product: t^k x^{.k} / k!."""
    if order < 0:
        raise ShapeError("series order must be nonnegative")
    if order + 1 > DEGREE_CAP:
        raise SizeCapError(
            f"order {order} would need leaf degrees past the cap {DEGREE_CAP}"
        )
    polys, factorial = [], 1
    for k in range(order + 1):
        factorial *= max(k, 1)
        polys.append(TensorPoly._of({(x,) * k: Fraction(1, factorial)}))
    return TruncatedSeries(tuple(polys))


def _power_sum(term: TruncatedSeries, step, weights) -> TruncatedSeries:
    """term + sum_n weights[n-1] step^n(term), up to the first zero power."""
    totals, power = [dict(c.terms) for c in term.coeffs], term
    for weight in weights:
        power = step(power)
        if power.is_zero():
            break
        if weight:
            del totals[power.order + 1:]
            for acc, coeff in zip(totals, power.coeffs):
                for word, c in coeff.terms.items():
                    _add_into(acc, word, weight * c)
    return TruncatedSeries(tuple(map(TensorPoly._of, totals)))


def exp_star_series(z: TruncatedSeries) -> TruncatedSeries:
    """exp of a zero-constant series for the twisted product."""
    if not z.coeffs[0].is_zero():
        raise ShapeError("twisted exp needs a vanishing constant term")
    weights = [Fraction(1, factorial(m)) for m in range(2, z.order + 1)]
    return TruncatedSeries.unit(z.order) + _power_sum(z, lambda p: series_star(p, z), weights)


def _log_series(y: TruncatedSeries, product) -> TruncatedSeries:
    """log of a unit-constant series: sum_m (-1)^(m+1)/m (Y - 1)^m."""
    if y.coeffs[0] != TensorPoly.unit():
        raise ShapeError("log needs the constant coefficient to be the unit")
    shifted = y - TruncatedSeries.unit(y.order)
    weights = [Fraction((-1) ** (m + 1), m) for m in range(2, y.order + 1)]
    return _power_sum(shifted, lambda p: product(p, shifted), weights)


def log_dot_series(y: TruncatedSeries) -> TruncatedSeries:
    """log of a unit-constant series for the concatenation product."""
    return _log_series(y, series_concat)


@lru_cache(maxsize=None)
def bernoulli_modified(n: int) -> Fraction:
    """Bernoulli numbers with the index-one value flipped to +1/2."""
    if n < 0:
        raise ShapeError("negative Bernoulli index")
    if n == 1:
        return Fraction(1, 2)
    if n == 0:
        return Fraction(1)
    total = Fraction(0)
    for j in range(n):
        value = -bernoulli_modified(j) if j == 1 else bernoulli_modified(j)
        total += comb(n + 1, j) * value
    return -total / (n + 1)


def alpha_series(x: MagmaTree, order: int) -> TruncatedSeries:
    """The deformation series S_*(exp^.(tx)) |> x; t^k has degree k+1."""
    letter, polys = TensorPoly.from_word((x,)), []
    for coeff in exp_dot_series(x, order).coeffs:
        ((word, scale),) = coeff.terms.items()
        polys.append(_scaled(_bilinear(_tri_word, _sstar_word(word), letter, {}), scale))
    return TruncatedSeries(tuple(polys))


def check_alpha_ode(x: MagmaTree, order: int, series: TruncatedSeries | None = None) -> CheckResult:
    """Verify (k+1) alpha_{k+1} = -sum_{i+j=k} alpha_i |> alpha_j."""
    alpha = alpha_series(x, order) if series is None else series
    for k in range(alpha.order):
        rhs = _convolution_coeff(alpha.coeffs, alpha.coeffs, k, _tri_word)
        if _scaled(alpha.coeffs[k + 1].terms, -k - 1).terms != rhs:
            return CheckResult(
                False, f"flow equation for the deformation series fails at order {k}"
            )
    return CheckResult(True)


def solve_right_flow(x: MagmaTree, order: int) -> TruncatedSeries:
    """Solve Y' = Y.alpha(tx), Y(0) = 1, order by order."""
    return right_flow(alpha_series(x, order))


def right_flow(alpha: TruncatedSeries) -> TruncatedSeries:
    """Solve Y' = Y.alpha, Y(0) = 1, through the order of alpha."""
    polys = [TensorPoly.unit()]
    for k in range(alpha.order):
        acc = _convolution_coeff(polys, alpha.coeffs, k, _concat_word)
        polys.append(_scaled(acc, Fraction(1, k + 1)))
    return TruncatedSeries(tuple(polys))


def _magnus_rhs(omega: TruncatedSeries, alpha: TruncatedSeries) -> TruncatedSeries:
    """sum_n (B~_n / n!) ad^n_omega(alpha), ad the twisted bracket."""
    weights = [bernoulli_modified(n) / factorial(n) for n in range(1, alpha.order + 1)]
    return _power_sum(alpha, lambda p: _convolve(omega, p, _bracket_word, set()), weights)


def magnus_gl(x: MagmaTree, order: int) -> TruncatedSeries:
    """Twisted Magnus series: omega with exp^*(omega) = exp^.(tx), so
    omega is the twisted log of exp^.(tx).  check_magnus_fixed_point
    compares it with the paper's Bernoulli recursion."""
    return _log_series(exp_dot_series(x, order), series_star)


def check_magnus_fixed_point(alpha: TruncatedSeries, omega: TruncatedSeries) -> CheckResult:
    """omega = integral of sum_n (B~_n / n!) ad^n_omega(alpha(tx)).

    Order k+1 of the right side reads omega and alpha only through order
    k, so the fixed point is unique and one evaluation checks every order.
    The top order is never compared, so alpha is cut to omega.order - 1."""
    alpha = TruncatedSeries(alpha.coeffs[:max(omega.order, 1)])
    fixed = integrate(_magnus_rhs(omega, alpha))
    for k, coeff in enumerate(omega.coeffs):
        if fixed.coeff(k) != coeff:
            return CheckResult(
                False, f"Magnus series misses the Bernoulli fixed point at order {k}"
            )
    return CheckResult(True)


def check_primitivity_of_log(y: TruncatedSeries) -> CheckResult:
    """Every coefficient of log^.(Y) must be primitive."""
    logs = log_dot_series(y)
    for k in range(1, logs.order + 1):
        if not is_primitive(logs.coeffs[k]):
            return CheckResult(False, f"log coefficient at order {k} is not primitive")
    return CheckResult(True)


def flow_matches_twisted_exp(x: MagmaTree, order: int) -> CheckResult:
    """check_twisted_flow on the series of x, built through the order."""
    alpha = alpha_series(x, order)
    return check_twisted_flow(x, alpha, right_flow(alpha), magnus_gl(x, order))


def check_twisted_flow(x: MagmaTree, alpha, flow, omega) -> CheckResult:
    """The flow of alpha(tx) is K applied to exp^.(tx), coefficient by
    coefficient; the twisted exp of the Magnus series omega is exp^.(tx);
    and omega is the paper's Bernoulli fixed point."""
    exp = exp_dot_series(x, omega.order)
    for k in range(omega.order + 1):
        if flow.coeffs[k] != kmap_tensor(exp.coeffs[k]):
            return CheckResult(False, f"flow deviates from the twist map at order {k}")
    if exp_star_series(omega) != exp:
        return CheckResult(False, "twisted exp of the Magnus series misses exp^.(tx)")
    return check_magnus_fixed_point(alpha, omega)
