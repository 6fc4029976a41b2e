"""Reference primitivity test for the tensor layer, kept only as an oracle.

This is the library's is_primitive before it stopped building the full
coproduct: it compares all 2^k splits of every word, the unshuffle of
P, with P (x) 1 + 1 (x) P term by term.
"""

from __future__ import annotations

from postgroup_lab.tensor_postlie import TensorPoly, unshuffle


def is_primitive(poly: TensorPoly) -> bool:
    expected = {}
    for word, coeff in poly.terms.items():
        for key in ((word, ()), ((), word)):
            expected[key] = expected.get(key, 0) + coeff
    return unshuffle(poly, max_degree=None) == TensorPoly(expected)
