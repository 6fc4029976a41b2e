"""Exact tensor algebra over the free magma, with the twisting map K.

Letters are binary trees over a set of generators, a tree node standing
for the triangle product of its children.  Words are tuples of trees,
the empty word is the unit, and polynomials carry Fraction
coefficients.  The module extends the triangle product to all of the
tensor algebra, builds the twisted (Grossman-Larson style) product and
its antipode, and implements the length-lowering map K together with
its inverse.  Everything is exact; there is no floating point here.

Each operation is a memoised rule on words, extended to polynomials by
_linear or _bilinear.  The memo dicts are _SPLITS (position splits),
_TRI (triangle), _GL (twisted product), _SSTAR (its antipode) and _K.
The twisted bracket's rule, _bracket_word, also serves the series
layer's bracket convolution.
kmap_tensor_inverse keeps its memo for one call only.  The unshuffle
coproduct is a TensorPoly keyed by (word, word) pairs.

The unshuffle coproduct of a word of length k has 2^k terms.  Apart
from kmap_tensor_inverse, the functions here take no size cap: the verbs,
and exp_dot_series for the series layer, refuse sizes past DEGREE_CAP
before any tensor work starts.

Trees are interned (see interned.py): Leaf in the module table _LEAVES,
keyed by index, and Node in _NODES, keyed by the ids of its children.
Equal trees are the same object, so tree equality is identity and each
tree's hash, degree and sort key are computed once, when it is built.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from .errors import NotPrimitiveError, SizeCapError
from .interned import Interned

DEGREE_CAP = 8
WORD_COUNT_CAP = 100_000

_ONE = Fraction(1)


_LEAVES: dict[int, Leaf] = {}
_NODES: dict[tuple[int, int], Node] = {}


class Leaf(Interned):
    __slots__ = ("index", "_key")
    index: int

    def __new__(cls, index: int) -> Leaf:
        leaf = _LEAVES.get(index)
        if leaf is None:
            leaf = _LEAVES[index] = cls._build((index,), (1, (0, index)))
        return leaf


class Node(Interned):
    # keying by id is safe: a node keeps its children alive, and the
    # table keeps the node
    __slots__ = ("left", "right", "_key")
    left: MagmaTree
    right: MagmaTree

    def __new__(cls, left: MagmaTree, right: MagmaTree) -> Node:
        key = (id(left), id(right))
        node = _NODES.get(key)
        if node is None:
            # _key is (degree, struct): struct is a flat self-delimiting
            # encoding, and lexicographic comparison of two encodings agrees
            # with "leaf < node, recurse left then right"
            (ld, ls), (rd, rs) = left._key, right._key
            node = _NODES[key] = cls._build((left, right), (ld + rd, (1,) + ls + rs))
        return node


MagmaTree = Leaf | Node

TensorWord = tuple  # tuple[MagmaTree, ...]; () is the unit word


def word_degree(word: TensorWord) -> int:
    return sum(t._key[0] for t in word)


def tree_key(tree: MagmaTree) -> tuple:
    return tree._key


def word_key(word: TensorWord) -> tuple:
    return (word_degree(word), len(word), tuple(t._key for t in word))


class TensorPoly:
    """Finite rational combination of tensor words, or of (word, word)
    pairs for the coproduct.

    terms maps keys to nonzero Fractions; treat it as read-only.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        for word, coeff in (terms or {}).items():
            coeff = Fraction(coeff)
            if coeff:
                clean[word] = coeff
        object.__setattr__(self, "terms", clean)

    def __setattr__(self, name, value):
        raise AttributeError("TensorPoly is immutable")

    def __reduce__(self):
        return TensorPoly, (dict(self.terms),)

    @classmethod
    def _of(cls, clean: dict) -> "TensorPoly":
        """Wrap a dict of nonzero Fractions, as _add_into leaves it, as it is."""
        poly = object.__new__(cls)
        object.__setattr__(poly, "terms", clean)
        return poly

    @classmethod
    def zero(cls) -> "TensorPoly":
        return cls()

    @classmethod
    def unit(cls) -> "TensorPoly":
        return cls({(): _ONE})

    @classmethod
    def from_word(cls, word: TensorWord) -> "TensorPoly":
        return cls({word: _ONE})

    def coeff(self, word: TensorWord) -> Fraction:
        return self.terms.get(word, Fraction(0))

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, TensorPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __add__(self, other):
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            _add_into(acc, word, coeff)
        return TensorPoly(acc)

    def __sub__(self, other):
        acc = dict(self.terms)
        for word, coeff in other.terms.items():
            _add_into(acc, word, -coeff)
        return TensorPoly(acc)

    def __neg__(self):
        return TensorPoly({w: -c for w, c in self.terms.items()})

    def __rmul__(self, scalar):
        scalar = Fraction(scalar)
        return TensorPoly({w: scalar * c for w, c in self.terms.items()})

    def __repr__(self):
        return f"TensorPoly({format_poly(self)})"


def pair_tensor(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """left (x) right, keyed by (word, word) pairs."""
    return _bilinear(lambda u, v: TensorPoly({(u, v): _ONE}), left, right)


def _add_into(acc: dict, key, coeff) -> None:
    total = acc.get(key, 0) + coeff
    if total:
        acc[key] = total
    else:
        acc.pop(key, None)


def _linear(fn, poly: TensorPoly) -> TensorPoly:
    """Sum of c * fn(w) over the terms c * w of poly."""
    acc = {}
    for word, coeff in poly.terms.items():
        for out, c in fn(word).terms.items():
            _add_into(acc, out, coeff * c)
    return TensorPoly(acc)


def _bilinear(fn, left: TensorPoly, right: TensorPoly, into=None):
    """Sum of a * b * fn(u, w) over the terms a * u of left and b * w of
    right; given a dict into, the sum is added into it and into is returned."""
    acc = {} if into is None else into
    for u, a in left.terms.items():
        for w, b in right.terms.items():
            ab = a * b
            for out, c in fn(u, w).terms.items():
                _add_into(acc, out, ab * c)
    return TensorPoly(acc) if into is None else acc


def concat(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    acc = {}
    for u, a in left.terms.items():
        for v, b in right.terms.items():
            _add_into(acc, u + v, a * b)
    return TensorPoly(acc)


_SPLITS: dict = {}


def _splits(word: TensorWord) -> list:
    """All 2^k ordered (subword, complement) position splits."""
    hit = _SPLITS.get(word)
    if hit is not None:
        return hit
    n = len(word)
    out = []
    for mask in range(1 << n):
        sub = tuple(word[i] for i in range(n) if mask >> i & 1)
        comp = tuple(word[i] for i in range(n) if not mask >> i & 1)
        out.append((sub, comp))
    _SPLITS[word] = out
    return out


def unshuffle(poly: TensorPoly) -> TensorPoly:
    """Coproduct: letters are primitive and words split over positions."""
    acc = {}
    for word, coeff in poly.terms.items():
        for sub, comp in _splits(word):
            _add_into(acc, (sub, comp), coeff)
    return TensorPoly(acc)


_TRI: dict = {}


def _tri_word(left: TensorWord, right: TensorWord) -> TensorPoly:
    key = (left, right)
    hit = _TRI.get(key)
    if hit is not None:
        return hit
    if not left:
        out = TensorPoly.from_word(right)
    elif not right:
        out = TensorPoly.zero()
    elif len(left) == 1:
        # a single tree acts as a derivation over the word's letters
        x = left[0]
        acc = {}
        for i in range(len(right)):
            grown = right[:i] + (Node(x, right[i]),) + right[i + 1:]
            _add_into(acc, grown, _ONE)
        out = TensorPoly(acc)
    else:
        # peel the first letter: (x.v) |> w = x |> (v |> w) - (x |> v) |> w
        x, rest = (left[0],), left[1:]
        acted = _linear(lambda w: _tri_word(x, w), _tri_word(rest, right))
        out = acted - _linear(lambda v: _tri_word(v, right), _tri_word(x, rest))
    _TRI[key] = out
    return out


def triangle(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """Bilinear triangle product on the tensor algebra."""
    return _bilinear(_tri_word, left, right)


_GL: dict = {}


def _gl_word(left: TensorWord, right: TensorWord) -> TensorPoly:
    key = (left, right)
    hit = _GL.get(key)
    if hit is not None:
        return hit
    acc = {}
    for sub, comp in _splits(left):
        for word, coeff in _tri_word(comp, right).terms.items():
            _add_into(acc, sub + word, coeff)
    out = TensorPoly(acc)
    _GL[key] = out
    return out


def gl_star(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """Twisted product A*B: concatenate half of A, act with the rest."""
    return _bilinear(_gl_word, left, right)


def antipode_dot(poly: TensorPoly) -> TensorPoly:
    """Antipode of the concatenation structure: signed reversal."""
    acc = {}
    for word, coeff in poly.terms.items():
        sign = -coeff if len(word) % 2 else coeff
        _add_into(acc, word[::-1], sign)
    return TensorPoly(acc)


_SSTAR: dict = {}


def _sstar_word(word: TensorWord) -> TensorPoly:
    hit = _SSTAR.get(word)
    if hit is not None:
        return hit
    if not word:
        out = TensorPoly.unit()
    else:
        # graded recursion from sum S(w_1) * w_2 = 0 for nonunit words
        acc = {word: -_ONE}
        for sub, comp in _splits(word):
            if sub and comp:
                for v, c in _sstar_word(sub).terms.items():
                    for w, d in _gl_word(v, comp).terms.items():
                        _add_into(acc, w, -c * d)
        out = TensorPoly(acc)
    _SSTAR[word] = out
    return out


def antipode_star(poly: TensorPoly) -> TensorPoly:
    """Antipode of the twisted product, by the graded recursion."""
    return _linear(_sstar_word, poly)


_K: dict = {}


def _k_word(word: TensorWord) -> TensorPoly:
    hit = _K.get(word)
    if hit is not None:
        return hit
    if len(word) <= 1:
        out = TensorPoly.from_word(word)
    else:
        # K(x.rest) = x.K(rest) - K(x |> rest)
        x, rest = (word[0],), word[1:]
        head = concat(TensorPoly.from_word(x), _k_word(rest))
        out = head - _linear(_k_word, _tri_word(x, rest))
    _K[word] = out
    return out


def kmap_tensor(poly: TensorPoly) -> TensorPoly:
    """The degree-preserving, length-lowering twist map K."""
    return _linear(_k_word, poly)


def kmap_tensor_inverse(poly: TensorPoly, max_degree=DEGREE_CAP) -> TensorPoly:
    """Invert K word by word, with a memo that lasts one call.

    K(w) is w plus strictly shorter words v, so K^-1(w) = w - sum c_v K^-1(v).
    """
    # max_degree stays while bench/test_bench.py::test_wrong_inverse_image_is_a_failed_op passes it
    worst = max((word_degree(w) for w in poly.terms), default=0)
    if max_degree is not None and worst > max_degree:
        raise SizeCapError(
            f"input of degree {worst} exceeds the cap {max_degree}; "
            "pass max_degree=None to force"
        )
    memo: dict = {}

    def inverse(word: TensorWord) -> TensorPoly:
        hit = memo.get(word)
        if hit is not None:
            return hit
        acc = {word: _ONE}
        for v, c in _k_word(word).terms.items():
            if v != word:
                for u, d in inverse(v).terms.items():
                    _add_into(acc, u, -c * d)
        out = memo[word] = TensorPoly(acc)
        return out

    return _linear(inverse, poly)


def is_primitive(poly: TensorPoly) -> bool:
    # with no unit term, the empty-side splits give P (x) 1 + 1 (x) P; the rest cancel
    proper = {}
    for word, coeff in poly.terms.items():
        for pair in _splits(word)[1:-1]:
            _add_into(proper, pair, coeff)
    return () not in poly.terms and not proper


def _require_primitive(*polys) -> None:
    for poly in polys:
        if not is_primitive(poly):
            raise NotPrimitiveError(
                f"{format_poly(poly)} is not primitive for the unshuffle coproduct"
            )


def _bracket_word(u, v) -> TensorPoly:
    """The twisted bracket u.v - v.u + u |> v - v |> u of two words."""
    acc = {}
    for sign, a, b in ((_ONE, u, v), (-_ONE, v, u)):
        _add_into(acc, a + b, sign)
        for word, c in _tri_word(a, b).terms.items():
            _add_into(acc, word, sign * c)
    return TensorPoly._of(acc)


def gl_lie_bracket(left: TensorPoly, right: TensorPoly) -> TensorPoly:
    """Twisted bracket [X,Y] + X |> Y - Y |> X on primitives."""
    _require_primitive(left, right)
    return _bilinear(_bracket_word, left, right)


def trees_of_degree(degree: int, generators: int) -> tuple:
    """All trees with the given leaf count, in canonical order."""
    if degree < 1:
        return ()
    if degree == 1:
        return tuple(Leaf(i) for i in range(generators))
    out = []
    for left_degree in range(1, degree):
        for left in trees_of_degree(left_degree, generators):
            for right in trees_of_degree(degree - left_degree, generators):
                out.append(Node(left, right))
    return tuple(sorted(out, key=tree_key))


def words_of_degree(degree: int, generators: int) -> tuple:
    """All words with the given total leaf count, in canonical order."""
    if degree < 0:
        return ()
    if degree == 0:
        return ((),)
    out = []
    for head_degree in range(1, degree + 1):
        for head in trees_of_degree(head_degree, generators):
            for tail in words_of_degree(degree - head_degree, generators):
                out.append((head,) + tail)
    return tuple(sorted(out, key=word_key))


def word_count(degree: int, generators: int) -> int:
    """len(words_of_degree(degree, generators)) without enumerating:
    Catalan(degree) shapes times generators^degree leaf labels."""
    return comb(2 * degree, degree) // (degree + 1) * generators**degree


def format_tree(tree: MagmaTree) -> str:
    if isinstance(tree, Leaf):
        return f"x{tree.index + 1}"
    return f"({format_tree(tree.left)}>{format_tree(tree.right)})"


def format_word(word: TensorWord) -> str:
    if not word:
        return "1"
    return ".".join(format_tree(t) for t in word)


def format_poly(poly: TensorPoly) -> str:
    if poly.is_zero():
        return "0"
    first = next(iter(poly.terms))
    if first and isinstance(first[0], tuple):
        # coproduct terms, keyed by (word, word) pairs
        order = lambda p: (word_key(p[0]), word_key(p[1]))
        text = lambda p: f"[{format_word(p[0])} | {format_word(p[1])}]"
    else:
        order, text = word_key, format_word
    parts = []
    for word in sorted(poly.terms, key=order):
        coeff = poly.terms[word]
        body = text(word)
        magnitude = abs(coeff)
        if magnitude != 1 or not word:
            body = f"{magnitude}*{body}" if word else str(magnitude)
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts)
