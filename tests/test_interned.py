"""The interned letter and tree classes against their dataclass oracles.

A shape is a nested description of a value: an int is a leaf, a pair
of shapes is a node.  Each shape is built twice, once with the
library's interned classes and once with the frozen dataclasses of
tests/reference_atoms.py.  Two interned builds must be the same object
exactly when the reference values are equal, and hash and repr must be
the reference's.
"""

from __future__ import annotations

import copy
import pickle

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference_atoms as ref
from postgroup_lab import words
from postgroup_lab.tensor_postlie import Leaf, Node
from postgroup_lab.words import Letter

shapes = st.recursive(
    st.integers(min_value=0, max_value=2),
    lambda inner: st.tuples(inner, inner),
    max_leaves=6,
)
letter_args = st.tuples(st.integers(min_value=0, max_value=3), st.sampled_from((1, -1)))


def build(shape, leaf=Leaf, node=Node):
    if isinstance(shape, int):
        return leaf(shape)
    return node(build(shape[0], leaf, node), build(shape[1], leaf, node))


def build_ref(shape):
    return build(shape, ref.Leaf, ref.Node)


def check_value(value, reference) -> None:
    assert hash(value) == hash(reference)
    assert repr(value) == repr(reference)
    assert pickle.loads(pickle.dumps(value)) is value
    assert copy.deepcopy(value) is value
    assert copy.copy(value) is value
    for name in value.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name))
        with pytest.raises(AttributeError):
            delattr(value, name)


@given(shapes, shapes)
def test_trees_are_one_object_per_value(s, t):
    assert (build(s) is build(t)) == (build_ref(s) == build_ref(t))
    assert (build(s) == build(t)) == (build_ref(s) == build_ref(t))
    check_value(build(s), build_ref(s))


@given(letter_args, letter_args)
def test_letters_are_one_object_per_value(a, b):
    assert (Letter(*a) is Letter(*b)) == (ref.Letter(*a) == ref.Letter(*b))
    assert Letter(*a).inverse() is Letter(a[0], -a[1])
    check_value(Letter(*a), ref.Letter(*a))


@pytest.mark.parametrize("sign", [0, 2, -2])
def test_bad_sign_is_refused_and_not_interned(sign):
    before = len(words._LETTERS)
    with pytest.raises(ValueError):
        Letter(0, sign)
    with pytest.raises(ValueError):
        ref.Letter(0, sign)
    assert len(words._LETTERS) == before
