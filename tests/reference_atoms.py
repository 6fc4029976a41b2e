"""The frozen dataclass versions of Letter, Leaf and Node.

These were the library's letter and tree types before they became
interned value classes.  They are kept only as oracles: the interned
classes must agree with them on equality, hash and repr.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class Letter:
    """A generator index with a sign, +1 for the generator, -1 inverse."""

    gen: int
    sign: int

    def __post_init__(self) -> None:
        if self.sign not in (1, -1):
            raise ValueError(f"letter sign must be +1 or -1, got {self.sign}")

    def inverse(self) -> Letter:
        return Letter(self.gen, -self.sign)


@dataclass(frozen=True)
class Leaf:
    index: int


@dataclass(frozen=True)
class Node:
    left: "MagmaTree"
    right: "MagmaTree"


MagmaTree = Union[Leaf, Node]
