"""Error hierarchy shared by the whole package.

Two branches matter to callers.  SchemaError covers malformed input:
wrong JSON shape, unknown names, syntax errors, size caps.  AxiomError
covers well-formed input that fails a mathematical law; instances carry
a human-readable witness.  The command line maps SchemaError to exit
code 2 and AxiomError to exit code 1.  A check that reports instead of
raising returns a CheckResult, which carries the same kind of witness.
"""

from __future__ import annotations

from .interned import Record


class PostgroupLabError(Exception):
    """Base class for every error raised by this package."""


class SchemaError(PostgroupLabError):
    """Input is malformed: bad shape, bad token, unknown key or name."""


class ShapeError(SchemaError):
    """A table is not square or a row has the wrong length."""


class UnknownNameError(SchemaError):
    """A token or table entry is not a declared element name."""


class AlphabetMismatchError(SchemaError):
    """Two operands were built over different generator alphabets."""


class SizeCapError(SchemaError):
    """The request exceeds a configured size or degree cap."""


class CheckResult(Record):
    """Outcome of one law check, with a witness when it fails."""

    __slots__ = ("ok", "witness")
    ok: bool
    witness: str | None

    def __init__(self, ok: bool, witness: str | None = None) -> None:
        set_ok, set_witness = self._setters
        set_ok(self, ok)
        set_witness(self, witness)

    def __bool__(self) -> bool:
        return self.ok


class AxiomError(PostgroupLabError):
    """A verification failed.  The message states a concrete witness."""

    def __init__(self, message: str, *, witness: tuple | None = None):
        super().__init__(message)
        self.witness = witness


class LeftRegularityError(AxiomError):
    """Some row of the triangle table is not a permutation."""


class DiagonalityError(AxiomError):
    """The diagonal solution map m -> L_m^{-1}(m) is not a bijection."""


class GroupAxiomError(AxiomError):
    """A multiplication table fails associativity, unit, or inverses."""


class AutomorphismError(AxiomError):
    """Some left action map fails to respect the group product."""


class PostGroupLawError(AxiomError):
    """The weighted associativity law (a*b) |> c = a |> (b |> c) fails."""


class BraidedGroupError(AxiomError):
    """A candidate braiding map fails the braided-group axioms."""


class SkewBraceLawError(AxiomError):
    """The two products fail the skew brace compatibility law."""


class ActionLawError(AxiomError):
    """A candidate right action table fails the unit or composition law."""


class NotPrimitiveError(PostgroupLabError):
    """An argument that must be primitive (a Lie element) is not."""
