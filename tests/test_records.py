"""The value classes of the package against frozen-dataclass twins.

Each class below was a frozen dataclass before it moved onto
interned.Record.  Its twin, built here with dataclasses.make_dataclass
from the old field list, is the oracle.  On instances built from data/
and the selftest corpus, equality, hash and repr must be the twin's,
pickle, deepcopy, copy and construction by keyword must give an equal
value, and assignment must raise AttributeError.  One repr changed on
purpose: MagmaTable's now shows row_inv, which its dataclass hid, so its
twin shows row_inv too.

GroupTable, PostGroupTable and SkewBrace validate in their constructors,
unlike their twins: a bad table, or a unit or inverses other than its
own, is refused there, and a pickle or copy goes through that check.
"""

from __future__ import annotations

import copy
import pickle
import random
from dataclasses import field, fields, make_dataclass
from itertools import product
from pathlib import Path

import pytest

from postgroup_lab.action_postgroup import (
    GaugeMap,
    RightAction,
    enumerate_gauge_maps,
    load_action,
    validate_action,
)
from postgroup_lab.errors import (
    AutomorphismError,
    CheckResult,
    GroupAxiomError,
    PostGroupLawError,
    SchemaError,
    SkewBraceLawError,
)
from postgroup_lab.finite_postgroup import (
    BraidMap,
    GroupTable,
    PostGroupTable,
    SkewBrace,
    braiding,
    check_braid_equation,
    check_ybe,
    cyclic_group,
    gl_group,
    load_postgroup,
    symmetric_group,
    to_skew_brace,
    validate_postgroup,
)
from postgroup_lab.free_postgroup import random_word
from postgroup_lab.magma import MagmaTable, load_magma, validate_magma
from postgroup_lab.magnus import TruncatedSeries, alpha_series, exp_dot_series
from postgroup_lab.selftest import CriterionResult, acceptance_corpus
from postgroup_lab.tensor_postlie import Leaf, TensorPoly
from postgroup_lab.words import Alphabet, ReducedWord

DATA = Path(__file__).resolve().parent.parent / "data"

# the dataclass field lists, in order; a tuple is (name, type, field)
FIELDS = {
    CheckResult: ("ok", ("witness", "str | None", field(default=None))),
    Alphabet: (
        "names",
        ("_index", "dict", field(init=False, repr=False, compare=False)),
    ),
    ReducedWord: ("alphabet", "letters"),
    MagmaTable: ("alphabet", "triangle", "lam", "lam_inv", "row_inv"),
    GroupTable: ("elements", "table", "unit", "inv"),
    PostGroupTable: ("elements", "dot", "triangle", "unit", "inv"),
    BraidMap: ("elements", "left", "right"),
    SkewBrace: ("elements", "dot", "star", "unit"),
    RightAction: ("group", "points", "table"),
    GaugeMap: ("action", "values"),
    TruncatedSeries: ("coeffs",),
    CriterionResult: ("name", "ok", "detail", "seconds"),
}
TWINS = {
    cls: make_dataclass(cls.__name__, spec, frozen=True) for cls, spec in FIELDS.items()
}


def init_fields(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(TWINS[cls]) if f.init)


def twin(value):
    cls = type(value)
    return TWINS[cls](*(getattr(value, name) for name in init_fields(cls)))


def corpus():
    """Instances of every class, with equal values built twice."""
    postgroups = [pg for _, pg in acceptance_corpus()]
    postgroups += [load_postgroup(DATA / n) for n in ("s3-conj.json", "z3-trivial.json")]
    postgroups += [validate_postgroup(pg.elements, pg.dot, pg.triangle) for pg in postgroups[:3]]
    magmas = [load_magma(DATA / n) for n in ("shift3.json", "trivial3.json", "shift3.json")]
    magmas += [validate_magma(pg.elements, pg.triangle) for pg in postgroups[:4]]
    rng = random.Random(0)
    words = [random_word(m.alphabet, rng, 6) for m in magmas[:3] for _ in range(6)]
    words += [ReducedWord(w.alphabet, w.letters) for w in words[:4]]
    braids = [braiding(pg) for pg in postgroups]
    actions = [
        load_action(DATA / "z2-fix2-action.json"),
        load_action(DATA / "z2-fix2-action.json"),
        validate_action(cyclic_group(2), ("p", "q"), ((0, 0), (1, 1))),
    ]
    x = Leaf(0)
    return {
        CheckResult: [check_braid_equation(b) for b in braids[:3]]
        + [check_ybe(b) for b in braids[:2]]
        + [CheckResult(False, "lhs 1 != rhs 0"), CheckResult(ok=False, witness="w")],
        Alphabet: [m.alphabet for m in magmas] + [Alphabet(("x0", "x1", "x2"))],
        ReducedWord: words,
        MagmaTable: magmas,
        GroupTable: [cyclic_group(3), cyclic_group(3), symmetric_group(3)]
        + [gl_group(pg) for pg in postgroups[:4]],
        PostGroupTable: postgroups,
        BraidMap: braids,
        SkewBrace: [to_skew_brace(pg) for pg in postgroups],
        RightAction: actions,
        GaugeMap: [f for a in actions for f in enumerate_gauge_maps(a)],
        TruncatedSeries: [alpha_series(x, 2), alpha_series(x, 2), exp_dot_series(x, 2)]
        + [TruncatedSeries.unit(1), TruncatedSeries((TensorPoly.zero(), TensorPoly.zero()))],
        CriterionResult: [
            CriterionResult("free-postgroup-laws", True, "2000 random triples", 0.25),
            CriterionResult("free-postgroup-laws", True, "2000 random triples", 0.25),
            CriterionResult(name="negative-controls", ok=False, detail="", seconds=0.0),
        ],
    }


CORPUS = corpus()
CASES = [(cls, i) for cls, values in CORPUS.items() for i in range(len(values))]


def case_id(case) -> str:
    return f"{case[0].__name__}-{case[1]}"


def test_every_value_class_has_equal_pairs():
    assert set(CORPUS) == set(FIELDS)
    for cls, values in CORPUS.items():
        assert all(type(v) is cls for v in values)
        pairs = [(a, b) for a, b in product(values, repeat=2) if a is not b]
        assert any(a == b for a, b in pairs), cls.__name__


@pytest.mark.parametrize("cls", list(CORPUS), ids=lambda c: c.__name__)
def test_equality_is_the_dataclass_equality(cls):
    for a, b in product(CORPUS[cls], repeat=2):
        assert (a == b) == (twin(a) == twin(b))
        assert (a != b) == (twin(a) != twin(b))
    value = CORPUS[cls][0]
    assert value.__eq__(twin(value)) is NotImplemented
    assert value != twin(value)


def copies(value) -> list:
    """The pickle, deepcopy and copy of value, and value rebuilt by keyword."""
    cls = type(value)
    rebuilt = cls(**{name: getattr(value, name) for name in init_fields(cls)})
    return [pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value), rebuilt]


@pytest.mark.parametrize("case", CASES, ids=case_id)
def test_value_matches_its_twin(case):
    cls, i = case
    value = CORPUS[cls][i]
    reference = twin(value)
    assert hash(value) == hash(reference)
    assert repr(value) == repr(reference)
    for again in copies(value):
        assert type(again) is cls
        assert again == value and hash(again) == hash(value)
    for name in cls.__slots__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    with pytest.raises(AttributeError):
        value.extra = None


@pytest.mark.parametrize("i", range(len(CORPUS[TruncatedSeries])))
def test_tensor_polys_roundtrip(i):
    # TensorPoly is no Record: it rebuilds from its terms through __reduce__
    for poly in CORPUS[TruncatedSeries][i].coeffs:
        for again in (pickle.loads(pickle.dumps(poly)), copy.deepcopy(poly), copy.copy(poly)):
            assert type(again) is TensorPoly
            assert again == poly and hash(again) == hash(poly)
            with pytest.raises(AttributeError):
                again.terms = {}


def test_private_slot_is_rebuilt_by_the_constructor():
    alphabet = Alphabet(("a", "b"))
    for again in (pickle.loads(pickle.dumps(alphabet)), copy.deepcopy(alphabet)):
        assert again.index("b") == 1
    # jmap's step table, with the same interned letters
    for magma in CORPUS[MagmaTable]:
        for again in copies(magma):
            assert again._steps == magma._steps


@pytest.mark.parametrize("cls", [ReducedWord, TruncatedSeries], ids=lambda c: c.__name__)
def test_a_list_field_is_stored_as_a_tuple(cls):
    # a list-built value is its tuple-built twin: equal, hashable, picklable
    value = max(CORPUS[cls], key=lambda v: len(cls._values(v)[-1]))
    *rest, seq = cls._values(value)
    from_list = cls(*rest, list(seq))
    assert from_list == value and hash(from_list) == hash(value)
    assert pickle.loads(pickle.dumps(from_list)) == value


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),
    ((1, 2, 3), {}),
    ((1, 2, 3, 4, 5), {}),
    ((1, 2, 3), {"unit": 0}),
    ((1, 2, 3, 4), {"table": 0}),
    ((), {"elements": 1, "table": 2, "unit": 3, "inv": 4, "extra": 5}),
])
def test_wrong_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        TWINS[GroupTable](*args, **kwargs)
    with pytest.raises(TypeError):
        GroupTable(*args, **kwargs)


S3 = symmetric_group(3)
Z4 = cyclic_group(4)
CONJ_S3 = dict(acceptance_corpus())["conjugation S3"]
SWAP23 = (0, 1, 3, 2)


def swapped(table, a, b, c):
    """table with entries (a, b) and (a, c) exchanged."""
    rows = [list(r) for r in table]
    rows[a][b], rows[a][c] = rows[a][c], rows[a][b]
    return rows


# each record type with a bad table or derived field: the refusal and its message
BAD_RECORDS = {
    "group not associative": (
        lambda: GroupTable(S3.elements, swapped(S3.table, 1, 2, 3), S3.unit, S3.inv),
        GroupAxiomError, "^group is not associative",
    ),
    "group with another unit": (
        lambda: GroupTable(S3.elements, S3.table, 1, S3.inv),
        SchemaError, "^GroupTable: unit, inv must be derived from its tables$",
    ),
    "group with other inverses": (
        lambda: GroupTable(S3.elements, S3.table, S3.unit, tuple(range(6))),
        SchemaError, "^GroupTable: unit, inv must be derived from its tables$",
    ),
    "post-group dot not a group": (
        lambda: PostGroupTable(
            CONJ_S3.elements, swapped(CONJ_S3.dot, 1, 2, 3), CONJ_S3.triangle,
            CONJ_S3.unit, CONJ_S3.inv,
        ),
        GroupAxiomError, "^dot product is not associative",
    ),
    "post-group row not an automorphism": (
        lambda: PostGroupTable(
            CONJ_S3.elements, CONJ_S3.dot, swapped(CONJ_S3.triangle, 1, 3, 4),
            CONJ_S3.unit, CONJ_S3.inv,
        ),
        AutomorphismError, r"^\(12\) \|> - does not respect the dot product",
    ),
    "post-group not weighted associative": (
        lambda: PostGroupTable(
            Z4.elements, Z4.table, ((0, 1, 2, 3), (0, 3, 2, 1), (0, 3, 2, 1), (0, 1, 2, 3)),
            Z4.unit, Z4.inv,
        ),
        PostGroupLawError, "^weighted associativity fails",
    ),
    "post-group with another unit": (
        lambda: PostGroupTable(CONJ_S3.elements, CONJ_S3.dot, CONJ_S3.triangle, 2, CONJ_S3.inv),
        SchemaError, "^PostGroupTable: unit, inv must be derived from its tables$",
    ),
    "skew brace star not a group": (
        lambda: SkewBrace(Z4.elements, Z4.table, swapped(Z4.table, 1, 1, 2), Z4.unit),
        GroupAxiomError, "^star product",
    ),
    "skew brace law": (
        lambda: SkewBrace(
            Z4.elements, Z4.table,
            [[SWAP23[Z4.table[SWAP23[a]][SWAP23[b]]] for b in range(4)] for a in range(4)],
            Z4.unit,
        ),
        SkewBraceLawError, r"^skew brace law fails at \(1, 1, 1\)",
    ),
    "skew brace with another unit": (
        lambda: SkewBrace(Z4.elements, Z4.table, Z4.table, 3),
        SchemaError, "^SkewBrace: unit must be derived from its tables$",
    ),
}


@pytest.mark.parametrize("case", sorted(BAD_RECORDS))
def test_bad_table_is_refused_at_construction(case):
    build, error, message = BAD_RECORDS[case]
    with pytest.raises(error, match=message):
        build()


def test_copies_keep_the_value_and_prove_again():
    # the star group a post-group keeps stays out of its value; a copy
    # is validated anew and finds its star group anew
    pg = validate_postgroup(CONJ_S3.elements, CONJ_S3.dot, CONJ_S3.triangle)
    braid = braiding(pg)
    laws = check_braid_equation(braid), check_ybe(braid)
    star = gl_group(pg)
    brace = to_skew_brace(pg)
    for value in (pg, braid, brace):
        for again in copies(value):
            assert again == value and hash(again) == hash(value)
            assert repr(again) == repr(value)
    for again in copies(pg):
        assert gl_group(again) == star and gl_group(again) is not star
    for again in copies(braid):
        assert (check_braid_equation(again), check_ybe(again)) == laws
