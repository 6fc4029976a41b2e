"""Right actions and the gauge structures they generate.

The running example for the pointwise formulas is Z/2 = {e, s} acting
on two points p, q with s swapping them.  Frozen products, by hand:

    f = (p -> s, q -> e),  g = (p -> s, q -> s)
    (f |> g)(p) = g(p.s) = g(q) = s     (f |> g)(q) = g(q.e) = s
    (f * g)(p) = s.g(q) = s.s = e       (f * g)(q) = e.g(q) = s

The swap action does not survive build_gauge_postgroup: m -> m.f(m)
already collides for f = (p -> s, q -> e), so the rows are not
bijections.  The post-group corpus entry uses the trivial action
instead, where the four maps form the Klein pre-group.
"""

from __future__ import annotations

import pickle
import random
from itertools import permutations

import pytest
import reference_finite as ref
from hypothesis import given, settings
from hypothesis import strategies as st

from postgroup_lab.errors import (
    ActionLawError,
    AutomorphismError,
    ShapeError,
    SizeCapError,
)
from postgroup_lab import action_postgroup
from postgroup_lab.action_postgroup import (
    GaugeMap,
    RightAction,
    action_to_json,
    build_gauge_postgroup,
    enumerate_gauge_maps,
    gauge_act,
    gauge_dot,
    gauge_name,
    load_action,
    validate_action,
)
from postgroup_lab.finite_postgroup import (
    braiding,
    check_braid_equation,
    check_involutive,
    check_ybe,
    cyclic_group,
    gl_group,
    is_pregroup,
    symmetric_group,
    to_skew_brace,
    trivial_postgroup,
)
from postgroup_lab.jsonio import dump_json

Z2 = cyclic_group(2)
SWAP = validate_action(Z2, ("p", "q"), ((0, 1), (1, 0)))


def gmap(values):
    return GaugeMap(SWAP, values)


class TestActionValidation:
    def test_swap_action_validates(self):
        assert SWAP.table[0][1] == 1
        assert SWAP.table[1][1] == 0

    def test_unit_law_failure(self):
        with pytest.raises(ActionLawError, match="unit law"):
            validate_action(Z2, ("p", "q"), ((1, 0), (0, 1)))

    def test_composition_failure(self):
        # m.s is constant p, so (m.s).s != m.(s.s) at q
        with pytest.raises(ActionLawError, match="composition"):
            validate_action(Z2, ("p", "q"), ((0, 0), (1, 0)))

    def test_shape_errors(self):
        with pytest.raises(ShapeError):
            validate_action(Z2, ("p", "q"), ((0, 1),))
        with pytest.raises(ShapeError):
            validate_action(Z2, ("p", "p"), ((0, 0), (1, 1)))
        with pytest.raises(ShapeError):
            validate_action(Z2, (), ())

    def test_point_names_are_nonempty_strings(self):
        with pytest.raises(ShapeError, match="nonempty strings"):
            validate_action(Z2, ("p", ""), ((0, 0), (1, 1)))


class TestGaugeOperations:
    def test_frozen_example(self):
        f = gmap((1, 0))
        g = gmap((1, 1))
        assert gauge_act(f, g).values == (1, 1)
        assert ref.gauge_gl(f, g).values == (0, 1)
        assert gauge_dot(f, g).values == (0, 1)

    def test_names_are_tuples_of_group_elements(self):
        assert gauge_name(SWAP, (1, 0)) == "(1,0)"
        assert [gauge_name(SWAP, f.values) for f in enumerate_gauge_maps(SWAP)] == [
            "(0,0)",
            "(0,1)",
            "(1,0)",
            "(1,1)",
        ]

    def test_mismatched_actions_rejected(self):
        other = validate_action(Z2, ("a", "b"), ((0, 1), (1, 0)))
        with pytest.raises(ShapeError):
            gauge_dot(gmap((0, 0)), GaugeMap(other, (0, 0)))

    def test_wrong_arity_rejected(self):
        with pytest.raises(ShapeError):
            gmap((0, 0, 0))


TRIVIAL2 = validate_action(Z2, ("p", "q"), ((0, 0), (1, 1)))


class TestGaugePostGroup:
    def test_trivial_action_gives_an_order_four_pregroup(self):
        pg = build_gauge_postgroup(TRIVIAL2)
        assert len(pg) == 4
        assert pg.elements == ("(0,0)", "(0,1)", "(1,0)", "(1,1)")
        assert is_pregroup(pg)
        braid = braiding(pg)
        assert check_braid_equation(braid).ok
        assert check_ybe(braid).ok
        assert check_involutive(braid).ok
        to_skew_brace(pg)
        star = gl_group(pg)
        assert sorted(_element_order(star, a) for a in range(4)) == [1, 2, 2, 2]

    def test_swap_action_is_rejected_by_validation(self):
        # m -> m.f(m) is not injective for f = (p -> s, q -> e): both
        # points land on q, so f |> - cannot be a bijection of the four
        # maps and the structure fails the post-group axioms.  Only
        # actions with singleton orbits survive the honest validator.
        with pytest.raises(AutomorphismError, match="bijection"):
            build_gauge_postgroup(SWAP)

    def test_swap_gl_rows_are_not_invertible(self):
        # the same failure seen on the star side: f = (p -> e, q -> s)
        # hits (g(p), s.g(p)), which cannot reach all four maps
        maps = enumerate_gauge_maps(SWAP)
        f = gmap((0, 1))
        images = {ref.gauge_gl(f, g).values for g in maps}
        assert len(images) < len(maps)

    def test_tables_match_the_gauge_formulas(self):
        pg = build_gauge_postgroup(TRIVIAL2)
        maps = enumerate_gauge_maps(TRIVIAL2)
        index = {f.values: i for i, f in enumerate(maps)}
        for i, f in enumerate(maps):
            for j, g in enumerate(maps):
                assert pg.dot[i][j] == index[gauge_dot(f, g).values]
                assert pg.triangle[i][j] == index[gauge_act(f, g).values]

    def test_single_point_recovers_the_group(self):
        s3 = symmetric_group(3)
        one = validate_action(s3, ("pt",), ((0,) * 6,))
        pg = build_gauge_postgroup(one)
        assert len(pg) == 6
        # with one fixed point the action part is trivial: f |> g = g
        n = len(pg)
        assert pg.triangle == tuple(tuple(range(n)) for _ in range(n))

    def test_enumeration_cap(self):
        three = validate_action(
            cyclic_group(3), ("a", "b", "c", "d", "e1", "f", "g", "h"),
            tuple(tuple([m] * 3) for m in range(8)),
        )
        with pytest.raises(SizeCapError):
            build_gauge_postgroup(three)

    def test_validation_cap_binds_on_big_builds(self):
        # Z/3 fixing 4 points gives 81 > 64 maps and is refused; Z/2
        # fixing 6 points gives 64 maps, the largest build, validated in
        # full
        z3 = cyclic_group(3)
        fix4 = validate_action(z3, ("a", "b", "c", "d"),
                               tuple(tuple([m] * 3) for m in range(4)))
        with pytest.raises(SizeCapError):
            build_gauge_postgroup(fix4)
        fix6 = validate_action(Z2, tuple("abcdef"), tuple((m, m) for m in range(6)))
        pg = build_gauge_postgroup(fix6)
        assert len(pg) == 64
        assert pg.triangle == tuple(tuple(range(64)) for _ in range(64))

    def test_map_count_is_checked_before_any_map_is_built(self, monkeypatch):
        def unreachable(f, g):
            raise AssertionError("gauge_dot ran before the size check")

        monkeypatch.setattr(action_postgroup, "gauge_dot", unreachable)
        fix4 = validate_action(cyclic_group(3), ("a", "b", "c", "d"),
                               tuple(tuple([m] * 3) for m in range(4)))
        with pytest.raises(SizeCapError, match="on 81 elements"):
            build_gauge_postgroup(fix4)

    def test_astronomical_map_count_is_refused_with_a_message(self, monkeypatch):
        # 2^20000 has more decimal digits than int-to-str conversion allows
        def unreachable(*args, **kwargs):
            raise AssertionError("maps were enumerated before the size check")

        monkeypatch.setattr(action_postgroup, "product", unreachable)
        points = tuple(f"p{m}" for m in range(20_000))
        fixing = validate_action(Z2, points, tuple((m, m) for m in range(20_000)))
        with pytest.raises(SizeCapError, match="more than 2\\^64 elements"):
            build_gauge_postgroup(fixing)


# S3 acting on its three points, 6^3 = 216 gauge maps: past the table
# cap, so the post-group laws are sampled through the pointwise formulas.
# symmetric_group lists permutations in this order and composes right to
# left, so m.g = g^{-1}(m) is a right action and m.g = g(m) a left one,
# which only the trusted _of builds as a RightAction.
S3 = symmetric_group(3)
S3_PERMS = list(permutations(range(3)))
S3_POINTS = ("0", "1", "2")
S3_RIGHT = validate_action(S3, S3_POINTS, [[p.index(m) for p in S3_PERMS] for m in range(3)])
S3_LEFT_AS_RIGHT = RightAction._of(
    S3, S3_POINTS, tuple(tuple(p[m] for p in S3_PERMS) for m in range(3))
)


def gauge_laws(f, g, h):
    """The post-group laws on one triple of gauge maps, by name."""
    star, act, dot = ref.gauge_gl, gauge_act, gauge_dot
    return {
        "automorphism": act(f, dot(g, h)) == dot(act(f, g), act(f, h)),
        "weighted associativity": act(star(f, g), h) == act(f, act(g, h)),
        "star associativity": star(star(f, g), h) == star(f, star(g, h)),
    }


def s3_maps(action):
    return st.tuples(*[st.integers(0, 5)] * 3).map(lambda values: GaugeMap(action, values))


class TestGaugePostGroupPastTheCap:
    def test_the_table_is_refused(self):
        assert len(S3) ** len(S3_POINTS) == 216
        with pytest.raises(SizeCapError, match="on 216 elements"):
            build_gauge_postgroup(S3_RIGHT)

    @settings(max_examples=300, deadline=None)
    @given(f=s3_maps(S3_RIGHT), g=s3_maps(S3_RIGHT), h=s3_maps(S3_RIGHT))
    def test_laws_hold_on_sampled_triples(self, f, g, h):
        assert all(gauge_laws(f, g, h).values())

    def test_a_left_action_breaks_weighted_associativity(self):
        # negative control: validation refuses the left action, and passed
        # off as a right one it breaks weighted associativity
        with pytest.raises(ActionLawError, match="composition fails"):
            validate_action(S3, S3_POINTS, S3_LEFT_AS_RIGHT.table)
        rng = random.Random(0)
        triples = [
            [GaugeMap(S3_LEFT_AS_RIGHT, (rng.randrange(6), rng.randrange(6), rng.randrange(6)))
             for _ in range(3)]
            for _ in range(100)
        ]
        failures = [t for t in triples if not gauge_laws(*t)["weighted associativity"]]
        assert len(failures) > 50
        # the pointwise rows are still automorphisms of the pointwise product
        assert all(gauge_laws(*t)["automorphism"] for t in triples)


class TestRightActionRecord:
    def test_constructor_refuses_a_left_action(self):
        with pytest.raises(ActionLawError) as failure:
            RightAction(S3, S3_POINTS, S3_LEFT_AS_RIGHT.table)
        assert str(failure.value) == (
            "composition fails at (0, (12), (01)): (m.g).h = 1 but m.(g.h) = 2"
        )
        assert failure.value.witness == (0, 1, 2)

    def test_valid_action_survives_a_pickle_round_trip(self):
        again = pickle.loads(pickle.dumps(S3_RIGHT))
        assert type(again) is RightAction and again is not S3_RIGHT
        assert again == S3_RIGHT and again.table == S3_RIGHT.table


def _element_order(group, a):
    power, order = a, 1
    while power != group.unit:
        power = group.table[power][a]
        order += 1
    return order


class TestJson:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "action.json"
        dump_json(action_to_json(SWAP), path)
        again = load_action(path)
        assert again.points == SWAP.points
        assert again.table == SWAP.table
        assert again.group == SWAP.group

    def test_missing_point_rejected(self, tmp_path):
        obj = action_to_json(SWAP)
        del obj["action"]["q"]
        path = tmp_path / "action.json"
        dump_json(obj, path)
        with pytest.raises(ShapeError, match="missing point"):
            load_action(path)

    def test_unknown_point_rejected(self, tmp_path):
        obj = action_to_json(SWAP)
        obj["action"]["r"] = obj["action"]["p"]
        path = tmp_path / "action.json"
        dump_json(obj, path)
        with pytest.raises(ShapeError, match=r"unknown point\(s\) \['r'\]"):
            load_action(path)

    def test_unknown_group_element_rejected(self, tmp_path):
        obj = action_to_json(SWAP)
        obj["action"]["p"]["weird"] = "p"
        path = tmp_path / "action.json"
        dump_json(obj, path)
        with pytest.raises(ShapeError, match="unknown element"):
            load_action(path)

    @pytest.mark.parametrize(
        "row, message",
        [(["1", "weird"], "unknown element 'weird'"), ("1 0", "array of arrays")],
        ids=["unknown-name", "non-list-row"],
    )
    def test_malformed_group_table_rejected(self, tmp_path, row, message):
        obj = action_to_json(SWAP)
        obj["group"]["table"][1] = row
        path = tmp_path / "action.json"
        dump_json(obj, path)
        with pytest.raises(ShapeError, match=message):
            load_action(path)

    def test_law_checked_on_load(self, tmp_path):
        obj = action_to_json(SWAP)
        obj["action"]["p"]["0"] = "q"
        path = tmp_path / "action.json"
        dump_json(obj, path)
        with pytest.raises(ActionLawError):
            load_action(path)
