"""Gauge post-groups from a right action of a group on a finite set.

Given a right action of G on M, the maps f: M -> G form a post-group:
the dot product is pointwise, and the action twists the argument by
the point's translate, (f |> g)(m) = g(m . f(m)).  The derived *
product f * g evaluates f at the point and g at the translate.  This
models gauge transformations over a base of points.

Enumerating all |G|^|M| maps materializes honest tables, so the
builder checks |G|^|M| against the finite layer's table-size cap
before it enumerates anything, then hands the tables to the exhaustive
post-group validator.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import product
from pathlib import Path

from .errors import ActionLawError, SchemaError, ShapeError
from .finite_postgroup import (
    GroupTable,
    PostGroupTable,
    check_size,
    validate_group,
    validate_postgroup,
)
from .interned import Record
from .jsonio import (
    _read_tables,
    check_rows,
    load_json_object,
    name_list,
    require_keys,
    rows_from_names,
    tables_to_json,
)


class RightAction(Record):
    """A right action, table[m][g] = m . g, validated by its constructor."""

    __slots__ = ("group", "points", "table")
    group: GroupTable
    points: tuple[str, ...]
    table: tuple[tuple[int, ...], ...]

    def __new__(cls, group, points, table):
        return validate_action(group, points, table)


def validate_action(
    group: GroupTable, points: Sequence[str], table: Sequence[Sequence[int]]
) -> RightAction:
    """Unit and composition laws, checked over all points and pairs."""
    if not isinstance(group, GroupTable):
        raise SchemaError(f"action group must be a GroupTable, got {type(group).__name__}")
    point_names = name_list(points, "action points")
    n_points = len(point_names)
    n_group = len(group)
    rows = check_rows(table, point_names, n_group, n_points, "action")

    e = group.unit
    for m in range(n_points):
        if rows[m][e] != m:
            raise ActionLawError(
                f"unit law fails: {point_names[m]} . e = "
                f"{point_names[rows[m][e]]}",
                witness=(m,),
            )
    for m in range(n_points):
        for g in range(n_group):
            mg = rows[m][g]
            for h in range(n_group):
                if rows[mg][h] != rows[m][group.table[g][h]]:
                    raise ActionLawError(
                        f"composition fails at ({point_names[m]}, "
                        f"{group.elements[g]}, {group.elements[h]}): "
                        f"(m.g).h = {point_names[rows[mg][h]]} but "
                        f"m.(g.h) = {point_names[rows[m][group.table[g][h]]]}",
                        witness=(m, g, h),
                    )
    return RightAction._of(group, point_names, rows)


class GaugeMap(Record):
    """A map from points to group elements, one gauge transformation."""

    __slots__ = ("action", "values")
    action: RightAction
    values: tuple[int, ...]

    def __init__(self, action: RightAction, values: tuple[int, ...]) -> None:
        if len(values) != len(action.points):
            raise ShapeError("gauge map must assign one group element per point")
        set_action, set_values = self._setters
        set_action(self, action)
        set_values(self, values)


def gauge_dot(f: GaugeMap, g: GaugeMap) -> GaugeMap:
    """(f . g)(m) = f(m) . g(m), the pointwise group product."""
    _same_action(f, g)
    mul = f.action.group.table
    return GaugeMap(
        f.action, tuple(mul[a][b] for a, b in zip(f.values, g.values))
    )


def gauge_act(f: GaugeMap, g: GaugeMap) -> GaugeMap:
    """(f |> g)(m) = g(m . f(m)), evaluation at the translated point."""
    _same_action(f, g)
    action = f.action
    return GaugeMap(
        action,
        tuple(
            g.values[action.table[m][f.values[m]]] for m in range(len(f.values))
        ),
    )


def _same_action(f: GaugeMap, g: GaugeMap) -> None:
    if f.action != g.action:
        raise ShapeError("gauge maps live over different actions")


def gauge_name(action: RightAction, values: tuple[int, ...]) -> str:
    """Tuple-style name listing group elements in point order."""
    return "(" + ",".join(action.group.elements[v] for v in values) + ")"


def enumerate_gauge_maps(action: RightAction) -> list[GaugeMap]:
    """All maps from points to the group, in lexicographic point order,
    once their number |G|^|M| has passed the table-size check."""
    n_group = len(action.group)
    n_points = len(action.points)
    check_size(n_group**n_points, "gauge post-group")
    return [
        GaugeMap(action, values)
        for values in product(range(n_group), repeat=n_points)
    ]


def build_gauge_postgroup(action: RightAction) -> PostGroupTable:
    """Materialize the post-group of all gauge maps and validate it."""
    maps = enumerate_gauge_maps(action)
    index = {f.values: i for i, f in enumerate(maps)}
    elements = tuple(gauge_name(action, f.values) for f in maps)
    dot_rows = []
    tri_rows = []
    for f in maps:
        dot_rows.append([index[gauge_dot(f, g).values] for g in maps])
        tri_rows.append([index[gauge_act(f, g).values] for g in maps])
    return validate_postgroup(elements, dot_rows, tri_rows)


def load_action(path: str | Path) -> RightAction:
    """Read an action file:

    {"group": {"elements": [...], "table": [[names]]},
     "set": [...point names...],
     "action": {point: {group element: point}}}

    The group is a named table, read as load_tables reads one; the
    action names every point once, and each of its rows every element.
    """
    obj = load_json_object(path)
    require_keys(obj, ("group", "set", "action"), context=str(path))
    g_elements, (table,) = _read_tables(obj["group"], ("table",), f"{path}: group")
    group = validate_group(g_elements, table)
    points = name_list(obj["set"], context=f"{path}: set")
    mapping = obj["action"]
    require_keys(mapping, points, f"{path}: action")
    targets = []
    for point in points:
        row_obj = mapping[point]
        require_keys(row_obj, g_elements, f"{path}: action[{point!r}]")
        targets.append([row_obj[g] for g in g_elements])
    rows = rows_from_names(points, targets, f"{path}: action")
    return validate_action(group, points, rows)


def action_to_json(action: RightAction) -> dict:
    g_names = action.group.elements
    return {
        "group": tables_to_json(g_names, table=action.group.table),
        "set": list(action.points),
        "action": {
            point: {
                g_names[g]: action.points[action.table[m][g]]
                for g in range(len(g_names))
            }
            for m, point in enumerate(action.points)
        },
    }
