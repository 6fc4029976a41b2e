"""Regenerate the sample tables in data/ from the library itself.

Run from anywhere:  python scripts/make_corpus.py
"""

from pathlib import Path

from postgroup_lab.action_postgroup import action_to_json, validate_action
from postgroup_lab.finite_postgroup import (
    conjugation_postgroup,
    cyclic_group,
    save_postgroup,
    symmetric_group,
    trivial_postgroup,
)
from postgroup_lab.jsonio import dump_json
from postgroup_lab.magma import save_magma, shift_family_magma

DATA = Path(__file__).resolve().parent.parent / "data"


def main() -> None:
    DATA.mkdir(exist_ok=True)
    save_magma(shift_family_magma((0, 0, 0)), DATA / "trivial3.json")
    save_magma(shift_family_magma((1, 1, 1)), DATA / "shift3.json")
    save_postgroup(conjugation_postgroup(symmetric_group(3)), DATA / "s3-conj.json")
    save_postgroup(trivial_postgroup(cyclic_group(3)), DATA / "z3-trivial.json")
    fixing = validate_action(cyclic_group(2), ("p", "q"), ((0, 0), (1, 1)))
    dump_json(action_to_json(fixing), DATA / "z2-fix2-action.json")
    for path in sorted(DATA.iterdir()):
        print(f"wrote {path.relative_to(DATA.parent)}")


if __name__ == "__main__":
    main()
