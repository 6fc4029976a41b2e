"""Command line front end.

One verb per task, batch style: read JSON tables or word arguments,
print the result or a verification summary.  Exit codes: 0 when the
requested computation or check succeeds, 1 when a mathematical law
fails (the witness is printed), 2 when the input cannot be parsed or
an output file cannot be written, 141 when the reader closes stdout
before the verb has printed everything.
"""

from __future__ import annotations

import argparse
import os
import sys

from .errors import AxiomError, NotPrimitiveError, SchemaError, SizeCapError
from .jsonio import dump_json, tables_to_json
from .magma import load_magma, save_magma
from .words import word_str
from .free_postgroup import act, gl_inverse, gl_product, jmap, kmap, parse_over
from .finite_postgroup import (
    braiding,
    check_braid_laws,
    check_ybe,
    conjugation_postgroup,
    load_group,
    load_postgroup,
    load_skew_brace,
    opposite,
    save_postgroup,
    save_skew_brace,
    skew_brace_to_postgroup,
    to_skew_brace,
    trivial_postgroup,
)
from .action_postgroup import build_gauge_postgroup, load_action
from .tensor_postlie import (
    DEGREE_CAP,
    WORD_COUNT_CAP,
    Leaf,
    TensorPoly,
    format_poly,
    format_word,
    kmap_tensor,
    kmap_tensor_inverse,
    word_count,
    words_of_degree,
)

# laws and selftest are imported inside check-posthopf, magnus and
# selftest, so that the other verbs do not load them


def _resolve_seed(args: argparse.Namespace) -> int:
    env = os.environ.get("POSTGROUP_LAB_SEED")
    if env is None:
        return args.seed
    try:
        return int(env)
    except ValueError:
        raise SchemaError(f"POSTGROUP_LAB_SEED must be an integer, got {env!r}")


def cmd_validate_magma(args: argparse.Namespace) -> int:
    magma = load_magma(args.file)
    print("diagonal left-regular: OK")
    if args.out is not None:
        save_magma(magma, args.out)
    return 0


def _word_verb(op):
    """Handler that loads --magma, parses the words over it and prints op's word."""
    def handler(args: argparse.Namespace) -> int:
        magma = load_magma(args.magma)
        print(word_str(op(magma, *(parse_over(magma, w) for w in args.words))))
        return 0
    return handler


def _print_checks(checks) -> int:
    """Print each labelled check's verdict; 1 at the first failure, else 0."""
    for label, result in checks:
        if not result.ok:
            print(f"{label}: FAIL at {result.witness}")
            return 1
        print(f"{label}: OK")
    return 0


def cmd_check_postgroup(args: argparse.Namespace) -> int:
    pg = load_postgroup(args.file)
    print("post-group laws: OK")
    if _print_checks(check_braid_laws(braiding(pg)).items()):
        return 1
    to_skew_brace(pg)
    print("skew brace: OK")
    return 0


def cmd_braiding(args: argparse.Namespace) -> int:
    braid = braiding(load_postgroup(args.file))
    names = braid.elements
    for g, name_g in enumerate(names):
        for h, name_h in enumerate(names):
            a, b = braid.left[g][h], braid.right[g][h]
            print(f"sigma({name_g}, {name_h}) = ({names[a]}, {names[b]})")
    if args.out is not None:
        dump_json(tables_to_json(names, left=braid.left, right=braid.right), args.out)
    return 0


def cmd_ybe(args: argparse.Namespace) -> int:
    braid = braiding(load_postgroup(args.file))
    return _print_checks((("Yang-Baxter", check_ybe(braid)),))


def _table_verb(load, build, save):
    """Handler that loads the file, builds a table and writes it to --out or stdout."""
    def handler(args: argparse.Namespace) -> int:
        text = save(build(load(args.file)), args.out)
        if args.out is None:
            sys.stdout.write(text)
        return 0
    return handler


def cmd_kmap_tensor(args: argparse.Namespace) -> int:
    # the degree test comes first: it keeps word_count off huge degrees
    if args.degree > DEGREE_CAP or word_count(args.degree, args.generators) > WORD_COUNT_CAP:
        raise SizeCapError(
            f"--degree {args.degree} --generators {args.generators} is past the "
            f"cap of degree {DEGREE_CAP} or {WORD_COUNT_CAP} words"
        )
    image = kmap_tensor_inverse if args.inverse else kmap_tensor
    label = "K^-1" if args.inverse else "K"
    for word in words_of_degree(args.degree, args.generators):
        value = image(TensorPoly.from_word(word))
        print(f"{label}({format_word(word)}) = {format_poly(value)}")
    return 0


def cmd_check_posthopf(args: argparse.Namespace) -> int:
    from .laws import check_posthopf_laws

    ok, detail = check_posthopf_laws(args.degree)
    print(f"operator and bracket axioms: {'OK' if ok else 'FAIL'}; {detail}")
    return 0 if ok else 1


def cmd_magnus(args: argparse.Namespace) -> int:
    from .laws import magnus_identities

    omega, checks = magnus_identities(Leaf(0), args.order)
    for k, coeff in enumerate(omega.coeffs):
        print(f"Omega[{k}] = {format_poly(coeff)}")
    for label, report in checks:
        if report.ok:
            print(f"{label}: OK")
        else:
            print(f"{label}: FAIL ({report.witness})")
    return 0 if all(report.ok for _, report in checks) else 1


def cmd_selftest(args: argparse.Namespace) -> int:
    from .selftest import run_acceptance

    results = run_acceptance(seed=_resolve_seed(args), level=args.level)
    for result in results:
        verdict = "PASS" if result.ok else "FAIL"
        print(f"{verdict} {result.name}: {result.detail} ({result.seconds:.2f}s)")
    passed = sum(1 for r in results if r.ok)
    print(f"{passed}/{len(results)} criteria passed")
    return 0 if passed == len(results) else 1


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must not be negative")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="postgroup-lab",
        description="Exact arithmetic for post-groups, braidings, and the twist map.",
    )
    sub = parser.add_subparsers(dest="verb", required=True, metavar="verb")

    def verb(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=handler)
        return p

    p = verb("validate-magma", cmd_validate_magma, "check a magma file")
    p.add_argument("file")
    p.add_argument("--out", help="rewrite the validated table")

    for name, op, arity, help in (
        ("act", act, 2, "apply a word to a word"),
        ("star", gl_product, 2, "second group product of two words"),
        ("star-inv", gl_inverse, 1, "inverse for the second group product"),
        ("jmap", jmap, 1, "isomorphism onto the second group"),
        ("kmap", kmap, 1, "inverse of jmap"),
    ):
        p = verb(name, _word_verb(op), help)
        p.add_argument("--magma", required=True)
        p.add_argument("words", nargs=arity, metavar="word")

    p = verb("check-postgroup", cmd_check_postgroup, "full law suite for a table")
    p.add_argument("file")

    p = verb("braiding", cmd_braiding, "print the derived braiding")
    p.add_argument("file")
    p.add_argument("--out", help="also write the braiding as JSON")

    p = verb("ybe", cmd_ybe, "check the Yang-Baxter equation")
    p.add_argument("file")

    for name, source, load, build, save, help in (
        ("to-brace", "file", load_postgroup, to_skew_brace, save_skew_brace,
         "post-group file to skew brace file"),
        ("from-brace", "file", load_skew_brace, skew_brace_to_postgroup,
         save_postgroup, "skew brace file to post-group file"),
        ("opposite", "file", load_postgroup, opposite, save_postgroup,
         "opposite post-group of a table"),
        ("make-trivial", "--group", load_group, trivial_postgroup, save_postgroup,
         "trivial post-group on a group"),
        ("make-conjugation", "--group", load_group, conjugation_postgroup,
         save_postgroup, "conjugation post-group"),
        ("from-action", "file", load_action, build_gauge_postgroup, save_postgroup,
         "gauge post-group of a right action"),
    ):
        p = verb(name, _table_verb(load, build, save), help)
        if source == "file":
            p.add_argument("file")
        else:
            p.add_argument("--group", dest="file", metavar="GROUP", required=True)
        p.add_argument("--out", help="write here instead of stdout")

    p = verb("kmap-tensor", cmd_kmap_tensor, "twist map on a homogeneous basis")
    p.add_argument("--generators", type=_positive, required=True)
    p.add_argument("--degree", type=_nonnegative, required=True)
    p.add_argument("--inverse", action="store_true")

    p = verb("check-posthopf", cmd_check_posthopf, "operator axiom sweep")
    p.add_argument("--degree", type=_nonnegative, required=True)

    p = verb("magnus", cmd_magnus, "series solver with identity checks")
    p.add_argument("--order", type=_nonnegative, required=True)

    p = verb("selftest", cmd_selftest, "run the acceptance criteria")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--level", choices=("quick", "full"), default="quick")

    return parser


def main(argv=None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # a closed stdout fails here, not in the flush at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so that the flush
        # at exit prints nothing, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def _run(argv) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (AxiomError, NotPrimitiveError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
