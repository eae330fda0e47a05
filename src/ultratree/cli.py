"""Command line entry points.

One subcommand per invocation. Exit codes: 0 for success or a positive
answer, 1 for usage, parsing, input-validation, or budget errors, 2 for a
negative answer (no witness, not isometric, counterexample inapplicable,
verification failure).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .errors import NoLongPath, NotUS, UltratreeError
from .labelings import build_ultrametric, counterexample_labeling
from .rationals import format_rational, parse_rational
from .serialize import (
    labeled_tree_from_dict,
    labeled_tree_to_dict,
    space_from_dict,
    space_to_dict,
    tree_from_dict,
)
from .spaces import check_isometric, realize_as_star, us_witness
from .trees import classify
from .verify import (
    DEFAULT_CASE_BUDGET,
    report_to_dict,
    verify_classification,
    verify_main_theorem,
    verify_structure_lemmas,
    verify_theorem_nondegeneracy,
)


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit_json(obj, path):
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2)
            fh.write("\n")


def _cmd_distance(args) -> int:
    lt = labeled_tree_from_dict(_load(args.file))
    space = build_ultrametric(lt)
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow([""] + list(space.points))
    for name, row in zip(space.points, space.dist):
        writer.writerow([name] + [format_rational(x) for x in row])
    _emit_json(space_to_dict(space), args.json)
    return 0


def _cmd_check_us(args) -> int:
    space = space_from_dict(_load(args.file))
    witness = us_witness(space)
    print(witness if witness is not None else "NOT-US")
    _emit_json({"witness": witness}, args.json)
    return 0 if witness is not None else 2


def _cmd_realize(args) -> int:
    space = space_from_dict(_load(args.file))
    payload = labeled_tree_to_dict(realize_as_star(space))
    print(json.dumps(payload, indent=2))
    _emit_json(payload, args.json)
    return 0


def _cmd_classify(args) -> int:
    result = classify(tree_from_dict(_load(args.file)))
    print(result.tag.value)
    _emit_json({"tag": result.tag.value, "centers": list(result.centers)}, args.json)
    return 0


def _cmd_isometric(args) -> int:
    a = space_from_dict(_load(args.first))
    b = space_from_dict(_load(args.second))
    result = check_isometric(a, b)
    print("true" if result else "false")
    _emit_json({"isometric": result}, args.json)
    return 0 if result else 2


def _cmd_counterexample(args) -> int:
    tree = tree_from_dict(_load(args.file))
    payload = labeled_tree_to_dict(counterexample_labeling(tree))
    print(json.dumps(payload, indent=2))
    _emit_json(payload, args.json)
    return 0


def _cmd_verify(args) -> int:
    pieces = [s.strip() for s in args.values.split(",") if s.strip()]
    values = [parse_rational(s) for s in pieces]
    if not values and args.theorem != "lemmas":
        raise ValueError("--values must name at least one rational")
    if args.budget > DEFAULT_CASE_BUDGET:
        print(
            f"note: budget raised to {args.budget}, large grids can take minutes",
            file=sys.stderr,
        )
    kwargs = {"budget": args.budget, "jobs": args.jobs}
    if args.theorem == "nondeg":
        report = verify_theorem_nondegeneracy(args.max_order, values, **kwargs)
    elif args.theorem == "main":
        report = verify_main_theorem(args.max_order, values, **kwargs)
    elif args.theorem == "lemmas":
        report = verify_structure_lemmas(args.max_order, **kwargs)
    else:
        report = verify_classification(args.max_order, values, **kwargs)

    params = report.parameters
    values_text = ",".join(params["values"]) if params["values"] else "-"
    print(f"theorem: {report.theorem}")
    print(f"max order: {params['max_order']}  values: {values_text}")
    print(f"cases checked: {report.cases_checked}")
    for claim, mode in report.subchecks.items():
        print(f"subcheck [{mode}]: {claim}")
    print(f"elapsed: {report.elapsed_ms:.0f} ms")
    print(f"status: {report.status.upper()} ({len(report.failures)} failures)")
    for cert in report.failures[:5]:
        print(
            f"  violated: {cert.claim_violated} on a tree of order {cert.tree.order}",
            file=sys.stderr,
        )
    _emit_json(report_to_dict(report), args.json)
    return 0 if report.status == "pass" else 2


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Ultrametric spaces generated by vertex-labeled trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("distance", help="distance matrix of a labeled tree, as CSV")
    p.add_argument("file", help="labeled tree JSON")
    p.add_argument("--json", metavar="OUT", help="also write the space as JSON")
    p.set_defaults(handler=_cmd_distance)

    p = sub.add_parser("check-us", help="witness point of a space, or NOT-US")
    p.add_argument("file", help="space JSON")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(handler=_cmd_check_us)

    p = sub.add_parser("realize", help="labeled star generating a space")
    p.add_argument("file", help="space JSON")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(handler=_cmd_realize)

    p = sub.add_parser("classify", help="Star, DoubleStar, or Other")
    p.add_argument("file", help="tree JSON (labels, if present, are ignored)")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(handler=_cmd_classify)

    p = sub.add_parser("isometric", help="whether two spaces are isometric")
    p.add_argument("first", help="space JSON")
    p.add_argument("second", help="space JSON")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(handler=_cmd_isometric)

    p = sub.add_parser(
        "counterexample",
        help="labeling of a long-path tree whose space is not star generated",
    )
    p.add_argument("file", help="tree JSON")
    p.add_argument("--json", metavar="OUT")
    p.set_defaults(handler=_cmd_counterexample)

    p = sub.add_parser("verify", help="exhaustive theorem verification")
    p.add_argument(
        "--theorem",
        required=True,
        choices=["nondeg", "main", "lemmas", "classify"],
    )
    p.add_argument("--max-order", type=int, default=6, metavar="N")
    p.add_argument(
        "--values",
        default="0,1,2",
        help="comma-separated label values, parsed but not used for lemmas (default 0,1,2)",
    )
    p.add_argument("--jobs", type=int, default=1, metavar="K")
    p.add_argument(
        "--budget",
        type=int,
        default=DEFAULT_CASE_BUDGET,
        help=f"maximum predicted cases (default {DEFAULT_CASE_BUDGET})",
    )
    p.add_argument("--json", metavar="OUT", help="write the report as JSON")
    p.set_defaults(handler=_cmd_verify)

    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        return args.handler(args)
    except (NotUS, NoLongPath) as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2
    except UltratreeError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error[io]: {err}", file=sys.stderr)
        return 1
    except (json.JSONDecodeError, RecursionError) as err:  # json recurses per nesting level
        print(f"error[parse-error]: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error[usage]: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
