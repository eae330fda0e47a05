"""Command line entry points.

One subcommand per invocation, each a row of ``_COMMANDS``, the table the
parser is built from. A row's handler reads its inputs, prints the answer and
returns ``(payload, exit_code)``; ``run`` writes the payload to ``--json OUT``
when given. Exit codes: 0 for success or a positive answer, 1 for usage,
parsing, input-validation, or budget errors, 2 for a negative answer (no
witness, not isometric, counterexample inapplicable, verification failure).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

from . import verify
from .errors import NoLongPath, NotUS, ParseError, UltratreeError
from .labelings import build_ultrametric, counterexample_labeling
from .rationals import parse_rational
from .serialize import (
    labeled_tree_from_dict,
    labeled_tree_to_dict,
    space_from_dict,
    space_to_dict,
    tree_from_dict,
)
from .spaces import check_isometric, realize_as_star, us_witness
from .trees import classify
from .verify import DEFAULT_CASE_BUDGET, report_to_dict

# the sweep in ``verify`` for each --theorem, looked up per call so a patched binding applies
_THEOREMS = {
    "nondeg": "verify_theorem_nondegeneracy",
    "main": "verify_main_theorem",
    "lemmas": "verify_structure_lemmas",
    "classify": "verify_classification",
}


def _load(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.loads(fh.read())
        except ValueError as err:  # not UTF-8, bad JSON, or an integer past int's digit limit
            raise ParseError(str(err)) from None


def _distance(args):
    lt = labeled_tree_from_dict(_load(args.file))
    payload = space_to_dict(build_ultrametric(lt))  # each distinct value formatted once
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["", *payload["points"]])
    for name, row in zip(payload["points"], payload["dist"]):
        writer.writerow([name, *row])
    return payload, 0


def _check_us(args):
    space = space_from_dict(_load(args.file))
    witness = us_witness(space)
    print(witness if witness is not None else "NOT-US")
    return {"witness": witness}, 0 if witness is not None else 2


def _realize(args):
    space = space_from_dict(_load(args.file))
    payload = labeled_tree_to_dict(realize_as_star(space))
    print(json.dumps(payload, indent=2))
    return payload, 0


def _classify(args):
    result = classify(tree_from_dict(_load(args.file)))
    print(result.tag.value)
    return {"tag": result.tag.value, "centers": list(result.centers)}, 0


def _isometric(args):
    a = space_from_dict(_load(args.first))
    b = space_from_dict(_load(args.second))
    result = check_isometric(a, b)
    print("true" if result else "false")
    return {"isometric": result}, 0 if result else 2


def _counterexample(args):
    tree = tree_from_dict(_load(args.file))
    payload = labeled_tree_to_dict(counterexample_labeling(tree))
    print(json.dumps(payload, indent=2))
    return payload, 0


def _verify(args):
    pieces = [s.strip() for s in args.values.split(",") if s.strip()]
    values = [parse_rational(s) for s in pieces]
    grid = (values,) if args.theorem != "lemmas" else ()  # lemmas checks trees only
    if grid and not values:
        raise ValueError("--values must name at least one rational")
    if args.budget > DEFAULT_CASE_BUDGET:
        print(
            f"note: budget raised to {args.budget}, large grids can take minutes",
            file=sys.stderr,
        )
    sweep = getattr(verify, _THEOREMS[args.theorem])
    report = sweep(args.max_order, *grid, budget=args.budget, jobs=args.jobs)

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
    return report_to_dict(report), 0 if report.status == "pass" else 2


_SPACE = {"file": dict(help="space JSON")}
# name: (handler, help, {positional input or option: add_argument keywords}, help of --json OUT)
_COMMANDS = {
    "distance": (
        _distance, "distance matrix of a labeled tree, as CSV",
        {"file": dict(help="labeled tree JSON")}, "also write the space as JSON",
    ),
    "check-us": (_check_us, "witness point of a space, or NOT-US", _SPACE, None),
    "realize": (_realize, "labeled star generating a space", _SPACE, None),
    "classify": (
        _classify, "Star, DoubleStar, or Other",
        {"file": dict(help="tree JSON (labels, if present, are ignored)")}, None,
    ),
    "isometric": (
        _isometric, "whether two spaces are isometric",
        {"first": dict(help="space JSON"), "second": dict(help="space JSON")}, None,
    ),
    "counterexample": (
        _counterexample, "labeling of a long-path tree whose space is not star generated",
        {"file": dict(help="tree JSON")}, None,
    ),
    "verify": (
        _verify, "exhaustive theorem verification",
        {
            "--theorem": dict(required=True, choices=list(_THEOREMS)),
            "--max-order": dict(type=int, default=6, metavar="N"),
            "--values": dict(default="0,1,2", help="comma-separated label values, "
                             "parsed but not used for lemmas (default 0,1,2)"),
            "--jobs": dict(type=int, default=1, metavar="K"),
            "--budget": dict(type=int, default=DEFAULT_CASE_BUDGET,
                             help=f"maximum predicted cases (default {DEFAULT_CASE_BUDGET})"),
        },
        "write the report as JSON",
    ),
}


@functools.cache  # built once per process: parsing leaves the parser as it was
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultratree",
        description="Ultrametric spaces generated by vertex-labeled trees",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (handler, text, arguments, json_help) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        for argument, keywords in arguments.items():
            p.add_argument(argument, **keywords)
        p.add_argument("--json", metavar="OUT", help=json_help)
        p.set_defaults(handler=handler)
    return parser


def run(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 1
    try:
        payload, code = args.handler(args)
        if args.json:
            with open(args.json, "w", encoding="utf-8") as fh:
                print(json.dumps(payload, indent=2), file=fh)
        return code
    except UltratreeError as err:
        print(f"error[{err.code}]: {err}", file=sys.stderr)
        return 2 if isinstance(err, (NotUS, NoLongPath)) else 1  # a negative answer, or an error
    except OSError as err:
        print(f"error[io]: {err}", file=sys.stderr)
        return 1
    except RecursionError as err:  # json recurses per nesting level
        print(f"error[parse-error]: {err}", file=sys.stderr)
        return 1
    except ValueError as err:
        print(f"error[usage]: {err}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
