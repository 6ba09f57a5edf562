"""Command-line interface: count orbits for one group, cross-verify the
counting methods over a range of groups, or tabulate counts for many groups.

Exit codes: 0 success; 1 verification found a disagreement or reference
mismatch; 2 malformed input (group spec, flags, or ESC_BUDGET); 3 workload
over budget (for `table`, some group was refused; the rows of the others
are still printed); 4 the requested methods disagree with each other.
"""
from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import asdict, astuple, dataclass, fields
from functools import cache

from .abelian import GroupParseError, parse_group
from .budget import Budget, budget_from_env
from .verify import (
    CaseResult,
    abelian_groups_of_order,
    check_reference_values,
    cross_check,
    sweep,
)

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_PARSE_ERROR = 2
EXIT_BUDGET = 3
EXIT_DISAGREEMENT = 4

# `count --method` choices: verify methods in the order "all" runs them, then "all".
METHOD_CHOICES = ("closed", "congruence", "naive", "all")


@dataclass
class OutputRecord:
    """One computed count; `count` is a decimal string to keep full precision
    in every output format."""

    group: str
    n: int
    method: str
    count: str
    elapsed_ms: int


_FIELDS = tuple(field.name for field in fields(OutputRecord))


def _emit_text(records: list[OutputRecord], out) -> None:
    table = [_FIELDS] + [tuple(map(str, astuple(r))) for r in records]
    widths = [max(len(row[col]) for row in table) for col in range(len(_FIELDS))]
    for row in table:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip(), file=out)


def _emit_csv(records: list[OutputRecord], out) -> None:
    writer = csv.writer(out)
    writer.writerow(_FIELDS)
    writer.writerows(map(astuple, records))


def _emit_json(records: list[OutputRecord], out) -> None:
    json.dump([asdict(r) for r in records], out, indent=2)
    out.write("\n")


_EMITTERS = {"text": _emit_text, "csv": _emit_csv, "json": _emit_json}


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {value}")
    return value


@cache
def build_parser() -> argparse.ArgumentParser:
    """The escount parser, built once per process for every call of main."""
    parser = argparse.ArgumentParser(
        prog="escount",
        description=(
            "Count isomorphism classes of element systems with characters "
            "over finite abelian groups."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    count = sub.add_parser("count", help="count orbits for one group")
    count.add_argument("--group", required=True, help="group spec, e.g. C12 or C2^2xC9")
    count.add_argument("--n", required=True, type=_positive_int, help="tuple length")
    count.add_argument(
        "--method",
        choices=METHOD_CHOICES,
        default="closed",
        help="counting method (all = run every method and compare)",
    )
    count.add_argument("--format", choices=sorted(_EMITTERS), default="text")

    verify = sub.add_parser("verify", help="cross-check methods over small groups")
    verify.add_argument("--max-order", type=_positive_int, default=16)
    verify.add_argument("--max-n", type=_positive_int, default=2)
    verify.add_argument("--format", choices=sorted(_EMITTERS), default="text")

    table = sub.add_parser("table", help="tabulate counts for several groups")
    which = table.add_mutually_exclusive_group(required=True)
    which.add_argument("--groups", help="comma-separated group specs")
    which.add_argument(
        "--all-orders", type=_positive_int, help="all abelian groups of order <= K"
    )
    table.add_argument("--n", required=True, type=_positive_int, help="tuple length")
    table.add_argument("--format", choices=sorted(_EMITTERS), default="text")

    return parser


def _records(cases: list[CaseResult]) -> list[OutputRecord]:
    """One record per count, case by case in method order."""
    return [
        OutputRecord(case.group, case.n, method, str(value), case.elapsed_ms[method])
        for case in cases
        for method, value in case.values.items()
    ]


def _strings(counts: dict[str, int]) -> dict[str, str]:
    """Counts as decimal strings, as every output format prints them."""
    return {method: str(value) for method, value in counts.items()}


def cmd_count(args, budget: Budget) -> int:
    group = parse_group(args.group)
    names = list(METHOD_CHOICES[:-1]) if args.method == "all" else [args.method]
    case = cross_check(group, args.n, names, budget)
    for name, reason in case.skipped.items():
        print(f"skipped {name}: {reason}", file=sys.stderr)
    if not case.values:
        print("error: no method fit within the budget", file=sys.stderr)
        return EXIT_BUDGET
    _EMITTERS[args.format](_records([case]), sys.stdout)
    if not case.agree:
        print("error: methods disagree", file=sys.stderr)
        return EXIT_DISAGREEMENT
    return EXIT_OK


def cmd_verify(args, budget: Budget) -> int:
    report = sweep(args.max_order, args.max_n, budget)
    references = check_reference_values(budget)
    mismatches = [row for row in references if not row.match]
    ok = report.ok and not mismatches

    if args.format == "json":
        payload = {
            "cases": [
                asdict(c) | {"values": _strings(c.values)} for c in report.cases
            ],
            "references": [
                asdict(r) | {"expected": str(r.expected), "computed": _strings(r.computed)}
                for r in references
            ],
            "disagreements": len(report.disagreements),
            "mismatches": len(mismatches),
            "unwitnessed": report.unwitnessed,
            "ok": ok,
        }
        json.dump(payload, sys.stdout, indent=2)
        sys.stdout.write("\n")
    else:
        _EMITTERS[args.format](_records(report.cases), sys.stdout)
        if args.format == "text":
            for case in report.cases:
                for method, reason in case.skipped.items():
                    print(f"skipped {case.group} n={case.n} {method}: {reason}")
            for case in report.disagreements:
                print(f"DISAGREE {case.group} n={case.n}: {case.values}")
            for row in references:
                status = "ok" if row.match else "MISMATCH"
                print(
                    f"reference {row.label} {row.group} n={row.n} "
                    f"expected={row.expected} computed={row.computed} {status}"
                )
            print(
                f"cases: {len(report.cases)}  disagreements: {len(report.disagreements)}  "
                f"references: {len(references)}  mismatches: {len(mismatches)}  "
                f"unwitnessed: {report.unwitnessed}"
            )
    return EXIT_OK if ok else EXIT_VERIFY_FAILED


def cmd_table(args, budget: Budget) -> int:
    if args.groups is not None:
        groups = [parse_group(spec) for spec in args.groups.split(",")]
    else:
        groups = [
            group
            for order in range(1, args.all_orders + 1)
            for group in abelian_groups_of_order(order)
        ]
    cases = [cross_check(group, args.n, ["closed"], budget) for group in groups]
    for case in cases:
        for reason in case.skipped.values():
            print(f"error: {case.group}: {reason}", file=sys.stderr)
    _EMITTERS[args.format](_records(cases), sys.stdout)
    return EXIT_BUDGET if any(case.skipped for case in cases) else EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        budget = budget_from_env()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    command = {"count": cmd_count, "verify": cmd_verify, "table": cmd_table}[args.command]
    try:
        return command(args, budget)
    except GroupParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR


if __name__ == "__main__":
    sys.exit(main())
