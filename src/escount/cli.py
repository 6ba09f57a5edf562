"""Command-line interface: count orbits for one group, cross-verify the
counting methods over a range of groups, or tabulate counts for many groups.

    escount count --group SPEC --n N [--method M] [--format F]
    escount verify [--max-order K] [--max-n N] [--format F]
    escount table (--groups SPECS | --all-orders K) --n N [--format F]

COMMANDS is the one table of each command's flags: parse_args reads argv
from it and the help prints it.

Exit codes: 0 success; 1 verification found a disagreement or reference
mismatch; 2 malformed input (group spec, flags, or ESC_BUDGET); 3 workload
over budget (for `table`, some group was refused; the rows of the others
are still printed); 4 the requested methods disagree with each other.
"""
from __future__ import annotations

import csv
import json
import sys
from dataclasses import astuple, dataclass, fields
from types import SimpleNamespace
from typing import Callable, NamedTuple, NoReturn

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

DESCRIPTION = (
    "Count isomorphism classes of element systems with characters "
    "over finite abelian groups."
)

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
    # vars() gives the fields in order without asdict's deep copies.
    json.dump([vars(r) for r in records], out, indent=2)
    out.write("\n")


_EMITTERS = {"text": _emit_text, "csv": _emit_csv, "json": _emit_json}


def _positive_int(raw: str) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None
    if value < 1:
        raise ValueError(f"expected a positive integer, got {value}")
    return value


class Flag(NamedTuple):
    """One `--name VALUE` flag of a command.  `kind` converts the raw value
    (raising ValueError with the reason) or is the tuple of accepted values.
    Of the flags marked `one_of` in a command, exactly one must be given."""

    name: str
    kind: Callable[[str], object] | tuple[str, ...]
    help: str
    default: object = None
    required: bool = False
    one_of: bool = False

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")

    @property
    def usage(self) -> str:
        value = self.dest.upper() if callable(self.kind) else "{" + ",".join(self.kind) + "}"
        return f"{self.name} {value}"


_FORMAT = Flag("--format", tuple(sorted(_EMITTERS)), "output format", "text")
_N = Flag("--n", _positive_int, "tuple length", required=True)

# The one table the parser reads and the help prints: per command, its
# one-line summary and its flags in usage order.
COMMANDS: dict[str, tuple[str, tuple[Flag, ...]]] = {
    "count": ("count orbits for one group", (
        Flag("--group", str, "group spec, e.g. C12 or C2^2xC9", required=True),
        _N,
        Flag("--method", METHOD_CHOICES,
             "counting method (all = run every method and compare)", "closed"),
        _FORMAT,
    )),
    "verify": ("cross-check methods over small groups", (
        Flag("--max-order", _positive_int, "largest group order swept", 16),
        Flag("--max-n", _positive_int, "largest tuple length swept", 2),
        _FORMAT,
    )),
    "table": ("tabulate counts for several groups", (
        Flag("--groups", str, "comma-separated group specs", one_of=True),
        Flag("--all-orders", _positive_int, "all abelian groups of order <= ALL_ORDERS",
             one_of=True),
        _N,
        _FORMAT,
    )),
}

_HELP = ("-h", "--help")


def _usage(command: str | None) -> str:
    if command is None:
        return "usage: escount [-h] {" + ",".join(COMMANDS) + "} ..."
    flags = COMMANDS[command][1]
    one_of = " | ".join(flag.usage for flag in flags if flag.one_of)
    parts = []
    for flag in flags:
        if flag.one_of:
            if one_of:
                parts.append(f"({one_of})")
                one_of = ""
        else:
            parts.append(flag.usage if flag.required else f"[{flag.usage}]")
    return f"usage: escount {command} [-h] " + " ".join(parts)


def _help(command: str | None) -> NoReturn:
    """Print the usage and the table rows of `command` (or of every
    command), and exit 0."""
    if command is None:
        about = DESCRIPTION
        rows = [(name, summary) for name, (summary, _) in COMMANDS.items()]
        rows.append(("-h, --help", "show this help and exit; COMMAND -h lists its flags"))
    else:
        about = COMMANDS[command][0]
        rows = [
            (flag.usage, flag.help + ("" if flag.default is None else f"; default {flag.default}"))
            for flag in COMMANDS[command][1]
        ]
        rows.append(("-h, --help", "show this help and exit"))
    width = max(len(left) for left, _ in rows)
    print(f"{_usage(command)}\n\n{about}\n")
    for left, right in rows:
        print(f"  {left.ljust(width)}  {right}")
    raise SystemExit(EXIT_OK)


def _error(command: str | None, message: str) -> NoReturn:
    prog = "escount" if command is None else f"escount {command}"
    print(f"{_usage(command)}\n{prog}: error: {message}", file=sys.stderr)
    raise SystemExit(EXIT_PARSE_ERROR)


def _value(command: str, flag: Flag, raw: str) -> object:
    if callable(flag.kind):
        try:
            return flag.kind(raw)
        except ValueError as exc:
            _error(command, f"argument {flag.name}: {exc}")
    if raw not in flag.kind:
        choices = ", ".join(map(repr, flag.kind))
        _error(command, f"argument {flag.name}: invalid choice: {raw!r} (choose from {choices})")
    return raw


def parse_args(argv: list[str]) -> SimpleNamespace:
    """The command of `argv` and every flag of its COMMANDS row, given or
    defaulted.  Flags come as `--name value` or `--name=value`, names
    matched in full, never by prefix; the last of a repeated flag wins, and
    a value may not start with '-' unless it is a negative number.
    -h/--help prints the help and exits 0; malformed input prints the usage
    and an error line on stderr and exits 2."""
    command = argv[0] if argv else None
    if command in _HELP:
        _help(None)
    if command not in COMMANDS:
        what = "expected a command" if command is None else f"invalid command {command!r}"
        _error(None, f"{what} (choose from {', '.join(COMMANDS)})")
    flags = COMMANDS[command][1]
    by_name = {flag.name: flag for flag in flags}
    given = {}
    rest = iter(argv[1:])
    for arg in rest:
        if arg in _HELP:
            _help(command)
        name, eq, raw = arg.partition("=")
        flag = by_name.get(name)
        if flag is None:
            _error(command, f"unrecognized argument {arg!r}")
        if not eq:
            raw = next(rest, None)
            if raw is None or (raw.startswith("-") and not raw[1:2].isdigit()):
                _error(command, f"argument {name}: expected one value")
        given[flag.dest] = _value(command, flag, raw)
    missing = [flag.name for flag in flags if flag.required and flag.dest not in given]
    if missing:
        _error(command, f"the following arguments are required: {', '.join(missing)}")
    one_of = [flag.name for flag in flags if flag.one_of]
    chosen = [flag.name for flag in flags if flag.one_of and flag.dest in given]
    if one_of and not chosen:
        _error(command, f"one of the arguments {' '.join(one_of)} is required")
    if len(chosen) > 1:
        _error(command, f"argument {chosen[1]}: not allowed with argument {chosen[0]}")
    return SimpleNamespace(
        command=command, **{flag.dest: given.get(flag.dest, flag.default) for flag in flags}
    )


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
    known = {(case.group, case.n): case.values for case in report.cases}
    references = check_reference_values(budget, known)
    mismatches = [row for row in references if not row.match]
    ok = report.ok and not mismatches

    if args.format == "json":
        # vars() gives the fields in order without asdict's deep copies.
        payload = {
            "cases": [
                vars(c) | {"values": _strings(c.values)} for c in report.cases
            ],
            "references": [
                vars(r) | {"expected": str(r.expected), "computed": _strings(r.computed)}
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
                for method, reason in row.skipped.items():
                    print(f"skipped reference {row.group} n={row.n} {method}: {reason}")
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
    args = parse_args(sys.argv[1:] if argv is None else argv)
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
