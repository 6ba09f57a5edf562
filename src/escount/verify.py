"""Cross-validation of the independent counting methods.

Every group admits the naive scan, the congruence-style average and the
closed count, which multiplies per-Sylow censuses; cyclic and elementary
abelian groups add the paper's closed forms.  Each METHODS entry is a
counts form: counts(group, n, budget) returns k -> count for every k <= n.
cross_check runs the methods on one case, sweep on every abelian group and
n up to two bounds, and check_reference_values checks a table of known
counts through cross_check.
"""
from __future__ import annotations

import itertools
import time
from dataclasses import dataclass, field
from typing import Mapping

from .abelian import AbelianGroup, parse_group
from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET
from .burnside import congruence_counts, orbit_count_naive
from .closed_form import (
    closed_counts,
    elementary_counts,
    formula_prime_power_n1,
    formula_prime_power_n2,
    formula_squarefree_n1,
    n_cyclic,
)
from .numtheory import factorize, integer_partitions


@dataclass
class CaseResult:
    """Each applicable method's count for one (group, n), plus agreement."""

    group: str
    n: int
    values: dict[str, int]
    skipped: dict[str, str]
    agree: bool
    elapsed_ms: dict[str, int]


@dataclass
class VerificationReport:
    """Outcome of a sweep: all cases, with the disagreeing ones singled out."""

    cases: list[CaseResult]
    disagreements: list[CaseResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.disagreements

    @property
    def unwitnessed(self) -> int:
        """Cases in which fewer than two methods ran, so nothing was compared."""
        return sum(len(case.values) < 2 for case in self.cases)


@dataclass
class ReferenceRow:
    """A known count recomputed by every applicable method, and the methods
    that the budget skipped."""

    label: str
    group: str
    n: int
    expected: int
    computed: dict[str, int]
    skipped: dict[str, str]
    match: bool


# Each method's counts form: k -> count for every k <= n.  The census
# methods take one census at n; naive and cyclic compute each k on call.
METHODS = {
    "naive": lambda group, n, budget: lambda k: orbit_count_naive(group, k, budget),
    "congruence": congruence_counts,
    "cyclic": lambda group, n, budget: lambda k: n_cyclic(group.order, k),
    "elementary": elementary_counts,
    "closed": closed_counts,
}


def applicable_methods(group: AbelianGroup) -> list[str]:
    """Names of the counting methods defined for this group, in run order."""
    names = ["naive", "congruence"]
    if group.is_cyclic():
        names.append("cyclic")
    if group.is_elementary():
        names.append("elementary")
    return names + ["closed"]


def _cases(group: AbelianGroup, names: list[str], ns: range, budget: Budget) -> list[CaseResult]:
    """cross_check's cases at every n of ns.  Each method's counts form is
    called once, at the largest n it fits the budget (a refused call is
    retried one n lower), and every smaller n is read from it; a census
    method so takes one census for all of ns.  elapsed_ms charges that call
    to its n, to the others only their reading."""
    cases = {n: CaseResult(str(group), n, {}, {}, True, {}) for n in ns}
    for name in names:
        count_at = None
        for n in reversed(ns):
            case, start = cases[n], time.perf_counter()
            try:
                count_at = count_at or METHODS[name](group, n, budget)
                case.values[name] = count_at(n)
            except BudgetExceededError as exc:
                case.skipped[name] = str(exc)
            case.elapsed_ms[name] = int(round((time.perf_counter() - start) * 1000))
    for case in cases.values():
        case.agree = len(set(case.values.values())) <= 1
    return list(cases.values())


def cross_check(
    group: AbelianGroup,
    n: int,
    methods: list[str] | None = None,
    budget: Budget = DEFAULT_BUDGET,
) -> CaseResult:
    """Run the requested (or all applicable) methods, each called once at
    this n alone, and compare the counts.  Methods whose workload exceeds
    the budget are recorded as skipped, not failed; the agreement flag
    covers the methods that did run."""
    names = methods if methods is not None else applicable_methods(group)
    unknown = [name for name in names if name not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {sorted(METHODS)}")
    return _cases(group, names, range(n, n + 1), budget)[0]


def abelian_groups_of_order(order: int) -> list[AbelianGroup]:
    """All abelian groups of the given order, one per isomorphism class."""
    if order < 1:
        raise ValueError(f"order must be >= 1, got {order}")
    per_prime = [
        [tuple((p, part) for part in parts) for parts in integer_partitions(a)]
        for p, a in factorize(order)
    ]
    groups = []
    for combo in itertools.product(*per_prime):
        factors = tuple(sorted(itertools.chain.from_iterable(combo)))
        groups.append(AbelianGroup(factors))
    return groups


def sweep(max_order: int, max_n: int, budget: Budget = DEFAULT_BUDGET) -> VerificationReport:
    """Cross-check every abelian group of order <= max_order at every
    tuple length up to max_n, in ascending order; every case equals
    cross_check's, bar elapsed_ms.  congruence, elementary and closed take
    one census per group and read every smaller n from it (_cases)."""
    if max_order < 1 or max_n < 1:
        raise ValueError("sweep needs max_order >= 1 and max_n >= 1")
    cases = []
    for order in range(1, max_order + 1):
        for group in abelian_groups_of_order(order):
            cases += _cases(group, applicable_methods(group), range(1, max_n + 1), budget)
    disagreements = [case for case in cases if not case.agree]
    return VerificationReport(cases, disagreements)


# One entry per family of known counts: its label, the paper's formula for
# the family, the methods in the order they run and the keys of `computed`
# ("formula" names the formula), and its (group spec, n, expected) cases.
_REFERENCE_TABLE = (
    (
        "two-pair pinned",
        lambda group: formula_prime_power_n2(*group.factors[0]),
        ("naive", "congruence", "cyclic", "formula"),
        (("C2", 2, 10), ("C4", 2, 76)),
    ),
    (
        "single-pair prime power",
        lambda group: formula_prime_power_n1(*group.factors[0]),
        ("formula", "cyclic", "congruence"),
        (
            ("C2", 1, 4), ("C4", 1, 10), ("C8", 1, 22), ("C16", 1, 46), ("C32", 1, 94),
            ("C3", 1, 5), ("C9", 1, 17), ("C27", 1, 53), ("C5", 1, 7), ("C7", 1, 9),
        ),
    ),
    (
        "single-pair squarefree",
        lambda group: formula_squarefree_n1(p for p, _ in group.factors),
        ("formula", "cyclic", "congruence"),
        (("C6", 1, 20), ("C10", 1, 28), ("C15", 1, 35), ("C30", 1, 140)),
    ),
)


def check_reference_values(
    budget: Budget = DEFAULT_BUDGET, known: Mapping | None = None
) -> list[ReferenceRow]:
    """Check a table of known counts against METHODS and the paper's formulas.
    A method's count is read from `known`, which maps (group, n) to counts
    by method such as a sweep's case values, or else computed by
    cross_check; a method it skips is recorded in the row's `skipped`, never
    raised, and the row matches if every count that ran does."""
    rows = []
    for label, formula, names, cases in _REFERENCE_TABLE:
        for spec, n, expected in cases:
            group = parse_group(spec)
            have = (known or {}).get((str(group), n), {})
            missing = [name for name in names if name != "formula" and name not in have]
            case = cross_check(group, n, missing, budget)
            found = have | case.values | {"formula": formula(group)}
            computed = {name: found[name] for name in names if name in found}
            rows.append(
                ReferenceRow(
                    label, str(group), n, expected, computed, case.skipped,
                    all(v == expected for v in computed.values()),
                )
            )
    return rows
