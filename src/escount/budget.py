"""Resource limits for the exhaustive enumeration routines.

Every brute-force path (automorphism enumeration, naive fixed-point
counting, orbit listing, matrix-group enumeration, conjugacy-class
listing) checks its workload against a budget before allocating anything,
so oversized requests fail fast with an error naming the limit that was
hit.
"""
from __future__ import annotations

import os
from dataclasses import dataclass, replace

ENV_VAR = "ESC_BUDGET"


class BudgetExceededError(RuntimeError):
    """Raised when a requested enumeration is larger than its budget allows."""

    def __init__(self, limit_name: str, limit: int, required: int):
        self.limit_name = limit_name
        self.limit = limit
        self.required = required
        super().__init__(
            f"budget exceeded: {limit_name} allows {limit}, request needs {required}"
        )


class IntegralityError(RuntimeError):
    """Raised when an orbit-count average fails to be an integer.

    The averages computed here are integral for mathematical reasons, so a
    non-integral result always indicates an implementation bug and is never
    silently rounded.
    """


def exact_quotient(total: int, denominator: int, what: str) -> int:
    """total // denominator, or IntegralityError if the division leaves a
    remainder; `what` names the total in the message."""
    quotient, remainder = divmod(total, denominator)
    if remainder:
        raise IntegralityError(f"{what}: {total} is not divisible by {denominator}")
    return quotient


@dataclass(frozen=True)
class Budget:
    """Caps on the enumeration workloads, tuned for desk-scale experiments.

    max_group_order:       largest group order for the element-by-element
                           work on automorphisms (their |G|-wide image arrays
                           and fixed-element counts: congruence, naive and
                           orbit listing), not for their scan; closed_count
                           maps no element, so it never checks this limit.
    max_endo_candidates:   largest candidate space prod gcd(m_i, m_j) of a
                           group whose automorphisms are listed.  closed_count
                           applies it to each Sylow factor it lists, and the
                           elementary witness to C_p^s, to the rows that
                           kernel_census lists.
    max_state_space:       largest number of tuples |G|^n of one half in the
                           naive scan, and of configurations |G|^(2n) for the
                           one-pair naive count and for orbit listing.
    max_naive_work:        largest total workload of a full naive orbit
                           count: group-pair count |Aut(G)| * n! times the
                           2 * |G|^n tuples each pair's two halves walk.
    max_matrix_candidates: largest number of candidate matrices p^(s*s)
                           scanned when listing an invertible matrix group
                           (checked before max_endo_candidates by the
                           elementary witness, which both limits price),
                           largest bound p^s on the GL(s, p) classes of the
                           class census, and p^b * b^2 on the entries of the
                           representatives (gl_class_representatives).
    """

    max_group_order: int = 64
    max_endo_candidates: int = 1 << 20
    max_state_space: int = 1 << 16
    max_naive_work: int = 1 << 29
    max_matrix_candidates: int = 1 << 20

    def check(self, limit_name: str, required: int) -> None:
        """Raise BudgetExceededError if `required` exceeds the named limit."""
        limit = getattr(self, limit_name)
        if required > limit:
            raise BudgetExceededError(limit_name, limit, required)


DEFAULT_BUDGET = Budget()


def budget_from_env() -> Budget:
    """Return DEFAULT_BUDGET with max_state_space overridden by ESC_BUDGET,
    if set."""
    raw = os.environ.get(ENV_VAR)
    if raw is None:
        return DEFAULT_BUDGET
    try:
        cap = int(raw)
    except ValueError as exc:
        raise ValueError(f"{ENV_VAR} must be an integer, got {raw!r}") from exc
    if cap <= 0:
        raise ValueError(f"{ENV_VAR} must be positive, got {cap}")
    return replace(DEFAULT_BUDGET, max_state_space=cap)
