"""Exact counts of isomorphism classes of element systems with characters
over finite abelian groups.

An element system with characters on a group G is an n-tuple of group
elements together with an n-tuple of characters, considered up to a group
automorphism applied to everything at once and a relabeling of the n
positions.  This package counts the classes exactly, by several independent
methods that are cross-checked against each other.  The names below are
the documented interface; every other function stays importable from its
module.
"""
from .abelian import (
    AbelianGroup,
    EndoMatrix,
    GroupParseError,
    enumerate_automorphisms,
    parse_group,
)
from .budget import Budget, BudgetExceededError, DEFAULT_BUDGET, IntegralityError
from .burnside import (
    act,
    fixed_point_report,
    fixed_points_naive,
    orbit_count_congruence,
    orbit_count_naive,
    orbit_enumerate,
    orbit_sizes,
)
from .closed_form import closed_count, n_cyclic, n_elementary_abelian
from .glclasses import general_linear_order
from .numtheory import cycle_types, euler_phi
from .verify import abelian_groups_of_order, check_reference_values, cross_check, sweep

__version__ = "0.1.0"

__all__ = [
    "AbelianGroup", "Budget", "BudgetExceededError", "DEFAULT_BUDGET", "EndoMatrix",
    "GroupParseError", "IntegralityError", "abelian_groups_of_order", "act",
    "check_reference_values", "closed_count", "cross_check", "cycle_types",
    "enumerate_automorphisms", "euler_phi", "fixed_point_report", "fixed_points_naive",
    "general_linear_order", "n_cyclic", "n_elementary_abelian", "orbit_count_congruence",
    "orbit_count_naive", "orbit_enumerate", "orbit_sizes", "parse_group", "sweep",
]
