"""Closed-form counts of element-system orbits.

closed_count splits the group into its Sylow p-subgroups G_p: Aut(G) is the
product of the Aut(G_p) and fixed-point counts multiply, so each G_p gives
its census of automorphisms by the exponents of their powers' fixed counts
(_sylow_census), listed as cheaply as its kind allows and never mapping an
element, so max_group_order does not apply and the congruence method's
element images stay a separate witness.  census_count evaluates censuses,
whole or cut to a shorter tuple length, profile by profile or cycle type by
cycle type, whichever is estimated cheaper, and divides by n! * |Aut(G)|.

The paper's forms stay independent of that census and serve as witnesses:
for cyclic prime-power groups the Burnside average collapses to a sum over
the shapes and permutation cycle types, the shape exponent functions f_p
and f_2 giving the power of p each cycle type contributes, and n_cyclic
takes a product of per-prime block sums for any cyclic group.
n_cyclic_prime_power_alt regroups the shape sum; formula_prime_any_n, the
paper's form for C_p, is its e == 1 case.  n_elementary_abelian scans
GL(s, p) as one block (kernel_census on C_p^s), not split by class.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from .abelian import AbelianGroup, automorphism_chunks, kernel_census
from .budget import Budget, DEFAULT_BUDGET, IntegralityError, exact_quotient
from .glclasses import general_linear_order, gl_class_census
from .numtheory import (
    CycleType,
    cycle_index_sum,
    cycle_type_blocks,
    cycle_types,
    divisors,
    euler_phi,
    factorize,
    is_prime,
    partition_count,
    shape_orders,
    shape_parameters,
)

Matrix = tuple[tuple[int, ...], ...]


def _check_prime_power(p: int, e: int) -> None:
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")


def f_p(lam: CycleType, p: int, e: int, k: int, d: int) -> int:
    """Shape exponent for an odd prime power (also powers 2 and 4 of 2).

    Counts, weighted by level, the cycle lengths of lam that are divisible
    by d times successive powers of p; cycle lengths divisible by
    d * p**(e-k) all saturate at weight e.
    """
    _check_prime_power(p, e)
    if p == 2 and e > 2:
        raise ValueError(f"f_p needs p odd or e <= 2, got p={p}, e={e}")
    if not 1 <= k <= e:
        raise ValueError(f"level k={k} out of range 1..{e}")
    if d < 1 or (p - 1) % d:
        raise ValueError(f"order d={d} must divide p - 1 = {p - 1}")
    return _levelled_sum(lam, p, e, k, d)


def _levelled_sum(lam: CycleType, p: int, e: int, k: int, d: int) -> int:
    """f_p's sum without its input checks; f_2 takes it for d == 1."""
    n = lam.n
    total = 0
    for s in range(e - k):
        step = p**s * d
        total += (k + s) * sum(
            lam.mult(t * step) for t in range(1, n // step + 1) if t % p
        )
    step = p ** (e - k) * d
    total += e * sum(lam.mult(t * step) for t in range(1, n // step + 1))
    return total


def f_2(lam: CycleType, e: int, k: int, d: int) -> int:
    """Shape exponent for powers of 2 at least 8.

    The d == 1 shapes take f_p's levelled sum at p = 2; the d == 2 shapes
    count every odd cycle length once at weight one before the levelled
    sums start.  The two parameterizations of the all-twos shape (k = e-1
    and k = e with d == 2) give identical values.
    """
    if e < 3:
        raise ValueError(f"f_2 needs e >= 3, got {e}")
    if not 2 <= k <= e:
        raise ValueError(f"level k={k} out of range 2..{e}")
    if d not in (1, 2):
        raise ValueError(f"order d={d} must be 1 or 2")
    if d == 1:
        return _levelled_sum(lam, 2, e, k, 1)
    n = lam.n
    if k == e:
        k = e - 1
    total = sum(lam.mult(t) for t in range(1, n + 1) if t % 2)
    for s in range(1, e - k):
        step = 2**s
        total += (k + s) * sum(
            lam.mult(t * step) for t in range(1, n // step + 1) if t % 2
        )
    total += e * sum(
        lam.mult(t * 2 ** (e - k)) for t in range(1, n // 2 ** (e - k) + 1)
    )
    return total


def _shape_exponent(lam: CycleType, p: int, e: int, k: int, d: int) -> int:
    if p == 2 and e >= 3:
        return f_2(lam, e, k, d)
    return f_p(lam, p, e, k, d)


def _shape_weight(p: int, e: int, k: int, d: int) -> int:
    """Number of units modulo p**e whose order vector has shape (k, d)."""
    if p == 2 and e >= 3:
        return euler_phi(2 ** (e - k))
    return euler_phi(p ** (e - k) * d)


def _as_int(value: Fraction, what: str) -> int:
    return exact_quotient(value.numerator, value.denominator, what)


def n_cyclic_prime_power(p: int, e: int, n: int) -> int:
    """Orbit count for the cyclic group of order p**e, via the shape sum:
    n_cyclic's single-prime case."""
    _check_prime_power(p, e)
    return n_cyclic(p**e, n)


def n_cyclic_prime_power_alt(p: int, e: int, n: int) -> int:
    """Same count as n_cyclic_prime_power from the regrouped expression.

    Shapes with d > n contribute exactly 1 to every type sum, so the whole
    census can be folded into a constant term plus corrections over d <= n;
    agreement with the direct sum exercises the census totals and the
    type-sum normalization.
    """
    _check_prime_power(p, e)
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    types = list(cycle_types(n))

    if p != 2 or e <= 2:
        total = Fraction(1)
        small_d = [d for d in divisors(p - 1) if d <= n]
        for d in small_d:
            type_sum = sum(
                p ** (2 * e * sum(lam.mult(t * d) for t in range(1, n // d + 1)))
                * lam.weight()
                for lam in types
            )
            total += Fraction(euler_phi(d), euler_phi(p**e)) * (type_sum - 1)
        for k in range(1, e):
            for d in small_d:
                type_sum = sum(
                    p ** (2 * f_p(lam, p, e, k, d)) * lam.weight()
                    for lam in types
                )
                total += Fraction(euler_phi(d), p**k) * (type_sum - 1)
        return _as_int(total, f"count for C{p**e}, n={n}")

    top = sum(
        (4 ** (e * sum(lam.multiplicities)) + 4 ** (
            sum(lam.mult(t) for t in range(1, n + 1) if t % 2)
            + e * sum(lam.mult(2 * t) for t in range(1, n // 2 + 1))
        )) * lam.weight()
        for lam in types
    )
    total = Fraction(top, 2 ** (e - 1))
    for d in (1, 2):
        for k in range(2, e):
            type_sum = sum(4 ** f_2(lam, e, k, d) * lam.weight() for lam in types)
            total += Fraction(1, 2**k) * type_sum
    return _as_int(total, f"count for C{2**e}, n={n}")


def n_cyclic(m: int, n: int) -> int:
    """Orbit count for the cyclic group of order m >= 1.

    The automorphism average factors over the prime-power components of m,
    so each cycle type contributes its permutation count times a product of
    per-prime block sums, all integers; the total is divided once by
    n! * phi(m).
    """
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    factors = factorize(m)
    total = 0
    for lam in cycle_types(n):
        term = lam.permutation_count()
        for p, e in factors:
            term *= sum(
                _shape_weight(p, e, k, d) * p ** (2 * _shape_exponent(lam, p, e, k, d))
                for k, d in shape_parameters(p, e)
            )
        total += term
    return exact_quotient(
        total, math.factorial(n) * euler_phi(m), f"count for C{m}, n={n}"
    )


# A per-prime census is (p, {exponent profile (c_1, ..., c_n): count}): the
# r-th power of each counted automorphism fixes p**c_r elements.
PrimeCensus = tuple[int, Mapping[tuple[int, ...], int]]

# Cycle-type steps that one profile step costs, as timed in cheaper_census_sum.
PROFILE_STEP_COST = 3


def unit_orders(p: int, e: int) -> dict[tuple[int, ...], int]:
    """Units modulo p**e tallied by order vector, built from the shapes.

    The work grows with the number of shapes, not with the number of units.
    """
    _check_prime_power(p, e)
    census: dict[tuple[int, ...], int] = {}
    for k, d in shape_parameters(p, e):
        orders = shape_orders(p, e, k, d)
        census[orders] = census.get(orders, 0) + _shape_weight(p, e, k, d)
    return census


def unit_census(p: int, e: int, n: int) -> dict[tuple[int, ...], int]:
    """Units modulo p**e tallied by exponent profile (c_1, ..., c_n).

    The r-th power of a unit fixes p**c_r residues, where c_r counts the
    levels s whose order delta_s divides r.  The counts must add up to
    phi(p**e), the number of units.
    """
    census: dict[tuple[int, ...], int] = {}
    for orders, count in unit_orders(p, e).items():
        levels = [0] * n
        for order in orders:
            for r in range(order, n + 1, order):
                levels[r - 1] += 1
        profile = tuple(levels)
        census[profile] = census.get(profile, 0) + count
    found, expected = sum(census.values()), euler_phi(p**e)
    if found != expected:
        raise IntegralityError(
            f"unit census modulo {p**e} adds up to {found}, expected {expected}"
        )
    return census


def census_sum_by_profile(censuses: Sequence[PrimeCensus], n: int) -> int:
    """Fixed-configuration total of a product census, one profile at a time.

    Expands the product of the per-prime censuses into fixed-count profiles
    f_r = prod_p p**c_r and hands them to cycle_index_sum: about
    prod_p |census_p| * n**2 / 2 steps.
    """
    combined: dict[tuple[int, ...], int] = {(1,) * n: 1}
    for p, census in censuses:
        powers = [p**c for c in range(max(map(max, census), default=0) + 1)]
        expanded: Counter = Counter()
        for fixed, mult in combined.items():
            for profile, count in census.items():
                key = tuple(f * powers[c] for f, c in zip(fixed, profile))
                expanded[key] += mult * count
        combined = expanded
    return cycle_index_sum(combined, n)


def census_sum_by_cycle_type(censuses: Sequence[PrimeCensus], n: int) -> int:
    """The same total as census_sum_by_profile, one cycle type at a time.

    For a cycle type lambda with m_r r-cycles, the automorphism sum of
    prod_r f_r**(2 m_r) factors over the primes, so the total is
    sum_lambda (n!/z_lambda) prod_p sum_census count * p**(2 <c, m>).  The
    types come as the int8 blocks of numtheory.cycle_type_blocks, one at a
    time; the exponents <c, m> for a block and every census entry of a
    prime are one integer matrix product, in the narrowest type that holds
    n * max c, and the powers come from a per-prime table.  About
    p(n) * (sum_p |census_p| + n) steps of about 0.05 us; memory grows with
    the block size, not with p(n), as each block is dropped before the next
    is built.  The n!/z_lambda read must add up to n!.
    """
    tables = []
    for p, census in censuses:
        profiles = np.array(list(census), dtype=np.int64).reshape(len(census), n)
        counts = np.array(list(census.values()), dtype=object)
        top = int(profiles.max(initial=0)) * n
        powers = np.array([p ** (2 * x) for x in range(top + 1)], dtype=object)
        tables.append((profiles.T.astype(np.min_scalar_type(top)), counts, powers))
    total = permutations = 0
    for multiplicities, weights in cycle_type_blocks(n):
        permutations += weights.sum()
        terms = weights
        for profiles, counts, powers in tables:
            terms = terms * (powers[multiplicities @ profiles] @ counts)
        total += int(terms.sum())
        del multiplicities, weights, terms
    if permutations != math.factorial(n):
        raise IntegralityError(f"cycle types of S_{n} cover {permutations} permutations")
    return total


def cheaper_census_sum(
    censuses: Sequence[PrimeCensus], n: int
) -> Callable[[Sequence[PrimeCensus], int], int]:
    """The evaluator, by profile or by cycle type, with the lower cost estimate.

    The estimates count steps as the two evaluators' docstrings do.  Timed
    on 54 cyclic cases (orders 12 to 720720, n = 6..30; 2-vCPU Xeon, Python
    3.11), a profile step took a median of 0.16 us and a cycle-type step
    0.05 us, so a profile step counts as PROFILE_STEP_COST of them.
    """
    sizes = [len(census) for _, census in censuses]
    by_profile = PROFILE_STEP_COST * math.prod(sizes) * n * n // 2
    by_cycle_type = partition_count(n) * (sum(sizes) + n)
    if by_profile <= by_cycle_type:
        return census_sum_by_profile
    return census_sum_by_cycle_type


def census_count(
    censuses: Sequence[PrimeCensus], n: int, what: str, census_sum: Callable | None = None
) -> int:
    """Orbit count of the group `what` at tuple length n from censuses whose
    profiles have n or more entries, cut to their first n: the census at n.
    census_sum (by default the cheaper evaluator) sums them, and the total
    is divided once by n! times the product of their totals, |Aut(G)|."""
    cut = []
    for p, census in censuses:
        if len(next(iter(census))) > n:
            prefixes: dict[tuple[int, ...], int] = {}
            for profile, count in census.items():
                prefixes[profile[:n]] = prefixes.get(profile[:n], 0) + count
            census = prefixes
        cut.append((p, census))
    total = (census_sum or cheaper_census_sum(cut, n))(cut, n)
    aut_order = math.prod(sum(census.values()) for _, census in cut)
    return exact_quotient(
        total, math.factorial(n) * aut_order, f"fixed-point total for {what}, n={n}"
    )


def enumerate_invertible_matrices(
    p: int, s: int, budget: Budget = DEFAULT_BUDGET
) -> list[Matrix]:
    """All invertible s x s matrices over F_p, in itertools.product order
    over the entries: automorphism_chunks of C_p^s, their number checked
    against the closed-form group order |GL(s, p)|."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if s < 1:
        raise ValueError(f"dimension must be >= 1, got {s}")
    budget.check("max_matrix_candidates", p ** (s * s))
    chunks = automorphism_chunks(AbelianGroup(((p, 1),) * s))
    matrices = [tuple(map(tuple, mat)) for chunk in chunks for mat in chunk.tolist()]
    if len(matrices) != general_linear_order(p, s):
        raise IntegralityError(f"listed {len(matrices)} matrices of GL({s}, {p})")
    return matrices


def matrix_scan_census(
    p: int, s: int, n: int, budget: Budget = DEFAULT_BUDGET
) -> dict[tuple[int, ...], int]:
    """Invertible s x s matrices over F_p tallied by exponent profile.

    A matrix power A**r fixes p**c_r vectors, c_r = corank(A**r - I).  The
    census is abelian.kernel_census on C_p^s, one GL(s, p) block not split
    by class, once the p**(s*s) candidates pass max_matrix_candidates, which
    so caps its |GL(s, p)| * 8-byte index (8 MiB at the default budget);
    kernel_census prices the |GL(s, p)| rows it lists by max_endo_candidates.
    """
    if s < 1:
        raise ValueError(f"rank must be >= 1, got {s}")
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    budget.check("max_matrix_candidates", p ** (s * s))
    return kernel_census(AbelianGroup(((p, 1),) * s), n, budget)


def elementary_counts(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> Callable[[int], int]:
    """The orbit count of C_p^s at every tuple length k <= n, by the matrix
    scan: A**r fixes p**corank(A**r - I) elements, and as many characters,
    so the invertible matrices are tallied by that profile up to n
    (matrix_scan_census) and census_count sums the census profile by
    profile.  closed_count takes the class census (gl_class_census)."""
    p, s = group.factors[0][0], group.rank
    census = [(p, matrix_scan_census(p, s, n, budget))]
    return lambda k: census_count(census, k, f"C{p}^{s}", census_sum_by_profile)


def n_elementary_abelian(p: int, s: int, n: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Orbit count for C_p^s at n alone, the `elementary` witness of verify
    (elementary_counts)."""
    return elementary_counts(AbelianGroup(((p, 1),) * s), n, budget)(n)


def _sylow_census(
    sylow: AbelianGroup, n: int, budget: Budget
) -> Mapping[tuple[int, ...], int]:
    """Aut of a p-group tallied by exponent profile, by the lister for its
    kind: a cyclic one's unit census (its shapes, never listing units), an
    elementary one's GL(s, p) class census (never listing matrices), and
    any other's abelian.kernel_census, which prices it by its own
    max_endo_candidates and lists at most one C_p**b block per class.
    """
    p, e = sylow.factors[0]
    if sylow.is_cyclic():
        return unit_census(p, e, n)
    if sylow.is_elementary():
        return gl_class_census(p, sylow.rank, n, budget)
    return kernel_census(sylow, n, budget)


def closed_counts(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> Callable[[int], int]:
    """The orbit count at every tuple length k <= n from the per-Sylow
    censuses of the automorphisms at n (_sylow_census, census_count); the
    witnesses n_cyclic, n_elementary_abelian and orbit_count_congruence
    compute the same counts without the per-Sylow split."""
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    censuses = [
        (p, _sylow_census(AbelianGroup(tuple(factors)), n, budget))
        for p, factors in itertools.groupby(group.factors, operator.itemgetter(0))
    ]
    return lambda k: census_count(censuses, k, str(group))


def closed_count(group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Orbit count from the per-Sylow censuses at n alone (closed_counts)."""
    return closed_counts(group, n, budget)(n)


def formula_prime_power_n1(p: int, e: int) -> int:
    """Single-pair count for C_{p**e} in closed form."""
    _check_prime_power(p, e)
    if p == 2 and e >= 3:
        return 2 ** (e + 1) + 2**e - 2
    return p**e + 2 * sum(p**j for j in range(e))


def formula_prime_power_n2(p: int, e: int) -> int:
    """Two-pair count for C_{p**e} in closed form."""
    _check_prime_power(p, e)
    if p == 2:
        if e == 1:
            return 10
        if e == 2:
            return 76
        value = (
            Fraction(15, 14) * 2 ** (3 * e) + 3 * 2 ** (e + 1) - Fraction(116, 7)
        )
        return _as_int(value, f"two-pair count for C{2**e}")
    value = (
        1
        + Fraction(p ** (3 * e) - p**3, 2 * (p**3 - 1))
        + Fraction(1, p - 1)
        * (Fraction(p ** (3 * e + 1), 2) + p ** (e + 1) + p**e - p - Fraction(3, 2))
    )
    return _as_int(value, f"two-pair count for C{p**e}")


def formula_prime_any_n(p: int, n: int) -> int:
    """Count for the prime-order cyclic group C_p at any tuple length.

    The paper's form for C_p is the e == 1 case of the regrouped sum.
    """
    return n_cyclic_prime_power_alt(p, 1, n)


def formula_squarefree_n1(primes: Iterable[int]) -> int:
    """Single-pair count for a squarefree-order cyclic group: product of p + 2."""
    seen: list[int] = []
    for p in primes:
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        if p in seen:
            raise ValueError(f"prime {p} repeated; order must be squarefree")
        seen.append(p)
    return math.prod(p + 2 for p in seen)
