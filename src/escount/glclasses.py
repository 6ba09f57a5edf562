"""The conjugacy classes of GL(s, p) and the census they give.

GL(s, p) is the automorphism group of C_p^s.  Its classes are listed from
the monic irreducibles over F_p, tallied by degree and root order, so no
matrix or polynomial is ever built; each class carries its size and the
exponents of its powers' fixed-point counts.  closed_form evaluates the
census they add up to, and its matrix scan stays as the witness.
"""
from __future__ import annotations

import math
import operator
from collections import Counter
from typing import Iterator

from .budget import Budget, DEFAULT_BUDGET, IntegralityError
from .numtheory import (
    divisors,
    euler_phi,
    integer_partitions,
    is_prime,
    multiplicative_order,
)


def general_linear_order(p: int, s: int) -> int:
    """Order of the group of invertible s x s matrices over the p-element field."""
    if s < 0:
        raise ValueError(f"dimension must be >= 0, got {s}")
    return p ** (s * (s - 1) // 2) * math.prod(p**i - 1 for i in range(1, s + 1))


def irreducible_orders(p: int, s: int) -> dict[tuple[int, int], int]:
    """Monic irreducibles f != x over F_p of degree <= s, tallied by (d, e).

    The roots of such an f share one multiplicative order e, coprime to p,
    and its degree d is the order of p modulo e.  Each of the phi(e)
    elements of order e in the algebraic closure is a root of exactly one
    f, so phi(e)/d of them have order e.  No polynomial is built.
    """
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    tally = {}
    for d in range(1, s + 1):
        for e in divisors(p**d - 1):
            if multiplicative_order(p, e) == d:
                tally[(d, e)] = euler_phi(e) // d
    return tally


def _centralizer_factor(parts: tuple[int, ...], q: int) -> int:
    """c_lambda(q) = q**sum(lambda'_j**2) * prod_i prod_{k <= m_i} (1 - q**-k).

    The centralizer in GL of one primary component with Jordan partition
    lambda over the field with q elements.  With the factors q**-k cleared
    the exponent stays >= 0, so this is an exact integer product.
    """
    mults = Counter(parts).values()
    conjugate_squares = sum(
        sum(part >= j for part in parts) ** 2 for j in range(1, parts[0] + 1)
    )
    drop = sum(m * (m + 1) // 2 for m in mults)
    return q ** (conjugate_squares - drop) * math.prod(
        q**k - 1 for m in mults for k in range(1, m + 1)
    )


def gl_classes(
    p: int, s: int, n: int, budget: Budget = DEFAULT_BUDGET
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The conjugacy classes of GL(s, p), each as (size, exponent profile).

    A class is a partition lambda_f for each monic irreducible f != x, with
    sum_f deg(f) * |lambda_f| = s (Green 1955; Macdonald, Symmetric
    Functions and Hall Polynomials, ch. IV).  Its size is |GL(s, p)| over
    prod_f c_{lambda_f}(p**d); each division is checked to be exact.  For a
    matrix A in the class, A**r fixes p**c_r vectors, where c_r sums
    d * sum_{k in lambda_f} min(k, p**v_p(r)) over the f whose root order e
    divides r: f**k contributes the kernel of x**r - 1, in which f has
    multiplicity p**v_p(r) (the cycle index of GL_n(F_q); Kung 1981).

    The irreducibles come from irreducible_orders, so no matrix or
    polynomial is listed.  p**s bounds the class count, and is checked
    against max_matrix_candidates before the listing starts.
    """
    if s < 1:
        raise ValueError(f"rank must be >= 1, got {s}")
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    budget.check("max_matrix_candidates", p**s)
    order = general_linear_order(p, s)
    # p**v_p(r): the multiplicity in x**r - 1 of each f whose order divides r.
    depths = [math.gcd(r, p**r) for r in range(1, n + 1)]
    irreducibles = []
    for (d, e), count in sorted(irreducible_orders(p, s).items()):
        options = [
            (
                d * size,
                _centralizer_factor(parts, p**d),
                tuple(
                    d * sum(min(k, depth) for k in parts) if r % e == 0 else 0
                    for r, depth in enumerate(depths, start=1)
                ),
            )
            for size in range(1, s // d + 1)
            for parts in integer_partitions(size)
        ]
        irreducibles += [(d, options)] * count

    def extend(start, remaining, centralizer, profile):
        if not remaining:
            size, rest = divmod(order, centralizer)
            if rest:
                raise IntegralityError(
                    f"centralizer order {centralizer} does not divide |GL({s}, {p})|"
                )
            yield size, profile
            return
        for i in range(start, len(irreducibles)):
            d, options = irreducibles[i]
            if d > remaining:
                break
            for dim, factor, vector in options:
                if dim > remaining:
                    break
                yield from extend(
                    i + 1,
                    remaining - dim,
                    centralizer * factor,
                    tuple(map(operator.add, profile, vector)),
                )

    return extend(0, s, 1, (0,) * n)


def gl_class_census(
    p: int, s: int, n: int, budget: Budget = DEFAULT_BUDGET
) -> dict[tuple[int, ...], int]:
    """GL(s, p) tallied by exponent profile, from its conjugacy classes.

    The same census as closed_form.matrix_scan_census, built from
    gl_classes without listing a matrix.  The class sizes must add up to
    |GL(s, p)|.
    """
    census: Counter = Counter()
    for size, profile in gl_classes(p, s, n, budget):
        census[profile] += size
    found, expected = sum(census.values()), general_linear_order(p, s)
    if found != expected:
        raise IntegralityError(
            f"class sizes of GL({s}, {p}) add up to {found}, expected {expected}"
        )
    return dict(census)
