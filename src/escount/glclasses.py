"""The conjugacy classes of GL(s, p), the automorphism group of C_p^s,
walked once (_classes) for two uses.  The census tallies the irreducibles
over F_p by degree and root order, building no matrix or polynomial; each
class carries its size and its powers' fixed-point exponents, and
closed_form evaluates the census, its matrix scan staying as the witness.
The representatives are rational canonical forms of sieved irreducibles.
"""
from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from typing import Callable, Iterator

import numpy as np

from .budget import Budget, DEFAULT_BUDGET, IntegralityError, exact_quotient
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


def irreducible_polynomials(p: int, s: int) -> list[tuple[int, ...]]:
    """Monic irreducibles f != x over F_p of degree <= s, by degree, each as
    its coefficients from the constant term up.  A sieve strikes from the
    monic polynomials of degree d each product of an irreducible of degree
    k <= d/2 (x included) and a monic one of degree d - k; the number left
    of each degree is checked against irreducible_orders."""
    tally = irreducible_orders(p, s).items()
    expected = Counter(d for (d, _), count in tally for _ in range(count))
    found = []
    for d in range(1, s + 1):
        reducible = {
            _times(f, (*g, 1), p) for f in found if 2 * len(f) <= d + 2
            for g in itertools.product(range(p), repeat=d + 1 - len(f))
        }
        monic = ((*g, 1) for g in itertools.product(range(p), repeat=d))
        found += [f for f in monic if f not in reducible]
    if Counter(len(f) - 1 for f in found[1:]) != expected:  # found[0] is x
        raise IntegralityError(f"sieved a wrong number of irreducibles over F_{p}")
    return found[1:]


def _times(f: tuple[int, ...], g: tuple[int, ...], p: int) -> tuple[int, ...]:
    """f * g over F_p, for coefficients from the constant term up."""
    product = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        for j, c in enumerate(g):
            product[i + j] += a * c
    return tuple(c % p for c in product)


def _classes(p: int, s: int, irreducibles: list, record: Callable) -> Iterator[tuple]:
    """The conjugacy classes of GL(s, p), each as (size, records): a class is
    a partition lambda_f for each monic irreducible f != x, with
    sum_f deg(f) * |lambda_f| = s (Green 1955; Macdonald, Symmetric
    Functions and Hall Polynomials, ch. IV), and holds record(key, lambda_f)
    for each nonempty lambda_f.  `irreducibles` lists (degree, key, count)
    by degree, count irreducibles sharing a key.  A class's size is
    |GL(s, p)| over prod_f c_{lambda_f}(p**d), each division checked exact.
    """
    order = general_linear_order(p, s)
    table = []
    for d, key, count in irreducibles:
        options = [
            (d * size, _centralizer_factor(parts, p**d), record(key, parts))
            for size in range(1, s // d + 1)
            for parts in integer_partitions(size)
        ]
        table += [(d, options)] * count

    def extend(start, remaining, centralizer, records):
        if not remaining:
            yield exact_quotient(order, centralizer, f"|GL({s}, {p})|"), records
            return
        for i in range(start, len(table)):
            d, options = table[i]
            if d > remaining:
                break
            for dim, factor, kept in options:
                if dim > remaining:
                    break
                yield from extend(i + 1, remaining - dim, centralizer * factor, records + (kept,))

    return extend(0, s, 1, ())


def gl_classes(
    p: int, s: int, n: int, budget: Budget = DEFAULT_BUDGET
) -> Iterator[tuple[int, tuple[int, ...]]]:
    """The classes of GL(s, p) (_classes), each as (size, exponent profile).

    For a matrix A in a class, A**r fixes p**c_r vectors, where c_r sums
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
    # p**v_p(r): the multiplicity in x**r - 1 of each f whose order divides r.
    depths = [math.gcd(r, p**r) for r in range(1, n + 1)]

    def profile(key, parts):
        d, e = key
        return tuple(
            d * sum(min(k, depth) for k in parts) if r % e == 0 else 0
            for r, depth in enumerate(depths, start=1)
        )

    tally = sorted(irreducible_orders(p, s).items())
    classes = _classes(p, s, [(d, (d, e), count) for (d, e), count in tally], profile)
    return ((size, tuple(map(sum, zip(*profiles)))) for size, profiles in classes)


def gl_class_representatives(
    p: int, b: int, budget: Budget = DEFAULT_BUDGET
) -> tuple[np.ndarray, tuple[int, ...]]:
    """One matrix per conjugacy class of GL(b, p) (_classes), as a read-only
    (k, b, b) int64 stack, and the k class sizes.  Each is its class's
    rational canonical form: the block diagonal of the companion matrices of
    f**k, k in lambda_f, for the f of irreducible_polynomials.  Their at most
    p**b * b**2 entries are checked against max_matrix_candidates first."""
    budget.check("max_matrix_candidates", p**b * b * b)

    def powers(f, parts):  # the coefficients of f**k, for k in parts
        return [functools.reduce(lambda g, _: _times(g, f, p), range(k), (1,)) for k in parts]

    irreducibles = [(len(f) - 1, f, 1) for f in irreducible_polynomials(p, b)]
    classes = list(_classes(p, b, irreducibles, powers))
    matrices = []
    for _, records in classes:
        matrix, at = [[0] * b for _ in range(b)], 0
        for g in itertools.chain.from_iterable(records):
            m = len(g) - 1  # the companion matrix of g, on rows and columns at..at + m
            for i in range(m):
                matrix[at + i][at + m - 1] = -g[i] % p
                if i:
                    matrix[at + i][at + i - 1] = 1
            at += m
        matrices.append(matrix)
    stack = np.array(matrices, dtype=np.int64)
    stack.flags.writeable = False
    return stack, tuple(size for size, _ in classes)


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
