"""Number-theoretic utilities: totients, divisors, permutation cycle types,
orders in unit groups, and the classification of unit-order vectors over
prime-power moduli that drives the closed-form counting formulas.

The units modulo p**e are sorted by the shape (k, d) of their order vector.
shape_parameters lists the shapes and shape_orders maps a shape to its
order vector; the unit census of closed_form is built from that map, and
delta_vector classifies a listed unit by inverting the same map.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

from .budget import IntegralityError


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate for desk-scale moduli."""
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


@lru_cache(maxsize=None)
def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """Prime factorization of n >= 1 as ((p, multiplicity), ...), p ascending."""
    if n < 1:
        raise ValueError(f"cannot factorize {n}")
    out = []
    f = 2
    while f * f <= n:
        if n % f == 0:
            e = 0
            while n % f == 0:
                n //= f
                e += 1
            out.append((f, e))
        f += 1 if f == 2 else 2
    if n > 1:
        out.append((n, 1))
    return tuple(out)


@lru_cache(maxsize=None)
def euler_phi(n: int) -> int:
    """Number of units modulo n (Euler's totient)."""
    result = n
    for p, _ in factorize(n):
        result -= result // p
    return result


def divisors(n: int) -> list[int]:
    """All positive divisors of n in ascending order."""
    out = [1]
    for p, e in factorize(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def integer_partitions(n: int) -> Iterator[tuple[int, ...]]:
    """Partitions of n >= 0 as nonincreasing tuples, largest-first order."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")

    def rec(remaining: int, largest: int, acc: tuple[int, ...]):
        if remaining == 0:
            yield acc
            return
        for part in range(min(largest, remaining), 0, -1):
            yield from rec(remaining - part, part, acc + (part,))

    yield from rec(n, n, ())


def partition_count(n: int) -> int:
    """p(n), the number of partitions of n >= 0 (and of cycle types of S_n)."""
    if n < 0:
        raise ValueError(f"cannot partition {n}")
    ways = [1] + [0] * n
    for part in range(1, n + 1):
        for total in range(part, n + 1):
            ways[total] += ways[total - part]
    return ways[n]


@dataclass(frozen=True)
class CycleType:
    """Cycle type of a permutation of n points.

    multiplicities[t-1] is the number of t-cycles; the tuple always has
    length n, so sum(t * multiplicities[t-1]) == n.
    """

    multiplicities: tuple[int, ...]

    def __post_init__(self):
        n = len(self.multiplicities)
        if any(m < 0 for m in self.multiplicities):
            raise ValueError(f"negative multiplicity in {self.multiplicities}")
        if sum(t * m for t, m in enumerate(self.multiplicities, start=1)) != n:
            raise ValueError(f"multiplicities {self.multiplicities} do not sum to {n}")

    @property
    def n(self) -> int:
        return len(self.multiplicities)

    def mult(self, t: int) -> int:
        """Number of t-cycles, 1 <= t <= n."""
        return self.multiplicities[t - 1]

    def symmetry_size(self) -> int:
        """Order of the centralizer of a permutation with this cycle type."""
        return math.prod(
            math.factorial(m) * t**m
            for t, m in enumerate(self.multiplicities, start=1)
        )

    def permutation_count(self) -> int:
        """Number of permutations of n points with this cycle type."""
        return math.factorial(self.n) // self.symmetry_size()

    def weight(self) -> Fraction:
        """Fraction of all permutations having this cycle type."""
        return Fraction(1, self.symmetry_size())

    @classmethod
    def from_permutation(cls, perm: Sequence[int]) -> "CycleType":
        """Cycle type of a permutation given as a tuple of 0-based images."""
        n = len(perm)
        mult = [0] * n
        seen = [False] * n
        for start in range(n):
            if seen[start]:
                continue
            length = 0
            j = start
            while not seen[j]:
                seen[j] = True
                j = perm[j]
                length += 1
            mult[length - 1] += 1
        return cls(tuple(mult))


def cycle_type_rows(n: int) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each cycle type on n points as (multiplicities, n!/z_lambda), in
    cycle_types' order, with no CycleType objects and no validation.

    The next type raises m_t for the least t >= 2 whose shorter cycles hold
    at least t points, clears the lengths 2..t-1 and puts the rest in m_1;
    z = prod_{t>=2} t**m_t * m_t! follows by exact products and quotients.
    """
    if n < 1:
        raise ValueError(f"cycle types need n >= 1, got {n}")
    fact = [math.factorial(k) for k in range(n + 1)]
    m = [0, n] + [0] * (n - 1)  # m[t] for 1 <= t <= n
    z = 1
    while True:
        yield tuple(m[1:]), fact[n] // (fact[m[1]] * z)
        free, t = m[1], 2
        while free < t:
            if t > n:
                return
            free += t * m[t]
            t += 1
        for s in range(2, t):
            if m[s]:
                z //= s ** m[s] * fact[m[s]]
                m[s] = 0
        m[t] += 1
        z *= t * m[t]
        m[1] = free - t


def cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types on n points, in a fixed documented order.

    The order is ascending lexicographic on the reversed multiplicity tuple
    (multiplicities of long cycles vary slowest), so the all-fixed-points
    type comes first and the single n-cycle comes last.
    """
    for multiplicities, _ in cycle_type_rows(n):
        yield CycleType(multiplicities)


def cycle_index_sum(census: Mapping[Sequence[int], int], n: int) -> int:
    """Sum of mult * n! * Z_n(f_1**2, ..., f_n**2) over a fixed-count census.

    `census` maps a profile (f_1, ..., f_n), where f_r counts the elements
    fixed by the r-th power of an automorphism, to the number of
    automorphisms with that profile.  Z_n is the cycle index of the
    symmetric group on n points, so n! * Z_n(a) sums prod_r a_r**m_r over
    all permutations with m_r cycles of length r.  With a_r = f_r**2 this is
    the fixed-configuration total of one automorphism over all
    permutations.  U_k = n! * Z_k, an integer, obeys U_0 = n! and
    k * U_k = sum_{r<=k} a_r * U_{k-r}, each division checked: O(n**2)
    products per distinct profile instead of one per cycle type.
    """
    if n < 1:
        raise ValueError(f"cycle_index_sum needs n >= 1, got {n}")
    total, start = 0, math.factorial(n)
    for profile, mult in census.items():
        if len(profile) != n:
            raise ValueError(f"profile {tuple(profile)} does not have length {n}")
        a = [int(f) ** 2 for f in profile]
        u = [start]
        for k in range(1, n + 1):
            term, remainder = divmod(sum(a[r] * u[k - 1 - r] for r in range(k)), k)
            if remainder:
                raise IntegralityError(f"U_{k} of profile {tuple(profile)} is not integral")
            u.append(term)
        total += int(mult) * u[n]
    return total


def multiplicative_order(i: int, modulus: int) -> int:
    """Least r >= 1 with i**r == 1 modulo `modulus`; i must be a unit."""
    if modulus < 1:
        raise ValueError(f"modulus must be positive, got {modulus}")
    i %= modulus
    if math.gcd(i, modulus) != 1:
        raise ValueError(f"{i} is not a unit modulo {modulus}")
    order = euler_phi(modulus)
    for q, _ in factorize(order):
        while order % q == 0 and pow(i, order // q, modulus) == 1:
            order //= q
    return order


@dataclass(frozen=True)
class DeltaVector:
    """Orders of a fixed unit at every level of a prime-power modulus tower.

    entries[s-1] is the multiplicative order of the unit modulo p**s.  Each
    vector matches exactly one admissible shape, recorded as (k, d): the
    order stays at d for the first k levels (after the forced 1 at the
    bottom level when p == 2) and then grows by a factor p per level.
    """

    entries: tuple[int, ...]
    shape: tuple[int, int]


def shape_parameters(p: int, e: int) -> list[tuple[int, int]]:
    """Shape parameters (k, d) in the order the counting formulas sum them.

    For p == 2 with e >= 3 the list follows the formula's index ranges
    verbatim, so the two parameterizations of the all-twos vector both
    appear; delta_census reports that vector only under its canonical key.
    """
    if p != 2 or e <= 2:
        return [(k, d) for k in range(1, e + 1) for d in divisors(p - 1)]
    return [(k, d) for k in range(2, e + 1) for d in (1, 2)]


def shape_orders(p: int, e: int, k: int, d: int) -> tuple[int, ...]:
    """Order vector (delta_1, ..., delta_e) of the units of shape (k, d).

    As DeltaVector describes: the order is d on the first k levels and then
    grows by a factor p per level.  For p == 2 with e >= 3 the bottom level
    is forced to 1, and a d == 2 shape stays at 2 through level k + 1.
    """
    if p == 2 and e >= 3:
        return (1,) + tuple(max(d, 2 ** max(0, s - k)) for s in range(2, e + 1))
    return tuple(d * p ** max(0, s - k) for s in range(1, e + 1))


@lru_cache(maxsize=None)
def _shape_of_orders(p: int, e: int) -> dict[tuple[int, ...], tuple[int, int]]:
    """The inverse of shape_orders over the listed shapes of p**e."""
    # For p == 2 with e >= 3 the all-twos vector is the image of both
    # (e - 1, 2) and (e, 2).  shape_parameters lists (e, 2) after (e - 1, 2),
    # so the later entry wins and the vector maps to its canonical key (e, 2).
    return {shape_orders(p, e, k, d): (k, d) for k, d in shape_parameters(p, e)}


def delta_vector(i: int, p: int, e: int) -> DeltaVector:
    """Order vector of the unit i over moduli p, p**2, ..., p**e, with shape."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    if e < 1:
        raise ValueError(f"exponent must be >= 1, got {e}")
    if i % p == 0:
        raise ValueError(f"{i} is not a unit modulo {p}")
    entries = tuple(multiplicative_order(i, p**s) for s in range(1, e + 1))
    shape = _shape_of_orders(p, e).get(entries)
    if shape is None:
        raise ValueError(f"order vector {entries} invalid modulo {p}**{e}")
    return DeltaVector(entries, shape)


def delta_census(p: int, e: int) -> dict[tuple[int, int], int]:
    """How many units modulo p**e fall into each order-vector shape."""
    census: dict[tuple[int, int], int] = {}
    for i in range(1, p**e):
        if i % p == 0:
            continue
        shape = delta_vector(i, p, e).shape
        census[shape] = census.get(shape, 0) + 1
    return census
