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
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, Mapping, Sequence

import numpy as np

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


# Rows in one block of cycle_type_blocks, and at most in one tail table.
TYPE_CHUNK = 512


@lru_cache(maxsize=8)
def _cycle_type_tails(n: int, size: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The longest cycle length t such that at most `size` cycle types of
    S_n have no longer cycle, and those types in cycle_types' order, as a
    read-only (k, n) int8 multiplicity table and the object array of their
    n!/z_lambda.

    At most one cycle is longer than n / 2, so those lengths give one row
    each.  The rest is vectorised expansion from length n // 2 down to 2:
    each row so far is repeated once for every number of the next shorter
    cycles that its free points allow, so that longer lengths vary slowest;
    the free points left are the fixed points.
    """
    ways, t = [1] * (n + 1), 1  # partitions of 0..n into parts <= t
    while t < n:
        longer = ways.copy()
        for total in range(t + 1, n + 1):
            longer[total] += longer[total - t - 1]
        if longer[n] > size:
            break
        ways, t = longer, t + 1
    single = range(max(2, n // 2 + 1), t + 1)
    rows = np.zeros((1 + len(single), n), dtype=np.int8)
    for row, length in enumerate(single, start=1):
        rows[row, length - 1] = 1
    used = np.array([0, *single])
    z = np.array([1, *single], dtype=object)
    for length in range(min(t, n // 2), 1, -1):
        choices = (n - used) // length + 1
        parent = np.arange(len(rows)).repeat(choices)
        m = np.arange(len(parent)) - (choices.cumsum() - choices).repeat(choices)
        rows = rows[parent]
        rows[:, length - 1] = m
        used = used[parent] + length * m
        zs = [length**i * math.factorial(i) for i in range(n // length + 1)]
        z = z[parent] * np.array(zs, dtype=object)[m]
    rows[:, 0] = n - used
    fact = np.array([math.factorial(i) for i in range(n + 1)], dtype=object)
    weights = fact[n] // (fact[rows[:, 0]] * z)
    rows.flags.writeable = weights.flags.writeable = False
    return t, rows, weights


def _long_cycles(n: int, t: int) -> Iterator[tuple[bytes, int, int]]:
    """Each choice of cycles longer than t on at most n points, in
    cycle_types' order, as (the multiplicities of the lengths t+1..n, the
    points j they use, z = prod_l l**m_l * m_l!).

    The next choice raises m_l for the least l > t such that the free
    points and those on the lengths t+1..l-1 make at least l, and frees
    those lengths; the points on lengths <= t count as free.
    """
    fact = [math.factorial(k) for k in range(n + 1)]
    m = [0] * (n + 1)  # m[l] for t < l <= n
    j, z = 0, 1
    while True:
        yield bytes(m[t + 1 :]), j, z
        free, length = n - j, t + 1
        while free < length:
            if length > n:
                return
            free += length * m[length]
            length += 1
        for shorter in range(t + 1, length):
            if m[shorter]:
                z //= shorter ** m[shorter] * fact[m[shorter]]
                m[shorter] = 0
        m[length] += 1
        z *= length * m[length]
        j = n - free + length


def cycle_type_blocks(
    n: int, size: int = TYPE_CHUNK
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Each cycle type of S_n, 1 <= n <= 127, in cycle_types' order, as
    blocks of at most `size` >= 1 rows: a (k, n) int8 multiplicity table
    and the object array of each row's n!/z_lambda, which must not be
    written to.

    _cycle_type_tails(n, size) holds the types with no cycle longer than
    some t.  Each choice of longer cycles on j points (_long_cycles) is
    joined by one gather to the tail types with at least j fixed points, j
    of which it takes over: a type's count is its tail's n!/z_tail times
    (f + j)! / (f! z_long), f its fixed points.  A block holds whole
    choices; when t = n the one block is the tail table itself.
    """
    if not 1 <= n <= 127:
        raise ValueError(f"cycle types need 1 <= n <= 127 for int8 rows, got {n}")
    t, tails, tail_weights = _cycle_type_tails(n, size)
    if t == n:
        yield tails, tail_weights
        return
    fixed = tails[:, 0]
    fact = np.array([math.factorial(k) for k in range(n + 1)], dtype=object)
    at_least = np.cumsum(np.bincount(fixed, minlength=n + 1)[::-1])[::-1].tolist()

    def joined(batch):
        heads, points, z = zip(*batch)
        counts = [at_least[j] for j in points]
        selected = {j: np.flatnonzero(fixed >= j) for j in set(points)}
        index = np.concatenate([selected[j] for j in points])
        block = tails[index]
        block[:, 0] -= np.repeat(np.array(points, dtype=np.int8), counts)
        head = np.frombuffer(b"".join(heads), dtype=np.int8).reshape(len(heads), n - t)
        block[:, t:] = np.repeat(head, counts, axis=0)
        weights = tail_weights[index] * fact[fixed[index]]
        weights //= fact[block[:, 0]] * np.repeat(np.array(z, dtype=object), counts)
        return block, weights

    batch, rows = [], 0
    for choice in _long_cycles(n, t):
        if rows + at_least[choice[1]] > size:
            yield joined(batch)
            batch, rows = [], 0
        batch.append(choice)
        rows += at_least[choice[1]]
    yield joined(batch)


def cycle_types(n: int) -> Iterator[CycleType]:
    """All cycle types on n points, in a fixed documented order.

    The order is ascending lexicographic on the reversed multiplicity tuple
    (multiplicities of long cycles vary slowest), so the all-fixed-points
    type comes first and the single n-cycle comes last.
    """
    for block, _ in cycle_type_blocks(n):
        for multiplicities in block.tolist():
            yield CycleType(tuple(multiplicities))


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
        u = [start]  # U_(k-1), ..., U_0
        for k in range(1, n + 1):
            term, remainder = divmod(sum(map(operator.mul, a, u)), k)
            if remainder:
                raise IntegralityError(f"U_{k} of profile {tuple(profile)} is not integral")
            u.insert(0, term)
        total += int(mult) * u[0]
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
