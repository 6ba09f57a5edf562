"""Tests for totients, divisors, cycle types, unit orders, and order-vector
classification."""
import math
from collections import Counter
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest

from escount import numtheory
from escount.numtheory import (
    CycleType,
    cycle_index_sum,
    cycle_type_blocks,
    cycle_types,
    delta_census,
    delta_vector,
    divisors,
    euler_phi,
    factorize,
    integer_partitions,
    is_prime,
    multiplicative_order,
    partition_count,
    shape_orders,
    shape_parameters,
)

def two_power_unit_decomposition(e, i):
    """Coordinates (sign, nu) of the unit i modulo 2**e, e >= 3.

    Every odd i modulo 2**e factors uniquely as sign * 5**nu with
    sign in {1, -1} and 0 <= nu < 2**(e-2); found by direct search.  The
    reference the order-vector shapes are checked against.
    """
    if e < 3:
        raise ValueError(f"decomposition needs e >= 3, got {e}")
    mod = 1 << e
    i %= mod
    if i % 2 == 0:
        raise ValueError(f"{i} is not a unit modulo {mod}")
    power = 1
    for nu in range(1 << (e - 2)):
        if power == i:
            return (1, nu)
        if mod - power == i:
            return (-1, nu)
        power = power * 5 % mod
    raise AssertionError(f"no decomposition found for {i} mod {mod}")


PARTITION_COUNTS = [1, 1, 2, 3, 5, 7, 11, 15, 22, 30, 42, 56, 77]


def test_is_prime_small():
    primes = [p for p in range(50) if is_prime(p)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def test_factorize():
    assert factorize(1) == ()
    assert factorize(12) == ((2, 2), (3, 1))
    assert factorize(97) == ((97, 1),)
    with pytest.raises(ValueError):
        factorize(0)


def test_euler_phi_examples():
    assert euler_phi(1) == 1
    assert euler_phi(9) == 6
    assert euler_phi(12) == 4


def test_euler_phi_brute():
    for n in range(1, 300):
        assert euler_phi(n) == sum(1 for k in range(1, n + 1) if math.gcd(k, n) == 1)


def test_totient_divisor_identity():
    for n in range(1, 1001):
        assert sum(euler_phi(d) for d in divisors(n)) == n


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(6) == [1, 2, 3, 6]
    assert divisors(8) == [1, 2, 4, 8]
    for n in range(1, 200):
        assert divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


def test_integer_partitions():
    assert list(integer_partitions(0)) == [()]
    assert list(integer_partitions(4)) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]
    for n in range(13):
        parts = list(integer_partitions(n))
        assert len(parts) == PARTITION_COUNTS[n]
        assert all(sum(part) == n for part in parts)
        assert all(tuple(sorted(part, reverse=True)) == part for part in parts)


def test_partition_count():
    assert [partition_count(n) for n in range(13)] == PARTITION_COUNTS
    assert partition_count(25) == sum(1 for _ in cycle_types(25)) == 1958
    assert partition_count(40) == 37338
    with pytest.raises(ValueError):
        partition_count(-1)


def test_cycle_types_golden_order():
    assert [t.multiplicities for t in cycle_types(1)] == [(1,)]
    assert [t.multiplicities for t in cycle_types(2)] == [(2, 0), (0, 1)]
    assert [t.multiplicities for t in cycle_types(3)] == [(3, 0, 0), (1, 1, 0), (0, 0, 1)]
    assert [t.multiplicities for t in cycle_types(4)] == [
        (4, 0, 0, 0),
        (2, 1, 0, 0),
        (0, 2, 0, 0),
        (1, 0, 1, 0),
        (0, 0, 0, 1),
    ]


def test_cycle_types_invariants():
    for n in range(1, 13):
        types = list(cycle_types(n))
        assert len(types) == PARTITION_COUNTS[n]
        assert len(set(types)) == len(types)
        for t in types:
            assert len(t.multiplicities) == n
            assert sum(r * m for r, m in enumerate(t.multiplicities, 1)) == n
    with pytest.raises(ValueError):
        list(cycle_types(0))


def test_cycle_type_blocks_match_the_partitions():
    """Every type once, in cycle_types' documented order, with its n!/z,
    for the default block size and for 50 rows, where n >= 11 crosses
    long-cycle prefixes, joins them to the tail table and splits the types
    over several blocks."""
    for size in (numtheory.TYPE_CHUNK, 50):
        for n in range(1, 31):
            blocks = list(cycle_type_blocks(n, size))
            assert all(len(rows) <= size and rows.dtype == np.int8 for rows, _ in blocks)
            rows = [
                (tuple(row), count)
                for block, counts in blocks
                for row, count in zip(block.tolist(), counts)
            ]
            reversed_rows = [row[::-1] for row, _ in rows]
            assert reversed_rows == sorted(reversed_rows)
            forms = {
                tuple(part.count(t) for t in range(1, n + 1))
                for part in integer_partitions(n)
            }
            assert len(rows) == len(forms) == partition_count(n)
            assert {row for row, _ in rows} == forms
            for row, count in rows:
                assert count == CycleType(row).permutation_count(), row
            assert sum(count for _, count in rows) == math.factorial(n)
    with pytest.raises(ValueError):
        list(cycle_type_blocks(0))
    with pytest.raises(ValueError):
        list(cycle_type_blocks(128))


def test_cycle_type_validation():
    with pytest.raises(ValueError):
        CycleType((1, 1))  # sums to 3, but length is 2
    with pytest.raises(ValueError):
        CycleType((-1, 1))


def test_permutation_count_examples():
    assert CycleType((1,)).permutation_count() == 1
    assert CycleType((0, 1)).permutation_count() == 1
    assert CycleType((1, 1, 0)).permutation_count() == 3


def test_permutation_count_brute():
    for n in range(1, 7):
        tally = Counter(
            CycleType.from_permutation(perm) for perm in permutations(range(n))
        )
        for t in cycle_types(n):
            assert tally[t] == t.permutation_count()


def test_partition_identities_exact():
    for n in range(1, 13):
        types = list(cycle_types(n))
        assert sum(t.permutation_count() for t in types) == math.factorial(n)
        assert sum(t.weight() for t in types) == Fraction(1)


def test_multiplicative_order():
    assert multiplicative_order(1, 7) == 1
    assert multiplicative_order(5, 8) == 2
    assert multiplicative_order(2, 9) == 6
    with pytest.raises(ValueError):
        multiplicative_order(2, 8)
    for mod in range(1, 50):
        for i in range(mod):
            if math.gcd(i, mod) != 1:
                continue
            powers = [pow(i, r, mod) for r in range(1, euler_phi(mod) + 1)]
            assert multiplicative_order(i, mod) == powers.index(1 % mod) + 1


def test_two_power_unit_decomposition_examples():
    assert two_power_unit_decomposition(3, 1) == (1, 0)
    assert two_power_unit_decomposition(3, 5) == (1, 1)
    assert two_power_unit_decomposition(3, 7) == (-1, 0)
    assert two_power_unit_decomposition(3, 3) == (-1, 1)
    with pytest.raises(ValueError):
        two_power_unit_decomposition(2, 3)
    with pytest.raises(ValueError):
        two_power_unit_decomposition(3, 4)


def test_two_power_unit_decomposition_bijection():
    for e in range(3, 10):
        mod = 1 << e
        seen = set()
        for i in range(1, mod, 2):
            sign, nu = two_power_unit_decomposition(e, i)
            assert sign in (1, -1)
            assert 0 <= nu < 1 << (e - 2)
            assert sign * pow(5, nu, mod) % mod == i
            seen.add((sign, nu))
        assert len(seen) == euler_phi(mod)


def test_cycle_index_sum_matches_cycle_type_sum():
    import random

    rng = random.Random(1988)
    for n in range(1, 11):
        census = Counter()
        for _ in range(6):
            profile = tuple(rng.choice((1, 2, 3, 4, 8, 9, 27, 64)) for _ in range(n))
            census[profile] += rng.randint(1, 50)
        expected = 0
        for profile, mult in census.items():
            a = [f * f for f in profile]
            expected += mult * sum(
                lam.permutation_count()
                * math.prod(a[r - 1] ** m for r, m in enumerate(lam.multiplicities, start=1))
                for lam in cycle_types(n)
            )
        assert cycle_index_sum(census, n) == expected, n
        assert cycle_index_sum({(1,) * n: 1}, n) == math.factorial(n)


def test_cycle_index_sum_validation():
    assert cycle_index_sum({}, 3) == 0
    with pytest.raises(ValueError):
        cycle_index_sum({(): 1}, 0)
    with pytest.raises(ValueError):
        cycle_index_sum({(1, 1): 1}, 3)


def test_delta_vector_examples():
    dv = delta_vector(2, 3, 2)
    assert dv.entries == (2, 6)
    assert dv.shape == (1, 2)
    dv = delta_vector(7, 2, 3)
    assert dv.entries == (1, 2, 2)
    assert dv.shape == (3, 2)
    for p, e in ((3, 2), (2, 3), (5, 1)):
        dv = delta_vector(1, p, e)
        assert dv.entries == (1,) * e
        assert dv.shape == (e, 1)
    with pytest.raises(ValueError):
        delta_vector(3, 3, 2)
    with pytest.raises(ValueError):
        delta_vector(2, 4, 1)


def _prime_powers(limit):
    for p in range(2, limit + 1):
        if not is_prime(p):
            continue
        power, e = p, 1
        while power <= limit:
            yield p, e, power
            power *= p
            e += 1


def test_delta_vector_inverse_invariant():
    for p, e, power in _prime_powers(1024):
        for i in range(1, power):
            if i % p == 0:
                continue
            inverse = pow(i, -1, power)
            if inverse < i:
                continue  # the pair was already checked from the other side
            assert delta_vector(i, p, e) == delta_vector(inverse, p, e)


def test_delta_vector_every_unit_classified():
    for p, e, power in _prime_powers(256):
        admissible = set(shape_parameters(p, e))
        for i in range(1, power):
            if i % p == 0:
                continue
            dv = delta_vector(i, p, e)
            shape = dv.shape
            assert shape in admissible
            assert shape_orders(p, e, *shape) == dv.entries
            if p == 2 and e >= 3:
                assert shape != (e - 1, 2)  # merged into the canonical (e, 2)


def _expected_census(p, e):
    if p != 2 or e <= 2:
        return {
            (k, d): euler_phi(p ** (e - k) * d) for k, d in shape_parameters(p, e)
        }
    out = {(k, 1): euler_phi(2 ** (e - k)) for k in range(2, e + 1)}
    for k in range(2, e - 1):
        out[(k, 2)] = euler_phi(2 ** (e - k))
    out[(e, 2)] = 2
    return out


def test_delta_census():
    assert delta_census(3, 1) == {(1, 1): 1, (1, 2): 1}
    for power in (3, 9, 27, 5, 25, 4, 8, 16):
        ((p, e),) = factorize(power)
        census = delta_census(p, e)
        assert census == _expected_census(p, e)
        assert sum(census.values()) == euler_phi(power)


def test_shape_parameters():
    assert shape_parameters(3, 1) == [(1, 1), (1, 2)]
    assert shape_parameters(2, 2) == [(1, 1), (2, 1)]
    assert shape_parameters(2, 3) == [(2, 1), (2, 2), (3, 1), (3, 2)]


def test_two_power_decomposition_matches_delta_shape():
    # The sign and the 2-adic level of nu determine the order-vector shape.
    for e in (3, 4, 5, 6):
        for i in range(1, 1 << e, 2):
            sign, nu = two_power_unit_decomposition(e, i)
            if nu == 0:
                expected_k = e
            else:
                expected_k = (nu & -nu).bit_length() + 1  # 2-adic valuation + 2
            expected_d = 1 if sign == 1 else 2
            if expected_d == 2 and expected_k >= e - 1:
                expected_k = e
            assert delta_vector(i, 2, e).shape == (expected_k, expected_d)
