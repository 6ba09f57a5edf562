"""Tests for the closed-form orbit counts: shape exponents, prime-power and
general cyclic sums, the elementary-abelian matrix average and class
census, and the special-case formulas."""
import itertools
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from escount import abelian, burnside, closed_form, glclasses, numtheory
from escount.abelian import parse_group, rank_mod_p
from escount.budget import Budget, BudgetExceededError, IntegralityError
from escount.burnside import orbit_count_congruence, orbit_count_naive
from escount.closed_form import (
    census_sum_by_cycle_type,
    census_sum_by_profile,
    cheaper_census_sum,
    closed_count,
    formula_prime_any_n,
    formula_prime_power_n1,
    formula_prime_power_n2,
    formula_squarefree_n1,
    enumerate_invertible_matrices,
    f_2,
    f_p,
    general_linear_order,
    matrix_scan_census,
    n_cyclic,
    n_cyclic_prime_power,
    n_cyclic_prime_power_alt,
    n_elementary_abelian,
    unit_census,
    unit_orders,
)
from escount.glclasses import (
    gl_class_census,
    gl_class_representatives,
    gl_classes,
    irreducible_orders,
    irreducible_polynomials,
)
from escount.numtheory import CycleType, cycle_types, delta_vector, euler_phi, factorize
from escount.verify import abelian_groups_of_order

# The cyclic orders of the long-n benchmark table.
LONG_N_ORDERS = (12, 360, 343, 4096, 8640, 720720)


def test_f_p_single_fixed_point_gives_level():
    for p, e in ((3, 1), (3, 2), (5, 3), (2, 2), (7, 1)):
        for k in range(1, e + 1):
            assert f_p(CycleType((1,)), p, e, k, 1) == k


def test_f_p_order_above_length_gives_zero():
    lam = CycleType((2, 0))
    for d in (3, 6):
        assert f_p(lam, 7, 2, 1, d) == 0
        assert f_p(lam, 7, 2, 2, d) == 0


def test_f_p_nine_by_hand():
    two_fixed = CycleType((2, 0))
    one_swap = CycleType((0, 1))
    assert f_p(two_fixed, 3, 2, 1, 1) == 2
    assert f_p(two_fixed, 3, 2, 1, 2) == 0
    assert f_p(two_fixed, 3, 2, 2, 1) == 4
    assert f_p(one_swap, 3, 2, 1, 1) == 1
    assert f_p(one_swap, 3, 2, 1, 2) == 1
    assert f_p(one_swap, 3, 2, 2, 1) == 2
    assert f_p(one_swap, 3, 2, 2, 2) == 2


def test_f_p_four_by_hand():
    assert f_p(CycleType((0, 1)), 2, 2, 1, 1) == 2
    assert f_p(CycleType((0, 1)), 2, 2, 2, 1) == 2
    assert f_p(CycleType((2, 0)), 2, 2, 1, 1) == 2


def test_f_p_validation():
    lam = CycleType((1,))
    with pytest.raises(ValueError):
        f_p(lam, 2, 3, 1, 1)
    with pytest.raises(ValueError):
        f_p(lam, 3, 2, 0, 1)
    with pytest.raises(ValueError):
        f_p(lam, 3, 2, 3, 1)
    with pytest.raises(ValueError):
        f_p(lam, 3, 2, 1, 3)
    with pytest.raises(ValueError):
        f_p(lam, 4, 2, 1, 1)


def test_f_2_eight_by_hand():
    lam = CycleType((1,))
    assert f_2(lam, 3, 2, 1) == 2
    assert f_2(lam, 3, 3, 1) == 3
    assert f_2(lam, 3, 2, 2) == 1
    assert f_2(lam, 3, 3, 2) == 1


def test_f_2_sixteen_by_hand():
    one_swap = CycleType((0, 1))
    assert f_2(one_swap, 4, 2, 1) == 3
    assert f_2(one_swap, 4, 3, 1) == 4
    assert f_2(one_swap, 4, 4, 1) == 4
    assert f_2(one_swap, 4, 2, 2) == 3
    assert f_2(one_swap, 4, 3, 2) == 4
    assert f_2(one_swap, 4, 4, 2) == 4
    two_fixed = CycleType((2, 0))
    assert f_2(two_fixed, 4, 2, 1) == 4
    assert f_2(two_fixed, 4, 2, 2) == 2


def test_f_2_top_two_shapes_coincide():
    for e in (3, 4, 5):
        for n in range(1, 5):
            for lam in cycle_types(n):
                assert f_2(lam, e, e - 1, 2) == f_2(lam, e, e, 2)


def test_f_2_validation():
    lam = CycleType((1,))
    with pytest.raises(ValueError):
        f_2(lam, 2, 2, 1)
    with pytest.raises(ValueError):
        f_2(lam, 3, 1, 1)
    with pytest.raises(ValueError):
        f_2(lam, 3, 4, 1)
    with pytest.raises(ValueError):
        f_2(lam, 3, 2, 3)


def test_n_cyclic_prime_power_golden():
    assert n_cyclic_prime_power(2, 1, 2) == 10
    assert n_cyclic_prime_power(2, 2, 2) == 76
    assert n_cyclic_prime_power(2, 3, 2) == 580
    assert n_cyclic_prime_power(3, 2, 2) == 577
    assert n_cyclic_prime_power(5, 1, 2) == 85
    assert n_cyclic_prime_power(2, 4, 1) == 46
    assert n_cyclic_prime_power(3, 1, 3) == orbit_count_naive(parse_group("C3"), 3)


def test_n_cyclic_prime_power_variants_agree():
    grids = [(p, e, n) for p in (3, 5) for e in (1, 2, 3) for n in range(1, 5)]
    grids += [(2, e, n) for e in (1, 2, 3, 4) for n in range(1, 5)]
    for p, e, n in grids:
        assert n_cyclic_prime_power(p, e, n) == n_cyclic_prime_power_alt(p, e, n), (
            p,
            e,
            n,
        )


def test_n_cyclic_golden():
    for n in range(1, 5):
        assert n_cyclic(1, n) == 1
    assert n_cyclic(6, 1) == 20
    assert n_cyclic(10, 1) == 28
    assert n_cyclic(12, 1) == 50
    assert n_cyclic(12, 2) == 2860
    assert n_cyclic(15, 1) == 35


def test_n_cyclic_matches_naive_composite():
    assert n_cyclic(6, 2) == orbit_count_naive(parse_group("C6"), 2)
    assert n_cyclic(10, 1) == orbit_count_naive(parse_group("C10"), 1)


def test_unit_orders_match_listed_units():
    for q in range(2, 1025):
        if len(factorize(q)) != 1:
            continue
        ((p, e),) = factorize(q)
        listed = Counter(delta_vector(i, p, e).entries for i in range(1, q) if i % p)
        from_shapes = unit_orders(p, e)
        assert from_shapes == listed, q
        assert sum(from_shapes.values()) == euler_phi(q)


def test_unit_census_counts_fixed_residues():
    # The r-th power of the unit u fixes gcd(u**r - 1, q) residues modulo q.
    n = 8
    for q in (2, 3, 4, 5, 8, 9, 16, 25, 27, 32, 49, 64):
        ((p, e),) = factorize(q)
        listed = Counter(
            tuple(
                round(math.log(math.gcd(pow(u, r, q) - 1, q), p))
                for r in range(1, n + 1)
            )
            for u in range(1, q)
            if u % p
        )
        assert unit_census(p, e, n) == listed, q


def test_closed_count_cyclic_matches_n_cyclic():
    for m in range(1, 301):
        group = parse_group(f"C{m}")
        for n in range(1, 7):
            assert closed_count(group, n) == n_cyclic(m, n), (m, n)
    for m in LONG_N_ORDERS:
        assert closed_count(parse_group(f"C{m}"), 10) == n_cyclic(m, 10), m


@pytest.mark.parametrize(
    "m, n", [(720720, 10), (8640, 12), (4096, 15), (1, 4), (8640, 25), (8640, 40)]
)
def test_census_evaluators_agree(m, n):
    censuses = [(p, unit_census(p, e, n)) for p, e in factorize(m)]
    total = census_sum_by_profile(censuses, n)
    assert census_sum_by_cycle_type(censuses, n) == total
    assert total % (math.factorial(n) * euler_phi(m)) == 0


def test_census_evaluator_choice():
    def chosen(m, n):
        censuses = [(p, unit_census(p, e, n)) for p, e in factorize(m)]
        return cheaper_census_sum(censuses, n)

    # C720720 has 5,760 unit profiles; n = 40 has 37,338 cycle types.
    assert chosen(720720, 25) is census_sum_by_cycle_type
    assert chosen(12, 40) is census_sum_by_profile
    assert chosen(360, 40) is census_sum_by_profile
    assert chosen(4096, 25) is census_sum_by_profile
    # C8640 has 162 profile combinations from 18 per-prime profiles; weighed
    # as PROFILE_STEP_COST = 3 cycle-type steps each, 3 * 162 * 25**2 // 2 =
    # 151,875 steps cost more than the 1,958 types' 1,958 * (18 + 25) = 84,194.
    assert chosen(8640, 25) is census_sum_by_cycle_type


def test_census_sum_by_cycle_type_checks_the_permutation_total(monkeypatch):
    def drop_one(n):
        blocks = numtheory.cycle_type_blocks(n)
        multiplicities, weights = next(blocks)
        yield multiplicities[1:], weights[1:]
        yield from blocks

    censuses = [(p, unit_census(p, e, 6)) for p, e in factorize(12)]
    assert census_sum_by_cycle_type(censuses, 6) == census_sum_by_profile(censuses, 6)
    monkeypatch.setattr(closed_form, "cycle_type_blocks", drop_one)
    with pytest.raises(IntegralityError):
        census_sum_by_cycle_type(censuses, 6)


def test_census_sum_by_cycle_type_streams_the_types():
    """C12 at n=40 has 37,338 cycle types; their int64 multiplicity table
    alone would take 11.9 MB.  Read TYPE_CHUNK rows at a time, the sum
    peaked at about 95 KB."""
    censuses = [(p, unit_census(p, e, 40)) for p, e in factorize(12)]
    tracemalloc.start()
    try:
        total = census_sum_by_cycle_type(censuses, 40)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert total == census_sum_by_profile(censuses, 40)
    assert peak < 256 * 1024, peak


def test_closed_count_cyclic_does_not_use_n_cyclic(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed_count called n_cyclic")

    monkeypatch.setattr(closed_form, "n_cyclic", refuse)
    assert closed_count(parse_group("C12"), 2) == 2860
    assert closed_count(parse_group("C1"), 3) == 1
    assert closed_count(parse_group("C8"), 2) == 580


def test_paper_forms_do_not_use_the_census(monkeypatch):
    def refuse(*args):
        raise AssertionError("an independent form used the shared census")

    for name in ("cycle_index_sum", "unit_orders", "unit_census",
                 "census_sum_by_profile", "census_sum_by_cycle_type"):
        monkeypatch.setattr(closed_form, name, refuse)
    assert n_cyclic(12, 2) == 2860
    assert n_cyclic_prime_power(2, 3, 2) == 580
    assert n_cyclic_prime_power_alt(3, 2, 3) == n_cyclic(9, 3)
    assert formula_prime_power_n1(2, 4) == 46
    assert formula_prime_power_n2(2, 2) == 76
    assert formula_prime_any_n(5, 3) == n_cyclic(5, 3)
    assert formula_squarefree_n1([2, 3, 5]) == 140


def test_general_linear_order_golden():
    assert general_linear_order(2, 1) == 1
    assert general_linear_order(2, 2) == 6
    assert general_linear_order(2, 3) == 168
    assert general_linear_order(2, 4) == 20160
    assert general_linear_order(3, 2) == 48
    assert general_linear_order(5, 2) == 480


def test_enumerate_invertible_matrices_counts():
    for p, s in ((2, 1), (2, 2), (2, 3), (3, 2)):
        assert len(enumerate_invertible_matrices(p, s)) == general_linear_order(p, s)


def test_enumerate_invertible_matrices_budget():
    with pytest.raises(BudgetExceededError) as excinfo:
        enumerate_invertible_matrices(2, 5)
    assert excinfo.value.limit_name == "max_matrix_candidates"


@pytest.fixture(params=[None, 1, 7], ids=["default-chunk", "chunk-1", "chunk-7"])
def chunk(request, monkeypatch):
    """Batch sizes of both census producers: the defaults, or 1 and 7 so
    that every batch edge is crossed."""
    if request.param is not None:
        monkeypatch.setattr(abelian, "MATRIX_CHUNK", request.param)
        monkeypatch.setattr(burnside, "PROFILE_CHUNK", request.param)
    return request.param


def test_enumerate_invertible_matrices_match_rank_mod_p(chunk):
    for p, s in ((2, 2), (3, 2), (2, 3)):
        expected = [
            mat
            for mat in (
                tuple(flat[i * s : (i + 1) * s] for i in range(s))
                for flat in itertools.product(range(p), repeat=s * s)
            )
            if rank_mod_p(mat, p) == s
        ]
        assert enumerate_invertible_matrices(p, s) == expected


def test_n_elementary_abelian_matches_congruence(chunk):
    cases = [(p, s, n) for p, s in ((2, 3), (3, 2), (5, 2)) for n in range(1, 5)]
    if chunk is None:
        # C2^4 has 65,536 candidate matrices: one batch each would take
        # about 20 s per n, so it runs at the default batch size only.
        cases += [(2, 4, 1), (2, 4, 2)]
    for p, s, n in cases:
        group = parse_group(f"C{p}^{s}")
        assert n_elementary_abelian(p, s, n) == orbit_count_congruence(group, n), (p, s, n)


def test_n_elementary_abelian_golden():
    assert n_elementary_abelian(2, 2, 1) == 5
    assert n_elementary_abelian(2, 2, 2) == 31
    assert n_elementary_abelian(2, 2, 3) == 160
    assert n_elementary_abelian(3, 2, 1) == 6
    assert n_elementary_abelian(2, 3, 1) == 5


def test_n_elementary_abelian_rank_one_matches_cyclic():
    for p in (2, 3, 5):
        for n in (1, 2, 3):
            assert n_elementary_abelian(p, 1, n) == n_cyclic_prime_power(p, 1, n)


def test_n_elementary_abelian_budget():
    with pytest.raises(BudgetExceededError):
        n_elementary_abelian(2, 5, 1)
    # The limit and size that verify prints when it skips the witness.
    for n in (1, 2):
        with pytest.raises(BudgetExceededError) as excinfo:
            n_elementary_abelian(2, 5, n)
        assert excinfo.value.limit_name == "max_matrix_candidates"
        assert excinfo.value.required == 2**25


def test_n_elementary_abelian_prices_the_listing_by_the_endo_limit():
    # With the matrix limit raised, kernel_census prices the |GL(5, 2)|
    # automorphisms it would list at n = 1 under max_endo_candidates.
    with pytest.raises(BudgetExceededError) as excinfo:
        n_elementary_abelian(2, 5, 1, Budget(max_matrix_candidates=2**25))
    assert excinfo.value.limit_name == "max_endo_candidates"
    assert excinfo.value.required == general_linear_order(2, 5) == 9_999_360


# Every (p, s) with p**(s*s) <= 2**16 for the primes up to 13: the matrix
# scans the class census is compared with.
SCANNED_GL = [
    (p, s) for p in (2, 3, 5, 7, 11, 13) for s in range(1, 5) if p ** (s * s) <= 1 << 16
]


@pytest.mark.parametrize("p, s", SCANNED_GL)
def test_gl_class_census_equals_matrix_scan_census(p, s):
    # The census at n is the census at 6 with its profiles cut to length n,
    # so one scan serves every n.
    scanned = matrix_scan_census(p, s, 6)
    for n in range(1, 7):
        cut: Counter = Counter()
        for profile, count in scanned.items():
            cut[profile[:n]] += count
        assert gl_class_census(p, s, n) == dict(cut), (p, s, n)


@pytest.mark.parametrize("p, s", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_matrix_scan_census_matches_one_elimination_per_power(p, s):
    # The reference eliminates every power A**r - I of every invertible
    # matrix; the census reads the powers' coranks from its table.
    space = abelian.AbelianGroup(((p, 1),) * s)
    matrices = np.array(enumerate_invertible_matrices(p, s), dtype=np.int64)
    identity = np.eye(s, dtype=np.int64)
    power, coranks = identity, []
    for _ in range(4):
        power = power @ matrices % p
        coranks.append(abelian.kernel_exponents(space, power - identity))
    profiles = np.stack(coranks, axis=1).tolist()
    for n in range(1, 5):
        reference = Counter(tuple(profile[:n]) for profile in profiles)
        assert matrix_scan_census(p, s, n) == dict(reference), (p, s, n)


@pytest.mark.parametrize("p, s", [(2, 3), (3, 2)])
@pytest.mark.parametrize("n", [1, 4])
def test_matrix_scan_census_runs_through_the_abelian_kernel(monkeypatch, p, s, n):
    # abelian.kernel_exponents sees the p**(s*s) candidates that
    # general_linear_chunks tests, then one row per invertible matrix that
    # kernel_census eliminates, and no row per power.
    space = abelian.AbelianGroup(((p, 1),) * s)
    eliminated = []
    real = abelian.kernel_exponents

    def counted(group, stack):
        if group == space:
            eliminated.append(len(stack))
        return real(group, stack)

    monkeypatch.setattr(abelian, "kernel_exponents", counted)
    census = matrix_scan_census(p, s, n)
    assert sum(census.values()) == general_linear_order(p, s)
    assert sum(eliminated) == p ** (s * s) + general_linear_order(p, s)


# k(GL(s, p)), the number of conjugacy classes.
GL_CLASS_COUNTS = (
    (2, 1, 1), (3, 1, 2), (7, 1, 6), (2, 2, 3), (3, 2, 8), (5, 2, 24),
    (2, 3, 6), (3, 3, 24), (2, 4, 14), (2, 5, 27), (3, 4, 78), (5, 3, 120),
    (2, 8, 246), (5, 4, 620), (3, 6, 720),
)


@pytest.mark.parametrize("p, s, classes", GL_CLASS_COUNTS)
def test_gl_classes_are_the_known_count_and_add_up_to_the_group(p, s, classes):
    listed = list(gl_classes(p, s, 2))
    assert len(listed) == classes
    assert sum(size for size, _ in listed) == general_linear_order(p, s)
    assert all(profile[0] <= s for _, profile in listed)


def test_irreducible_orders_count_the_irreducibles():
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    for p in (2, 3, 5):
        tally = irreducible_orders(p, 6 if p < 5 else 3)
        for d in range(1, 7 if p < 5 else 4):
            monic = sum(mobius[d // k] * p**k for k in range(1, d + 1) if d % k == 0) // d
            found = sum(count for (deg, _), count in tally.items() if deg == d)
            assert found == monic - (d == 1), (p, d)  # x itself is left out
    assert irreducible_orders(2, 2) == {(1, 1): 1, (2, 3): 1}


def test_irreducible_polynomials_are_gauss_counts_without_a_root():
    """The sieve leaves (1/d) sum_{k | d} mu(d/k) p**k monic irreducibles of
    each degree d, less x at d = 1, and none of degree 2 or 3 has a root."""
    mobius = {1: 1, 2: -1, 3: -1, 4: 0, 5: -1, 6: 1}
    for p, s in ((2, 6), (3, 5), (5, 3), (7, 2)):
        polynomials = irreducible_polynomials(p, s)
        assert polynomials == sorted(polynomials, key=len)
        for d in range(1, s + 1):
            monic = sum(mobius[d // k] * p**k for k in range(1, d + 1) if d % k == 0) // d
            of_degree = [f for f in polynomials if len(f) == d + 1]
            assert len(of_degree) == len(set(of_degree)) == monic - (d == 1), (p, d)
            assert all(f[-1] == 1 and f[0] != 0 for f in of_degree)
            if d in (2, 3):
                assert all(
                    sum(c * x**i for i, c in enumerate(f)) % p for f in of_degree for x in range(p)
                ), (p, d)
    assert irreducible_polynomials(2, 2) == [(1, 1), (1, 1, 1)]


def test_gl_classes_check_their_sizes(monkeypatch):
    real = glclasses._centralizer_factor
    monkeypatch.setattr(glclasses, "_centralizer_factor", lambda parts, q: 1)
    with pytest.raises(IntegralityError):
        gl_class_census(2, 2, 1)
    monkeypatch.setattr(
        glclasses, "_centralizer_factor", lambda parts, q: 7 * real(parts, q)
    )
    with pytest.raises(IntegralityError):
        gl_class_census(2, 2, 1)


def test_closed_count_validation():
    for spec in ("C1", "C7", "C2^2", "C2xC4", "C2^2xC3"):
        with pytest.raises(ValueError):
            closed_count(parse_group(spec), 0)


# n = 2 counts of elementary groups: C2^4 and C3^3 agree with congruence and
# the matrix scan; C2^5, C3^4 and C5^3 with the matrix scan under a raised
# max_matrix_candidates (a run outside the test suite; see CHANGES.md).
ELEMENTARY_N2 = {"C2^4": 41, "C3^3": 123, "C2^5": 41, "C3^4": 124, "C5^3": 591}


def test_closed_count_elementary_lists_no_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed_count scanned matrices")

    monkeypatch.setattr(abelian, "automorphism_index", refuse)
    monkeypatch.setattr(abelian, "automorphism_chunks", refuse)
    monkeypatch.setattr(closed_form, "automorphism_chunks", refuse)
    for spec, expected in ELEMENTARY_N2.items():
        assert closed_count(parse_group(spec), 2) == expected, spec


def test_n_elementary_abelian_does_not_use_the_classes(monkeypatch):
    def refuse(*args):
        raise AssertionError("the matrix scan used the class census")

    for name in ("gl_classes", "gl_class_representatives", "irreducible_polynomials"):
        monkeypatch.setattr(glclasses, name, refuse)
    monkeypatch.setattr(abelian, "gl_class_representatives", refuse)
    for name in ("gl_class_census", "cheaper_census_sum"):
        monkeypatch.setattr(closed_form, name, refuse)
    assert n_elementary_abelian(2, 2, 2) == 31
    assert n_elementary_abelian(2, 3, 2) == 40
    assert n_elementary_abelian(3, 3, 2) == 123


def test_closed_count_elementary_budget():
    with pytest.raises(BudgetExceededError) as excinfo:
        closed_count(parse_group("C2^5"), 2, Budget(max_matrix_candidates=16))
    assert excinfo.value.limit_name == "max_matrix_candidates"
    assert excinfo.value.required == 32


def test_closed_count_matches_congruence_on_mixed_groups():
    cases = 0
    for order in range(1, 65):
        for group in abelian_groups_of_order(order):
            if len({p for p, _ in group.factors}) < 2:
                continue
            for n in (1, 2, 3):
                assert closed_count(group, n) == orbit_count_congruence(group, n), (
                    str(group), n)
                cases += 1
    assert cases == 183


# Pinned by orbit_count_congruence under Budget(max_group_order=1024).
MIXED_N2 = {"C2^3xC3^2": 5832, "C2^2xC3^3": 5573}


def test_closed_count_splits_mixed_groups_by_sylow(monkeypatch):
    def refuse(*args):
        raise AssertionError("closed_count scanned the whole group")

    monkeypatch.setattr(abelian, "automorphism_index", refuse)
    monkeypatch.setattr(abelian, "automorphism_chunks", refuse)
    monkeypatch.setattr(closed_form, "automorphism_chunks", refuse)
    for spec, expected in MIXED_N2.items():
        assert closed_count(parse_group(spec), 2) == expected, spec


def test_closed_count_budget_applies_to_each_scanned_sylow_factor(monkeypatch):
    # The 2-part C2xC4 of C2xC4xC3^2 has 2*2*2*4 = 32 candidates and its
    # 3-part is elementary, so 32 is enough, far below the whole group's.
    tight = Budget(max_endo_candidates=32)
    assert closed_count(parse_group("C2xC4xC3^2"), 2, tight) == orbit_count_congruence(
        parse_group("C2xC4xC3^2"), 2, Budget(max_group_order=72)
    )
    # max_group_order bounds the element images only: closed answers the
    # 3-group C3^2xC9 of order 81, while congruence still refuses it.
    group = parse_group("C3^2xC9")
    assert closed_count(group, 2) == orbit_count_congruence(
        group, 2, Budget(max_group_order=81)
    )
    with pytest.raises(BudgetExceededError) as excinfo:
        orbit_count_congruence(group, 2)
    assert excinfo.value.limit_name == "max_group_order"
    assert excinfo.value.required == 81
    # At every n the limit prices the rows listed: |Aut| without a C_p^b
    # block, min(p^b * n, |GL(b, p)|) blocks of per_block rows with one.
    for spec, required in (("C3xC9xC27", 1_417_176), ("C2^3xC4^2", 16 * 393_216)):
        with pytest.raises(BudgetExceededError) as excinfo:
            closed_count(parse_group(spec), 2)
        assert excinfo.value.limit_name == "max_endo_candidates"
        assert excinfo.value.required == required, spec
    # At n = 1 it prices the listed automorphisms with p^b for the class
    # count: 2^5 * 2^11 for C2^5xC4, which lists 27 classes of 2^11 each.
    c2_5xc4 = parse_group("C2^5xC4")
    count = closed_count(c2_5xc4, 1)
    assert count == 20 == closed_count(parse_group("C2^4xC4"), 1)
    assert count == orbit_count_congruence(parse_group("C2^3xC4"), 1)
    # The representatives price the p^b * b^2 = 2^5 * 25 entries of at most
    # p^b classes.
    with pytest.raises(BudgetExceededError) as excinfo:
        closed_count(c2_5xc4, 1, Budget(max_matrix_candidates=16))
    assert excinfo.value.limit_name == "max_matrix_candidates"
    assert excinfo.value.required == 800
    # C2^10xC4 is priced at 2^10 * 2^21 before any class is built; the class
    # sizes of GL(10, 2) would not fit in int64.
    def refuse(*args):
        raise AssertionError("a class representative was built")

    monkeypatch.setattr(abelian, "gl_class_representatives", refuse)
    monkeypatch.setattr(glclasses, "gl_class_representatives", refuse)
    with pytest.raises(BudgetExceededError) as excinfo:
        closed_count(parse_group("C2^10xC4"), 1)
    assert excinfo.value.limit_name == "max_endo_candidates"
    assert excinfo.value.required == 2**31


def test_closed_count_lists_one_block_per_class_of_c2_4xc4():
    assert closed_count(parse_group("C2^4xC4"), 1) == 20


@pytest.mark.parametrize("spec,count", [("C2^4xC4", 584), ("C3^3xC9", 4507)])
def test_closed_count_answers_block_groups_at_n2_on_the_default_budget(spec, count):
    """Priced by the rows listed, not by the candidate space (2^26 for
    C2^4xC4); both counts equal a candidate-table census at a raised limit."""
    assert closed_count(parse_group(spec), 2) == count


# Scanned p-groups whose Smith census is checked against the element images;
# C2^3xC4, C2^3xC8 and C3^2xC9 list one block per GL(b, p) class.
SMITH_GROUPS = (
    "C2xC4", "C3xC9", "C4xC4", "C2^2xC8", "C2xC4xC8", "C8^2xC2", "C3^2xC9",
    "C2^3xC4", "C2^3xC8",
)


def _element_image_census(group, n):
    """The fixed-count census from element images, as exponent profiles."""
    p = group.factors[0][0]
    images = Budget(max_group_order=group.order)
    exponent = {p**c: c for c in range(sum(e for _, e in group.factors) + 1)}
    return {
        tuple(exponent[f] for f in profile): count
        for profile, count in burnside.fixed_count_census(group, n, images).items()
    }


@pytest.mark.parametrize("spec", SMITH_GROUPS)
def test_smith_census_matches_the_element_image_census(spec):
    group = parse_group(spec)
    for n in range(1, 5):
        assert closed_form._sylow_census(group, n, Budget()) == _element_image_census(
            group, n
        ), n


@pytest.mark.parametrize("spec,n", [("C3xC9", 25), ("C2xC4xC8", 8)])
def test_smith_census_matches_the_element_image_census_at_long_n(spec, n):
    """Powers up to A**n are looked up in the sorted listing, so a long n
    reaches powers far past the automorphisms' own chunks."""
    group = parse_group(spec)
    assert closed_form._sylow_census(group, n, Budget()) == _element_image_census(group, n)


def test_kernel_census_eliminates_each_automorphism_once(monkeypatch):
    group = parse_group("C2xC4xC8")
    eliminated = []
    real = abelian.kernel_exponents

    def counted(space, stack):
        if space == group:
            eliminated.append(len(stack))
        return real(space, stack)

    monkeypatch.setattr(abelian, "kernel_exponents", counted)
    census = abelian.kernel_census(group, 5)
    assert sum(eliminated) == sum(census.values()) == abelian.automorphism_count(group)


@pytest.mark.parametrize("n", [1, 3])
def test_kernel_census_lists_one_block_per_class(monkeypatch, n):
    """C2^3xC4 lists the automorphisms over the GL(3, 2) class
    representatives and their powers, fewer than |Aut|; the class sizes
    weigh the tally back up to |Aut|."""
    group = parse_group("C2^3xC4")
    eliminated = []
    real = abelian.kernel_exponents

    def counted(space, stack):
        if space == group:
            eliminated.append(len(stack))
        return real(space, stack)

    monkeypatch.setattr(abelian, "kernel_exponents", counted)
    census = abelian.kernel_census(group, n)
    order = abelian.automorphism_count(group)
    per_block = order // general_linear_order(2, 3)
    assert sum(census.values()) == order
    assert per_block * 6 <= sum(eliminated) < order


@pytest.mark.parametrize("p,b", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2)])
def test_general_linear_classes_match_the_class_formula(p, b):
    """The rational canonical forms of gl_class_representatives carry the
    classes of gl_classes: the same sizes, and each representative's powers
    fix as many vectors as the closed form says."""
    representatives, sizes = gl_class_representatives(p, b)
    assert representatives.shape == (len(sizes), b, b)
    assert not representatives.flags.writeable
    space, identity = parse_group(f"C{p}^{b}"), np.eye(b, dtype=np.int64)
    found = Counter()
    for matrix, size in zip(representatives, sizes):
        powers = [np.linalg.matrix_power(matrix, r) % p for r in range(1, b + 2)]
        profile = abelian.kernel_exponents(space, np.stack(powers) - identity)
        found[size, tuple(profile.tolist())] += 1
    assert found == Counter(gl_classes(p, b, b + 1))
    if (p, b) == (2, 4):
        assert len(sizes) == 14  # GL(4, 2) is A8, with 14 classes
    if (p, b) == (2, 5):
        assert len(sizes) == 27


@pytest.mark.parametrize("p,b,required", [(2, 13, 1_384_448), (2, 14, 3_211_264)])
def test_gl_class_representatives_price_their_entries(p, b, required):
    """p**b * b**2, the entries of at most p**b representatives, is checked
    against max_matrix_candidates before any class is built; unpriced,
    GL(14, 2) would build 16,284 classes."""
    with pytest.raises(BudgetExceededError) as excinfo:
        gl_class_representatives(p, b)
    assert excinfo.value.limit_name == "max_matrix_candidates"
    assert excinfo.value.required == required == p**b * b * b


@pytest.mark.parametrize("p,b", [(2, 2), (2, 3), (3, 2), (2, 4)])
def test_gl_class_representatives_are_one_per_class_by_brute_force(p, b):
    """Over every matrix P of GL(b, p), found without the class formula:
    each representative R commutes with |GL| / size(R) of them, and no P
    conjugates one representative into another."""
    entries = np.array(list(itertools.product(range(p), repeat=b * b)), dtype=np.int64)
    matrices = entries.reshape(-1, b, b)
    group = matrices[np.round(np.linalg.det(matrices)).astype(np.int64) % p != 0]
    assert len(group) == general_linear_order(p, b)
    representatives, sizes = gl_class_representatives(p, b)
    left = [group @ r % p for r in representatives]  # P R
    right = [r @ group % p for r in representatives]  # R P
    for i, size in enumerate(sizes):
        for j in range(len(sizes)):
            meets = (left[i] == right[j]).all(axis=(1, 2))  # P R_i P**-1 == R_j
            if i == j:
                assert meets.sum() * size == len(group)
            else:
                assert not meets.any(), (i, j)


def test_closed_count_caches_no_automorphism():
    abelian.enumerate_automorphisms.cache_clear()
    for spec in ("C2xC4xC8", "C4^3", "C3^2xC9"):
        closed_count(parse_group(spec), 3)
    assert abelian.enumerate_automorphisms.cache_info().currsize == 0


def test_kernel_census_refuses_a_power_missing_from_the_table(monkeypatch):
    """With the identity left out of the listed index, the square of an
    involution lands on no entry."""
    group = parse_group("C2xC4xC8")
    listing, order = abelian.automorphism_index, abelian.automorphism_count(group)
    identity = np.eye(group.rank, dtype=np.int64)

    def without_identity(space, blocks=None):
        index, *layout = listing(space, blocks)
        matrices = abelian._decode(index, *layout)
        return index[~(matrices == identity).all(axis=(1, 2))], *layout

    monkeypatch.setattr(abelian, "automorphism_index", without_identity)
    with pytest.raises(IntegralityError, match=f"tallies {order - 1} automorphisms, not {order}"):
        abelian.kernel_census(group, 1)
    with pytest.raises(IntegralityError, match="not listed"):
        abelian.kernel_census(group, 2)


@pytest.mark.parametrize("n", [1, 3])
def test_kernel_census_checks_its_total(monkeypatch, n):
    """A class size off by one weighs the tally away from |Aut|, which
    nothing else in the listing notices."""
    group = parse_group("C2^3xC4")
    real = abelian.gl_class_representatives

    def miscounted(p, b, budget=Budget()):
        representatives, sizes = real(p, b, budget)
        return representatives, (sizes[0] + 1, *sizes[1:])

    monkeypatch.setattr(abelian, "gl_class_representatives", miscounted)
    with pytest.raises(IntegralityError, match="tallies"):
        abelian.kernel_census(group, n)


@pytest.mark.parametrize("n", [1, 3])
def test_kernel_census_tallies_exactly_past_int64(monkeypatch, n):
    """Class sizes and |Aut| scaled by 2**64 carry the tally past int64,
    where a weighted int64 sum would wrap or overflow; every count stays
    exact."""
    group = parse_group("C2^3xC4")
    expected = abelian.kernel_census(group, n)
    scale = 1 << 64
    real_classes, real_count = abelian.gl_class_representatives, abelian.automorphism_count
    per_block = abelian._listed_per_block(group, 2, 3)

    def scaled(p, b, budget=Budget()):
        representatives, sizes = real_classes(p, b, budget)
        return representatives, tuple(size * scale for size in sizes)

    monkeypatch.setattr(abelian, "gl_class_representatives", scaled)
    monkeypatch.setattr(abelian, "automorphism_count", lambda space: real_count(space) * scale)
    monkeypatch.setattr(abelian, "_listed_per_block", lambda *args: per_block)
    census = abelian.kernel_census(group, n)
    assert census == {profile: count * scale for profile, count in expected.items()}
    assert sum(census.values()) > 1 << 63


@pytest.mark.parametrize(
    "spec,n,decoded",
    # The table pass decodes every listed row, the census pass only the
    # rows over the GL(b, p) class representatives.
    [("C2^3xC4", 3, [1_664, 768]), ("C3^2xC9", 2, [5_832, 3_888])],
)
def test_kernel_census_pass_reads_only_what_it_tallies(monkeypatch, spec, n, decoded):
    group = parse_group(spec)
    rows = []
    real = abelian._decode

    def counted(index, *layout):
        rows.append(len(index))
        return real(index, *layout)

    monkeypatch.setattr(abelian, "_decode", counted)
    census = abelian.kernel_census(group, n)
    assert rows == decoded
    assert sum(census.values()) == abelian.automorphism_count(group)


@pytest.mark.parametrize("spec,p,b", [("C2^2xC4", 2, 2), ("C3^2xC9", 3, 2)])
def test_automorphism_index_lists_class_blocks_one_after_another(spec, p, b):
    """Given blocks, the listing is unsorted: slice j of per_block rows is
    the automorphisms over blocks[j], representatives first."""
    group = parse_group(spec)
    blocks, sizes = abelian._class_blocks(p, b, 2, Budget())
    assert len(sizes) < len(blocks)
    np.testing.assert_array_equal(blocks[: len(sizes)], gl_class_representatives(p, b)[0])
    index, *layout = abelian.automorphism_index(group, blocks)
    per_block = abelian.automorphism_count(group) // general_linear_order(p, b)
    assert len(index) == len(blocks) * per_block
    for j, block in enumerate(blocks):
        matrices = abelian._decode(index[j * per_block : (j + 1) * per_block], *layout)
        assert (matrices[:, :b, :b] == block).all(), j


def test_closed_count_maps_no_element_of_a_scanned_factor(monkeypatch):
    raised = Budget(max_group_order=81)
    expected = {
        spec: orbit_count_congruence(parse_group(spec), 2, raised)
        for spec in ("C2xC4xC8", "C3^2xC9")
    }

    def refuse(*args, **kwargs):
        raise AssertionError("closed_count mapped group elements")

    for module, name in (
        (abelian, "element_images"), (burnside, "element_images"),
        (burnside, "fixed_count_census"),
    ):
        monkeypatch.setattr(module, name, refuse)
    for spec, count in expected.items():
        assert closed_count(parse_group(spec), 2) == count, spec


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_closed_count_refuses_an_altered_automorphism_scan(monkeypatch, change):
    scan = abelian.general_linear_chunks

    def altered(p, b):
        chunks = list(scan(p, b))
        last = chunks[-1]
        chunks[-1] = last[:-1] if change == "drop" else np.concatenate([last, last[-1:]])
        return iter(chunks)

    abelian.enumerate_automorphisms.cache_clear()
    monkeypatch.setattr(abelian, "general_linear_chunks", altered)
    with pytest.raises(IntegralityError):
        closed_count(parse_group("C2xC4xC8"), 2)
    assert abelian.enumerate_automorphisms.cache_info().currsize == 0


def test_closed_count_checks_the_unit_census_total(monkeypatch):
    real = closed_form._shape_weight
    monkeypatch.setattr(
        closed_form, "_shape_weight", lambda p, e, k, d: 2 * real(p, e, k, d)
    )
    with pytest.raises(IntegralityError):
        closed_count(parse_group("C9"), 2)


def test_n_general_and_closed_count():
    mixed = parse_group("C2xC4")
    assert orbit_count_congruence(mixed, 1) == 19
    assert closed_count(mixed, 1) == 19
    assert closed_count(mixed, 2) == 364
    assert closed_count(parse_group("C2xC8"), 1) == 46
    assert closed_count(parse_group("C12"), 1) == 50
    assert closed_count(parse_group("C2^2"), 2) == 31
    assert closed_count(parse_group("C1"), 3) == 1


def test_formula_prime_power_n1_golden():
    expected = {
        (2, 1): 4,
        (2, 2): 10,
        (2, 3): 22,
        (2, 4): 46,
        (2, 5): 94,
        (3, 1): 5,
        (3, 2): 17,
        (3, 3): 53,
        (5, 1): 7,
        (5, 2): 37,
        (7, 1): 9,
    }
    for (p, e), value in expected.items():
        assert formula_prime_power_n1(p, e) == value
        assert n_cyclic_prime_power(p, e, 1) == value


def test_formula_prime_power_n2_golden():
    assert formula_prime_power_n2(2, 1) == 10
    assert formula_prime_power_n2(2, 2) == 76
    assert formula_prime_power_n2(2, 3) == 580
    assert formula_prime_power_n2(3, 1) == 25
    assert formula_prime_power_n2(3, 2) == 577
    assert formula_prime_power_n2(5, 1) == 85
    assert formula_prime_power_n2(7, 1) == 209


def test_formula_prime_power_n2_matches_shape_sum():
    for p, e in ((2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 1)):
        assert formula_prime_power_n2(p, e) == n_cyclic_prime_power(p, e, 2)


def test_formula_prime_any_n_golden():
    assert formula_prime_any_n(2, 1) == 4
    assert formula_prime_any_n(2, 2) == 10
    assert formula_prime_any_n(3, 2) == 25
    assert formula_prime_any_n(7, 2) == 209
    assert formula_prime_any_n(5, 1) == 7


def test_formula_prime_any_n_matches_shape_sum_and_naive():
    for p in (2, 3, 5, 7):
        for n in (1, 2, 3, 4):
            assert formula_prime_any_n(p, n) == n_cyclic_prime_power(p, 1, n)
    assert formula_prime_any_n(3, 3) == orbit_count_naive(parse_group("C3"), 3)
    assert formula_prime_any_n(2, 3) == orbit_count_naive(parse_group("C2"), 3)
    assert formula_prime_any_n(5, 2) == orbit_count_naive(parse_group("C5"), 2)


def test_formula_squarefree_n1_golden():
    assert formula_squarefree_n1(()) == 1
    assert formula_squarefree_n1((2,)) == 4
    assert formula_squarefree_n1((2, 3)) == 20
    assert formula_squarefree_n1((3, 5)) == 35
    assert formula_squarefree_n1((2, 3, 5)) == 140
    assert formula_squarefree_n1((2, 5)) == 28


def test_formula_squarefree_n1_matches_cyclic():
    for primes, order in (((2, 3), 6), ((2, 5), 10), ((3, 5), 15), ((2, 3, 5), 30)):
        assert formula_squarefree_n1(primes) == n_cyclic(order, 1)


def test_formula_squarefree_n1_errors():
    with pytest.raises(ValueError):
        formula_squarefree_n1((4,))
    with pytest.raises(ValueError):
        formula_squarefree_n1((3, 3))


def test_prime_power_count_validation():
    with pytest.raises(ValueError):
        n_cyclic_prime_power(4, 1, 1)
    with pytest.raises(ValueError):
        n_cyclic_prime_power(3, 0, 1)
    with pytest.raises(ValueError):
        formula_prime_any_n(6, 1)
    with pytest.raises(ValueError):
        formula_prime_any_n(3, 0)
