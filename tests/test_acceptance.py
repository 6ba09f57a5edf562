"""End-to-end acceptance checks.

Each test covers one acceptance criterion and prints a single
[PASS]/[FAIL] line describing it (visible with `pytest -s` or `-v -rA`);
the test fails if any check inside the criterion fails.
"""
import math
import time
from fractions import Fraction

from escount.abelian import AbelianGroup, enumerate_automorphisms, parse_group
from escount.burnside import (
    fixed_point_report,
    fixed_points_by_cycles,
    fixed_points_naive,
    orbit_count_congruence,
    orbit_count_naive,
    permutations_of,
)
from escount.closed_form import (
    formula_prime_any_n,
    formula_prime_power_n1,
    formula_prime_power_n2,
    formula_squarefree_n1,
    enumerate_invertible_matrices,
    general_linear_order,
    n_cyclic,
    n_cyclic_prime_power,
    n_cyclic_prime_power_alt,
    n_elementary_abelian,
)
from escount.numtheory import (
    CycleType,
    cycle_types,
    delta_census,
    divisors,
    euler_phi,
    factorize,
    shape_parameters,
)
from escount.verify import abelian_groups_of_order, sweep


def _run_criterion(num, description, body):
    failures = []
    notes = []
    try:
        body(failures, notes)
    except Exception as exc:  # keep the status line even on a crash
        failures.append(f"unexpected {type(exc).__name__}: {exc}")
    status = "PASS" if not failures else "FAIL"
    suffix = f" [{'; '.join(notes)}]" if notes else ""
    print(f"[{status}] criterion {num}: {description}{suffix}")
    assert not failures, f"criterion {num}: " + "; ".join(failures)


def _expect(failures, condition, message):
    if not condition:
        failures.append(message)


def small_groups(max_order):
    return [
        group
        for order in range(1, max_order + 1)
        for group in abelian_groups_of_order(order)
    ]


def test_criterion_1_two_pair_pinned_counts():
    def body(failures, notes):
        for spec, expected in (("C2", 10), ("C4", 76)):
            group = parse_group(spec)
            ((p, e),) = group.factors
            computed = {
                "naive": orbit_count_naive(group, 2),
                "congruence": orbit_count_congruence(group, 2),
                "shape_sum": n_cyclic_prime_power(p, e, 2),
                "formula": formula_prime_power_n2(p, e),
            }
            for name, value in computed.items():
                _expect(
                    failures,
                    value == expected,
                    f"{spec} pairs via {name}: got {value}, want {expected}",
                )

    _run_criterion(
        1, "pair counts 10 and 76 for the smallest cyclic 2-groups, four ways", body
    )


def test_criterion_2_single_prime_power_counts():
    def body(failures, notes):
        cases = [
            (p, e, p**e + 2 * sum(p**j for j in range(e)))
            for p, e in ((2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1), (3, 3))
        ]
        cases += [(2, e, 2 ** (e + 1) + 2**e - 2) for e in (3, 4, 5)]
        for p, e, expected in cases:
            formula = formula_prime_power_n1(p, e)
            shape_sum = n_cyclic_prime_power(p, e, 1)
            _expect(
                failures,
                formula == expected,
                f"C{p**e} singles formula: got {formula}, want {expected}",
            )
            _expect(
                failures,
                shape_sum == expected,
                f"C{p**e} singles shape sum: got {shape_sum}, want {expected}",
            )
            if p**e <= 16:
                naive = orbit_count_naive(AbelianGroup(((p, e),)), 1)
                _expect(
                    failures,
                    naive == expected,
                    f"C{p**e} singles naive: got {naive}, want {expected}",
                )

    _run_criterion(
        2, "single counts for prime powers: closed expression, sum, and scan", body
    )


def test_criterion_3_squarefree_single_counts():
    def body(failures, notes):
        for order, expected in ((6, 20), (10, 28), (15, 35), (30, 140)):
            group = parse_group(f"C{order}")
            primes = [p for p, _ in group.factors]
            computed = {
                "formula": formula_squarefree_n1(primes),
                "cyclic": n_cyclic(order, 1),
                "general": orbit_count_congruence(group, 1),
            }
            if order <= 16:
                computed["naive"] = orbit_count_naive(group, 1)
            for name, value in computed.items():
                _expect(
                    failures,
                    value == expected,
                    f"C{order} singles via {name}: got {value}, want {expected}",
                )

    _run_criterion(3, "squarefree single counts are products of p + 2", body)


def test_criterion_4_prime_any_length():
    pinned = {
        (2, 1): 4,
        (2, 2): 10,
        (2, 3): 20,
        (3, 1): 5,
        (3, 2): 25,
        (5, 1): 7,
        (5, 2): 85,
    }

    def body(failures, notes):
        for p in (2, 3, 5):
            group = AbelianGroup(((p, 1),))
            for n in (1, 2, 3):
                formula = formula_prime_any_n(p, n)
                shape_sum = n_cyclic_prime_power(p, 1, n)
                naive = orbit_count_naive(group, n)
                _expect(
                    failures,
                    formula == shape_sum == naive,
                    f"C{p} n={n}: formula {formula}, shape sum {shape_sum}, naive {naive}",
                )
                if (p, n) in pinned:
                    _expect(
                        failures,
                        formula == pinned[(p, n)],
                        f"C{p} n={n}: got {formula}, want {pinned[(p, n)]}",
                    )

    _run_criterion(
        4, "prime-order counts at lengths 1..3: formula, sum, and scan agree", body
    )


def test_criterion_5_elementary_abelian():
    def body(failures, notes):
        for p, s in ((2, 2), (2, 3), (3, 2)):
            order = general_linear_order(p, s)
            enumerated = len(enumerate_invertible_matrices(p, s))
            _expect(
                failures,
                enumerated == order,
                f"invertible {s}x{s} over p={p}: enumerated {enumerated}, "
                f"formula {order}",
            )
        klein = AbelianGroup(((2, 1), (2, 1)))
        for n in (1, 2):
            closed = n_elementary_abelian(2, 2, n)
            naive = orbit_count_naive(klein, n)
            _expect(
                failures,
                closed == naive,
                f"rank-2 elementary n={n}: closed {closed}, naive {naive}",
            )
        single = n_elementary_abelian(2, 2, 1)
        _expect(failures, single == 5, f"rank-2 elementary n=1: got {single}, want 5")

    _run_criterion(
        5, "matrix-group orders and rank-2 elementary counts match scans", body
    )


def test_criterion_6_cross_method_sweep():
    def body(failures, notes):
        start = time.perf_counter()
        pairs = sweep(16, 2)
        pairs_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        triples = sweep(8, 3)
        triples_elapsed = time.perf_counter() - start
        for label, report in (("pairs", pairs), ("triples", triples)):
            for case in report.disagreements:
                failures.append(f"{label} sweep: {case.group} n={case.n} {case.values}")
            for case in report.cases:
                _expect(
                    failures,
                    bool(case.values),
                    f"{label} sweep: {case.group} n={case.n} had no usable method",
                )
        notes.append(
            f"order<=16 n<=2 in {pairs_elapsed:.1f}s, order<=8 n=3 in "
            f"{triples_elapsed:.1f}s"
        )

    _run_criterion(6, "cross-method sweeps find zero disagreements", body)


def test_criterion_7_property_suites():
    def body(failures, notes):
        for n in range(1, 1001):
            if sum(euler_phi(d) for d in divisors(n)) != n:
                failures.append(f"totient-divisor identity fails at {n}")
                break
        for n in range(1, 13):
            types = list(cycle_types(n))
            weight_sum = sum((lam.weight() for lam in types), Fraction(0))
            if weight_sum != 1:
                failures.append(f"cycle-type weights at n={n} sum to {weight_sum}")
            count_sum = sum(lam.permutation_count() for lam in types)
            if count_sum != math.factorial(n):
                failures.append(f"cycle-type counts at n={n} sum to {count_sum}")
        for power in (3, 9, 27, 5, 25, 4, 8, 16):
            ((p, e),) = factorize(power)
            census = delta_census(p, e)
            if p != 2 or e <= 2:
                expected = {
                    (k, d): euler_phi(p ** (e - k) * d)
                    for k, d in shape_parameters(p, e)
                }
            else:
                expected = {(k, 1): euler_phi(2 ** (e - k)) for k in range(2, e + 1)}
                for k in range(2, e - 1):
                    expected[(k, 2)] = euler_phi(2 ** (e - k))
                expected[(e, 2)] = 2
            _expect(
                failures,
                census == expected,
                f"unit-shape census mod {power}: got {census}, want {expected}",
            )
        for group in small_groups(8):
            for n in (1, 2):
                for auto in enumerate_automorphisms(group):
                    for sigma in permutations_of(n):
                        scanned = fixed_points_naive((auto, sigma))
                        product = fixed_points_by_cycles(
                            auto, CycleType.from_permutation(sigma)
                        )
                        _expect(
                            failures,
                            scanned == product,
                            f"{group} n={n} pair {auto.rows}/{sigma}: "
                            f"scan {scanned}, product {product}",
                        )
                report = fixed_point_report(group, n)
                acting = len(enumerate_automorphisms(group)) * math.factorial(n)
                _expect(
                    failures,
                    report.total % acting == 0,
                    f"{group} n={n}: fixed-point total {report.total} not "
                    f"divisible by {acting}",
                )

    _run_criterion(
        7,
        "arithmetic identities, unit-shape census, per-pair product rule, "
        "and exact averages",
        body,
    )


def test_criterion_8_formula_variants():
    def body(failures, notes):
        grid = [(p, e, n) for p in (3, 5) for e in (1, 2, 3) for n in range(1, 5)]
        grid += [(2, e, n) for e in (3, 4) for n in range(1, 5)]
        for p, e, n in grid:
            direct = n_cyclic_prime_power(p, e, n)
            regrouped = n_cyclic_prime_power_alt(p, e, n)
            _expect(
                failures,
                direct == regrouped,
                f"p={p} e={e} n={n}: direct {direct}, regrouped {regrouped}",
            )

    _run_criterion(8, "regrouped count expressions equal the direct sums", body)
