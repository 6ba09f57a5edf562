"""Compute the pinned counts and workload sizes in pins.json.

Run from the repository root when a workload changes:

    PYTHONPATH=src python3 perfbench/pin.py

Each pinned count is computed by the program's closed form and confirmed
by at least one independent method: the naive scan, the congruence average
(where the closed form is not itself that average), or the cycle-index
average below, which counts fixed points directly rather than through the
program's permutation or shape code. A case that no method can compute on
the default budget gets no pinned value.

The workload sizes recorded per case are |G|, |Aut(G)|, the endomorphism
candidates the automorphism scan would test, p(n) (cycle types of S_n),
|G|^(2n) (naive states) and p^(s^2) (GL matrix candidates, elementary
groups only). |Aut(G)| comes from the Hillar-Rhea formula (Amer. Math.
Monthly 114, 2007), checked against the program's enumeration wherever the
default budget allows it.
"""
from __future__ import annotations

import itertools
import json
import math
import sys
import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from escount import (  # noqa: E402
    BudgetExceededError,
    abelian_groups_of_order,
    check_reference_values,
    closed_count,
    cycle_types,
    enumerate_automorphisms,
    euler_phi,
    general_linear_order,
    orbit_count_congruence,
    orbit_count_naive,
    parse_group,
)

# Independent methods are skipped above these sizes to keep pinning quick.
NAIVE_MAX_WORK = 1 << 26
CONGRUENCE_MAX_TERMS = 1 << 21


def hillar_rhea_aut_order(group) -> int:
    """|Aut(G)| as the product over primes of the Hillar-Rhea formula."""
    total = 1
    for p in sorted({p for p, _ in group.factors}):
        exps = sorted(e for q, e in group.factors if q == p)
        k = len(exps)
        d = [max(j for j in range(k) if exps[j] == exps[i]) + 1 for i in range(k)]
        c = [min(j for j in range(k) if exps[j] == exps[i]) + 1 for i in range(k)]
        total *= math.prod(p ** d[i] - p**i for i in range(k))
        total *= math.prod(p ** (exps[j] * (k - d[j])) for j in range(k))
        total *= math.prod(p ** ((exps[i] - 1) * (k - c[i] + 1)) for i in range(k))
    return total


def cycle_index_average(profiles: Counter, n: int, aut_order: int) -> int:
    """Average of the S_n cycle index Z_n(a_1..a_n) over automorphisms.

    `profiles` maps (f_1..f_n), the fixed-element counts of phi^1..phi^n, to
    the number of automorphisms phi with that profile. A pair (phi, sigma)
    fixes prod over cycles of sigma of |Fix(phi^len)| * |Fix_chars(phi^len)|
    configurations, and the fixed characters of phi^r are as many as the
    fixed elements (|G/im(phi^r - 1)| = |ker(phi^r - 1)|), so a_r = f_r^2.
    Z_n follows from n * Z_n = sum_{r<=n} a_r * Z_{n-r}.
    """
    total = Fraction(0)
    for profile, mult in profiles.items():
        z = [Fraction(1)]
        for k in range(1, n + 1):
            z.append(sum(profile[r - 1] ** 2 * z[k - r] for r in range(1, k + 1)) / k)
        total += mult * z[n]
    value = total / aut_order
    if value.denominator != 1:
        raise ArithmeticError(f"cycle-index average {value} is not an integer")
    return int(value)


def cyclic_profiles(m: int, n: int) -> Counter:
    """Fixed-point profiles of the units u mod m: |Fix(u^r)| = gcd(u^r - 1, m)."""
    profiles: Counter = Counter()
    for u in range(1, m + 1):
        if math.gcd(u, m) == 1:
            power, profile = 1, []
            for _ in range(n):
                power = power * u % m
                profile.append(math.gcd(power - 1, m))
            profiles[tuple(profile)] += 1
    return profiles


def matrix_profiles(group, n: int) -> Counter:
    """Fixed-point profiles of the enumerated automorphisms, from their
    element permutations built here with numpy."""
    mods = np.array(group.moduli, dtype=np.int64)
    els = np.array(list(itertools.product(*(range(m) for m in group.moduli))), dtype=np.int64)
    weights = np.array([math.prod(group.moduli[i + 1:]) for i in range(group.rank)],
                       dtype=np.int64)
    profiles: Counter = Counter()
    for auto in enumerate_automorphisms(group):
        perm = (((els @ np.array(auto.rows, dtype=np.int64).T) % mods) @ weights).tolist()
        lengths: Counter = Counter()
        seen = [False] * len(perm)
        for start in range(len(perm)):
            length, j = 0, start
            while not seen[j]:
                seen[j], j, length = True, perm[j], length + 1
            if length:
                lengths[length] += 1
        profiles[tuple(
            sum(c * cnt for c, cnt in lengths.items() if r % c == 0)
            for r in range(1, n + 1)
        )] += 1
    return profiles


def sizes(group, n: int) -> dict:
    mods = group.moduli
    out = {
        "order": group.order,
        "aut_order": hillar_rhea_aut_order(group),
        "endo_candidates": math.prod(math.gcd(a, b) for a in mods for b in mods),
        "cycle_types": sum(1 for _ in cycle_types(n)),
        "naive_states": group.order ** (2 * n),
    }
    if group.is_elementary():
        out["matrix_candidates"] = group.factors[0][0] ** (group.rank**2)
    return out


def pin(group, n: int) -> dict | None:
    """Count by the closed form and every independent method that fits."""
    values = {}
    try:
        values["closed"] = closed_count(group, n)
    except BudgetExceededError:
        return None
    size = sizes(group, n)
    closed_is_congruence = not (group.is_cyclic() or group.is_elementary())
    optional = []
    if size["naive_states"] * size["aut_order"] * math.factorial(n) <= NAIVE_MAX_WORK:
        optional.append(("naive", orbit_count_naive))
    if not closed_is_congruence and (
        size["aut_order"] * size["cycle_types"] <= CONGRUENCE_MAX_TERMS
    ):
        optional.append(("congruence", orbit_count_congruence))
    for name, method in optional:
        try:
            values[name] = method(group, n)
        except BudgetExceededError:
            pass
    if group.is_cyclic():
        profiles = cyclic_profiles(group.order, n)
        aut_order = euler_phi(group.order)
    else:
        profiles = matrix_profiles(group, n)
        aut_order = sum(profiles.values())
    if aut_order != size["aut_order"]:
        raise AssertionError(f"{group}: |Aut| {aut_order} != {size['aut_order']}")
    if group.is_elementary():
        p, s = group.factors[0][0], group.rank
        if aut_order != general_linear_order(p, s):
            raise AssertionError(f"{group}: |Aut| differs from |GL({s}, {p})|")
    values["cycle_index"] = cycle_index_average(profiles, n, aut_order)
    if len(set(values.values())) != 1:
        raise AssertionError(f"{group} n={n}: methods disagree: {values}")
    return {"count": str(values["closed"]), "methods": sorted(values), "sizes": size}


def main() -> None:
    specs: dict[str, set[int]] = {}
    for spec in workloads.CYCLIC_GROUPS + workloads.SMOKE_CYCLIC[0]:
        specs.setdefault(spec, set()).update(workloads.CYCLIC_NS + (workloads.SMOKE_CYCLIC[1],))
    for spec in workloads.AUT_HEAVY_GROUPS + workloads.SMOKE_AUT:
        specs.setdefault(spec, set()).add(2)
    for spec, n in workloads.ORACLE_COUNTS + workloads.SMOKE_ORACLE_COUNTS:
        specs.setdefault(spec, set()).add(n)
    for spec, n, _method, _status in workloads.REACH_CASES + workloads.SMOKE_REACH:
        specs.setdefault(spec, set()).add(n)

    canonical = {spec: str(parse_group(spec)) for spec in specs}
    counts, unpinned = {}, []
    for spec, ns in sorted(specs.items()):
        group = parse_group(spec)
        for n in sorted(ns):
            key = workloads.case_key(canonical[spec], n)
            start = time.perf_counter()
            result = pin(group, n)
            if result is None:
                unpinned.append({"case": key, "sizes": sizes(group, n)})
            else:
                counts[key] = result
            print(f"{key}: {result and result['methods']} "
                  f"{time.perf_counter() - start:.1f}s", file=sys.stderr, flush=True)

    verify = {}
    for max_order, max_n in (workloads.ORACLE_VERIFY, workloads.SMOKE_ORACLE_VERIFY):
        cases = []
        for order in range(1, max_order + 1):
            for group in abelian_groups_of_order(order):
                for n in range(1, max_n + 1):
                    key = workloads.case_key(str(group), n)
                    cases.append(key)
                    if key not in counts:
                        counts[key] = pin(group, n)
        verify[f"{max_order}|{max_n}"] = {
            "cases": cases,
            "references": len(check_reference_values()),
        }

    out = {
        "canonical": canonical,
        "counts": dict(sorted(counts.items())),
        "unpinned": unpinned,
        "verify": verify,
    }
    (HERE / "pins.json").write_text(json.dumps(out, indent=1) + "\n")


if __name__ == "__main__":
    main()
