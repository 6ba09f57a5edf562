"""Orbit counting for element systems with characters.

The acting group pairs an automorphism of the abelian group with a
permutation of the n positions: the automorphism moves elements forward and
characters by composition with its inverse, while the permutation relabels
positions.  Orbits are counted two independent ways -- a naive scan of the
full configuration space and a congruence-style average of the permutation
cycle index over automorphisms -- and can also be listed explicitly.
"""
from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .abelian import (
    ESC,
    AbelianGroup,
    EndoMatrix,
    character_permutation,
    count_character_solutions,
    count_element_solutions,
    element_images,
    element_list,
    element_permutation,
    enumerate_automorphisms,
    invert_automorphism,
    pullback_character,
)
from .budget import Budget, DEFAULT_BUDGET, IntegralityError
from .numtheory import CycleType, cycle_index_sum

Permutation = tuple[int, ...]
ActionPair = tuple[EndoMatrix, Permutation]


def permutations_of(n: int) -> Iterator[Permutation]:
    """All permutations of n positions (tuples of 0-based images)."""
    return itertools.permutations(range(n))


def identity_permutation(n: int) -> Permutation:
    return tuple(range(n))


def compose_permutations(outer: Permutation, inner: Permutation) -> Permutation:
    """Permutation applying `inner` first, then `outer`."""
    return tuple(outer[j] for j in inner)


def act(pair: ActionPair, esc: ESC) -> ESC:
    """Apply an (automorphism, position permutation) pair to a configuration.

    Position j's element is mapped through the automorphism and lands at the
    permuted position; its character is composed with the inverse
    automorphism and lands at the same permuted position.
    """
    auto, sigma = pair
    n = esc.n
    if len(sigma) != n:
        raise ValueError(f"permutation of {len(sigma)} positions applied to {n}")
    inverse = invert_automorphism(auto)
    new_elements: list = [None] * n
    new_characters: list = [None] * n
    for j in range(n):
        new_elements[sigma[j]] = auto.apply(esc.elements[j])
        new_characters[sigma[j]] = pullback_character(inverse, esc.characters[j])
    return ESC(tuple(new_elements), tuple(new_characters))


def _state_space_size(group: AbelianGroup, n: int) -> int:
    return group.order ** (2 * n)


def _digit_arrays(m: int, n: int) -> list[np.ndarray]:
    """Digit arrays of all base-m states with 2n slots, slot 0 most significant."""
    size = m ** (2 * n)
    idx = np.arange(size, dtype=np.int64)
    out = []
    for slot in range(2 * n):
        stride = m ** (2 * n - 1 - slot)
        out.append((idx // stride) % m)
    return out


def fixed_points_naive(pair: ActionPair, budget: Budget = DEFAULT_BUDGET) -> int:
    """Count configurations fixed by one action pair, by scanning all of them."""
    auto, sigma = pair
    group = auto.group
    n = len(sigma)
    budget.check("max_state_space", _state_space_size(group, n))
    m = group.order
    digits = _digit_arrays(m, n)
    elem_perm = np.array(element_permutation(auto), dtype=np.int64)
    char_perm = np.array(character_permutation(auto), dtype=np.int64)
    mask = np.ones(m ** (2 * n), dtype=bool)
    for j in range(n):
        mask &= elem_perm[digits[j]] == digits[sigma[j]]
        mask &= char_perm[digits[n + j]] == digits[n + sigma[j]]
    return int(mask.sum())


def fixed_points_by_cycles(
    auto: EndoMatrix, ctype: CycleType, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Count fixed configurations from cycle data alone.

    A pair (auto, sigma) fixes a configuration exactly when every cycle of
    sigma carries an element and a character fixed by the corresponding
    power of the automorphism, so the count is a product over cycle lengths.
    """
    total = 1
    for r, mult in enumerate(ctype.multiplicities, start=1):
        if mult:
            fixed = count_element_solutions(auto, r, budget) * count_character_solutions(
                auto, r, budget
            )
            total *= fixed**mult
    return total


@dataclass
class FixedPointReport:
    """Per-pair fixed-point counts for one group and tuple length.

    counts is keyed by (automorphism index, cycle type); the count of any
    action pair depends on its permutation only through the cycle type.
    total is the sum over all pairs, and orbit_count the Burnside average.
    """

    group: AbelianGroup
    n: int
    counts: dict[tuple[int, CycleType], int]
    total: int
    orbit_count: int


def fixed_point_report(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> FixedPointReport:
    """Scan every action pair naively and average the fixed-point counts."""
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    size = _state_space_size(group, n)
    budget.check("max_state_space", size)
    autos = enumerate_automorphisms(group, budget)
    budget.check("max_naive_work", len(autos) * math.factorial(n) * size)

    m = group.order
    digits = _digit_arrays(m, n)
    counts: dict[tuple[int, CycleType], int] = {}
    total = 0
    for a_idx, auto in enumerate(autos):
        elem_perm = np.array(element_permutation(auto), dtype=np.int64)
        char_perm = np.array(character_permutation(auto), dtype=np.int64)
        elem_images = [elem_perm[digits[j]] for j in range(n)]
        char_images = [char_perm[digits[n + j]] for j in range(n)]
        for sigma in permutations_of(n):
            mask = np.ones(size, dtype=bool)
            for j in range(n):
                mask &= elem_images[j] == digits[sigma[j]]
                mask &= char_images[j] == digits[n + sigma[j]]
            fixed = int(mask.sum())
            key = (a_idx, CycleType.from_permutation(sigma))
            if key in counts and counts[key] != fixed:
                raise IntegralityError(
                    f"fixed-point count for {group} varies within a cycle type"
                )
            counts[key] = fixed
            total += fixed
    denominator = len(autos) * math.factorial(n)
    if total % denominator:
        raise IntegralityError(
            f"fixed-point total {total} for {group}, n={n} is not divisible "
            f"by the acting group order {denominator}"
        )
    return FixedPointReport(group, n, counts, total, total // denominator)


def orbit_count_naive(group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Number of orbits, by scanning the whole configuration space."""
    return fixed_point_report(group, n, budget).orbit_count


# Cells of the image array (automorphisms x elements x rank) per batch of
# fixed-count profiles, the same measure enumerate_automorphisms chunks by.
PROFILE_CHUNK = 1 << 20


def fixed_count_profiles(
    group: AbelianGroup, autos: Sequence[EndoMatrix], n: int
) -> np.ndarray:
    """|Fix(phi**r)| for r = 1..n, one row per automorphism phi in `autos`.

    All automorphisms are mapped over all elements at once; each power is
    one more gather through the element-index permutation.
    """
    s = group.rank
    mats = np.array([auto.rows for auto in autos], dtype=np.int64)
    perms = element_images(group, mats.reshape(len(autos), s, s))
    identity = np.arange(group.order, dtype=np.int64)
    profiles = np.empty((len(autos), n), dtype=np.int64)
    power = perms
    for r in range(n):
        profiles[:, r] = (power == identity).sum(axis=1)
        if r + 1 < n:
            power = np.take_along_axis(perms, power, axis=1)
    return profiles


def orbit_count_congruence(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Number of orbits, averaging the cycle index over automorphisms.

    A pair (phi, sigma) fixes, per cycle of sigma of length r, the elements
    and the characters fixed by phi**r, and there are as many fixed
    characters as fixed elements (|G / im(phi**r - 1)| = |ker(phi**r - 1)|).
    So only the fixed-element profile of each automorphism matters; the
    automorphisms are tallied by profile and the census goes through the
    cycle-index kernel.  The total over the acting group divides exactly.
    """
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    autos = enumerate_automorphisms(group, budget)
    chunk = max(1, PROFILE_CHUNK // (group.order * max(1, group.rank)))
    census: Counter = Counter()
    for lo in range(0, len(autos), chunk):
        profiles = fixed_count_profiles(group, autos[lo : lo + chunk], n)
        rows, counts = np.unique(profiles, axis=0, return_counts=True)
        census.update(dict(zip(map(tuple, rows.tolist()), counts.tolist())))
    total = cycle_index_sum(census, n)
    denominator = len(autos) * math.factorial(n)
    if total % denominator:
        raise IntegralityError(
            f"fixed-point total {total} for {group}, n={n} is not divisible "
            f"by the acting group order {denominator}"
        )
    return total // denominator


class UnionFind:
    """Union-find over a fixed range of integer states."""

    def __init__(self, size: int):
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            if ra > rb:
                ra, rb = rb, ra
            self.parent[rb] = ra


def _generating_automorphisms(
    autos: tuple[EndoMatrix, ...]
) -> list[EndoMatrix]:
    """A small generating set, found greedily on the index permutations."""
    if len(autos) <= 64:
        return list(autos)
    perms = [element_permutation(a) for a in autos]
    identity = tuple(range(len(perms[0])))
    generated = {identity}
    generators: list[EndoMatrix] = []
    generator_perms: list[tuple[int, ...]] = []
    for auto, perm in zip(autos, perms):
        if perm in generated:
            continue
        generators.append(auto)
        generator_perms.append(perm)
        frontier = list(generated)
        while frontier:
            q = frontier.pop()
            for g in generator_perms:
                product = tuple(g[x] for x in q)
                if product not in generated:
                    generated.add(product)
                    frontier.append(product)
        if len(generated) == len(autos):
            break
    return generators


def _sigma_generators(n: int) -> list[Permutation]:
    if n < 2:
        return []
    swap = (1, 0) + tuple(range(2, n))
    rotate = tuple(range(1, n)) + (0,)
    return list({swap, rotate})


def _orbit_roots(
    group: AbelianGroup, n: int, budget: Budget
) -> tuple[UnionFind, int]:
    size = _state_space_size(group, n)
    budget.check("max_state_space", size)
    autos = enumerate_automorphisms(group, budget)
    m = group.order
    digits = _digit_arrays(m, n)
    strides = [m ** (2 * n - 1 - slot) for slot in range(2 * n)]

    image_maps: list[np.ndarray] = []
    for auto in _generating_automorphisms(autos):
        elem_perm = np.array(element_permutation(auto), dtype=np.int64)
        char_perm = np.array(character_permutation(auto), dtype=np.int64)
        image = np.zeros(size, dtype=np.int64)
        for j in range(n):
            image += elem_perm[digits[j]] * strides[j]
            image += char_perm[digits[n + j]] * strides[n + j]
        image_maps.append(image)
    for sigma in _sigma_generators(n):
        image = np.zeros(size, dtype=np.int64)
        for j in range(n):
            image += digits[j] * strides[sigma[j]]
            image += digits[n + j] * strides[n + sigma[j]]
        image_maps.append(image)

    uf = UnionFind(size)
    for image in image_maps:
        for state in range(size):
            uf.union(state, int(image[state]))
    return uf, size


def _state_to_esc(group: AbelianGroup, n: int, state: int) -> ESC:
    els = element_list(group)
    m = group.order
    slots = []
    for _ in range(2 * n):
        state, digit = divmod(state, m)
        slots.append(digit)
    slots.reverse()
    return ESC(
        tuple(els[d] for d in slots[:n]),
        tuple(els[d] for d in slots[n:]),
    )


def orbit_enumerate(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> list[ESC]:
    """Lexicographically least representative of every orbit, in order."""
    uf, size = _orbit_roots(group, n, budget)
    reps = sorted({uf.find(state) for state in range(size)})
    return [_state_to_esc(group, n, state) for state in reps]


def orbit_sizes(group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET) -> list[int]:
    """Orbit sizes aligned with the representatives from orbit_enumerate."""
    uf, size = _orbit_roots(group, n, budget)
    tally: dict[int, int] = {}
    for state in range(size):
        root = uf.find(state)
        tally[root] = tally.get(root, 0) + 1
    return [tally[root] for root in sorted(tally)]
