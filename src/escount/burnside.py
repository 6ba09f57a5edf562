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
    character_images,
    count_character_solutions,
    count_element_solutions,
    element_images,
    element_list,
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


def _digit_arrays(m: int, n: int) -> tuple[np.ndarray, ...]:
    """Digit arrays of all base-m states with 2n slots, slot 0 most significant."""
    return np.unravel_index(np.arange(m ** (2 * n)), (m,) * (2 * n))


# Cells of the image arrays (automorphisms x elements x rank) per batch.
PROFILE_CHUNK = 1 << 20


def _batch_size(group: AbelianGroup) -> int:
    return max(1, PROFILE_CHUNK // (group.order * max(1, group.rank)))


def _matrix_stack(group: AbelianGroup, autos: Sequence[EndoMatrix]) -> np.ndarray:
    s = group.rank
    return np.array([auto.rows for auto in autos], dtype=np.int64).reshape(len(autos), s, s)


def _automorphism_images(
    group: AbelianGroup, autos: Sequence[EndoMatrix]
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Element and character index images of each automorphism in turn,
    built in batches of PROFILE_CHUNK image cells."""
    chunk = _batch_size(group)
    for lo in range(0, len(autos), chunk):
        mats = _matrix_stack(group, autos[lo : lo + chunk])
        yield from zip(element_images(group, mats), character_images(group, mats))


def _gather(
    digits: tuple[np.ndarray, ...], elem_images: np.ndarray, char_images: np.ndarray
) -> list[np.ndarray]:
    """Every state's (element, character) pair at each position, moved by
    one automorphism and packed as element * m**n + character."""
    n = len(digits) // 2
    shift = len(elem_images) ** n
    return [elem_images[digits[j]] * shift + char_images[digits[n + j]] for j in range(n)]


def _state_image(gathered: list[np.ndarray], sigma: Permutation, m: int) -> np.ndarray:
    """Index of every state's image under one action pair.

    `gathered` holds the packed pairs already moved by the automorphism, and
    sigma sends the pair at position j to position sigma[j].  In base m, a
    state index is the element digits followed by the character digits,
    which is the packed pairs read as base-m digits in position order.
    """
    source = [0] * len(sigma)
    for j, target in enumerate(sigma):
        source[target] = j
    image = gathered[source[0]].copy()
    for j in source[1:]:
        image *= m
        image += gathered[j]
    return image


def fixed_points_naive(pair: ActionPair, budget: Budget = DEFAULT_BUDGET) -> int:
    """Count configurations fixed by one action pair, by scanning all of them."""
    auto, sigma = pair
    group = auto.group
    n = len(sigma)
    size = _state_space_size(group, n)
    budget.check("max_state_space", size)
    digits = _digit_arrays(group.order, n)
    gathered = _gather(digits, *next(_automorphism_images(group, [auto])))
    image = _state_image(gathered, sigma, group.order)
    return int(np.count_nonzero(image == np.arange(size)))


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
    states = np.arange(size)
    sigmas_by_type: dict[CycleType, list[Permutation]] = {}
    for sigma in permutations_of(n):
        sigmas_by_type.setdefault(CycleType.from_permutation(sigma), []).append(sigma)
    counts: dict[tuple[int, CycleType], int] = {}
    total = 0
    for a_idx, images in enumerate(_automorphism_images(group, autos)):
        gathered = _gather(digits, *images)
        for ctype, sigmas in sigmas_by_type.items():
            for sigma in sigmas:
                fixed = int(np.count_nonzero(_state_image(gathered, sigma, m) == states))
                key = (a_idx, ctype)
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


def fixed_count_profiles(
    group: AbelianGroup, autos: Sequence[EndoMatrix], n: int
) -> np.ndarray:
    """|Fix(phi**r)| for r = 1..n, one row per automorphism phi in `autos`.

    All automorphisms are mapped over all elements at once; each power is
    one more gather through the element-index permutation.
    """
    perms = element_images(group, _matrix_stack(group, autos))
    identity = np.arange(group.order, dtype=np.int64)
    profiles = np.empty((len(autos), n), dtype=np.int64)
    power = perms
    for r in range(n):
        profiles[:, r] = (power == identity).sum(axis=1)
        if r + 1 < n:
            power = np.take_along_axis(perms, power, axis=1)
    return profiles


def fixed_count_census(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> dict[tuple[int, ...], int]:
    """The automorphisms of `group` tallied by fixed-count profile.

    Keys are (|Fix(phi)|, ..., |Fix(phi**n)|), values the number of
    automorphisms phi with that profile; they add up to |Aut(G)|.  The
    automorphisms are scanned and profiled PROFILE_CHUNK image cells at a
    time.
    """
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")
    autos = enumerate_automorphisms(group, budget)
    chunk = _batch_size(group)
    census: Counter = Counter()
    for lo in range(0, len(autos), chunk):
        profiles = fixed_count_profiles(group, autos[lo : lo + chunk], n)
        rows, counts = np.unique(profiles, axis=0, return_counts=True)
        census.update(dict(zip(map(tuple, rows.tolist()), counts.tolist())))
    return dict(census)


def orbit_count_congruence(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Number of orbits, averaging the cycle index over automorphisms.

    A pair (phi, sigma) fixes, per cycle of sigma of length r, the elements
    and the characters fixed by phi**r, and there are as many fixed
    characters as fixed elements (|G / im(phi**r - 1)| = |ker(phi**r - 1)|).
    So only the fixed-element profile of each automorphism matters; the
    automorphisms of the whole group are tallied by profile
    (fixed_count_census) and the census goes through the cycle-index
    kernel.  The total over the acting group divides exactly.
    """
    census = fixed_count_census(group, n, budget)
    total = cycle_index_sum(census, n)
    denominator = sum(census.values()) * math.factorial(n)
    if total % denominator:
        raise IntegralityError(
            f"fixed-point total {total} for {group}, n={n} is not divisible "
            f"by the acting group order {denominator}"
        )
    return total // denominator


def _generator_images(
    group: AbelianGroup, autos: Sequence[EndoMatrix]
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Element and character images of a small generating set of `autos`,
    found greedily on the element images; the generated subgroup is closed
    over element-image rows, a frontier at a time, keyed by their bytes."""
    identity = np.arange(group.order, dtype=np.int64)
    generated = {identity.tobytes()}
    members = [identity]
    generators: list[tuple[np.ndarray, np.ndarray]] = []
    for elem_images, char_images in _automorphism_images(group, autos):
        if len(generated) == len(autos):
            break
        if elem_images.tobytes() in generated:
            continue
        generators.append((elem_images, char_images))
        frontier = np.array(members)
        while len(frontier):
            fresh = []
            for row in np.concatenate([g[frontier] for g, _ in generators]):
                key = row.tobytes()
                if key not in generated:
                    generated.add(key)
                    fresh.append(row)
            members += fresh
            frontier = np.array(fresh, dtype=np.int64).reshape(-1, group.order)
    return generators


def _sigma_generators(n: int) -> list[Permutation]:
    if n < 2:
        return []
    swap = (1, 0) + tuple(range(2, n))
    rotate = tuple(range(1, n)) + (0,)
    return list({swap, rotate})


def _orbit_labels(group: AbelianGroup, n: int, budget: Budget) -> np.ndarray:
    """The least state index in the orbit of every state.

    Labels start as the states themselves; each pass takes, per generator
    image map, the smaller of a state's label and its image's label, then
    jumps every label to its label's label, until nothing changes.
    """
    size = _state_space_size(group, n)
    budget.check("max_state_space", size)
    autos = enumerate_automorphisms(group, budget)
    m = group.order
    digits = _digit_arrays(m, n)
    identity = identity_permutation(n)
    image_maps = [
        _state_image(_gather(digits, *images), identity, m)
        for images in _generator_images(group, autos)
    ]
    unmoved = _gather(digits, np.arange(m), np.arange(m))
    image_maps += [_state_image(unmoved, sigma, m) for sigma in _sigma_generators(n)]
    labels = np.arange(size, dtype=np.int64)
    while True:
        previous = labels
        for image in image_maps:
            labels = np.minimum(labels, labels[image])
        labels = labels[labels]
        if np.array_equal(labels, previous):
            return labels


def orbit_enumerate(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> list[ESC]:
    """Lexicographically least representative of every orbit, in order."""
    els = element_list(group)
    reps = np.unique(_orbit_labels(group, n, budget))
    slots = np.unravel_index(reps, (group.order,) * (2 * n))
    return [
        ESC(tuple(els[d] for d in row[:n]), tuple(els[d] for d in row[n:]))
        for row in np.transpose(slots).tolist()
    ]


def orbit_sizes(group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET) -> list[int]:
    """Orbit sizes aligned with the representatives from orbit_enumerate."""
    _, sizes = np.unique(_orbit_labels(group, n, budget), return_counts=True)
    return sizes.tolist()
