"""Orbit counting for element systems with characters.

The acting group pairs an automorphism of the abelian group with a
permutation of the n positions: the automorphism moves elements forward and
characters by composition with its inverse, while the permutation relabels
positions.  Orbits are counted two independent ways -- a naive scan of the
full configuration space and a congruence-style average of the permutation
cycle index over automorphisms -- and can also be listed explicitly.

A state is a base-m index (m = |G|) with 2n slots, slot 0 most significant:
the positions' element indices, then their character indices.  The per-pair
reference and orbit listing walk the states in the blocks of _blocks and map
them with _image_index.

The naive scan (fixed_point_report) uses that a pair (phi, sigma) moves
elements and characters apart: it fixes a state exactly when it fixes the
state's element n-tuple and its character n-tuple, so it fixes E * C states.
Each half is scanned over its m**n tuples in the blocks of _blocks.  Per
image row and block it builds the n x n match masks M[j, t] = [phi(x_j) =
x_t], packed into 64-bit words; the fixed tuples of (phi, sigma) are the set
bits of AND_j M[j, sigma(j)], for a batch of permutations at once.  Every
temporary stays within about PROFILE_CHUNK bytes (int64 image cells for the
image arrays), whatever the budget.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator, Sequence

import numpy as np

from .abelian import (
    ESC,
    AbelianGroup,
    EndoMatrix,
    automorphism_count,
    character_images,
    count_character_solutions,
    count_element_solutions,
    element_images,
    element_list,
    enumerate_automorphisms,
    invert_automorphism,
    pullback_character,
    tally_rows,
)
from .budget import Budget, DEFAULT_BUDGET, IntegralityError, exact_quotient
from .closed_form import census_count
from .numtheory import CycleType, cycle_index_sum, partition_count

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
    _check_permutation(sigma, n)
    inverse = invert_automorphism(auto)
    new_elements: list = [None] * n
    new_characters: list = [None] * n
    for j in range(n):
        new_elements[sigma[j]] = auto.apply(esc.elements[j])
        new_characters[sigma[j]] = pullback_character(inverse, esc.characters[j])
    return ESC(tuple(new_elements), tuple(new_characters))


def _check_tuple_length(n: int) -> None:
    if n < 1:
        raise ValueError(f"tuple length must be >= 1, got {n}")


def _check_permutation(sigma: Permutation, n: int) -> None:
    if sorted(sigma) != list(range(n)):
        raise ValueError(f"{tuple(sigma)} is not a permutation of {n} positions")


# Cells of the image arrays (automorphisms x elements x rank) per batch, and
# bytes of each temporary of the naive scan and of the reference's blocks.
PROFILE_CHUNK = 1 << 20


def _batch_size(group: AbelianGroup) -> int:
    return max(1, PROFILE_CHUNK // (group.order * max(1, group.rank)))


def _image_batches(
    group: AbelianGroup, matrices: np.ndarray, batch: int
) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Element and character index images of `batch` automorphisms of a
    (k, s, s) stack at a time, as two (batch, |G|) arrays."""
    for lo in range(0, len(matrices), batch):
        mats = matrices[lo : lo + batch]
        yield element_images(group, mats), character_images(group, mats)


def _blocks(m: int, width: int, free: int) -> Iterator[tuple[int, list[np.ndarray]]]:
    """The base-m states with `width` slots, m**free at a time: yields a
    block's first state index and one digit array per slot.  The leading
    width - free slots hold the block's fixed digits and free slot i runs on
    axis i, so the slots broadcast to the block's states in index order."""
    axes = np.ix_(*[np.arange(m)] * free)
    for number, lead in enumerate(itertools.product(range(m), repeat=width - free)):
        yield number * m**free, [np.full((1,) * free, d) for d in lead] + list(axes)


def _image_index(
    m: int,
    slots: list[np.ndarray],
    elem_images: np.ndarray,
    char_images: np.ndarray,
    sigma: Permutation,
) -> np.ndarray:
    """Index of every state of a block under one action pair, in index order.

    Position j's element, moved by the automorphism, lands in slot sigma(j)
    and its moved character in slot n + sigma(j).
    """
    n = len(sigma)
    index = np.zeros(np.broadcast_shapes(*(s.shape for s in slots)), dtype=np.int64)
    for j, t in enumerate(sigma):
        index += elem_images[slots[j]] * m ** (2 * n - 1 - t)
        index += char_images[slots[n + j]] * m ** (n - 1 - t)
    return index.ravel()


def fixed_points_naive(pair: ActionPair, budget: Budget = DEFAULT_BUDGET) -> int:
    """Count configurations fixed by one action pair: the states whose image
    index is their own, in blocks of at most PROFILE_CHUNK // 8 states."""
    auto, sigma = pair
    group, n = auto.group, len(sigma)
    _check_tuple_length(n)
    _check_permutation(sigma, n)
    budget.check("max_state_space", group.order ** (2 * n))
    matrix = np.array(auto.rows, dtype=np.int64).reshape(1, group.rank, group.rank)
    images = element_images(group, matrix)[0], character_images(group, matrix)[0]
    fixed, m = 0, group.order
    free = max(f for f in range(2 * n + 1) if m**f <= max(64, PROFILE_CHUNK // 8))
    for first, slots in _blocks(m, 2 * n, free):
        image = _image_index(m, slots, *images, sigma)
        fixed += int(np.count_nonzero(image == np.arange(first, first + len(image))))
    return fixed


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


# Set bits of every byte value.
_BYTE_POPCOUNT = np.array([bin(b).count("1") for b in range(256)], dtype=np.uint8)


def popcount(words: np.ndarray) -> np.ndarray:
    """Number of set bits along the last axis of a C-contiguous uint64 array.

    Each byte is looked up in a 256-entry table (numpy >= 2 has
    bitwise_count, the declared floor does not); the eight byte counts of a
    word, at most 8 each, are summed into its top byte by one multiply.  The
    multiply and the shift work in place on the lookup's copy, so `words`
    is left as it is and no third copy is made; np.take itself reads the
    bytes through an intp copy of them, 8 bytes per byte.
    """
    counts = np.take(_BYTE_POPCOUNT, words.view(np.uint8)).view(np.uint64)
    counts *= np.uint64(0x0101010101010101)
    counts >>= np.uint64(56)
    return counts.sum(axis=-1, dtype=np.int64)


def _prefixed(n: int, lead: list, tail: np.ndarray) -> np.ndarray:
    """Each prefix in `lead`, then each row of `tail` (S_m) on the m points
    it leaves."""
    rest = np.array([sorted(set(range(n)).difference(p)) for p in lead], dtype=np.int8)
    head = np.array(lead, dtype=np.int8)[:, None].repeat(len(tail), axis=1)
    return np.concatenate([head, rest[:, tail]], axis=2).reshape(-1, n)


def permutation_chunks(n: int, size: int) -> Iterator[np.ndarray]:
    """The permutations of n positions in permutations_of order, as (k, n)
    int8 tables of at most `size` >= 1 rows, with no tuple per permutation:
    with m the largest with m! <= size, size // m! (at most m) itertools
    prefixes of n - m images, each followed by one table of S_m, built as
    S_(t-1) under the one-point prefixes of S_t."""
    if n > 127:
        raise ValueError("int8 rows hold at most 127 positions")
    m = max(t for t in range(n + 1) if math.factorial(t) <= size)
    tail = np.zeros((1, 0), dtype=np.int8)
    for t in range(1, m + 1):
        tail = _prefixed(t, [(v,) for v in range(t)], tail)
    prefixes = itertools.permutations(range(n), n - m)
    while lead := list(itertools.islice(prefixes, size // len(tail))):
        yield _prefixed(n, lead, tail)


def permutation_cycle_types(perms: np.ndarray) -> tuple[list[CycleType], np.ndarray]:
    """Distinct cycle types of the rows of a (k, n) permutation table, and
    the index of each row's type among them.

    A point's cycle length is the least r with sigma**r fixing it; the
    powers for r <= n // 2 are fewer than n // 2 gathers over the whole
    table.  The points left after that lie on one cycle, as long as their
    count.  The number of r-cycles, at most n // r, is digit r of a
    mixed-radix int64 key.
    """
    k, n = perms.shape
    radix = [n // r + 1 for r in range(1, n + 1)]
    if math.prod(radix) >= 1 << 63:
        raise ValueError(f"cycle types of S_{n} do not fit in int64 keys")
    places = list(itertools.accumulate([1] + radix[:-1], operator.mul))
    half = n // 2
    points = np.arange(n, dtype=perms.dtype)
    left = np.ones((k, n), dtype=bool)
    key, power = np.zeros(k, dtype=np.int64), perms
    for r in range(1, half + 1):
        on_cycles = (power == points) & left
        key += np.count_nonzero(on_cycles, axis=1) // r * places[r - 1]
        left ^= on_cycles
        if r < half:
            power = np.take_along_axis(perms, power, axis=1)
    # One cycle of length L > n // 2, or none (L = 0).
    long_cycle = np.zeros(n + 1, dtype=np.int64)
    long_cycle[half + 1 :] = places[half:]
    key += long_cycle[np.count_nonzero(left, axis=1)]
    _, first, labels = np.unique(key, return_index=True, return_inverse=True)
    return [CycleType.from_permutation(row) for row in perms[first].tolist()], labels.reshape(-1)


@lru_cache(maxsize=8)
def _permutation_table(n: int) -> tuple[np.ndarray, tuple[CycleType, ...], np.ndarray]:
    """All of S_n as the one table of permutation_chunks, its distinct
    cycle types and each row's label, from permutation_cycle_types; the
    arrays are read-only."""
    (sigmas,) = permutation_chunks(n, math.factorial(n))
    ctypes, labels = permutation_cycle_types(sigmas)
    sigmas.flags.writeable = labels.flags.writeable = False
    return sigmas, tuple(ctypes), labels


def _labelled_chunks(
    n: int, size: int
) -> Iterator[tuple[np.ndarray, Sequence[CycleType], np.ndarray]]:
    """The permutation_chunks of at most `size` rows, each with its cycle
    types and labels; S_n in one chunk comes from _permutation_table."""
    if math.factorial(n) <= size:
        yield _permutation_table(n)
        return
    for sigmas in permutation_chunks(n, size):
        yield sigmas, *permutation_cycle_types(sigmas)


def _words(states: int) -> int:
    """64-bit words that hold one bit per state."""
    return -(-states // 64)


def _scan_plan(
    group: AbelianGroup, n: int, n_autos: int, n_sigmas: int
) -> tuple[int, int, int]:
    """Sizes for the naive scan of both halves: (free digits, batch,
    per_pass).

    A block of n-tuples fixes the leading n - free digits and runs over the
    last `free`; it is at least one mask word, and otherwise small enough
    that one row's n x n packed masks and boolean mask fit in PROFILE_CHUNK
    bytes.  `batch` automorphisms share one pass over a block, with two
    image rows each (elements and characters), so that the masks, the
    boolean mask and the (2 * batch, n_sigmas) count table of the 2 * batch
    rows each stay within PROFILE_CHUNK bytes.  `per_pass` permutations
    share one AND pass over the masks; per row, mask word and permutation
    its temporaries take under 128 bytes together (the AND accumulator and
    one gathered operand, 8 each, popcount's lookup copy, 8, and the intp
    copy that np.take makes of the looked-up bytes, 64), so that they too
    stay within PROFILE_CHUNK bytes.
    """
    m = group.order

    def fits(f: int) -> bool:
        states = m**f
        return states <= 64 or max(8 * n * n * _words(states), states) <= PROFILE_CHUNK

    free = max(f for f in range(n + 1) if fits(f))
    words = _words(m**free)
    per_auto = max(8 * n * n * words, m**free, m * m, 8 * n_sigmas)
    batch = max(1, min(n_autos, _batch_size(group), PROFILE_CHUNK // (2 * per_auto)))
    per_pass = max(1, min(n_sigmas, PROFILE_CHUNK // (256 * batch * words)))
    return free, batch, per_pass


def _fixed_counts(
    images: np.ndarray, sigmas: np.ndarray, free: int, per_pass: int
) -> np.ndarray:
    """Fixed n-tuples of every pair (images[a], sigmas[i]), as a
    (len(images), len(sigmas)) table, by the packed scan of the module
    docstring; images holds one automorphism's index map on elements, or on
    characters, per row.
    """
    (k, m), n = images.shape, sigmas.shape[1]
    fixed = np.zeros((k, len(sigmas)), dtype=np.int64)
    nbytes = -(-(m**free) // 8)
    # Bytes past nbytes stay 0, so padding bits never count as fixed.
    packed = np.zeros((n, n, k, 8 * _words(m**free)), dtype=np.uint8)
    masks = packed.view(np.uint64)
    bits = np.empty((k,) + (m,) * free, dtype=bool)
    for _, slots in _blocks(m, n, free):
        for j in range(n):
            moved = images[:, slots[j]]
            for t in range(n):
                np.equal(moved, slots[t], out=bits)
                packed[j, t, :, :nbytes] = np.packbits(bits.reshape(k, -1), axis=1)
        for s in range(0, len(sigmas), per_pass):
            rows = sigmas[s : s + per_pass]
            common = masks[0][rows[:, 0]]
            for j in range(1, n):
                common &= masks[j][rows[:, j]]
            fixed[:, s : s + per_pass] += popcount(common).T
    return fixed


def fixed_point_report(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> FixedPointReport:
    """Scan every action pair naively and average the fixed-point counts.

    A pair's count is the product of its two halves' fixed tuples, over
    automorphism batches and the permutation_chunks of PROFILE_CHUNK // (8n)
    rows.  One _fixed_counts call per batch and chunk scans both halves:
    the batch's element images stacked on its character images, split
    again into the E and C rows of its count table.  When S_n fits one
    chunk it is the cached _permutation_table, labelled by cycle type once
    per n; larger n streams its chunks and labels each.  Counts must agree
    within each cycle type, across chunks too, and their total must divide
    exactly.  The limits price what the scan walks:
    max_state_space the |G|**n tuples of one half, max_naive_work the
    2 * |G|**n tuples of every pair.  The work limit takes |Aut(G)| from
    automorphism_count, so an oversized scan is refused before any
    automorphism is listed.
    """
    _check_tuple_length(n)
    half = group.order**n
    budget.check("max_state_space", half)
    budget.check("max_naive_work", automorphism_count(group) * math.factorial(n) * 2 * half)
    budget.check("max_group_order", group.order)
    matrices = enumerate_automorphisms(group, budget).matrices

    # table[a, columns[ctype]]: automorphism a's count on that type, or -1.
    columns: dict[CycleType, int] = {}
    table = np.full((len(matrices), partition_count(n)), -1, dtype=np.int64)
    total = 0
    for sigmas, ctypes, labels in _labelled_chunks(n, max(1, PROFILE_CHUNK // (8 * n))):
        col = np.array([columns.setdefault(ctype, len(columns)) for ctype in ctypes])[labels]
        free, batch, per_pass = _scan_plan(group, n, len(matrices), len(sigmas))
        for lo, halves in zip(
            range(0, len(matrices), batch), _image_batches(group, matrices, batch)
        ):
            both = _fixed_counts(np.concatenate(halves), sigmas, free, per_pass)
            elements, characters = np.split(both, 2)
            fixed = elements * characters
            # A type new to the table takes one of its counts; if they vary,
            # some count then differs from the stored one.
            rows = table[lo : lo + len(fixed)]
            stored = rows[:, col]
            rows[:, col] = np.where(stored < 0, fixed, stored)
            if (rows[:, col] != fixed).any():
                raise IntegralityError(
                    f"fixed-point count for {group} varies within a cycle type"
                )
            total += int(fixed.sum())
    keys = itertools.product(range(len(matrices)), columns)
    counts = dict(zip(keys, table.ravel().tolist()))
    orbit_count = exact_quotient(
        total, len(matrices) * math.factorial(n), f"fixed-point total for {group}, n={n}"
    )
    return FixedPointReport(group, n, counts, total, orbit_count)


def orbit_count_naive(group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Number of orbits, by scanning the whole configuration space."""
    return fixed_point_report(group, n, budget).orbit_count


def fixed_count_profiles(group: AbelianGroup, matrices: np.ndarray, n: int) -> np.ndarray:
    """|Fix(phi**r)| for r = 1..n, one row per automorphism phi of a
    (k, s, s) stack.

    All automorphisms are mapped over all elements at once; each power is
    one more gather through the element-index permutation.
    """
    perms = element_images(group, matrices)
    identity = np.arange(group.order, dtype=np.int64)
    profiles = np.empty((len(matrices), n), dtype=np.int64)
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
    automorphisms are profiled PROFILE_CHUNK image cells at a time.
    """
    _check_tuple_length(n)
    budget.check("max_group_order", group.order)
    matrices = enumerate_automorphisms(group, budget).matrices
    chunk = _batch_size(group)
    census: Counter = Counter()
    for lo in range(0, len(matrices), chunk):
        tally_rows(census, fixed_count_profiles(group, matrices[lo : lo + chunk], n))
    return dict(census)


def congruence_counts(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> Callable[[int], int]:
    """Number of orbits at every tuple length k <= n, averaging the cycle
    index over automorphisms.

    A pair (phi, sigma) fixes, per cycle of sigma of length r, the elements
    and the characters fixed by phi**r, as many of each (|G / im(phi**r - 1)|
    = |ker(phi**r - 1)|).  So the automorphisms of the whole group are
    tallied by fixed-element profile up to n (fixed_count_census), cut to k
    by census_count and, as fixed counts, summed by cycle_index_sum.
    """
    census = [(0, fixed_count_census(group, n, budget))]
    return lambda k: census_count(
        census, k, str(group), lambda cut, k: cycle_index_sum(cut[0][1], k)
    )


def orbit_count_congruence(group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET) -> int:
    """Number of orbits at n alone, by the congruence average (congruence_counts)."""
    return congruence_counts(group, n, budget)(n)


def _generator_images(
    group: AbelianGroup, matrices: np.ndarray
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Element and character images of a small generating set of the
    automorphisms in a (k, s, s) stack, found greedily on the element
    images; the generated subgroup is closed over element-image rows, a
    frontier at a time, keyed by their bytes."""
    identity = np.arange(group.order, dtype=np.int64)
    generated = {identity.tobytes()}
    members = [identity]
    generators: list[tuple[np.ndarray, np.ndarray]] = []
    for batch in _image_batches(group, matrices, _batch_size(group)):
        for elem_images, char_images in zip(*batch):
            if len(generated) == len(matrices):
                return generators
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
    _check_tuple_length(n)
    size = group.order ** (2 * n)
    budget.check("max_state_space", size)
    budget.check("max_group_order", group.order)
    matrices = enumerate_automorphisms(group, budget).matrices
    m = group.order
    _, slots = next(_blocks(m, 2 * n, 2 * n))
    identity, unmoved = identity_permutation(n), np.arange(m)
    moves = [(*images, identity) for images in _generator_images(group, matrices)]
    moves += [(unmoved, unmoved, sigma) for sigma in _sigma_generators(n)]
    image_maps = [_image_index(m, slots, *move) for move in moves]
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
