"""Finite abelian groups presented as direct sums of prime-power cyclic
factors, together with their characters and matrix-represented
endomorphisms.

An element of ``C_{m_1} + ... + C_{m_s}`` is a tuple of exponents, one per
factor.  A character is likewise a tuple ``(l_1, ..., l_s)``: it sends the
i-th generator to the ``l_i``-th power of a fixed primitive ``m_i``-th root
of unity.  Endomorphisms are integer matrices acting on exponent tuples,
with entry ``(i, j)`` constrained to be a multiple of
``m_i / gcd(m_i, m_j)`` so that the map respects factor orders.

The automorphisms of a group are listed as one sorted array of candidate
indices from its GL(b, p) blocks (automorphism_index).  The element-image
methods read them as one read-only (k, s, s) stack (Automorphisms), cached
for the last eight groups; the closed form's census of a p-group
(kernel_census) decodes the index a slice at a time, finds each power of an
automorphism in it by binary search, and caches no automorphism.  Where it
lists only some C_p**b blocks, the index is left unsorted, block after
block, so each row's class is read from its position, and the census pass
reads only the rows over class representatives.
"""
from __future__ import annotations

import itertools
import math
import operator
from collections import Counter, abc
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Sequence

import numpy as np

from .budget import Budget, DEFAULT_BUDGET, IntegralityError, exact_quotient
from .glclasses import general_linear_order, gl_class_representatives
from .numtheory import factorize, is_prime

GroupElement = tuple[int, ...]
Character = tuple[int, ...]


class GroupParseError(ValueError):
    """Malformed group spec string; `position` is the offending index."""

    def __init__(self, message: str, text: str, position: int):
        self.text = text
        self.position = position
        super().__init__(f"{message} at position {position} in {text!r}")


@dataclass(frozen=True)
class AbelianGroup:
    """A finite abelian group as a sorted tuple of (prime, exponent) factors."""

    factors: tuple[tuple[int, int], ...]

    def __post_init__(self):
        for p, e in self.factors:
            if not is_prime(p):
                raise ValueError(f"factor prime {p} is not prime")
            if e < 1:
                raise ValueError(f"factor exponent {e} must be >= 1")
        if tuple(sorted(self.factors)) != self.factors:
            raise ValueError(f"factors {self.factors} must be sorted by (prime, exponent)")

    @cached_property
    def moduli(self) -> tuple[int, ...]:
        return tuple(p**e for p, e in self.factors)

    @cached_property
    def order(self) -> int:
        return math.prod(self.moduli)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def is_trivial(self) -> bool:
        return not self.factors

    def is_cyclic(self) -> bool:
        primes = [p for p, _ in self.factors]
        return len(primes) == len(set(primes))

    def is_elementary(self) -> bool:
        """True when all factors are C_p for one and the same prime p."""
        return bool(self.factors) and all(e == 1 for _, e in self.factors) and len(
            {p for p, _ in self.factors}
        ) == 1

    def __str__(self) -> str:
        return canonical_spec(self)


def canonical_spec(group: AbelianGroup) -> str:
    """Canonical spec string: prime-power factors sorted by (prime, exponent)."""
    if group.is_trivial():
        return "C1"
    return "x".join(f"C{p**e}" for p, e in group.factors)


_DIGITS = "0123456789"


def _scan_uint(text: str, pos: int, what: str) -> tuple[int, int]:
    start = pos
    while pos < len(text) and text[pos] in _DIGITS:
        pos += 1
    if start == pos:
        raise GroupParseError(f"expected {what}", text, pos)
    return int(text[start:pos]), pos


def parse_group(text: str) -> AbelianGroup:
    """Parse a spec like "C12" or "C2^3xC9" into its canonical group.

    Grammar: factors "C<uint>" with an optional "^<uint>" repeat count,
    joined by "x".  The "C" is case-insensitive; no whitespace is allowed.
    Composite moduli are split into prime-power factors, so "C12" and
    "C4xC3" denote the same group.
    """
    pos = 0
    factors: list[tuple[int, int]] = []
    while True:
        if pos >= len(text) or text[pos] not in "Cc":
            raise GroupParseError("expected 'C'", text, pos)
        pos += 1
        modulus_at = pos
        modulus, pos = _scan_uint(text, pos, "modulus")
        if modulus == 0:
            raise GroupParseError("modulus must be positive", text, modulus_at)
        repeat = 1
        if pos < len(text) and text[pos] == "^":
            pos += 1
            repeat, pos = _scan_uint(text, pos, "repeat count")
        factors.extend(factorize(modulus) * repeat)
        if pos == len(text):
            break
        if text[pos] != "x":
            raise GroupParseError("expected 'x' between factors", text, pos)
        pos += 1
    return AbelianGroup(tuple(sorted(factors)))


@lru_cache(maxsize=8)
def element_list(group: AbelianGroup) -> tuple[GroupElement, ...]:
    """All exponent tuples of the group in lexicographic order."""
    return tuple(itertools.product(*(range(m) for m in group.moduli)))


@lru_cache(maxsize=8)
def element_index(group: AbelianGroup) -> dict[GroupElement, int]:
    return {el: i for i, el in enumerate(element_list(group))}


@dataclass(frozen=True)
class EndoMatrix:
    """An endomorphism of `group`, stored as rows of exponent coefficients.

    rows[i][j] tells how the j-th generator contributes to the i-th output
    coordinate; it must be a multiple of m_i / gcd(m_i, m_j), which is
    exactly the condition for the matrix to define a homomorphism.
    """

    group: AbelianGroup
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mods = self.group.moduli
        s = len(mods)
        if len(self.rows) != s or any(len(row) != s for row in self.rows):
            raise ValueError(f"matrix must be {s}x{s} for {self.group}")
        for i, row in enumerate(self.rows):
            for j, a in enumerate(row):
                if not 0 <= a < mods[i]:
                    raise ValueError(f"entry ({i},{j})={a} out of range for modulus {mods[i]}")
                if a % (mods[i] // math.gcd(mods[i], mods[j])):
                    raise ValueError(
                        f"entry ({i},{j})={a} must be a multiple of "
                        f"{mods[i] // math.gcd(mods[i], mods[j])}"
                    )

    @classmethod
    def identity(cls, group: AbelianGroup) -> "EndoMatrix":
        s = group.rank
        return cls(group, tuple(tuple(int(i == j) for j in range(s)) for i in range(s)))

    def apply(self, el: Sequence[int]) -> GroupElement:
        """Image of an exponent tuple under this endomorphism."""
        return tuple(
            sum(a * k for a, k in zip(row, el, strict=True)) % m
            for row, m in zip(self.rows, self.group.moduli)
        )

    def compose(self, other: "EndoMatrix") -> "EndoMatrix":
        """Matrix of `self` after `other` (row i reduced modulo m_i)."""
        if other.group != self.group:
            raise ValueError("cannot compose endomorphisms of different groups")
        s = self.group.rank
        mods = self.group.moduli
        rows = tuple(
            tuple(
                sum(self.rows[i][t] * other.rows[t][j] for t in range(s)) % mods[i]
                for j in range(s)
            )
            for i in range(s)
        )
        return EndoMatrix(self.group, rows)

    def power(self, r: int) -> "EndoMatrix":
        """r-th compositional power, r >= 0 (0 gives the identity)."""
        if r < 0:
            raise ValueError(f"power must be >= 0, got {r}")
        result = EndoMatrix.identity(self.group)
        square = self
        while r:
            if r & 1:
                result = result.compose(square)
            r >>= 1
            if r:
                square = square.compose(square)
        return result


def element_images(group: AbelianGroup, matrices: np.ndarray) -> np.ndarray:
    """Element-index images under a stack of endomorphism matrices.

    `matrices` has shape (k, s, s); row t of the (k, |G|) result lists, for
    every element in element_list order, the index of its image under
    matrix t.
    """
    s = group.rank
    mods = np.array(group.moduli, dtype=np.int64)
    basis = np.array(element_list(group), dtype=np.int64).reshape(group.order, s)
    # Weights that collapse an exponent tuple to its index in element_list.
    index_weights = np.array(
        [math.prod(group.moduli[i + 1 :]) for i in range(s)], dtype=np.int64
    )
    images = basis @ matrices.transpose(0, 2, 1)
    images %= mods
    return images @ index_weights


def character_images(group: AbelianGroup, matrices: np.ndarray) -> np.ndarray:
    """Character-index images under a stack of automorphism matrices.

    Row t of the (k, |G|) result lists, for every character in element_list
    order, the index of that character composed with the inverse of
    automorphism t, as character_permutation does one at a time.  The
    character with exponents l composed with phi has exponents D l, where
    D[j][i] = phi[i][j] * m_j / m_i; the division is exact and D is itself
    an endomorphism matrix, so these pullbacks go through element_images,
    and inverting each row gives the action of the inverse automorphism.
    """
    mods = np.array(group.moduli, dtype=np.int64)
    dual = matrices.transpose(0, 2, 1) * mods[:, None] // mods[None, :]
    return np.argsort(element_images(group, dual), axis=1)


# Candidates per batch of a GL(b, p) scan, and matrices per listed stack.
MATRIX_CHUNK = 1 << 14


def general_linear_chunks(p: int, b: int) -> Iterator[np.ndarray]:
    """The matrices of GL(b, p), entries in [0, p), as (k, b, b) stacks in
    itertools.product order over the entries: kernel_exponents keeps the
    invertible ones among the p**(b*b) candidates, MATRIX_CHUNK at a time."""
    if b == 1:  # the units 1..p - 1, with no kernel to take
        yield np.arange(1, p, dtype=np.int64).reshape(-1, 1, 1)
        return
    space = AbelianGroup(((p, 1),) * b)
    total = p ** (b * b)
    place = p ** np.arange(b * b - 1, -1, -1, dtype=np.int64)
    for lo in range(0, total, MATRIX_CHUNK):
        idx = np.arange(lo, min(total, lo + MATRIX_CHUNK), dtype=np.int64)
        cand = (idx[:, None] // place % p).reshape(-1, b, b)
        yield cand[kernel_exponents(space, cand) == 0]


def _candidate_cells(group: AbelianGroup) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The candidate layout as three (s, s) int64 arrays: each cell's digit
    count c = gcd(m_i, m_j), the step m_i / c between its entries, and its
    stride, the product of the counts of the cells after it in row order."""
    mods = np.array(group.moduli, dtype=np.int64)
    counts = np.gcd.outer(mods, mods)
    strides = np.ones(counts.size, dtype=np.int64)
    strides[:-1] = np.cumprod(counts.ravel()[:0:-1])[::-1]
    return counts, mods[:, None] // counts, strides.reshape(counts.shape)


def _decode(
    index: np.ndarray, counts: np.ndarray, steps: np.ndarray, strides: np.ndarray
) -> np.ndarray:
    """The (k, s, s) endomorphism matrices at the given candidate indices,
    in the layout of _candidate_cells."""
    matrices = index[:, None, None] // strides
    matrices %= counts
    return np.multiply(matrices, steps, out=matrices)


def _listed_per_block(group: AbelianGroup, p: int, b: int) -> int:
    """|Aut(G)| / |GL(b, p)|, the automorphisms over each block of b factors C_p."""
    return exact_quotient(automorphism_count(group), general_linear_order(p, b), f"|Aut({group})|")


def automorphism_index(
    group: AbelianGroup, blocks: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The int64 candidate indices of the group's automorphisms, sorted,
    then the three _candidate_cells arrays: the arguments of _decode.

    Cell (i, j) holds d * m_i / c for a digit d below c = gcd(m_i, m_j), so a
    candidate's index in itertools.product order over the cells is the sum
    of digit * stride.  By Hillar and Rhea, with the factors sorted, a
    candidate is an automorphism iff the block of each run of b equal
    factors C_{p^e} is in GL(b, p) mod p.  No candidate is rejected: the
    indices are sorted sums of independent parts: per block, a GL(b, p)
    matrix's digits plus p * [0, p**(e - 1)) in each of its cells; per other
    cell, [0, c).  An elementary group is one block, its index |GL(s, p)| * 8
    bytes.  Given `blocks`, a (k, b, b) stack of GL(b, p) matrices, only the
    automorphisms of a p-group whose block of C_p factors is one of them are
    listed, every other block and cell in full, and unsorted: the C_p block
    is the first part summed, so rows j * per_block to (j + 1) * per_block,
    per_block = _listed_per_block, are those over blocks[j].  The number
    listed must be automorphism_count, or k * per_block given `blocks`; any
    other raises IntegralityError."""
    counts, steps, strides = _candidate_cells(group)
    expected = automorphism_count(group)
    parts, free = [], np.ones(counts.shape, dtype=bool)
    for p, e in dict.fromkeys(group.factors):
        start, b = group.factors.index((p, e)), group.factors.count((p, e))
        block = strides[start : start + b, start : start + b].ravel().tolist()
        free[start : start + b, start : start + b] = False
        listed = general_linear_chunks(p, b)
        if blocks is not None and e == 1:
            listed, expected = [blocks], len(blocks) * _listed_per_block(group, p, b)
        parts.append(np.concatenate([mats.reshape(-1, b * b) @ block for mats in listed]))
        if e > 1:
            parts += [p * np.arange(p ** (e - 1), dtype=np.int64) * stride for stride in block]
    cells = zip(counts[free].tolist(), strides[free].tolist())
    parts += [np.arange(c, dtype=np.int64) * stride for c, stride in cells if c > 1]
    index = np.zeros(1, dtype=np.int64)
    for part in parts:
        index = (index[:, None] + part).ravel()
    if (found := len(index)) != expected:
        raise IntegralityError(f"listed {found} automorphisms of {group}, expected {expected}")
    if blocks is None:
        index.sort()
    return index, counts, steps, strides


def automorphism_chunks(group: AbelianGroup) -> Iterator[np.ndarray]:
    """The automorphisms of automorphism_index, in its order, decoded as
    (k, s, s) stacks of at most MATRIX_CHUNK matrices."""
    index, *layout = automorphism_index(group)
    for lo in range(0, len(index), MATRIX_CHUNK):
        yield _decode(index[lo : lo + MATRIX_CHUNK], *layout)


def _class_blocks(p: int, b: int, n: int, budget: Budget) -> tuple[np.ndarray, tuple[int, ...]]:
    """The (k, b, b) stack of C_p**b blocks that kernel_census lists, and the
    class sizes of its first blocks: the GL(b, p) class representatives R,
    then, once each, every power R**r (r <= n) that is no representative."""
    representatives, sizes = gl_class_representatives(p, b, budget)
    stacks = [representatives]
    for _ in range(1, n):
        stacks.append(stacks[-1] @ representatives % p)
    rows = dict.fromkeys(map(tuple, np.concatenate(stacks).reshape(-1, b * b).tolist()))
    return np.array(list(rows), dtype=np.int64).reshape(-1, b, b), sizes


def kernel_census(
    group: AbelianGroup, n: int, budget: Budget = DEFAULT_BUDGET
) -> dict[tuple[int, ...], int]:
    """The automorphisms A of a p-group tallied by exponent profile
    (c_1, ..., c_n), where A**r fixes p**c_r elements: one kernel_exponents
    row per listed automorphism, and nothing cached.

    Every A**r is itself an automorphism, listed in the same index
    (automorphism_index).  So one pass over the MATRIX_CHUNK slices of the
    index stores c(B) for each listed automorphism B in an int8 array
    aligned with it.  At n >= 2 the census pass finds A**r in the index by
    its candidate index (row i reduced mod m_i, cell digit entry // (m_i /
    c)), searched through the index's argsort, and reads c(A**r) there; a
    power that is not listed raises IntegralityError.  An elementary group
    C_p^s is one GL(s, p) block, listed in full, its index |GL(s, p)| * 8
    bytes; closed_form.matrix_scan_census is that census.

    A group with b >= 2 factors C_p beside larger ones lists fewer.  Its
    block of those factors is in GL(b, p), and reading that block is a
    homomorphism of Aut(G), since every map C_p -> C_{p^e} -> C_p with
    e >= 2 is zero; so the block of A**r is R**r when A's is R.  Conjugating
    by diag(P, I) keeps every fixed count and maps the automorphisms over
    block R onto those over P R P**-1.  So only the blocks of _class_blocks
    are listed, each in full and block after block.  The census pass reads
    only the rows over the class representatives, the first ones, and
    tallies them by class (row // per_block) and profile; each count is
    then multiplied by its exact class size.  Without such a block all rows
    are one class of size 1.  A tally that does not add up to
    automorphism_count raises IntegralityError.

    max_endo_candidates prices the rows listed, at every n and before any
    is listed: |Aut(G)|, or with a block min(p**b * n, |GL(b, p)|) *
    per_block, taking p**b for the class count.  Each listed row costs
    about 17 bytes: its index, its exponent and, at n >= 2, its argsort
    entry.
    """
    s, p = group.rank, group.factors[0][0]
    b = group.factors.count((p, 1))
    order = automorphism_count(group)
    split = 2 <= b < s
    per_block = _listed_per_block(group, p, b) if split else order
    budget.check(
        "max_endo_candidates",
        min(p**b * n, general_linear_order(p, b)) * per_block if split else order,
    )
    blocks, sizes = _class_blocks(p, b, n, budget) if split else (None, (1,))
    index, *layout = automorphism_index(group, blocks)
    identity = np.eye(s, dtype=np.int64)
    exponents = np.empty(len(index), dtype=np.int8)
    for lo in range(0, len(index), MATRIX_CHUNK):
        part = index[lo : lo + MATRIX_CHUNK]
        exponents[lo : lo + MATRIX_CHUNK] = kernel_exponents(group, _decode(part, *layout) - identity)
    if n > 1:
        sorter = np.argsort(index)
        _, steps, strides = layout
        # In a p-group, m_i divides the stride of every cell (i, j < s - 1) and
        # the step of (i, s - 1) is 1, so digit * stride = entry * place.
        places = (strides // steps).ravel()
        mods = np.array(group.moduli, dtype=np.int64)[:, None]
        # Row i modulo m_i; for p = 2 a mask is faster.
        reduce, by = (np.bitwise_and, mods - 1) if p == 2 else (np.remainder, mods)
    tallied = index[: len(sizes) * per_block]
    tally: Counter = Counter()
    for lo in range(0, len(tallied), MATRIX_CHUNK):
        part = tallied[lo : lo + MATRIX_CHUNK]
        at = np.arange(lo, lo + len(part))  # the rows whose exponents are read
        columns = [at // per_block, exponents[at]]  # class, then profile
        if n > 1:
            power = matrices = _decode(part, *layout)
            for _ in range(1, n):
                power = reduce(power @ matrices, by)
                code = power.reshape(-1, s * s) @ places
                at = sorter.take(np.searchsorted(index, code, sorter=sorter), mode="clip")
                if (index[at] != code).any():
                    raise IntegralityError(f"a power of an automorphism of {group} is not listed")
                columns.append(exponents[at])
        tally_rows(tally, np.stack(columns, axis=1, dtype=np.int32))
    census: Counter = Counter()
    for (cls, *profile), count in tally.items():
        census[tuple(profile)] += count * sizes[cls]
    if (total := sum(census.values())) != order:
        raise IntegralityError(f"the census of {group} tallies {total} automorphisms, not {order}")
    return dict(census)


def automorphism_count(group: AbelianGroup) -> int:
    """|Aut(G)| in closed form (Hillar and Rhea, 2007), prime by prime.

    With exponents e_1 <= ... <= e_k of the p-part, d_i the last and c_i the
    first (1-based) position holding e_i, the p-part contributes
    prod_i (p^d_i - p^(i-1)) * prod_j p^(e_j (k - d_j))
    * prod_i p^((e_i - 1)(k - c_i + 1)).
    """
    order = 1
    for p in sorted({p for p, _ in group.factors}):
        exps = [e for q, e in group.factors if q == p]
        k = len(exps)
        last = [k - exps[::-1].index(e) for e in exps]
        first = [exps.index(e) + 1 for e in exps]
        for i, e in enumerate(exps):
            order *= p ** last[i] - p**i
            order *= p ** (e * (k - last[i]))
            order *= p ** ((e - 1) * (k - first[i] + 1))
    return order


class Automorphisms(abc.Sequence):
    """The automorphisms of `group` over one read-only (k, s, s) int64 stack.

    `matrices` is the stack itself.  An integer index builds, and so checks,
    one EndoMatrix; a slice is another Automorphisms over the sliced stack,
    sharing its memory.
    """

    __slots__ = ("group", "matrices")

    def __init__(self, group: AbelianGroup, matrices: np.ndarray):
        self.group = group
        self.matrices = matrices

    def __len__(self) -> int:
        return len(self.matrices)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Automorphisms(self.group, self.matrices[index])
        rows = self.matrices[operator.index(index)].tolist()
        return EndoMatrix(self.group, tuple(map(tuple, rows)))


def enumerate_automorphisms(
    group: AbelianGroup, budget: Budget = DEFAULT_BUDGET
) -> Automorphisms:
    """All automorphisms of the group, in the order of automorphism_index.

    Only max_endo_candidates, on the automorphism_count rows listed, is
    checked, on every call; the paths that map elements check
    max_group_order themselves.  The stack is cached by group alone, so
    every budget that admits the group reads the same entry.
    """
    budget.check("max_endo_candidates", automorphism_count(group))
    return _automorphisms(group)


@lru_cache(maxsize=8)
def _automorphisms(group: AbelianGroup) -> Automorphisms:
    """The automorphisms of automorphism_index, decoded into one stack of
    k * s**2 * 8 bytes beside the index's k * 8."""
    matrices = _decode(*automorphism_index(group))
    matrices.flags.writeable = False
    return Automorphisms(group, matrices)


# The cache's statistics and reset, under the public name.
enumerate_automorphisms.cache_info = _automorphisms.cache_info
enumerate_automorphisms.cache_clear = _automorphisms.cache_clear


def invert_automorphism(auto: EndoMatrix) -> EndoMatrix:
    """Matrix of the inverse map; raises ValueError if `auto` is not bijective."""
    group = auto.group
    preimage: dict[GroupElement, GroupElement] = {}
    for el in element_list(group):
        preimage[auto.apply(el)] = el
    if len(preimage) != group.order:
        raise ValueError("endomorphism is not an automorphism")
    s = group.rank
    columns = [
        preimage[tuple(int(i == j) for i in range(s))] for j in range(s)
    ]
    rows = tuple(tuple(columns[j][i] for j in range(s)) for i in range(s))
    return EndoMatrix(group, rows)


def pullback_character(endo: EndoMatrix, chi: Character) -> Character:
    """The character chi composed with the map of `endo`.

    Working with the exponent of a common primitive |G|-th root of unity:
    the value of the composed character on the j-th generator is the
    chi-value of column j, rescaled from the common root to the
    m_j-th root.  The rescaling always divides exactly for a valid
    endomorphism matrix.
    """
    group = endo.group
    mods = group.moduli
    m = group.order
    out = []
    for j in range(group.rank):
        t = sum((m // mods[i]) * chi[i] * endo.rows[i][j] for i in range(group.rank)) % m
        scale = m // mods[j]
        quotient, remainder = divmod(t, scale)
        if remainder:
            raise ValueError("matrix does not define an endomorphism")
        out.append(quotient)
    return tuple(out)


def element_permutation(auto: EndoMatrix) -> tuple[int, ...]:
    """The permutation of element indices induced by an automorphism."""
    group = auto.group
    idx = element_index(group)
    return tuple(idx[auto.apply(el)] for el in element_list(group))


def character_permutation(auto: EndoMatrix) -> tuple[int, ...]:
    """The permutation of character indices: chi goes to chi composed with
    the inverse automorphism."""
    group = auto.group
    inverse = invert_automorphism(auto)
    idx = element_index(group)
    return tuple(
        idx[pullback_character(inverse, chi)] for chi in element_list(group)
    )


def count_element_solutions(
    auto: EndoMatrix, r: int, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Number of group elements fixed by the r-th power of an automorphism."""
    budget.check("max_group_order", auto.group.order)
    power = auto.power(r)
    return sum(1 for el in element_list(auto.group) if power.apply(el) == el)


def count_character_solutions(
    auto: EndoMatrix, r: int, budget: Budget = DEFAULT_BUDGET
) -> int:
    """Number of characters fixed by the r-th power of the character action."""
    budget.check("max_group_order", auto.group.order)
    inverse_power = invert_automorphism(auto).power(r)
    return sum(
        1
        for chi in element_list(auto.group)
        if pullback_character(inverse_power, chi) == chi
    )


def rank_mod_p(rows: Iterable[Iterable[int]], p: int) -> int:
    """Rank of an integer matrix over the field with p elements."""
    mat = [[v % p for v in row] for row in rows]
    if not mat:
        return 0
    n_rows, n_cols = len(mat), len(mat[0])
    rank = 0
    for col in range(n_cols):
        pivot = next((r for r in range(rank, n_rows) if mat[r][col]), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = pow(mat[rank][col], -1, p)
        mat[rank] = [(v * inv) % p for v in mat[rank]]
        for r in range(n_rows):
            if r != rank and mat[r][col]:
                f = mat[r][col]
                mat[r] = [(a - f * b) % p for a, b in zip(mat[r], mat[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def tally_rows(census: Counter, table: np.ndarray) -> None:
    """Add each distinct row of a 2-d integer table to `census` as a tuple
    key, counted as often as it occurs: one opaque key per row makes this a
    1-d np.unique, far cheaper than axis=0."""
    table = np.ascontiguousarray(table)
    keys = table.view(np.dtype((np.void, table.itemsize * table.shape[1]))).ravel()
    _, first, counts = np.unique(keys, return_index=True, return_counts=True)
    census.update(dict(zip(map(tuple, table[first].tolist()), counts.tolist())))


def kernel_exponents(group: AbelianGroup, stack: np.ndarray) -> np.ndarray:
    """Exponents c with |ker B| = p**c, for each endomorphism B of the
    p-group `group` in a (k, s, s) stack.

    With E the largest exponent, row i of B is scaled by p**(E - e_i): the
    scaled matrix is well defined on G modulo p**E and kills exactly ker B.
    If v_1, ..., v_s are its Smith valuations modulo p**E (E for a zero),
    then c = sum_i e_i - sum_k (E - v_k).  Each of s steps takes, in every
    matrix, an entry of least valuation v, u * p**v (valuations are read
    from a table over the p**E residues); it divides every entry, so
    scaling each row by the unit u and subtracting a multiple of the pivot
    row clears the pivot's row and column, and neither is picked again
    while a nonzero entry is left.  Values stay below p**(2E); the caller's
    products of s such terms must fit in int64 too.
    """
    primes = {p for p, _ in group.factors}
    if len(primes) != 1:
        raise ValueError(f"{group} is not a p-group")
    (p,) = primes
    exps = [e for _, e in group.factors]
    k, s, top = len(stack), group.rank, max(exps)
    q = p**top
    if s * q * q >= 1 << 63:
        raise ValueError(f"p**E={q} is too large for int64 elimination")
    valuations = np.zeros(q, dtype=np.int8)
    for t in range(1, top + 1):
        valuations[:: p**t] += 1
    powers = p ** np.arange(top + 1, dtype=np.int64)
    # Residues modulo q, in place; for p = 2 a mask is several times faster.
    reduce, by = (np.bitwise_and, q - 1) if p == 2 else (np.remainder, q)
    a = np.asarray(stack, dtype=np.int64) * powers[top - np.array(exps)][:, None]
    reduce(a, by, out=a)
    every = np.arange(k)
    lost = np.zeros(k, dtype=np.int64)
    for step in range(s):
        valuation = valuations[a].reshape(k, s * s)
        flat = valuation.argmin(axis=1)
        least = valuation[every, flat]
        lost += top - least
        if step + 1 == s:
            break
        row, col = np.divmod(flat, s)
        pivot_row = a[every, row]
        divisor = powers[least]
        unit = pivot_row[every, col] // divisor
        factors = a[every, :, col] // divisor[:, None]
        a *= unit[:, None, None]
        a -= factors[:, :, None] * pivot_row[:, None, :]
        reduce(a, by, out=a)
    return sum(exps) - lost


@dataclass(frozen=True)
class ESC:
    """An element system with characters: n group elements paired with n
    characters, indexed by the same positions."""

    elements: tuple[GroupElement, ...]
    characters: tuple[Character, ...]

    def __post_init__(self):
        if len(self.elements) != len(self.characters):
            raise ValueError("element and character tuples must have equal length")
        if not self.elements:
            raise ValueError("an element system needs at least one position")

    @property
    def n(self) -> int:
        return len(self.elements)
