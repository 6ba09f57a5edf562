"""Tests for group parsing, element/character streams, endomorphism
matrices, automorphism enumeration, and character pullbacks."""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

import escount
from escount import abelian
from escount.abelian import (
    ESC,
    AbelianGroup,
    EndoMatrix,
    GroupParseError,
    automorphism_chunks,
    automorphism_count,
    automorphism_index,
    canonical_spec,
    character_images,
    character_permutation,
    count_character_solutions,
    count_element_solutions,
    element_images,
    element_index,
    element_list,
    element_permutation,
    enumerate_automorphisms,
    invert_automorphism,
    kernel_exponents,
    parse_group,
    pullback_character,
    rank_mod_p,
)
from escount.budget import DEFAULT_BUDGET, Budget, BudgetExceededError, IntegralityError
from escount.burnside import fixed_count_census, fixed_point_report
from escount.closed_form import general_linear_order
from escount.numtheory import euler_phi
from escount.verify import abelian_groups_of_order


def pairing_exponent(group, chi, el):
    """Exponent k with chi(el) equal to the k-th power of a fixed primitive
    |G|-th root of unity: the reference pairing the tests check pullbacks
    against."""
    m = group.order
    return sum((m // mi) * l * k for mi, l, k in zip(group.moduli, chi, el, strict=True)) % m


def small_groups(max_order):
    return [
        group
        for order in range(1, max_order + 1)
        for group in abelian_groups_of_order(order)
    ]


def test_parse_group_basic():
    assert parse_group("C1").factors == ()
    assert parse_group("C12").factors == ((2, 2), (3, 1))
    assert parse_group("C2^2").factors == ((2, 1), (2, 1))
    assert parse_group("c12xc2").factors == ((2, 1), (2, 2), (3, 1))
    assert parse_group("C2^2xC9").factors == ((2, 1), (2, 1), (3, 2))
    assert parse_group("C4xC3") == parse_group("C12")
    assert parse_group("C1xC3") == parse_group("C3")
    assert parse_group("C5^0") == parse_group("C1")


def test_canonical_spec():
    assert canonical_spec(parse_group("C1")) == "C1"
    assert canonical_spec(parse_group("C12")) == "C4xC3"
    assert canonical_spec(parse_group("C4xC2")) == "C2xC4"
    assert str(parse_group("C30")) == "C2xC3xC5"
    for group in small_groups(16):
        assert parse_group(canonical_spec(group)) == group


@pytest.mark.parametrize(
    "text,position",
    [
        ("", 0),
        ("D4", 0),
        ("C", 1),
        ("C4x", 3),
        ("C0", 1),
        ("Cx2", 1),
        ("C4 x C2", 2),
        ("C4XC2", 2),
        ("C4^", 3),
        ("C4^2x", 5),
        ("C4yC2", 2),
    ],
)
def test_parse_group_errors(text, position):
    with pytest.raises(GroupParseError) as excinfo:
        parse_group(text)
    assert excinfo.value.position == position


def test_group_properties():
    trivial = parse_group("C1")
    assert trivial.order == 1 and trivial.rank == 0 and trivial.is_trivial()
    assert trivial.is_cyclic() and not trivial.is_elementary()
    g12 = parse_group("C12")
    assert g12.order == 12 and g12.moduli == (4, 3) and g12.is_cyclic()
    klein = parse_group("C2^2")
    assert not klein.is_cyclic() and klein.is_elementary()
    assert not parse_group("C2xC4").is_elementary()
    assert not parse_group("C2xC3xC2").is_elementary()


def test_elements_and_characters():
    assert element_list(parse_group("C1")) == ((),)
    assert element_list(parse_group("C2")) == ((0,), (1,))
    assert element_list(parse_group("C2^2")) == ((0, 0), (0, 1), (1, 0), (1, 1))
    g12 = parse_group("C12")
    assert len(element_list(g12)) == 12


def test_pairing_exponent_bilinear():
    for spec in ("C4", "C2^2", "C6", "C2xC4"):
        group = parse_group(spec)
        els = element_list(group)
        m = group.order
        for chi in els:
            for g in els:
                for h in els:
                    gh = tuple((a + b) % mod for a, b, mod in zip(g, h, group.moduli))
                    assert pairing_exponent(group, chi, gh) == (
                        pairing_exponent(group, chi, g) + pairing_exponent(group, chi, h)
                    ) % m
        # nondegenerate: distinct characters give distinct value rows
        rows = {tuple(pairing_exponent(group, chi, g) for g in els) for chi in els}
        assert len(rows) == m


def test_endo_matrix_validation():
    g = parse_group("C2xC4")  # moduli (2, 4)
    EndoMatrix(g, ((1, 0), (2, 1)))  # entry (1,0) is a multiple of 4/gcd(4,2)=2
    with pytest.raises(ValueError):
        EndoMatrix(g, ((1, 0), (1, 1)))  # 1 is not a multiple of 2
    with pytest.raises(ValueError):
        EndoMatrix(g, ((2, 0), (0, 1)))  # entry 2 out of range for modulus 2
    with pytest.raises(ValueError):
        EndoMatrix(g, ((1, 0),))  # wrong shape


def test_endo_matrix_apply_compose_power():
    c4 = parse_group("C4")
    triple = EndoMatrix(c4, ((3,),))
    assert triple.apply((1,)) == (3,)
    assert triple.apply((2,)) == (2,)
    assert triple.compose(triple) == EndoMatrix.identity(c4)
    assert triple.power(2) == EndoMatrix.identity(c4)
    assert triple.power(0) == EndoMatrix.identity(c4)
    with pytest.raises(ValueError):
        triple.power(-1)
    klein = parse_group("C2^2")
    swap = EndoMatrix(klein, ((0, 1), (1, 0)))
    assert swap.apply((1, 0)) == (0, 1)
    assert swap.compose(swap) == EndoMatrix.identity(klein)
    group = parse_group("C2xC4xC8")
    identity = EndoMatrix.identity(group)
    for auto in enumerate_automorphisms(group):
        assert auto.power(0) == identity
        folded = identity
        for r in range(1, 13):
            folded = folded.compose(auto)
            assert auto.power(r) == folded


def test_enumerate_automorphisms_trivial_group():
    trivial = parse_group("C1")
    autos = enumerate_automorphisms(trivial)
    assert tuple(autos) == (EndoMatrix.identity(trivial),)
    assert automorphism_count(trivial) == 1


def test_automorphism_count_cyclic():
    for m in range(1, 65):
        group = parse_group(f"C{m}")
        assert len(enumerate_automorphisms(group)) == euler_phi(m)


def test_automorphism_count_elementary():
    for p, s in ((2, 2), (2, 3), (3, 2)):
        group = AbelianGroup(((p, 1),) * s)
        assert len(enumerate_automorphisms(group)) == general_linear_order(p, s)


def test_automorphism_count_mixed_and_coprime():
    assert len(enumerate_automorphisms(parse_group("C2xC4"))) == 8
    assert len(enumerate_automorphisms(parse_group("C2^2xC3"))) == 12
    assert len(enumerate_automorphisms(parse_group("C2^2xC9"))) == 36


def test_automorphisms_are_bijective():
    for spec in ("C8", "C2xC4", "C3^2", "C12"):
        group = parse_group(spec)
        autos = enumerate_automorphisms(group)
        assert EndoMatrix.identity(group) in autos
        for auto in autos:
            assert len(set(element_permutation(auto))) == group.order


def automorphisms_by_image_sort(group):
    """Reference for enumerate_automorphisms: every admissible matrix in
    itertools.product order over its cells, kept iff it maps the elements
    onto all of the group (its sorted element images are 0..|G|-1)."""
    s = group.rank
    mods = group.moduli
    cell_values = [
        range(0, mods[i], mods[i] // math.gcd(mods[i], mods[j]))
        for i in range(s)
        for j in range(s)
    ]
    flat = list(itertools.product(*cell_values))
    candidates = np.array(flat, dtype=np.int64).reshape(len(flat), s, s)
    kept = []
    for lo in range(0, len(candidates), 1 << 12):
        chunk = candidates[lo : lo + (1 << 12)]
        images = np.sort(element_images(group, chunk), axis=1)
        kept += chunk[(images == np.arange(group.order)).all(axis=1)].tolist()
    return tuple(EndoMatrix(group, tuple(map(tuple, mat))) for mat in kept)


def automorphisms_by_candidate_filter(group):
    """Reference for automorphism_chunks: walk every admissible matrix in
    itertools.product order over its cells and keep it iff the block of
    each run of equal factors has full rank mod p (Hillar and Rhea), by the
    scalar rank_mod_p on each distinct block."""
    s, mods = group.rank, group.moduli
    cells = [(i, j, math.gcd(mods[i], mods[j])) for i in range(s) for j in range(s)]
    total = math.prod(c for *_, c in cells)
    idx = np.arange(total, dtype=np.int64)
    cand = np.empty((total, s, s), dtype=np.int64)
    stride = total
    for i, j, c in cells:
        stride //= c
        cand[:, i, j] = idx // stride % c * (mods[i] // c)
    for p, e in dict.fromkeys(group.factors):
        start, size = group.factors.index((p, e)), group.factors.count((p, e))
        block = cand[:, start : start + size, start : start + size] % p
        blocks, inverse = np.unique(block.reshape(len(cand), -1), axis=0, return_inverse=True)
        ranks = np.array([rank_mod_p(b.reshape(size, size).tolist(), p) for b in blocks])
        cand = cand[ranks[inverse.reshape(-1)] == size]
    return cand


def endo_candidate_count(group):
    return math.prod(math.gcd(a, b) for a in group.moduli for b in group.moduli)


@pytest.mark.parametrize("spec", ["C2^3xC4", "C3^2xC9", "C8^2xC2"])
def test_automorphisms_match_candidate_filter_reference(spec):
    group = parse_group(spec)
    listed = np.concatenate(list(automorphism_chunks(group)))
    assert np.array_equal(listed, automorphisms_by_candidate_filter(group))


def test_automorphism_lister_rejects_no_candidate(monkeypatch):
    # Only the 2^4 candidates of each GL(2, 2) block are row-reduced, where
    # a filter over all candidates would reduce 2^20.
    rows = []

    def counted(group, stack):
        rows.append(len(stack))
        return kernel_exponents(group, stack)

    monkeypatch.setattr(abelian, "kernel_exponents", counted)
    group = parse_group("C2^2xC4^2")
    assert endo_candidate_count(group) == 1 << 20
    listed = sum(len(stack) for stack in automorphism_chunks(group))
    assert listed == automorphism_count(group) == 147456
    assert sum(rows) <= 2 * 2**4


def test_automorphism_lister_scans_gl_blocks_in_chunks():
    # The GL(4, 2) block of C2^4xC3 has 65,536 candidates; scanned in one
    # batch its row reduction would need about 37 MB above the stack.
    group = parse_group("C2^4xC3")
    enumerate_automorphisms.cache_clear()
    tracemalloc.start()
    try:
        stack = enumerate_automorphisms(group).matrices
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(stack) == 40320
    assert peak - stack.nbytes < 16 << 20, (peak, stack.nbytes)


def test_automorphisms_match_image_sort_reference():
    # Same tuple, same order, as the filter that maps every candidate over
    # all elements: the Hillar-Rhea block-rank test keeps exactly the
    # bijective candidates.
    for group in small_groups(32):
        if endo_candidate_count(group) > DEFAULT_BUDGET.max_endo_candidates:
            continue  # C2^5
        assert tuple(enumerate_automorphisms(group)) == automorphisms_by_image_sort(group), group


def test_automorphism_scan_matches_hillar_rhea_order():
    checked = 0
    for group in small_groups(64):
        if endo_candidate_count(group) > DEFAULT_BUDGET.max_endo_candidates:
            continue
        # A strictly increasing index decodes to the itertools.product
        # order over the cells: with the count, the image-sort listing.
        index, *_ = automorphism_index(group)
        assert (np.diff(index) > 0).all(), group
        found = 0
        for stack in automorphism_chunks(group):
            images = np.sort(element_images(group, stack), axis=1)
            assert (images == np.arange(group.order)).all(), group
            found += len(stack)
        assert found == len(index) == automorphism_count(group), group
        checked += 1
    assert checked > 100


@pytest.mark.parametrize("chunk", [1, 7])
@pytest.mark.parametrize("spec", ["C2xC4", "C3xC9", "C2^2xC4", "C2^3", "C3^2"])
def test_automorphism_scan_does_not_depend_on_batch_size(spec, chunk, monkeypatch):
    group = parse_group(spec)
    monkeypatch.setattr(abelian, "MATRIX_CHUNK", chunk)
    stacks = list(automorphism_chunks(group))
    assert max(len(stack) for stack in stacks) <= chunk
    scanned = tuple(
        EndoMatrix(group, tuple(map(tuple, mat))) for stack in stacks for mat in stack.tolist()
    )
    assert scanned == automorphisms_by_image_sort(group)


@pytest.mark.parametrize("change", ["drop", "repeat"])
def test_automorphism_stack_checks_the_scan_count(change, monkeypatch):
    """The listing is checked against automorphism_count; a GL(b, p) scan
    that finds one matrix fewer or one more is refused, not cached."""
    group = parse_group("C2xC4")
    scan = abelian.general_linear_chunks

    def altered(p, b):
        chunks = list(scan(p, b))
        last = chunks[-1]
        chunks[-1] = last[:-1] if change == "drop" else np.concatenate([last, last[-1:]])
        return iter(chunks)

    enumerate_automorphisms.cache_clear()
    monkeypatch.setattr(abelian, "general_linear_chunks", altered)
    with pytest.raises(IntegralityError, match="expected 8"):
        enumerate_automorphisms(group)
    assert enumerate_automorphisms.cache_info().currsize == 0


def test_automorphism_budget():
    # The scan checks only its candidates; the element images check the order.
    with pytest.raises(BudgetExceededError) as excinfo:
        fixed_count_census(parse_group("C2^7"), 1)
    assert excinfo.value.limit_name == "max_group_order"
    with pytest.raises(BudgetExceededError) as excinfo:
        enumerate_automorphisms(parse_group("C2^6"), Budget(max_group_order=128))
    assert excinfo.value.limit_name == "max_endo_candidates"


def test_automorphism_cache_is_keyed_by_group_alone():
    enumerate_automorphisms.cache_clear()
    group = parse_group("C2xC4")
    first = enumerate_automorphisms(group)
    assert enumerate_automorphisms(group, DEFAULT_BUDGET) is first
    assert enumerate_automorphisms(group, Budget(max_group_order=8)) is first
    assert enumerate_automorphisms.cache_info().currsize == 1


def test_automorphism_cache_keeps_at_most_eight_groups():
    """A long-lived process listing many groups keeps the last eight."""
    enumerate_automorphisms.cache_clear()
    specs = ("C2", "C3", "C4", "C5", "C2xC2", "C7", "C8", "C2xC4", "C3xC3")
    for spec in specs:
        enumerate_automorphisms(parse_group(spec))
    info = enumerate_automorphisms.cache_info()
    assert (info.misses, info.currsize, info.maxsize) == (9, 8, 8)
    enumerate_automorphisms(parse_group("C3xC3"))
    assert enumerate_automorphisms.cache_info().hits == 1


def test_automorphisms_are_one_read_only_stack():
    group = parse_group("C2xC4xC8")
    enumerate_automorphisms.cache_clear()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        view = enumerate_automorphisms(group)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    stack = view.matrices
    # The cache keeps the stack and little else: no object per automorphism.
    assert kept < 2 * stack.nbytes, (kept, stack.nbytes)
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 1
    assert np.array_equal(stack, np.concatenate(list(automorphism_chunks(group))))
    assert len(view) == len(stack)
    for i, mat in enumerate(stack.tolist()):
        assert view[i] == EndoMatrix(group, tuple(map(tuple, mat)))
    head = view[:-1]
    assert isinstance(head, abelian.Automorphisms) and len(head) == len(view) - 1
    assert np.shares_memory(head.matrices, view.matrices)


def test_automorphism_items_carry_rows_of_ints():
    for auto in escount.enumerate_automorphisms(parse_group("C2^2xC3")):
        assert type(auto.rows) is tuple
        assert all(type(row) is tuple for row in auto.rows)
        assert all(type(a) is int for row in auto.rows for a in row)


def test_tighter_budget_refuses_a_cached_group():
    group = parse_group("C2xC4")
    enumerate_automorphisms(group)
    for element_path in (fixed_count_census, fixed_point_report):
        with pytest.raises(BudgetExceededError) as excinfo:
            element_path(group, 1, Budget(max_group_order=4))
        assert excinfo.value.limit_name == "max_group_order"
    with pytest.raises(BudgetExceededError) as excinfo:
        enumerate_automorphisms(group, Budget(max_endo_candidates=8))
    assert excinfo.value.limit_name == "max_endo_candidates"


def test_invert_automorphism():
    for spec in ("C1", "C9", "C2xC4", "C3^2", "C12"):
        group = parse_group(spec)
        identity = EndoMatrix.identity(group)
        for auto in enumerate_automorphisms(group):
            inverse = invert_automorphism(auto)
            assert auto.compose(inverse) == identity
            assert inverse.compose(auto) == identity
    with pytest.raises(ValueError):
        invert_automorphism(EndoMatrix(parse_group("C4"), ((2,),)))


def test_pullback_character_examples():
    c9 = parse_group("C9")
    doubling = EndoMatrix(c9, ((2,),))
    inverse = invert_automorphism(doubling)
    assert inverse == EndoMatrix(c9, ((5,),))
    for l in range(9):
        assert pullback_character(inverse, (l,)) == (5 * l % 9,)
    klein = parse_group("C2^2")
    swap = EndoMatrix(klein, ((0, 1), (1, 0)))
    assert pullback_character(swap, (1, 0)) == (0, 1)


def test_pullback_matches_pairing_on_all_small_groups():
    # chi pulled back along the inverse automorphism must take on g the value
    # chi takes on the preimage of g; checked for every automorphism of every
    # group of order at most 16, via the full pairing table.
    for group in small_groups(16):
        els = element_list(group)
        index = element_index(group)
        table = np.array(
            [[pairing_exponent(group, chi, g) for g in els] for chi in els],
            dtype=np.int64,
        )
        autos = enumerate_automorphisms(group)
        mats = autos.matrices
        preimage_perms = np.argsort(element_images(group, mats), axis=1)
        for auto, preimage_perm in zip(autos, preimage_perms):
            inverse = invert_automorphism(auto)
            pulled = np.array(
                [index[pullback_character(inverse, chi)] for chi in els],
                dtype=np.intp,
            )
            assert np.array_equal(table[pulled], table[:, preimage_perm])


def test_batched_images_match_per_automorphism_permutations():
    # character_images reaches chi composed with the inverse automorphism
    # through the dual matrix, so every row is checked against the
    # one-at-a-time inversion and pullback of character_permutation.
    rng = random.Random(2006)
    groups = small_groups(16) + [
        parse_group(spec) for spec in ("C2xC4xC8", "C3xC9", "C2^2xC3^2")
    ]
    assert AbelianGroup(()) in groups
    for group in groups:
        autos = enumerate_automorphisms(group)
        mats = autos.matrices
        if len(autos) > 1000:  # C2^4 and C2xC4xC8
            picked = rng.sample(range(len(autos)), 500)
            autos, mats = [autos[i] for i in picked], mats[picked]
        elem_rows = element_images(group, mats).tolist()
        char_rows = character_images(group, mats).tolist()
        for auto, elem_row, char_row in zip(autos, elem_rows, char_rows):
            assert tuple(elem_row) == element_permutation(auto), (group, auto)
            assert tuple(char_row) == character_permutation(auto), (group, auto)


def test_count_solutions_examples():
    c4 = parse_group("C4")
    identity = EndoMatrix.identity(c4)
    triple = EndoMatrix(c4, ((3,),))
    assert count_element_solutions(identity, 1) == 4
    assert count_element_solutions(triple, 1) == 2
    assert count_element_solutions(triple, 2) == 4
    assert count_character_solutions(triple, 1) == 2
    assert count_character_solutions(triple, 2) == 4
    klein = parse_group("C2^2")
    shear = EndoMatrix(klein, ((1, 1), (0, 1)))
    assert count_element_solutions(shear, 1) == 2
    assert count_character_solutions(shear, 1) == 2


def test_count_solutions_match_permutation_powers():
    def iterate(perm, r):
        out = tuple(range(len(perm)))
        for _ in range(r):
            out = tuple(perm[j] for j in out)
        return out

    for group in small_groups(12):
        for auto in enumerate_automorphisms(group):
            perm = element_permutation(auto)
            for r in range(1, 4):
                fixed = sum(1 for j, image in enumerate(iterate(perm, r)) if j == image)
                assert count_element_solutions(auto, r) == fixed


def test_count_solutions_budget():
    big = parse_group("C2^7")
    identity = EndoMatrix.identity(big)
    with pytest.raises(BudgetExceededError):
        count_element_solutions(identity, 1)
    with pytest.raises(BudgetExceededError):
        count_character_solutions(identity, 1)


def test_rank_mod_p():
    assert rank_mod_p([], 2) == 0
    assert rank_mod_p([[0, 0], [0, 0]], 2) == 0
    assert rank_mod_p([[1, 0, 0], [0, 1, 0], [0, 0, 1]], 5) == 3
    assert rank_mod_p([[1, 1], [1, 1]], 2) == 1
    assert rank_mod_p([[2, 1], [1, 2]], 3) == 1


def test_rank_mod_p_row_span_oracle():
    import itertools

    def span_size(mat, p):
        vectors = {tuple(0 for _ in mat[0])}
        for coeffs in itertools.product(range(p), repeat=len(mat)):
            vec = tuple(
                sum(c * row[j] for c, row in zip(coeffs, mat)) % p
                for j in range(len(mat[0]))
            )
            vectors.add(vec)
        return len(vectors)

    for p in (2, 3):
        for flat in itertools.product(range(p), repeat=4):
            mat = [list(flat[:2]), list(flat[2:])]
            assert p ** rank_mod_p(mat, p) == span_size(mat, p)


def test_kernel_exponents_give_coranks_mod_p():
    # On C_p^s the kernel exponent of a matrix is its corank mod p.
    stacks = []
    for p in (2, 3):
        for s in (2, 3):
            flat = np.array(list(itertools.product(range(p), repeat=s * s)))
            stacks.append((p, flat.reshape(-1, s, s)))
    rng = random.Random(20061)
    for p in (5, 7):
        sample = np.array(
            [[rng.randrange(p) for _ in range(16)] for _ in range(400)]
        ).reshape(-1, 4, 4)
        # Make over a quarter of the sample singular on purpose: row 3
        # becomes a combination of rows 0 and 1, or zero.
        sample[:100, 3] = (2 * sample[:100, 0] + sample[:100, 1]) % p
        sample[100:110, 3] = 0
        stacks.append((p, sample))
    for p, stack in stacks:
        s = stack.shape[1]
        coranks = kernel_exponents(AbelianGroup(((p, 1),) * s), stack)
        assert coranks.tolist() == [s - rank_mod_p(mat.tolist(), p) for mat in stack]
        assert (coranks > 0).any()
    assert kernel_exponents(parse_group("C5^3"), np.zeros((0, 3, 3), dtype=np.int64)).shape == (0,)


def endomorphism_stack(group, limit, rng):
    """Every endomorphism matrix of the group if there are at most `limit`,
    else `limit` drawn at random, as a (k, s, s) stack."""
    mods = group.moduli
    cells = [
        [t * (mods[i] // math.gcd(mods[i], mods[j])) for t in range(math.gcd(mods[i], mods[j]))]
        for i in range(group.rank) for j in range(group.rank)
    ]
    if math.prod(map(len, cells)) <= limit:
        rows = list(itertools.product(*cells))
    else:
        rows = [[rng.choice(cell) for cell in cells] for _ in range(limit)]
    return np.array(rows, dtype=np.int64).reshape(-1, group.rank, group.rank)


@pytest.mark.parametrize(
    "spec", ["C2xC4", "C4xC4", "C3xC9", "C2^2xC8", "C2xC4xC8", "C8^2xC2", "C3^2xC9", "C5xC25"]
)
def test_kernel_exponents_count_the_kernel(spec):
    group = parse_group(spec)
    p = group.factors[0][0]
    stack = endomorphism_stack(group, 400, random.Random(spec))
    exponents = kernel_exponents(group, stack)
    # Index 0 is the identity element, so each row's zeros are its kernel.
    assert (p**exponents).tolist() == (element_images(group, stack) == 0).sum(axis=1).tolist()
    assert len(set(exponents.tolist())) > 2


def test_kernel_exponents_refuses_what_it_cannot_reduce():
    assert kernel_exponents(parse_group("C2xC4"), np.zeros((0, 2, 2))).shape == (0,)
    with pytest.raises(ValueError, match="not a p-group"):
        kernel_exponents(parse_group("C2xC3"), np.zeros((1, 2, 2), dtype=np.int64))
    # s * p**(2E) = 2 * 2**62 does not fit in int64.
    huge = AbelianGroup(((2, 1), (2, 31)))
    with pytest.raises(ValueError, match="too large for int64"):
        kernel_exponents(huge, np.zeros((1, 2, 2), dtype=np.int64))


def test_esc_validation():
    ESC(((0,), (1,)), ((1,), (0,)))
    with pytest.raises(ValueError):
        ESC(((0,),), ((1,), (0,)))
    with pytest.raises(ValueError):
        ESC((), ())
