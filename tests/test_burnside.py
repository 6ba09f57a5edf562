"""Tests for the group action on configurations, fixed-point counting,
and the orbit-counting routines."""
import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from escount import abelian, burnside
from escount.abelian import (
    ESC,
    EndoMatrix,
    count_character_solutions,
    count_element_solutions,
    element_list,
    enumerate_automorphisms,
    parse_group,
)
from escount.budget import DEFAULT_BUDGET, Budget, BudgetExceededError, IntegralityError
from escount.burnside import (
    act,
    compose_permutations,
    fixed_count_profiles,
    fixed_point_report,
    fixed_points_by_cycles,
    fixed_points_naive,
    identity_permutation,
    orbit_count_congruence,
    orbit_count_naive,
    orbit_enumerate,
    orbit_sizes,
    permutation_chunks,
    permutation_cycle_types,
    permutations_of,
    popcount,
)
from escount.closed_form import closed_count
from escount.numtheory import CycleType, cycle_types
from escount.verify import abelian_groups_of_order

# Orbit counts frozen from an independent exhaustive scan (constraint-level
# automorphism enumeration plus a full pass over all configurations).
ORACLE_COUNTS = {
    ("C1", 1): 1,
    ("C2", 1): 4,
    ("C2", 2): 10,
    ("C2", 3): 20,
    ("C3", 1): 5,
    ("C3", 2): 25,
    ("C4", 1): 10,
    ("C4", 2): 76,
    ("C5", 1): 7,
    ("C5", 2): 85,
    ("C7", 1): 9,
    ("C8", 1): 22,
    ("C8", 2): 580,
    ("C9", 1): 17,
    ("C16", 1): 46,
    ("C2^2", 1): 5,
    ("C2^2", 2): 31,
    ("C2^2", 3): 160,
    ("C2^3", 1): 5,
    ("C2xC4", 1): 19,
    ("C2xC4", 2): 364,
    ("C12", 1): 50,
    ("C12", 2): 2860,
    ("C6", 1): 20,
    ("C3^2", 1): 6,
    ("C2xC8", 1): 46,
    ("C15", 1): 35,
}


def small_groups(max_order):
    return [
        group
        for order in range(1, max_order + 1)
        for group in abelian_groups_of_order(order)
    ]


def flat(esc):
    return tuple(d for tup in esc.elements + esc.characters for d in tup)


def all_configurations(group, n):
    els = element_list(group)
    for elems in itertools.product(els, repeat=n):
        for chars in itertools.product(els, repeat=n):
            yield ESC(elems, chars)


def test_permutation_helpers():
    assert identity_permutation(3) == (0, 1, 2)
    assert list(permutations_of(2)) == [(0, 1), (1, 0)]
    assert compose_permutations((1, 2, 0), (0, 2, 1)) == (1, 0, 2)
    with pytest.raises(ValueError, match="127"):
        next(permutation_chunks(128, 24))


def test_act_doubling_on_three_torsion():
    c3 = parse_group("C3")
    doubling = EndoMatrix(c3, ((2,),))
    moved = act((doubling, (0,)), ESC(((1,),), ((1,),)))
    assert moved == ESC(((2,),), ((2,),))


def test_act_swap_positions():
    c2 = parse_group("C2")
    identity = EndoMatrix.identity(c2)
    esc = ESC(((0,), (1,)), ((1,), (0,)))
    swapped = act((identity, (1, 0)), esc)
    assert swapped == ESC(((1,), (0,)), ((0,), (1,)))


def test_act_identity_fixes_everything():
    group = parse_group("C2xC4")
    pair = (EndoMatrix.identity(group), identity_permutation(2))
    for esc in itertools.islice(all_configurations(group, 2), 0, 4096, 97):
        assert act(pair, esc) == esc


def test_act_rejects_length_mismatch():
    c2 = parse_group("C2")
    with pytest.raises(ValueError):
        act((EndoMatrix.identity(c2), (0, 1)), ESC(((0,),), ((0,),)))


def test_act_and_naive_reference_reject_a_non_permutation():
    c3 = parse_group("C3")
    doubling = EndoMatrix(c3, ((2,),))
    esc = ESC(((1,), (2,)), ((0,), (1,)))
    for sigma in ((0, 0), (0, 2)):
        with pytest.raises(ValueError, match="not a permutation"):
            act((doubling, sigma), esc)
        with pytest.raises(ValueError, match="not a permutation"):
            fixed_points_naive((doubling, sigma))


@pytest.mark.parametrize("spec", ["C1", "C2", "C3", "C4", "C5", "C2^2", "C6", "C8"])
@pytest.mark.parametrize("n", [1, 2])
def test_act_is_compatible_with_composition(spec, n):
    group = parse_group(spec)
    autos = enumerate_automorphisms(group)
    sigmas = list(permutations_of(n))
    configs = list(all_configurations(group, n))
    samples = configs[:: max(1, len(configs) // 5)]
    for auto1, auto2 in itertools.product(autos, repeat=2):
        for sigma1, sigma2 in itertools.product(sigmas, repeat=2):
            composite = (auto2.compose(auto1), compose_permutations(sigma2, sigma1))
            for esc in samples:
                assert act((auto2, sigma2), act((auto1, sigma1), esc)) == act(
                    composite, esc
                )


def test_act_composition_on_noncyclic_rank_three():
    group = parse_group("C2^3")
    autos = enumerate_automorphisms(group)[::17]
    configs = list(all_configurations(group, 1))
    samples = configs[:: len(configs) // 5]
    for auto1, auto2 in itertools.product(autos, repeat=2):
        composite = (auto2.compose(auto1), (0,))
        for esc in samples:
            assert act((auto2, (0,)), act((auto1, (0,)), esc)) == act(composite, esc)


def test_fixed_points_naive_identity_pair():
    for spec, n in (("C1", 1), ("C2", 2), ("C3", 2), ("C2xC4", 2)):
        group = parse_group(spec)
        pair = (EndoMatrix.identity(group), identity_permutation(n))
        assert fixed_points_naive(pair) == group.order ** (2 * n)


def test_fixed_points_naive_examples():
    c2 = parse_group("C2")
    assert fixed_points_naive((EndoMatrix.identity(c2), (1, 0))) == 4
    c4 = parse_group("C4")
    assert fixed_points_naive((EndoMatrix(c4, ((3,),)), (0,))) == 4


@pytest.mark.parametrize("n", [0, -1])
def test_naive_paths_reject_a_tuple_length_below_one(n):
    c2 = parse_group("C2")
    calls = [
        lambda: fixed_point_report(c2, n),
        lambda: orbit_enumerate(c2, n),
        lambda: orbit_sizes(c2, n),
    ]
    if n == 0:
        calls.append(lambda: fixed_points_naive((EndoMatrix.identity(c2), ())))
    for call in calls:
        with pytest.raises(ValueError, match=f"tuple length must be >= 1, got {n}"):
            call()


def test_fixed_points_naive_budget():
    c2 = parse_group("C2")
    pair = (EndoMatrix.identity(c2), identity_permutation(9))
    with pytest.raises(BudgetExceededError) as excinfo:
        fixed_points_naive(pair)
    assert excinfo.value.limit_name == "max_state_space"


def test_naive_work_is_refused_before_listing():
    """|Aut(C2^5)| = 9,999,360 comes from the closed form, so the refusal
    lists no automorphism; the work is priced by the 2 * 32 tuples that
    each pair's two halves walk."""
    enumerate_automorphisms.cache_clear()
    with pytest.raises(BudgetExceededError) as excinfo:
        fixed_point_report(parse_group("C2^5"), 1)
    assert excinfo.value.limit_name == "max_naive_work"
    assert excinfo.value.required == 9999360 * 2 * 32
    assert enumerate_automorphisms.cache_info().currsize == 0


def test_fixed_points_by_cycles_examples():
    c2 = parse_group("C2")
    assert fixed_points_by_cycles(EndoMatrix.identity(c2), CycleType((0, 1))) == 4
    c4 = parse_group("C4")
    assert fixed_points_by_cycles(EndoMatrix(c4, ((3,),)), CycleType((1,))) == 4
    for spec, n in (("C5", 2), ("C2xC4", 2)):
        group = parse_group(spec)
        all_fixed = CycleType((n,) + (0,) * (n - 1))
        assert (
            fixed_points_by_cycles(EndoMatrix.identity(group), all_fixed)
            == group.order ** (2 * n)
        )


def test_fixed_points_by_cycles_matches_naive_small():
    for group in small_groups(16):
        autos = enumerate_automorphisms(group)
        if len(autos) > 1000:
            autos = autos[::500]
        for n in (1, 2):
            for auto in autos:
                for sigma in permutations_of(n):
                    ctype = CycleType.from_permutation(sigma)
                    assert fixed_points_naive((auto, sigma)) == fixed_points_by_cycles(
                        auto, ctype
                    )


def test_fixed_points_by_cycles_matches_naive_length_three():
    budget = Budget(max_state_space=1 << 18)
    specs = ["C2", "C3", "C4", "C5", "C6", "C7", "C8", "C2^2", "C2xC4", "C2^3"]
    for spec in specs:
        group = parse_group(spec)
        autos = enumerate_automorphisms(group)
        if len(autos) > 20:
            autos = autos[::9]
        for auto in autos:
            for sigma in permutations_of(3):
                ctype = CycleType.from_permutation(sigma)
                assert fixed_points_naive((auto, sigma), budget) == (
                    fixed_points_by_cycles(auto, ctype, budget)
                )


def test_orbit_count_congruence_matches_oracle():
    for (spec, n), expected in ORACLE_COUNTS.items():
        assert orbit_count_congruence(parse_group(spec), n) == expected, (spec, n)


def test_fixed_count_profiles_match_element_and_character_solutions():
    # Fact 1: phi**r fixes as many characters as elements.  The congruence
    # path counts fixed elements only and squares them, so every batched
    # profile entry is checked against both direct counts.
    rng = random.Random(1955)
    for group in small_groups(16):
        autos = enumerate_automorphisms(group)
        picked = range(len(autos))
        if group == parse_group("C2^4"):
            picked = rng.sample(picked, 500)
        profiles = fixed_count_profiles(group, autos.matrices[list(picked)], 4)
        for auto, profile in zip((autos[i] for i in picked), profiles.tolist()):
            for r, fixed in enumerate(profile, start=1):
                assert fixed == count_element_solutions(auto, r), (group, auto, r)
                assert fixed == count_character_solutions(auto, r), (group, auto, r)


@pytest.fixture
def refuse_index_permutations(monkeypatch):
    """Make the per-automorphism permutation builders raise, in abelian and
    under any name burnside might import them by."""

    def refuse(auto):
        raise AssertionError("permutations must not be built one automorphism at a time")

    for module in (abelian, burnside):
        for name in ("element_permutation", "character_permutation"):
            monkeypatch.setattr(module, name, refuse, raising=False)


def test_orbit_count_congruence_builds_no_index_permutations(refuse_index_permutations):
    group = parse_group("C2xC4")
    # 6481: the naive scan with max_state_space raised to 2**20.
    assert orbit_count_congruence(group, 3) == 6481


def test_naive_oracle_builds_permutations_in_batches(refuse_index_permutations):
    assert orbit_count_naive(parse_group("C2^3"), 2) == 40
    assert len(orbit_enumerate(parse_group("C2^2"), 1)) == ORACLE_COUNTS[("C2^2", 1)]


def test_counting_paths_build_no_endo_matrix(monkeypatch):
    """Every counting path reads the cached automorphism stack; none of them
    wraps an automorphism in an EndoMatrix."""

    def refuse(self):
        raise AssertionError("counting paths must not build EndoMatrix objects")

    enumerate_automorphisms.cache_clear()
    monkeypatch.setattr(EndoMatrix, "__post_init__", refuse)
    assert closed_count(parse_group("C2xC4xC8"), 2) == 19018
    group = parse_group("C2xC4")
    assert orbit_count_congruence(group, 2) == 364
    assert orbit_count_naive(group, 1) == 19
    assert len(orbit_enumerate(group, 1)) == 19


@pytest.mark.parametrize("spec,n", [("C2^3", 1), ("C2^3", 2), ("C2xC4", 1), ("C4xC4", 1)])
def test_naive_and_orbit_listing_do_not_depend_on_batch_size(monkeypatch, spec, n):
    group = parse_group(spec)
    last = enumerate_automorphisms(group)[-1]

    def naive_results():
        per_pair = [fixed_points_naive((last, sigma)) for sigma in permutations_of(n)]
        return (
            orbit_count_naive(group, n),
            orbit_enumerate(group, n),
            orbit_sizes(group, n),
            per_pair,
        )

    expected = naive_results()
    assert expected[0] == orbit_count_congruence(group, n)
    assert expected[3] == [
        fixed_points_by_cycles(last, CycleType.from_permutation(sigma))
        for sigma in permutations_of(n)
    ]
    for chunk in (1, 7):
        monkeypatch.setattr(burnside, "PROFILE_CHUNK", chunk)
        assert naive_results() == expected, chunk


def test_orbit_count_naive_matches_oracle():
    for (spec, n), expected in ORACLE_COUNTS.items():
        assert orbit_count_naive(parse_group(spec), n) == expected, (spec, n)


def test_orbit_count_methods_agree():
    for group in small_groups(9):
        for n in (1, 2):
            assert orbit_count_naive(group, n) == orbit_count_congruence(group, n)


def test_fixed_point_report_invariants():
    for spec, n in (("C4", 2), ("C2^2", 2), ("C6", 2), ("C9", 1)):
        group = parse_group(spec)
        report = fixed_point_report(group, n)
        autos = enumerate_automorphisms(group)
        denominator = len(autos) * math.factorial(n)
        assert report.orbit_count * denominator == report.total
        assert len(report.counts) == len(autos) * len(list(cycle_types(n)))
        recomputed = sum(
            count * ctype.permutation_count()
            for (_, ctype), count in report.counts.items()
        )
        assert recomputed == report.total
        identity_idx = autos.index(EndoMatrix.identity(group))
        all_fixed = CycleType((n,) + (0,) * (n - 1))
        assert report.counts[(identity_idx, all_fixed)] == group.order ** (2 * n)


def test_fixed_point_report_c4_pairs():
    report = fixed_point_report(parse_group("C4"), 2)
    assert report.orbit_count == 76


# (group, n) on which every pair of the report is checked against the
# state-image definition.
PER_PAIR_CASES = [(group, n) for group in small_groups(8) for n in (1, 2)] + [
    (parse_group("C2"), 5),
    (parse_group("C2"), 6),
    (parse_group("C3"), 3),
    (parse_group("C2^2"), 3),
]


@pytest.mark.parametrize("group,n", PER_PAIR_CASES, ids=str)
def test_fixed_point_report_matches_state_images_per_pair(group, n):
    report = fixed_point_report(group, n)
    autos = enumerate_automorphisms(group)
    for a_idx, auto in enumerate(autos):
        for sigma in permutations_of(n):
            key = (a_idx, CycleType.from_permutation(sigma))
            assert report.counts[key] == fixed_points_naive((auto, sigma)), (a_idx, sigma)


# (group, n, total, orbit count): totals frozen from the scan that called
# _fixed_counts once per half.
STACKED_SCAN_CASES = [
    ("C2^3", 2, 13440, 40),
    ("C2", 7, 604800, 120),
    ("C4", 4, 95808, 1996),
    ("C2xC4", 2, 5824, 364),
]


@pytest.mark.parametrize("spec,n,total,orbits", STACKED_SCAN_CASES)
def test_stacked_scan_reports_are_unchanged(monkeypatch, spec, n, total, orbits):
    """Both halves in one _fixed_counts call give the same report with the
    S_n table cold and warm, and on the streamed chunks of a chunk size
    one row too small for S_n."""
    group = parse_group(spec)
    autos = enumerate_automorphisms(group)
    expected = {
        (a_idx, ctype): fixed_points_by_cycles(auto, ctype)
        for a_idx, auto in enumerate(autos)
        for ctype in cycle_types(n)
    }
    table = burnside._permutation_table

    def check():
        report = fixed_point_report(group, n)
        assert (report.counts, report.total, report.orbit_count) == (expected, total, orbits)

    table.cache_clear()
    check()
    check()
    assert (table.cache_info().misses, table.cache_info().hits) == (1, 1)
    monkeypatch.setattr(burnside, "PROFILE_CHUNK", 8 * n * (math.factorial(n) - 1))
    check()
    assert (table.cache_info().misses, table.cache_info().hits) == (1, 1)


def test_permutation_table_is_cached_read_only_and_bounded():
    n = 5
    sigmas, ctypes, labels = burnside._permutation_table(n)
    (chunk,) = permutation_chunks(n, math.factorial(n))
    assert np.array_equal(sigmas, chunk)
    expected_types, expected_labels = permutation_cycle_types(chunk)
    assert ctypes == tuple(expected_types)
    assert np.array_equal(labels, expected_labels)
    for array in (sigmas, labels):
        assert not array.flags.writeable
        with pytest.raises(ValueError):
            array[0] = 0
    assert burnside._permutation_table(n)[0] is sigmas
    assert burnside._permutation_table.cache_info().maxsize == 8


@pytest.mark.parametrize("n", range(1, 10))
def test_permutation_chunks_list_permutations_of_in_order(n):
    expected = np.array(list(permutations_of(n)), dtype=np.int8).reshape(-1, n)
    sizes = (1, 5, 7, 24, burnside.PROFILE_CHUNK // (8 * n))
    # One-row chunks take about 8 us each, 2.8 s for the 9! of S_9; n = 8
    # already runs them under 7-point prefixes.
    for size in sizes[1:] if n == 9 else sizes:
        chunks = list(permutation_chunks(n, size))
        assert all(chunk.dtype == np.int8 and 1 <= len(chunk) <= size for chunk in chunks)
        assert np.array_equal(np.concatenate(chunks), expected), size


@pytest.mark.parametrize("n", range(1, 9))
def test_permutation_cycle_types_match_from_permutation(n):
    sigmas = list(permutations_of(n))
    types, labels = permutation_cycle_types(np.array(sigmas))
    assert len(set(types)) == len(types) == len(list(cycle_types(n)))
    expected = [CycleType.from_permutation(sigma) for sigma in sigmas]
    assert [types[label] for label in labels] == expected
    # The int8 chunks of the naive scan, labelled chunk by chunk.
    found = []
    for chunk in permutation_chunks(n, 24):
        types, labels = permutation_cycle_types(chunk)
        assert len(set(types)) == len(types)
        found += [types[label] for label in labels]
    assert found == expected


def test_popcount_matches_bin_on_every_byte():
    for byte in range(256):
        assert burnside._BYTE_POPCOUNT[byte] == bin(byte).count("1")
        words = np.array([[byte << (8 * i) for i in range(8)]], dtype=np.uint64)
        assert popcount(words).tolist() == [8 * bin(byte).count("1")]
    rng = np.random.default_rng(7)
    words = rng.integers(0, 1 << 63, size=(5, 3, 11), dtype=np.uint64) << np.uint64(1)
    words |= rng.integers(0, 2, size=words.shape, dtype=np.uint64)
    expected = [[sum(bin(w).count("1") for w in row) for row in block] for block in words.tolist()]
    assert popcount(words).tolist() == expected


def test_popcount_leaves_its_input_words_unchanged():
    words = np.random.default_rng(3).integers(0, 1 << 63, size=(4, 2, 5), dtype=np.uint64)
    before = words.copy()
    popcount(words)
    assert np.array_equal(words, before)


@pytest.mark.parametrize("spec,total", [("C2^2", 29), ("C2^3", 836)])
def test_every_average_is_checked_for_integrality(monkeypatch, spec, total):
    """With one automorphism dropped the acting set is no group, and the
    totals (29 over 5 pairs, 836 over 167) do not divide."""
    complete = burnside.enumerate_automorphisms

    def all_but_last(group, budget=DEFAULT_BUDGET):
        return complete(group, budget)[:-1]

    monkeypatch.setattr(burnside, "enumerate_automorphisms", all_but_last)
    group = parse_group(spec)
    for method in (orbit_count_naive, orbit_count_congruence):
        with pytest.raises(IntegralityError, match=str(total)):
            method(group, 1)


@pytest.mark.parametrize("chunk", [1 << 20, 1])
def test_a_count_varying_within_a_cycle_type_is_refused(monkeypatch, chunk):
    """Counts shifted by sigma(0) vary among the transpositions of S_3: in
    the one cached table of S_3, or across streamed chunks of one
    permutation each."""
    half_scan = burnside._fixed_counts

    def shifted(images, sigmas, *plan):
        return half_scan(images, sigmas, *plan) + sigmas[:, 0]

    monkeypatch.setattr(burnside, "_fixed_counts", shifted)
    monkeypatch.setattr(burnside, "PROFILE_CHUNK", chunk)
    with pytest.raises(IntegralityError, match="varies within a cycle type"):
        fixed_point_report(parse_group("C2"), 3)


@pytest.mark.parametrize("spec,n,unmoved_count", [("C2^2", 1, 8), ("C2xC4", 2, 636)])
def test_naive_scan_reads_the_character_half(monkeypatch, spec, n, unmoved_count):
    """With every character left unmoved the scan must count differently
    (the true counts are 5 and 364), so it does not reuse the element half."""

    def unmoved(group, matrices):
        return np.tile(np.arange(group.order), (len(matrices), 1))

    monkeypatch.setattr(burnside, "character_images", unmoved)
    assert orbit_count_naive(parse_group(spec), n) == unmoved_count


def test_fixed_point_report_memory_is_bounded_by_the_chunk(monkeypatch):
    """C4 at n=4 has 65,536 states; 2n int64 digit arrays over them take
    4 MiB.  The scan reads each half's 256 tuples, never the joint states;
    under a 4 KiB chunk it peaked at about 24 KB, and with both halves in
    one scan at 25-31 KB."""
    group = parse_group("C4")
    enumerate_automorphisms(group)
    monkeypatch.setattr(burnside, "PROFILE_CHUNK", 1 << 12)
    tracemalloc.start()
    try:
        report = fixed_point_report(group, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.orbit_count == 1996
    assert peak < 128 * 1024, peak

    # The per-pair reference walks the same blocks under the same chunk.
    pair = (enumerate_automorphisms(group)[-1], (1, 2, 3, 0))
    expected = fixed_points_by_cycles(pair[0], CycleType.from_permutation(pair[1]))
    tracemalloc.start()
    try:
        fixed = fixed_points_naive(pair)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert fixed == expected
    assert peak < 128 * 1024, peak


def test_naive_scan_memory_on_s7():
    """C2 at n=7 scans 5,040 permutations in one chunk.  As Python tuples,
    packed into an intp table and keyed by 56-byte rows, they peaked at
    2.6-2.9 MB; as int8 rows with one int64 key each, at about 1.0 MB; with
    both halves in one scan and the AND pass sized for np.take's intp copy,
    at 0.86-0.87 MB with S_7 built and labelled in the scan (0.78 MB once
    it is cached)."""
    group = parse_group("C2")
    enumerate_automorphisms(group)
    # Cold, so that the bound covers building and labelling S_7.
    burnside._permutation_table.cache_clear()
    tracemalloc.start()
    try:
        report = fixed_point_report(group, 7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.orbit_count == 120
    assert peak < 1.5 * 2**20, peak


@pytest.mark.parametrize("spec", ["C4", "C2^2"])
def test_orbit_listing_memory_per_state(spec):
    """Orbit listing holds the labels and one image map per generator, each
    8 bytes per state, and no digit arrays over the state space."""
    group = parse_group(spec)
    enumerate_automorphisms(group)
    states = group.order**8
    tracemalloc.start()
    try:
        sizes = orbit_sizes(group, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(sizes) == states
    assert len(sizes) == orbit_count_congruence(group, 4)
    assert peak < 96 * states, peak / states


def test_orbit_enumerate_smallest_cases():
    trivial = parse_group("C1")
    assert orbit_enumerate(trivial, 1) == [ESC(((),), ((),))]
    c2 = parse_group("C2")
    reps = orbit_enumerate(c2, 1)
    assert reps == [
        ESC(((0,),), ((0,),)),
        ESC(((0,),), ((1,),)),
        ESC(((1,),), ((0,),)),
        ESC(((1,),), ((1,),)),
    ]


def test_orbit_sizes_c3():
    c3 = parse_group("C3")
    sizes = orbit_sizes(c3, 1)
    assert sizes == [1, 2, 2, 2, 2]
    assert len(orbit_enumerate(c3, 1)) == 5


def test_orbit_enumerate_grid_invariants():
    for group in small_groups(9):
        m = group.order
        aut_size = len(enumerate_automorphisms(group))
        for n in (1, 2, 3):
            if m ** (2 * n) > 65536:
                continue
            reps = orbit_enumerate(group, n)
            sizes = orbit_sizes(group, n)
            assert len(reps) == orbit_count_congruence(group, n)
            assert len(sizes) == len(reps)
            assert sum(sizes) == m ** (2 * n)
            acting_order = aut_size * math.factorial(n)
            for size in sizes:
                assert acting_order % size == 0


def orbit_representatives_oracle(group, n):
    """Lexicographically least orbit representatives by breadth-first search."""
    autos = enumerate_automorphisms(group)
    sigmas = list(permutations_of(n))
    seen = set()
    reps = []
    for esc in all_configurations(group, n):
        key = flat(esc)
        if key in seen:
            continue
        reps.append(esc)
        frontier = [esc]
        seen.add(key)
        while frontier:
            current = frontier.pop()
            for auto in autos:
                for sigma in sigmas:
                    image = act((auto, sigma), current)
                    image_key = flat(image)
                    if image_key not in seen:
                        seen.add(image_key)
                        frontier.append(image)
    return reps


@pytest.mark.parametrize(
    "spec,n", [("C4", 1), ("C2^2", 1), ("C5", 1), ("C2", 2), ("C2xC4", 1), ("C3^2", 1)]
)
def test_orbit_enumerate_representatives_are_lex_least(spec, n):
    group = parse_group(spec)
    assert list(orbit_enumerate(group, n)) == orbit_representatives_oracle(group, n)


def test_orbit_count_at_least_element_only_orbits():
    # Forgetting the characters merges orbits, never splits them.
    for group in small_groups(8):
        els = element_list(group)
        autos = enumerate_automorphisms(group)
        for n in (1, 2):
            sigmas = list(permutations_of(n))
            seen = set()
            element_orbits = 0
            for tup in itertools.product(els, repeat=n):
                if tup in seen:
                    continue
                element_orbits += 1
                frontier = [tup]
                seen.add(tup)
                while frontier:
                    current = frontier.pop()
                    for auto in autos:
                        moved = tuple(auto.apply(x) for x in current)
                        for sigma in sigmas:
                            image = tuple(moved[sigma.index(j)] for j in range(n))
                            if image not in seen:
                                seen.add(image)
                                frontier.append(image)
            assert orbit_count_congruence(group, n) >= element_orbits
