"""Property tests on random small cases: the GL class census against the
matrix scan, closed_count against the congruence average and the naive
oracle, the naive scan's per-pair counts against the state-image
definition, group specs surviving a print-and-parse round trip, and act
being a group action.  Skipped when hypothesis is not installed."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from escount.abelian import (  # noqa: E402
    ESC,
    AbelianGroup,
    EndoMatrix,
    canonical_spec,
    element_list,
    enumerate_automorphisms,
    parse_group,
)
from escount.burnside import (  # noqa: E402
    act,
    compose_permutations,
    fixed_point_report,
    fixed_points_naive,
    identity_permutation,
    orbit_count_congruence,
    orbit_count_naive,
)
from escount.closed_form import closed_count, matrix_scan_census  # noqa: E402
from escount.glclasses import gl_class_census  # noqa: E402
from escount.numtheory import CycleType  # noqa: E402
from escount.verify import abelian_groups_of_order  # noqa: E402

# (p, s) whose matrix scan has at most 2**12 candidates.
SMALL_GL = [(p, s) for p in (2, 3, 5, 7) for s in (1, 2, 3) if p ** (s * s) <= 1 << 12]

# (group, n) with at most 2**12 naive states, |G|**(2n).
SMALL_CASES = [
    (group, n)
    for order in range(1, 13)
    for group in abelian_groups_of_order(order)
    for n in (1, 2, 3)
    if order ** (2 * n) <= 1 << 12
]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_GL), st.integers(min_value=1, max_value=6))
def test_class_census_is_the_matrix_scan_census(gl, n):
    p, s = gl
    assert gl_class_census(p, s, n) == matrix_scan_census(p, s, n)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(SMALL_CASES))
def test_closed_count_agrees_with_congruence_and_naive(case):
    group, n = case
    closed = closed_count(group, n)
    assert closed == orbit_count_congruence(group, n) == orbit_count_naive(group, n)


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_fixed_point_report_matches_state_images(data):
    group, n = data.draw(st.sampled_from(SMALL_CASES))
    report = fixed_point_report(group, n)
    autos = enumerate_automorphisms(group)
    for _ in range(3):
        a_idx = data.draw(st.integers(0, len(autos) - 1))
        sigma = tuple(data.draw(st.permutations(range(n))))
        key = (a_idx, CycleType.from_permutation(sigma))
        assert report.counts[key] == fixed_points_naive((autos[a_idx], sigma))


@settings(max_examples=50, deadline=None)
@given(
    st.lists(
        st.tuples(st.sampled_from((2, 3, 5, 7, 11, 101)), st.integers(1, 4)),
        max_size=5,
    )
)
def test_canonical_spec_round_trips(factors):
    group = AbelianGroup(tuple(sorted(factors)))
    assert parse_group(canonical_spec(group)) == group


ACTION_GROUPS = [group for order in range(1, 13) for group in abelian_groups_of_order(order)]


@st.composite
def action_cases(draw):
    """A group, two action pairs on n positions, and a configuration."""
    group = draw(st.sampled_from(ACTION_GROUPS))
    n = draw(st.integers(1, 3))
    autos = enumerate_automorphisms(group)
    els = element_list(group)
    pairs = [
        (draw(st.sampled_from(autos)), tuple(draw(st.permutations(range(n)))))
        for _ in range(2)
    ]
    esc = ESC(
        tuple(draw(st.sampled_from(els)) for _ in range(n)),
        tuple(draw(st.sampled_from(els)) for _ in range(n)),
    )
    return group, pairs, esc


@settings(max_examples=50, deadline=None)
@given(action_cases())
def test_act_is_a_group_action(case):
    group, ((phi1, sigma1), (phi2, sigma2)), esc = case
    identity = (EndoMatrix.identity(group), identity_permutation(esc.n))
    assert act(identity, esc) == esc
    product = (phi1.compose(phi2), compose_permutations(sigma1, sigma2))
    assert act(product, esc) == act((phi1, sigma1), act((phi2, sigma2), esc))
