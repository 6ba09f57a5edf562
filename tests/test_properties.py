"""Property tests on random small cases: the GL class census against the
matrix scan, and closed_count against the congruence average and the naive
oracle.  Skipped when hypothesis is not installed."""
import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from escount.burnside import orbit_count_congruence, orbit_count_naive  # noqa: E402
from escount.closed_form import closed_count, matrix_scan_census  # noqa: E402
from escount.glclasses import gl_class_census  # noqa: E402
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
