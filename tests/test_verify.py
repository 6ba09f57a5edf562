"""Tests for the cross-validation layer: per-case method comparison, the
order sweep, and the reference-value table."""
import pytest

from escount.abelian import parse_group
from escount.budget import DEFAULT_BUDGET, Budget
from escount.verify import (
    METHODS,
    abelian_groups_of_order,
    applicable_methods,
    check_reference_values,
    cross_check,
    sweep,
)


def test_abelian_groups_of_order_counts():
    expected = {1: 1, 2: 1, 3: 1, 4: 2, 8: 3, 12: 2, 16: 5, 36: 4, 30: 1}
    for order, count in expected.items():
        groups = abelian_groups_of_order(order)
        assert len(groups) == count
        for group in groups:
            assert group.order == order
    with pytest.raises(ValueError):
        abelian_groups_of_order(0)


def test_applicable_methods():
    assert applicable_methods(parse_group("C2")) == [
        "naive",
        "congruence",
        "cyclic",
        "elementary",
        "closed",
    ]
    assert applicable_methods(parse_group("C3")) == [
        "naive",
        "congruence",
        "cyclic",
        "elementary",
        "closed",
    ]
    assert applicable_methods(parse_group("C4")) == [
        "naive",
        "congruence",
        "cyclic",
        "closed",
    ]
    assert applicable_methods(parse_group("C6")) == [
        "naive",
        "congruence",
        "cyclic",
        "closed",
    ]
    assert applicable_methods(parse_group("C2xC4")) == ["naive", "congruence", "closed"]
    assert applicable_methods(parse_group("C3^2")) == [
        "naive",
        "congruence",
        "elementary",
        "closed",
    ]
    assert applicable_methods(parse_group("C2^5")) == [
        "naive",
        "congruence",
        "elementary",
        "closed",
    ]


def test_cross_check_all_methods_on_prime():
    case = cross_check(parse_group("C2"), 2)
    assert set(case.values) == set(METHODS)
    assert set(case.values.values()) == {10}
    assert case.agree
    assert not case.skipped
    assert set(case.elapsed_ms) == set(METHODS)


def test_cross_check_mixed_group_methods():
    case = cross_check(parse_group("C2xC4"), 1)
    assert set(case.values) == {"naive", "congruence", "closed"}
    assert set(case.values.values()) == {19}
    assert case.group == "C2xC4"


def test_cross_check_all_skipped_is_vacuously_ok():
    # C2^21's class bound 2**21 is over max_matrix_candidates, so even the
    # class census is refused.
    case = cross_check(parse_group("C2^21"), 1)
    assert case.values == {}
    assert set(case.skipped) == {"naive", "congruence", "closed", "elementary"}
    for reason in case.skipped.values():
        assert "budget exceeded" in reason
    assert case.agree


def test_cross_check_method_subset():
    case = cross_check(parse_group("C4"), 2, methods=["congruence", "cyclic"])
    assert set(case.values) == {"congruence", "cyclic"}
    assert set(case.values.values()) == {76}
    with pytest.raises(ValueError):
        cross_check(parse_group("C4"), 1, methods=["nonsense"])


def test_sweep_small():
    report = sweep(6, 2)
    assert len(report.cases) == 14
    assert report.ok
    assert report.disagreements == []
    for case in report.cases:
        assert case.values  # every case this small has at least one result
        assert case.agree


def test_sweep_respects_budget():
    # The naive scan walks |G|**n tuples per half: only C5 has more than 4.
    tight = Budget(max_state_space=4)
    report = sweep(5, 1, budget=tight)
    assert report.ok
    naive_skips = [case for case in report.cases if "naive" in case.skipped]
    assert [case.group for case in naive_skips] == ["C5"]
    for case in report.cases:
        if case.group == "C5":
            assert "cyclic" in case.values
            assert case.values["cyclic"] == 7


def test_sweep_counts_the_unwitnessed_cases():
    assert sweep(8, 1).unwitnessed == 0
    # With max_group_order 1 the element-image methods refuse every
    # nontrivial group; C2xC4 is left with closed alone, still "ok".
    report = sweep(8, 1, budget=Budget(max_group_order=1))
    alone = [case.group for case in report.cases if len(case.values) < 2]
    assert alone == ["C2xC4"]
    assert report.unwitnessed == 1 and report.ok


def test_sweep_validation():
    with pytest.raises(ValueError):
        sweep(0, 1)
    with pytest.raises(ValueError):
        sweep(4, 0)


def test_check_reference_values_all_match():
    rows = check_reference_values()
    assert len(rows) == 16
    assert all(row.match for row in rows)
    labels = {row.label for row in rows}
    assert labels == {
        "two-pair pinned",
        "single-pair prime power",
        "single-pair squarefree",
    }


def test_check_reference_values_rows():
    rows = {(row.group, row.n): row for row in check_reference_values()}
    c8 = rows[("C8", 1)]
    assert c8.expected == 22
    assert set(c8.computed.values()) == {22}
    squarefree = rows[("C2xC3xC5", 1)]
    assert squarefree.expected == 140
    assert squarefree.computed["formula"] == 140
    pinned = rows[("C4", 2)]
    assert pinned.expected == 76
    assert set(pinned.computed) == {"naive", "congruence", "cyclic", "formula"}


def test_check_reference_values_runs_the_method_table(monkeypatch):
    congruence = METHODS["congruence"]

    def off_by_one(group, n, budget):
        counts = congruence(group, n, budget)
        return lambda k: counts(k) + 1

    monkeypatch.setitem(METHODS, "congruence", off_by_one)
    rows = [row for row in check_reference_values() if "congruence" in row.computed]
    assert len(rows) == 16
    for row in rows:
        assert row.computed["congruence"] == row.expected + 1
        assert not row.match


def test_check_reference_values_records_refusals_as_skipped():
    # naive needs |G|^n states per half: a refusal is recorded, not raised,
    # and the row matches on the methods that ran.
    rows = check_reference_values(Budget(max_state_space=1))
    skipped = {(row.group, row.n): row.skipped for row in rows if row.skipped}
    assert set(skipped) == {("C2", 2), ("C4", 2)}
    for reasons in skipped.values():
        assert list(reasons) == ["naive"]
        assert "max_state_space" in reasons["naive"]
    assert all(row.match for row in rows)
    assert all("naive" not in row.computed for row in rows)


def test_every_method_is_a_counts_form():
    # Each METHODS entry, called once at n = 3, reads cross_check's count at
    # every k <= 3.
    group = parse_group("C2")
    assert set(applicable_methods(group)) == set(METHODS)
    for name, counts in METHODS.items():
        count_at = counts(group, 3, DEFAULT_BUDGET)
        for k in (1, 2, 3):
            assert count_at(k) == cross_check(group, k, [name]).values[name], (name, k)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, Budget(max_endo_candidates=128)])
def test_sweep_equals_per_case_cross_check(budget):
    # sweep reads every n from one census per census method; its cases
    # must be cross_check's, refusals included.
    report = sweep(16, 3, budget)
    per_case = [
        cross_check(group, n, budget=budget)
        for order in range(1, 17)
        for group in abelian_groups_of_order(order)
        for n in range(1, 4)
    ]
    assert [(c.group, c.n) for c in report.cases] == [(c.group, c.n) for c in per_case]
    for swept, single in zip(report.cases, per_case):
        assert swept.values == single.values, (swept.group, swept.n)
        assert swept.skipped == single.skipped, (swept.group, swept.n)
        assert swept.agree == single.agree
        assert list(swept.elapsed_ms) == list(single.elapsed_ms)
    if budget == DEFAULT_BUDGET:
        return
    # kernel_census prices the rows it will list: C2xC4's 8 and C2^2's 6 at
    # every n, but C2^2xC4's min(4n, |GL(2, 2)|) blocks of 32, 4 * 32 at
    # n = 1 and 6 * 32 at n >= 2.  So that census fits at n = 1 only, and
    # is retried one n lower.
    cases = {(c.group, c.n): c for c in report.cases}
    for group, method in (("C2xC4", "closed"), ("C2xC2", "elementary")):
        for n in (1, 2, 3):
            assert method in cases[(group, n)].values, (group, n)
    assert "closed" in cases[("C2xC2xC4", 1)].values
    for n in (2, 3):
        assert "max_endo_candidates" in cases[("C2xC2xC4", n)].skipped["closed"]


def test_sweep_takes_one_census_per_method_and_group(monkeypatch):
    calls = []
    closed = METHODS["closed"]

    def counting(group, n, budget):
        calls.append((str(group), n))
        return closed(group, n, budget)

    monkeypatch.setitem(METHODS, "closed", counting)
    sweep(4, 3)
    assert calls == [("C1", 3), ("C2", 3), ("C3", 3), ("C4", 3), ("C2xC2", 3)]


def test_check_reference_values_reads_known_counts():
    # A wrong count known for one method and case is read, not recomputed:
    # that row alone mismatches.
    rows = check_reference_values(known={("C4", 2): {"congruence": 75}})
    mismatched = [row for row in rows if not row.match]
    assert [(row.group, row.n) for row in mismatched] == [("C4", 2)]
    assert mismatched[0].computed == {"naive": 76, "congruence": 75, "cyclic": 76, "formula": 76}
