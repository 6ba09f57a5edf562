"""Tests for the enumeration budget and its environment override."""
import pytest

from escount.budget import (
    DEFAULT_BUDGET,
    ENV_VAR,
    Budget,
    BudgetExceededError,
    IntegralityError,
    budget_from_env,
    exact_quotient,
)


def test_default_limits():
    assert DEFAULT_BUDGET.max_group_order == 64
    assert DEFAULT_BUDGET.max_state_space == 1 << 16
    assert DEFAULT_BUDGET.max_naive_work == 1 << 29
    assert DEFAULT_BUDGET.max_endo_candidates == 1 << 20
    assert DEFAULT_BUDGET.max_matrix_candidates == 1 << 20


def test_check_passes_at_limit():
    Budget(max_state_space=100).check("max_state_space", 100)
    Budget(max_state_space=100).check("max_state_space", 1)


def test_check_raises_above_limit():
    with pytest.raises(BudgetExceededError) as excinfo:
        Budget(max_group_order=8).check("max_group_order", 9)
    err = excinfo.value
    assert err.limit_name == "max_group_order"
    assert err.limit == 8
    assert err.required == 9
    assert str(err) == "budget exceeded: max_group_order allows 8, request needs 9"


def test_budget_is_immutable():
    with pytest.raises(AttributeError):
        DEFAULT_BUDGET.max_group_order = 1


def test_budget_from_env_unset(monkeypatch):
    monkeypatch.delenv(ENV_VAR, raising=False)
    assert budget_from_env() == DEFAULT_BUDGET


def test_budget_from_env_override(monkeypatch):
    monkeypatch.setenv(ENV_VAR, "1024")
    budget = budget_from_env()
    assert budget.max_state_space == 1024
    assert budget.max_group_order == DEFAULT_BUDGET.max_group_order


def test_budget_from_env_malformed(monkeypatch):
    for raw in ("lots", "0", "-5", "1.5"):
        monkeypatch.setenv(ENV_VAR, raw)
        with pytest.raises(ValueError):
            budget_from_env()


def test_exact_quotient():
    assert exact_quotient(836 * 167, 167, "total") == 836
    assert exact_quotient(0, 5, "total") == 0
    with pytest.raises(IntegralityError, match="total for C2: 29 is not divisible by 5"):
        exact_quotient(29, 5, "total for C2")
