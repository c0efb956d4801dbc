"""Shared finite fixtures used across the suite."""

import pytest

from pretop.finite import validate_space


@pytest.fixture
def d2():
    # discrete two points
    return validate_space(("1", "2"), {"1": ["1"], "2": ["2"]})


@pytest.fixture
def q3():
    # the three-point chain with a non-idempotent adherence
    return validate_space(
        ("1", "2", "3"), {"1": ["1", "2"], "2": ["2", "3"], "3": ["3"]}
    )


@pytest.fixture
def p3():
    # topological: b is in every vicinity
    return validate_space(
        ("a", "b", "c"), {"a": ["a", "b"], "b": ["b"], "c": ["b", "c"]}
    )


@pytest.fixture
def s2():
    # Sierpinski-like: a sticks to b
    return validate_space(("a", "b"), {"a": ["a"], "b": ["a", "b"]})
