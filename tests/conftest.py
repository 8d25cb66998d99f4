"""Fixtures shared by the test modules."""

import pytest

import smallhom.algebra


@pytest.fixture
def tensor_diagonal_calls(monkeypatch):
    """``(dim M, dim N)`` of every ``tensor_diagonal`` call made during a test."""
    calls = []
    real = smallhom.algebra.tensor_diagonal

    def counted(M, N, check=True):
        calls.append((M.dim, N.dim))
        return real(M, N, check)

    monkeypatch.setattr(smallhom.algebra, "tensor_diagonal", counted)
    return calls
