"""Symbolic exterior-algebra model for the homology of the big tensor complex.

The homology of the d-fold tensor complex is a free rank-one module over the
exterior algebra on the d degree-m self maps, so its dimension bookkeeping
lives entirely in the subset basis of that exterior algebra.  This module
computes exact rank profiles of multiplication by the quadratic Lefschetz
element

    w = t_1 t_2 + t_3 t_4 + t_5 t_6 + t_7 t_8,

assembles mapping-cone homology dimensions from the long exact sequence
(``dim H_i(cone) = coker_i + ker_{i-2m-1}``), and evaluates the closed-form
totals for arbitrary rank ``d >= 8``.

Degrees are carried symbolically as pairs ``(t, off)`` meaning ``t*m + off``
with ``off`` in {0, 1}, so one table serves every odd weight ``m``.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

import numpy as np

from .linalg import FieldSpec, FpMatrix

# the Lefschetz element, as (coefficient, generator pair) terms on 1-based
# generators; products of two odd-degree maps, hence even and central-ish
LEFSCHETZ_TERMS: tuple[tuple[int, tuple[int, int]], ...] = (
    (1, (1, 2)),
    (1, (3, 4)),
    (1, (5, 6)),
    (1, (7, 8)),
)


@dataclass(frozen=True)
class LefschetzModel:
    """Exterior algebra on d odd-degree generators over a prime field; their weight m stays symbolic."""

    d: int
    field: FieldSpec

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("rank must be >= 1")

    def grade_basis(self, t: int) -> list[tuple[int, ...]]:
        if t < 0 or t > self.d:
            return []
        return list(combinations(range(1, self.d + 1), t))

    def grade_dim(self, t: int) -> int:
        if t < 0 or t > self.d:
            return 0
        return comb(self.d, t)


def multiply_generator(subset: tuple[int, ...], gen: int) -> tuple[int, tuple[int, ...]] | None:
    """Left multiplication by one generator in the subset basis.

    Returns ``(sign, subset + gen)`` or ``None`` when the product vanishes;
    the sign counts the generators already in front of ``gen``.
    """
    if gen in subset:
        return None
    before = sum(1 for s in subset if s < gen)
    out = tuple(sorted(subset + (gen,)))
    return (-1) ** before, out


def multiply_monomial(subset: tuple[int, ...], mono: tuple[int, ...]) -> tuple[int, tuple[int, ...]] | None:
    """Left multiplication by ``t_{g1} ... t_{gk}``, applied right to left."""
    sign = 1
    cur = subset
    for gen in reversed(mono):
        res = multiply_generator(cur, gen)
        if res is None:
            return None
        s, cur = res
        sign *= s
    return sign, cur


def element_grade(element) -> int:
    grades = {len(mono) for _, mono in element}
    if len(grades) != 1:
        raise ValueError("element is not homogeneous")
    return grades.pop()


def multiplication_matrix(model: LefschetzModel, element, t: int) -> FpMatrix:
    """Matrix of left multiplication from grade t to grade t + |element|."""
    g = element_grade(element)
    src = model.grade_basis(t)
    dst = model.grade_basis(t + g)
    index = {subset: k for k, subset in enumerate(dst)}
    mat = np.zeros((len(dst), len(src)), dtype=np.int64)
    for col, subset in enumerate(src):
        for coeff, mono in element:
            res = multiply_monomial(subset, mono)
            if res is None:
                continue
            sign, out = res
            mat[index[out], col] += coeff * sign
    return FpMatrix(model.field.p, mat)


def w_matrix(model: LefschetzModel, t: int) -> FpMatrix:
    """Multiplication by the Lefschetz element from grade t to grade t+2."""
    if model.d < 8:
        raise ValueError("the Lefschetz element needs rank >= 8")
    return multiplication_matrix(model, LEFSCHETZ_TERMS, t)


@dataclass
class ProfileResult:
    ok: bool
    ranks: dict[int, int]  # rank of the element from grade t
    failures: list[tuple[int, int, int]]  # (grade, expected, got)


def verify_lefschetz_profile(table: "ConeDimensionTable") -> ProfileResult:
    """Check injectivity at grades 0..3 and surjectivity at grades 3..6 on
    the w ranks of :func:`cone_dimensions`.

    Over characteristics other than 2 every check passes, with an
    isomorphism at grade 3; over F_2 the profile fails at grade 2, where the
    element itself is in the kernel (its square has even coefficients).
    """
    if table.d != 8 or table.grade != 2:
        raise ValueError("profile verification reads the rank-8 table of w")
    ranks = {t: table.ranks[t] for t in range(0, 7)}
    failures = []
    for t in range(0, 7):
        # injectivity wanted at grades 0..3, surjectivity at 3..6
        expected = comb(8, t) if t <= 3 else comb(8, t + 2)
        if ranks[t] != expected:
            failures.append((t, expected, ranks[t]))
    return ProfileResult(not failures, ranks, failures)


@dataclass
class ConeDimensionTable:
    """Per-degree homology dimensions of the cone of an even-grade element.

    Keys are symbolic degrees ``(t, off)`` standing for ``t*m + off``.
    """

    d: int
    grade: int  # homological shift of the element, in multiples of m
    entries: dict[tuple[int, int], int]
    ranks: dict[int, int]  # rank of the element from grade t

    @property
    def total(self) -> int:
        return sum(self.entries.values())

    def at_m(self, m: int) -> dict[int, int]:
        """Materialize the symbolic degrees at a concrete odd weight m."""
        out: dict[int, int] = {}
        for (t, off), v in self.entries.items():
            deg = t * m + off
            out[deg] = out.get(deg, 0) + v
        return {k: v for k, v in sorted(out.items()) if v}


def cone_oracle(model: LefschetzModel, element) -> ConeDimensionTable:
    """Cone homology of a nonzero homogeneous even-grade element acting on
    the free rank-one module, from kernel/cokernel ranks.

    The long exact sequence of the cone gives, per degree,
    ``dim H_i = coker_i + ker_{i - shift - 1}`` where the shift is
    ``grade * m``.
    """
    if not element:
        raise ValueError("the zero element has no grade; cone_oracle needs a nonzero element")
    grade = element_grade(element)
    if grade % 2 or grade < 2:
        raise ValueError("cone elements must have positive even grade")
    ranks = {t: multiplication_matrix(model, element, t).rank() for t in range(0, model.d + 1)}
    entries: dict[tuple[int, int], int] = {}
    for t in range(0, model.d + 1):
        coker = model.grade_dim(t) - ranks.get(t - grade, 0)
        if coker:
            entries[(t, 0)] = coker
        ker = model.grade_dim(t) - ranks[t]
        if ker:
            entries[(t + grade, 1)] = ker
    return ConeDimensionTable(model.d, grade, entries, ranks)


def cone_dimensions(model: LefschetzModel) -> ConeDimensionTable:
    """Cone homology table for the Lefschetz element on the rank-8 model."""
    if model.d != 8:
        raise ValueError("cone_dimensions runs on the rank-8 submodel; use total_with_tail for larger d")
    return cone_oracle(model, LEFSCHETZ_TERMS)


def total_with_tail(table: ConeDimensionTable, d: int) -> int:
    """Total cone homology for rank d >= 8 from the rank-8 ``table``: its
    total times 2^{d-8}.

    The Lefschetz element involves t_1..t_8 only, so the cone on Λ(d) is the
    cone on Λ(8) tensored with Λ(d-8).  The closed form ``2^d - 2^{d-6}`` is
    the caller's comparison, which a wrong table fails.
    """
    if d < 8 or table.d != 8:
        raise ValueError("the construction needs rank >= 8 and the rank-8 table")
    return table.total * 2 ** (d - 8)


def family_lengths(d: int, n: int, powers) -> list[int]:
    """Support lengths of the cone complexes built from s-th powers.

    A class of degree ``s*n`` yields a tensor complex supported in degrees
    ``0 .. d*(s*n - 1)`` and a cone supported in ``0 .. (d+2)*(s*n-1) + 1``,
    hence length ``(d + 2) * (s*n - 1) + 2``.
    """
    if n < 2 or n % 2:
        raise ValueError("the class degree must be even and >= 2")
    return [(d + 2) * (s * n - 1) + 2 for s in powers]
