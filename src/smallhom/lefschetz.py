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

A multiplication matrix is built on bitmasks: subset ``{s_1 < ... < s_t}``
of the basis is the ``int64`` with bits ``s_i - 1`` set, so a model has at
most :data:`MAX_RANK` generators.  Left multiplication by a generator ``g``
vanishes on masks holding bit ``g - 1``, sets it on the others, and has the
sign ``(-1)^k`` for the ``k`` set bits below it (the generators in front of
``g``).  All (subset, term) pairs of one element are multiplied at once, and
each product's row is found by binary search in the sorted masks of the
target grade; no table over all ``2^d`` subsets is made.
:func:`multiply_generator` and :func:`multiply_monomial` are the
subset-tuple reference.
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
# generator s is bit s - 1 of an int64 subset mask: at most 62 generators keep
# every mask below 2**62, clear of the sign bit with one bit to spare
MAX_RANK = 62


@dataclass(frozen=True)
class LefschetzModel:
    """Exterior algebra on d odd-degree generators over a prime field; their weight m stays symbolic."""

    d: int
    field: FieldSpec

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("rank must be >= 1")
        if self.d > MAX_RANK:
            raise ValueError(f"rank must be at most {MAX_RANK}, the subset masks are int64; got {self.d}")

    def grade_basis(self, t: int) -> list[tuple[int, ...]]:
        if t < 0 or t > self.d:
            return []
        return list(combinations(range(1, self.d + 1), t))

    def grade_dim(self, t: int) -> int:
        if t < 0 or t > self.d:
            return 0
        return comb(self.d, t)

    def grade_masks(self, t: int) -> np.ndarray:
        """:meth:`grade_basis` as bitmasks, generator s at bit s - 1, in basis order."""
        subsets = combinations([1 << s for s in range(self.d)], t) if 0 <= t <= self.d else ()
        return np.array(list(map(sum, subsets)), dtype=np.int64)


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


def check_generators(model: LefschetzModel, element) -> None:
    """Raise unless every generator of ``element`` lies in ``1..d``."""
    for _, mono in element:
        if mono and (min(mono) < 1 or max(mono) > model.d):
            raise ValueError(f"element generators must lie in 1..{model.d}, got {mono}")


def _parity(x: np.ndarray, width: int) -> np.ndarray:
    """Parity of the set bits of each entry of ``x``, all below bit ``width``,
    by folding halves together with XOR."""
    for k in reversed(range((width - 1).bit_length())):
        x = x ^ (x >> (1 << k))
    return x & 1


def multiplication_matrix(model: LefschetzModel, element, t: int) -> FpMatrix:
    """Matrix of left multiplication from grade t to grade t + |element|,
    on subset bitmasks (see the module docstring).

    Moving ``t_{g_1} ... t_{g_k}`` past a subset ``S`` costs the sign of
    sorting the monomial times ``(-1)^|S & B|``, where ``B``, the XOR of the
    masks below each ``g_i``, is one mask per term.  Terms on one generator
    set differ only by the first sign, so they are merged first; then no two
    surviving (subset, term) pairs share a product.
    """
    g, p, d = element_grade(element), model.field.p, model.d
    check_generators(model, element)
    merged: dict[int, list[int]] = {}  # monomial mask -> [B, coefficient]
    for coeff, mono in element:
        mask = below = inversions = 0
        for s in mono:
            inversions += (mask >> s).bit_count()  # generators in front of s and above it
            mask |= 1 << (s - 1)
            below ^= (1 << (s - 1)) - 1
        if mask.bit_count() == g:  # a repeated generator squares to zero
            merged.setdefault(mask, [below, 0])[1] += -coeff if inversions % 2 else coeff
    # a coefficient c in 1..p-1 and the step c -> p - c that negates it
    terms = [(mask, below, c % p, p - 2 * (c % p)) for mask, (below, c) in merged.items() if c % p]
    term_mask, term_below, coeff, negate = np.array(terms, dtype=np.int64).reshape(len(terms), 4).T[:, :, None]
    src, dst = model.grade_masks(t), model.grade_masks(t + g)
    # every (term, subset) pair at once: rows are terms, columns subsets
    alive = (src & term_mask) == 0
    vals = coeff + _parity(src & term_below, d) * negate
    order = dst.argsort()
    rows = order[np.searchsorted(dst[order], (src | term_mask)[alive])]
    mat = np.zeros((dst.size, src.size), dtype=np.int64)
    mat[rows, alive.nonzero()[1]] = vals[alive]
    return FpMatrix._adopt(p, mat, reduced=True)


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
    ``grade * m``.  From a grade ``t`` with ``t + grade > d`` the element
    lands in grade ``t + grade``, which has no subsets of ``d`` generators,
    so its rank there is 0 and no matrix is built; ``ranks`` keeps every key
    ``0..d``.
    """
    if not element:
        raise ValueError("the zero element has no grade; cone_oracle needs a nonzero element")
    grade = element_grade(element)
    if grade % 2 or grade < 2:
        raise ValueError("cone elements must have positive even grade")
    check_generators(model, element)  # also where no grade builds a matrix
    ranks = {t: multiplication_matrix(model, element, t).rank() if t + grade <= model.d else 0
             for t in range(0, model.d + 1)}
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
