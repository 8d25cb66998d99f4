"""Finite-dimensional split-local algebras and their finite modules.

The supported algebras are the monomial-relation family

    k<x_1, ..., x_c> / (x_i^{a_i},  x_j x_i - q_ij x_i x_j)   for i < j,

with all ``a_i >= 2`` and all ``q_ij`` nonzero.  They are local with
``A / rad A = k``, so projective modules are free and projective covers are
canonical.  The monomial basis ``x^e`` (``0 <= e_i < a_i``) is ordered
lexicographically on exponent vectors; every derived basis (syzygies,
quotients, homology) is echelonized, which makes all computations
deterministic.

A module is a dimension together with one action matrix per generator; the
defining relations are verified at construction time, or follow from a fact
proved once: every diagonal tensor satisfies them because the coproduct is an
algebra map, which :class:`DiagonalTensor` proves on ``regular (x) regular``.
A diagonal tensor stores no action matrices: it acts through its two factors
(:meth:`Module.act`), as a free module of rank two or more acts through one
regular module.  A tensor with a projective factor is flagged projective
by an antipode that :class:`DiagonalTensor` proves with the coproduct; any other
module that is not a sum is flagged from coordinate lists of its nonzeros
(:func:`is_projective`): a stored action gives them directly, a tensor
builds them from its factors'.
Bimodules are plain modules over the enveloping algebra ``A (x) A^op``, whose
first ``c`` generators act on the left and last ``c`` on the right.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass
from math import prod

import numpy as np

from .linalg import (FieldSpec, FpMatrix, _factor_product, _peeled_rank, echelon_pivots, hstack, is_echelonized,
                     kron_apply, kron_array, nonpivot_columns, quotient_by_subspace, read_coordinates)


class CertificationError(ValueError):
    """An exact check inside a certification failed: the claim is not certified."""


class BudgetExceeded(Exception):
    """A construction asked for a module above the configured size cap.

    ``stage`` names the construction and ``factors`` the two tensor factor
    dimensions, when the caller knows them.
    """

    def __init__(self, dim: int, limit: str, stage: str | None = None,
                 factors: tuple[int, int] | None = None):
        what = f"module of dimension {dim}" if factors is None else f"tensor {factors[0]} x {factors[1]} = {dim}"
        message = f"{what} exceeds {limit}"
        super().__init__(f"{stage}: {message}" if stage else message)
        self.dim = dim
        self.stage = stage
        self.factors = factors


@dataclass(frozen=True)
class Budget:
    """Size caps for tensor-heavy constructions."""

    max_dim: int = 4096
    max_entries: int = 20_000_000

    def __post_init__(self) -> None:
        for name in ("max_dim", "max_entries"):
            if getattr(self, name) < 1:
                raise ValueError(f"budget {name} must be at least 1, got {getattr(self, name)}")

    def check(self, dim: int, stage: str | None = None,
              factors: tuple[int, int] | None = None) -> None:
        if dim > self.max_dim:
            limit = f"budget {self.max_dim}"
        elif dim * dim > self.max_entries:
            limit = f"entry budget {self.max_entries} ({dim * dim} entries per matrix)"
        else:
            return
        raise BudgetExceeded(dim, limit, stage, factors)


COPRODUCTS = ("primitive", "shifted")


class Algebra:
    """A split-local monomial-relation algebra with ordered basis.

    ``commutators`` maps 0-based pairs ``(i, j)`` with ``i < j`` to the
    nonzero scalar ``q_ij``; missing pairs default to 1.  ``coproduct`` is
    ``None``, ``"primitive"`` (``x -> x(x)1 + 1(x)x``) or ``"shifted"``
    (``t -> t(x)1 + 1(x)t + t(x)t``).  Either choice requires ``a_i = p`` and
    ``q = 1``: a guard that keeps input to the certified family, not a test of
    the relations, which :meth:`DiagonalTensor.pair` proves at its first call.
    """

    def __init__(self, field: FieldSpec, exponents, commutators=None, coproduct=None):
        self.field = field
        self.p = field.p
        self.exponents = tuple(int(a) for a in exponents)
        if any(a < 2 for a in self.exponents):
            raise ValueError("all nilpotency exponents must be >= 2")
        self.ngens = len(self.exponents)
        q = {}
        for (i, j), v in (commutators or {}).items():
            if not (0 <= i < j < self.ngens):
                raise ValueError(f"bad commutator index ({i}, {j})")
            v = int(v) % self.p
            if v == 0:
                raise ValueError(f"commutator q_{i}{j} must be nonzero")
            q[(i, j)] = v
        self.q = q
        if coproduct is not None:
            if coproduct not in COPRODUCTS:
                raise ValueError(f"unknown coproduct {coproduct!r}")
            if any(a != self.p for a in self.exponents) or any(v != 1 for v in q.values()):
                raise ValueError("coproducts need exponents equal to char and trivial commutators")
        self.coproduct = coproduct
        self.basis = tuple(itertools.product(*[range(a) for a in self.exponents]))
        self.index = {mono: k for k, mono in enumerate(self.basis)}
        self.dim = prod(self.exponents)
        self.unit_index = self.index[(0,) * self.ngens]
        self._left = None
        self._right = None

    # ------------------------------------------------------------------
    def commutator(self, i: int, j: int) -> int:
        if i == j:
            return 1
        if i > j:
            raise ValueError("commutator indices must be increasing")
        return self.q.get((i, j), 1)

    def mono_mul(self, e, f):
        """Product of basis monomials: ``(coeff, mono)`` or ``None`` if zero.

        Moving the x_i powers of the right factor left across the higher
        generators of the left factor gives the scalar
        ``prod_{i<j} q_ij^{f_i * e_j}``.
        """
        g = tuple(a + b for a, b in zip(e, f))
        if any(gi >= ai for gi, ai in zip(g, self.exponents)):
            return None
        coeff = 1
        for i in range(self.ngens):
            if f[i] == 0:
                continue
            for j in range(i + 1, self.ngens):
                if e[j]:
                    coeff = (coeff * pow(self.commutator(i, j), f[i] * e[j], self.p)) % self.p
        return coeff, g

    def _mult_matrices(self, side: str) -> tuple[FpMatrix, ...]:
        mats = []
        for i in range(self.ngens):
            gen = tuple(1 if k == i else 0 for k in range(self.ngens))
            m = np.zeros((self.dim, self.dim), dtype=np.int64)
            for col, mono in enumerate(self.basis):
                res = self.mono_mul(gen, mono) if side == "left" else self.mono_mul(mono, gen)
                if res is not None:
                    coeff, out = res
                    m[self.index[out], col] = coeff
            mats.append(FpMatrix(self.p, m))
        return tuple(mats)

    @property
    def left_actions(self) -> tuple[FpMatrix, ...]:
        if self._left is None:
            self._left = self._mult_matrices("left")
        return self._left

    @property
    def right_actions(self) -> tuple[FpMatrix, ...]:
        if self._right is None:
            self._right = self._mult_matrices("right")
        return self._right

    def opposite(self) -> "Algebra":
        """Same generators with inverted commutators."""
        qop = {ij: self.field.inv(v) for ij, v in self.q.items()}
        return Algebra(self.field, self.exponents, qop)

    def coproduct_terms(self, i: int):
        """Terms ``(c, u, v)`` of the chosen coproduct on x_i, meaning
        ``c x_u (x) x_v``: ``u`` and ``v`` are generator indices, ``None``
        being the unit.  Both coproducts have degree at most 1 in each factor."""
        if self.coproduct is None:
            raise ValueError("algebra carries no coproduct")
        terms = [(1, i, None), (1, None, i)]
        if self.coproduct == "shifted":
            terms.append((1, i, i))
        return terms

    def antipode_terms(self, i: int):
        """Terms ``(c, k)`` of the antipode on x_i, meaning ``c x_i^k``:
        ``S(x) = -x`` for the primitive coproduct; for the shifted one
        ``1 + t`` is grouplike, so ``S(t) = (1 + t)^{-1} - 1 = sum_{k=1}^{a-1}
        (-t)^k``.  :meth:`DiagonalTensor._prove_antipode` checks them."""
        if self.coproduct is None:
            raise ValueError("algebra carries no coproduct")
        if self.coproduct == "primitive":
            return [(self.p - 1, 1)]
        return [((-1) ** k % self.p, k) for k in range(1, self.exponents[i])]

    def describe(self) -> str:
        qs = ",".join(f"q{i + 1}{j + 1}={v}" for (i, j), v in sorted(self.q.items()))
        cop = self.coproduct or "none"
        exps = ",".join(str(a) for a in self.exponents)
        return f"F{self.p}[{self.ngens} gens; exponents {exps}; {qs or 'q=1'}; coproduct {cop}]"


def qci_algebra(field: FieldSpec, exponents, commutators=None, coproduct=None) -> Algebra:
    """Front door used by configs and tests."""
    return Algebra(field, exponents, commutators, coproduct)


# ----------------------------------------------------------------------
# modules
# ----------------------------------------------------------------------
class Module:
    """A finite module: a dimension and one action matrix per generator.

    A direct sum records its summands and a diagonal tensor its two factors
    (:func:`tensor_diagonal`); both answer :func:`is_projective` from those,
    and a sum also answers :func:`hom_space_basis`.  How :meth:`act` applies
    a generator depends on what is recorded:

    * a tensor, or a sum with one inside, acts through its parts, and its
      action matrices are never assembled;
    * a sum of copies of one module, such as a free module, acts through
      that module, and assembles its action only when :attr:`action` is read;
    * any other sum assembles its action on the first read of :attr:`action`
      or the first :meth:`act`.
    """

    def __init__(self, algebra: Algebra, action, check: bool = True):
        action = tuple(action)
        if len(action) != algebra.ngens:
            raise ValueError("need one action matrix per generator")
        dims = {m.shape for m in action}
        if len(dims) > 1:
            raise ValueError("action matrices of mixed shapes")
        if action and action[0].rows != action[0].cols:
            raise ValueError("action matrices must be square")
        self._setup(algebra, action[0].rows if action else 0, action)
        if check:
            self.verify_relations()

    def _setup(self, algebra: Algebra, dim: int, action, summands=None, factors=None) -> None:
        self.algebra = algebra
        self.dim = dim
        self._action = action
        # Hom blocks out of this module, keyed weakly by their target (:func:`hom_space_basis`)
        self._homs: weakref.WeakKeyDictionary | None = None
        self.summands: tuple[Module, ...] | None = summands
        self.factors: tuple[Module, Module] | None = factors
        # a tensor, or a sum with one inside: its action is never assembled
        self._by_parts = factors is not None or any(S._by_parts for S in summands or ())
        # the one module of a sum of copies, such as a free module: it acts through that module
        self._copies = summands[0] if summands and all(S is summands[0] for S in summands) else None
        self._projective: bool | None = None
        # the DiagonalTensor whose pair made this tensor: it proved the
        # antipode that flags a tensor with a projective factor (is_projective)
        self.hopf: DiagonalTensor | None = None

    @classmethod
    def _recorded(cls, algebra: Algebra, dim: int, summands=None, factors=None) -> "Module":
        """A sum of ``summands`` or the diagonal tensor of ``factors``, with no action stored."""
        M = cls.__new__(cls)
        M._setup(algebra, dim, None, summands, factors)
        return M

    @property
    def action(self) -> tuple[FpMatrix, ...]:
        if self._action is None:
            if self._by_parts:
                raise ValueError("a diagonal tensor acts through its factors (Module.act); "
                                 "its action matrices are never assembled")
            self._action = tuple(_sum_action(self))
        return self._action

    def act(self, g: int, V: FpMatrix) -> FpMatrix:
        """Generator ``g`` on the columns of ``V``.

        A diagonal tensor applies the terms ``c x_u (x) x_v`` of
        ``Delta(x_g)`` one by one through the reshape identity
        (:func:`~smallhom.linalg.kron_apply`), each factor acting by its own
        :meth:`act` (the unit not at all), so a tensor of tensors stays
        unassembled too.  A sum of ``r`` copies of one module ``S`` applies
        ``I_r (x) x_g`` the same way, in one product of ``S``'s size.
        Another sum with a tensor inside acts summand by summand, skipping
        those where ``V`` is zero; any other module acts by its (assembled)
        action.
        """
        if self.factors is not None:
            M, N = self.factors
            out = None
            for c, u, v in self.algebra.coproduct_terms(g):
                maps = (None if w is None else functools.partial(X.act, w) for X, w in ((M, u), (N, v)))
                term = c * kron_apply(V, (M.dim, N.dim), *maps).a
                out = term if out is None else out + term
            return FpMatrix._adopt(self.algebra.p, out)
        if self._copies is not None:
            S = self._copies
            return kron_apply(V, (len(self.summands), S.dim), None, functools.partial(S.act, g))
        if not self._by_parts:
            return self.action[g] @ V
        out = np.zeros((self.dim, V.cols), dtype=np.int64)
        for S, off in _summand_offsets(self):
            block = V.a[off : off + S.dim]
            if block.any():  # a summand where V vanishes is skipped
                out[off : off + S.dim] = S.act(g, FpMatrix._adopt(V.p, block, reduced=True)).a
        return FpMatrix._adopt(V.p, out, reduced=True)

    def verify_relations(self) -> None:
        A = self.algebra
        for i, x in enumerate(self.action):
            if not x.power(A.exponents[i]).is_zero():
                raise CertificationError(f"generator {i} violates x^{A.exponents[i]} = 0")
        for i in range(A.ngens):
            for j in range(i + 1, A.ngens):
                lhs = self.action[j] @ self.action[i]
                rhs = (self.action[i] @ self.action[j]).scale(A.commutator(i, j))
                if lhs != rhs:
                    raise CertificationError(f"generators {i},{j} violate the commutation relation")

    def __repr__(self):
        return f"Module(dim={self.dim} over {self.algebra.describe()})"


def zero_module(A: Algebra) -> Module:
    return Module(A, [FpMatrix.zeros(A.p, 0, 0) for _ in range(A.ngens)], check=False)


def trivial_module(A: Algebra) -> Module:
    """The unit object: all generators act by zero on a line."""
    return Module(A, [FpMatrix.zeros(A.p, 1, 1) for _ in range(A.ngens)], check=False)


def regular_module(A: Algebra) -> Module:
    """A acting on itself: free of rank one, so flagged projective as it is made."""
    M = Module(A, A.left_actions, check=False)
    M._projective = True
    return M


def free_module(A: Algebra, rank: int) -> Module:
    """Free module of the given rank, basis indexed slot-major.

    Basis vector ``slot * dim A + k`` is the monomial ``basis[k]`` sitting in
    copy ``slot``.  Rank 2 and up is the sum of ``rank`` copies of one
    regular module, which stores no action: it acts through that module
    (:meth:`Module.act`), and its action ``kron(I_rank, L_i)`` is assembled
    only if something reads it.  Rank 1 is the regular module, rank 0 the
    zero module.
    """
    if rank < 2:
        return regular_module(A) if rank else zero_module(A)
    return Module._recorded(A, rank * A.dim, summands=(regular_module(A),) * rank)


class ModuleMorphism:
    """A linear map intertwining all generator actions."""

    def __init__(self, source: Module, target: Module, matrix: FpMatrix, check: bool = True):
        self.source = source
        self.target = target
        self.matrix = matrix
        if matrix.shape != (target.dim, source.dim):
            raise ValueError(f"matrix shape {matrix.shape} does not match {(target.dim, source.dim)}")
        if check:
            for xs, xt in zip(source.action, target.action):
                if xt @ matrix != matrix @ xs:
                    raise CertificationError("matrix does not intertwine the actions")

    def __matmul__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        if other.target is not self.source and other.target.dim != self.source.dim:
            raise ValueError("composition shape mismatch")
        return ModuleMorphism(other.source, self.target, self.matrix @ other.matrix, check=False)

    def __add__(self, other: "ModuleMorphism") -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target, self.matrix + other.matrix, check=False)

    def scale(self, c: int) -> "ModuleMorphism":
        return ModuleMorphism(self.source, self.target, self.matrix.scale(c), check=False)

    def is_zero(self) -> bool:
        return self.matrix.is_zero()

    @classmethod
    def zero(cls, source: Module, target: Module) -> "ModuleMorphism":
        return cls(source, target, FpMatrix.zeros(source.algebra.p, target.dim, source.dim), check=False)

    @classmethod
    def identity(cls, M: Module) -> "ModuleMorphism":
        return cls(M, M, FpMatrix.identity(M.algebra.p, M.dim), check=False)


def direct_sum_modules(mods: list[Module]) -> Module:
    """Block-diagonal sum recording its summands; its action is assembled on the first read."""
    return Module._recorded(mods[0].algebra, sum(m.dim for m in mods), summands=tuple(mods))


def _sum_action(M: Module) -> list[FpMatrix]:
    """The block-diagonal action of the recorded sum ``M``."""
    action = []
    for g in range(M.algebra.ngens):
        out = np.zeros((M.dim, M.dim), dtype=np.int64)
        for S, off in _summand_offsets(M):
            out[off : off + S.dim, off : off + S.dim] = S.action[g].a
        action.append(FpMatrix._adopt(M.algebra.p, out, reduced=True))
    return action


def _summand_offsets(M: Module) -> list[tuple[Module, int]]:
    """The recorded summands of ``M`` with their offsets; ``M`` alone if it is no sum."""
    if M.summands is None:
        return [(M, 0)]
    out, off = [], 0
    for S in M.summands:
        out.append((S, off))
        off += S.dim
    return out


# ----------------------------------------------------------------------
# subquotients, covers, resolutions
# ----------------------------------------------------------------------
def radical_subspace(M: Module) -> FpMatrix:
    """Echelonized basis of rad A * M = sum of the generator images."""
    if M.dim == 0 or not M.action:
        return FpMatrix.zeros(M.algebra.p, M.dim, 0)
    return hstack([x for x in M.action]).column_space()


def submodule(M: Module, cols: FpMatrix) -> tuple[Module, ModuleMorphism]:
    """The submodule spanned by the given columns (must be action-stable).

    The basis is echelonized, so the action coordinates are read off its
    pivot rows and re-checked by one product per generator.  Columns that
    are already the echelonized basis (:func:`is_echelonized`), such as a
    cover's kernel, are that basis as they are.
    """
    basis = cols if is_echelonized(cols) else cols.column_space()
    pivots = echelon_pivots(basis)
    acts = []
    for g in range(M.algebra.ngens):
        inside = read_coordinates(basis, pivots, M.act(g, basis))
        if inside is None:
            raise CertificationError("columns do not span an action-stable subspace")
        acts.append(inside)
    sub = Module(M.algebra, acts, check=False)
    # read_coordinates has checked x @ basis == basis @ inside, which is the
    # morphism law of the inclusion
    incl = ModuleMorphism(sub, M, basis, check=False)
    return sub, incl


def quotient_module(M: Module, cols: FpMatrix) -> tuple[Module, ModuleMorphism, FpMatrix]:
    """Quotient by an action-stable subspace; returns (module, proj, section)."""
    qmap, section = quotient_by_subspace(M.algebra.p, cols)
    acts = [qmap @ x @ section for x in M.action]
    quo = Module(M.algebra, acts, check=True)
    proj = ModuleMorphism(M, quo, qmap, check=True)
    return quo, proj, section


def mono_images(M: Module, V: FpMatrix) -> np.ndarray:
    """``x^mono . V`` for every basis monomial, stacked as ``(M.dim, V.cols, dim A)``
    in the lexicographic order of ``A.basis``.

    ``x^mono = x_1^{e_1} ... x_c^{e_c}`` with the last generator acting
    first, so the images are built by generator powers: the stack starts as
    ``V`` and, for ``i = c, ..., 1``, becomes ``[S, x_i S, ..., x_i^{a_i - 1} S]``
    with ``e_i`` the leading index, each power one :meth:`Module.act` on the
    whole stack.  That is ``sum(a_i - 1)`` products of width
    ``cols * prod_{j > i} a_j``, and the leading index of the last round is
    ``e_1``, which gives the lexicographic order.  On ``V = I`` the stack
    holds the action of every monomial, ``[r, c, k]`` being entry ``(r, c)``
    of ``basis[k]``.
    """
    A = M.algebra
    stack = V.a.reshape(M.dim, V.cols, 1)
    for i in reversed(range(A.ngens)):
        width = stack.shape[2]
        power = FpMatrix._adopt(A.p, stack.reshape(M.dim, V.cols * width), reduced=True)
        powers = [power]
        for _ in range(A.exponents[i] - 1):
            powers.append(power := M.act(i, power))
        stack = np.stack([x.a.reshape(M.dim, V.cols, width) for x in powers], axis=2)
        stack = stack.reshape(M.dim, V.cols, A.exponents[i] * width)
    return stack


def free_images_matrix(A: Algebra, target: Module, slot_images: FpMatrix) -> FpMatrix:
    """Matrix of the free-module map sending the unit of slot ``t`` to
    column ``t`` of ``slot_images``; basis vector ``slot*dimA + k`` goes to
    ``basis[k] . slot_images[:, t]``: the slot-major reshape of
    :func:`mono_images`.
    """
    stack = mono_images(target, slot_images)
    return FpMatrix._adopt(A.p, stack.reshape(target.dim, slot_images.cols * A.dim), reduced=True)


@dataclass
class Cover:
    """A projective cover: free module, epimorphism and the echelonized basis
    of its kernel.

    The kernel is built as a submodule of ``free``, with its stability
    check, on the first read of :attr:`kernel` or :attr:`kernel_incl`.
    """

    rank: int
    free: Module
    epi: ModuleMorphism
    ker_cols: FpMatrix

    @functools.cached_property
    def _kernel(self) -> tuple[Module, ModuleMorphism]:
        return submodule(self.free, self.ker_cols)

    @property
    def kernel(self) -> Module:
        return self._kernel[0]

    @property
    def kernel_incl(self) -> ModuleMorphism:
        return self._kernel[1]


def projective_cover(M: Module) -> Cover:
    """Split-local projective cover: free on a basis of M / rad M.

    The generators are the standard vectors at the non-pivot coordinates of
    the echelonized radical, so the cover is deterministic; its kernel lies
    in rad * P by construction.
    """
    A = M.algebra
    tops = nonpivot_columns(M.dim, echelon_pivots(radical_subspace(M)))
    rank = len(tops)
    gens = np.zeros((M.dim, rank), dtype=np.int64)
    gens[tops, range(rank)] = 1
    free = free_module(A, rank)
    epi = ModuleMorphism(free, M, free_images_matrix(A, M, FpMatrix(A.p, gens)), check=False)
    # one elimination gives the kernel echelonized, as the syzygy's basis,
    # and the rank, its pivot count
    ker_cols = epi.matrix.echelon_kernel()
    if epi.matrix.cols - ker_cols.cols != M.dim:
        raise AssertionError("cover must be surjective")
    return Cover(rank, free, epi, ker_cols)


def is_projective(M: Module) -> bool:
    """Projective = free here, computed once per module by one of three routes:

    * a sum is projective iff each summand is, so a recorded sum asks its
      summands;
    * a diagonal tensor made by :meth:`DiagonalTensor.pair` with a
      projective factor is projective: ``P (x) X`` is whenever ``P`` is, in
      the finite tensor category of modules over a Hopf algebra (Etingof,
      Gelaki, Nikshych and Ostrik, *Tensor Categories*, AMS 2015, Section
      4.2).  The pair's context proved the antipode before it made the
      tensor, so this reads flags only;
    * any other module by :func:`_free_by_rank`.
    """
    if M._projective is None:
        if M.summands is not None:
            M._projective = all(is_projective(S) for S in M.summands)
        elif M.hopf is not None and any(is_projective(F) for F in M.factors):
            M._projective = True
        else:
            M._projective = _free_by_rank(M)
    return M._projective


def _free_by_rank(M: Module) -> bool:
    """``dim A * dim(M / rad M) = dim M``, with ``rad M`` the span of the
    generator images: the radical stack ``[x_1 | ... | x_c]`` is ranked by
    :func:`_peeled_rank` from the coordinate lists of :func:`_gen_coords`.
    Their coordinates may repeat and their values may vanish mod p, which
    the rank allows, so they go in as they are.  The stack is never dense.
    """
    A = M.algebra
    rad_rank = 0
    if A.ngens:
        gens = [_gen_coords(M, g) for g in range(A.ngens)]
        rows, cols, vals = (np.concatenate(x) for x in zip(*gens))
        cols += np.repeat(np.arange(A.ngens) * M.dim, [r.size for r, _, _ in gens])
        rad_rank = _peeled_rank((M.dim, A.ngens * M.dim), rows, cols, vals, A.p)
    return A.dim * (M.dim - rad_rank) == M.dim


def free_restrictions(M: Module) -> frozenset[int]:
    """The generators ``x_k`` over whose subalgebra ``F_p[x_k]/(x_k^{a_k})``
    the module ``M`` (with a stored action) is free: those with
    ``rank(x_k on M) = dim M * (a_k - 1) / a_k``.  Each Jordan block of
    ``x_k`` of size ``b`` adds ``b - 1`` to the rank, so the rank reaches that
    value exactly when every block has size ``a_k``."""
    exps = M.algebra.exponents
    return frozenset(k for k, x in enumerate(M.action) if x.rank() * exps[k] == M.dim * (exps[k] - 1))


def _gen_coords(M: Module, g: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Generator ``x_g`` on ``M``, the unit for ``None``, as coordinate
    lists ``(rows, cols, values)``, in which a coordinate may repeat (values
    add up); a recorded module's action is never assembled for them.

    A module with a stored action reads the generator off it.  A sum places
    its summands' lists at their offsets.  A diagonal tensor pairs its
    factors' lists term by term of ``Delta(x_g)``: entries at ``(r, c)`` of
    ``L`` and ``(r', c')`` of ``R`` give the entry of ``L (x) R`` at
    ``(r * dim R + r', c * dim R + c')``, and a factor that is itself a
    tensor or a sum gives its lists the same way.
    """
    if g is None:
        idx = np.arange(M.dim)
        return idx, idx, np.ones(M.dim, dtype=np.int64)
    if M.summands is not None:
        parts = []
        for S, off in _summand_offsets(M):
            r, c, v = _gen_coords(S, g)
            parts.append((r + off, c + off, v))
        return tuple(np.concatenate(x) for x in zip(*parts))
    if M.factors is None:
        a = M.action[g].a
        r, c = a.nonzero()
        return r, c, a[r, c]
    p = M.algebra.p
    L, R = M.factors
    parts = []
    for coeff, u, v in M.algebra.coproduct_terms(g):
        lr, lc, lv = _gen_coords(L, u)
        rr, rc, rv = _gen_coords(R, v)
        parts.append(((lr[:, None] * R.dim + rr).ravel(), (lc[:, None] * R.dim + rc).ravel(),
                      (coeff * lv[:, None] % p * rv).ravel() % p))
    return tuple(np.concatenate(x) for x in zip(*parts))


@dataclass
class Syzygy:
    module: Module
    incl: ModuleMorphism  # into the previous projective
    epi: ModuleMorphism | None = None  # cover map from the next projective


class Resolution:
    """A minimal projective resolution ``... -> P_1 -> P_0 -> M -> 0``.

    ``diff(i)`` is ``P_i -> P_{i-1}`` for ``1 <= i <= length``; the
    augmentation ``P_0 -> M`` and the syzygies ``omega(i) = im diff(i)`` are
    kept with explicit inclusion and cover maps.  The free terms are sums of
    copies of one regular module (:func:`free_module`).  Building ``P_i``
    reads ``omega(i)``, so ``omega(1) .. omega(length)`` are built with the
    resolution, and ``omega(length + 1)``, the kernel of the last cover,
    only when something reads it.
    """

    def __init__(self, module: Module, length: int):
        if length < 0:
            raise ValueError("length must be >= 0")
        self.module = module
        self.algebra = module.algebra
        self.length = length
        # the cover whose kernel is the next syzygy, until omega builds it
        self._cover = projective_cover(module)
        self.projectives = [self._cover.free]
        self.ranks = [self._cover.rank]
        self.aug = self._cover.epi
        self._diffs: list[ModuleMorphism] = []
        self._syzygies: list[Syzygy] = []
        # coboundary spaces and right inverses of the syzygy covers by degree,
        # filled by construction._coboundary_space and construction._syzygy_section;
        # the target's monomial actions, stacked once by construction._delta_matrix
        self._coboundaries: dict[int, FpMatrix] = {}
        self._sections: dict[int, FpMatrix] = {}
        self._target_acts: np.ndarray | None = None
        for i in range(1, length + 1):
            omega = self.omega(i)
            cov = self._cover = projective_cover(omega.module)
            omega.epi = cov.epi
            d = ModuleMorphism(cov.free, self.projectives[i - 1],
                               omega.incl.matrix @ cov.epi.matrix, check=False)
            self.projectives.append(cov.free)
            self.ranks.append(cov.rank)
            self._diffs.append(d)

    def diff(self, i: int) -> ModuleMorphism:
        if not 1 <= i <= self.length:
            raise IndexError(f"differential {i} not computed (length {self.length})")
        return self._diffs[i - 1]

    def omega(self, i: int) -> Syzygy:
        """The i-th syzygy, 1-based; ``omega(i).incl`` lands in P_{i-1}."""
        if not 1 <= i <= self.length + 1:
            raise IndexError(f"syzygy {i} not computed")
        if i > len(self._syzygies):  # the kernel of the last cover, built on first read
            self._syzygies.append(Syzygy(self._cover.kernel, self._cover.kernel_incl))
            self._cover = None
        return self._syzygies[i - 1]

    @property
    def syzygies(self) -> list[Syzygy]:
        """``omega(1) .. omega(length + 1)``."""
        return [self.omega(i) for i in range(1, self.length + 2)]

    def betti(self) -> list[int]:
        return list(self.ranks)


def minimal_resolution(M: Module, length: int) -> Resolution:
    return Resolution(M, length)


def intertwining_system(M: Module, N: Module) -> np.ndarray:
    """Rows of ``X_N h - h X_M = 0`` for each generator, ``h`` vectorized row-major."""
    eye_m, eye_n = np.eye(M.dim, dtype=np.int64), np.eye(N.dim, dtype=np.int64)
    return np.vstack([kron_array(xt.a, eye_m) - kron_array(eye_n, xs.a.T)
                      for xs, xt in zip(M.action, N.action)])


def hom_space_basis(M: Module, N: Module) -> FpMatrix:
    """Basis of the module morphisms M -> N, one morphism per column.

    The columns are the kernel basis of :func:`intertwining_system`, hence
    independent: column ``k`` holds ``h_k[i, j]`` in row ``i * M.dim + j``.

    A recorded sum answers from its summands without forming that system.
    For ``M = (+) M_a`` and ``N = (+) N_b`` each row of the system involves
    the variables of one block ``h_ba`` only, so the system is block diagonal
    after a permutation of its variables, and that permutation keeps the
    row-major order inside each block.  A column of the system is a pivot
    exactly when it is one within its block, so the pivots are the union of
    the blocks' pivots, and the kernel column of each free variable is its
    block's kernel column placed at the block's offsets: row
    ``(noff + i) * M.dim + moff + j`` for block entry ``(i, j)``.  The
    scattered block bases, ordered by their free rows, are therefore this
    basis entry for entry.  Nested sums recurse.  Each pair is solved, or
    scattered from its blocks, once: the result is cached on the source,
    keyed weakly by the target, so the cache makes no reference cycle.  So
    a sum that recurs as a summand, such as a free module, is scattered
    once per target.
    """
    return _hom_kernel(M, N)[0]


def _hom_kernel(M: Module, N: Module) -> tuple[FpMatrix, np.ndarray]:
    """:func:`hom_space_basis` and, for each of its columns, the position
    ``(i, j)`` in ``h`` of its free variable, as a ``2 x cols`` array."""
    if M._homs is None:
        M._homs = weakref.WeakKeyDictionary()
    solved = M._homs.get(N)
    if solved is None:
        solved = M._homs[N] = _solve_hom(M, N)
    return solved


def _solve_hom(M: Module, N: Module) -> tuple[FpMatrix, np.ndarray]:
    """:func:`_hom_kernel` without its cache: the kernel of the intertwining
    system of two modules that are not sums, else the scattered blocks."""
    if M.summands is None and N.summands is None:
        system = FpMatrix(M.algebra.p, intertwining_system(M, N))
        free = nonpivot_columns(system.cols, system.rref()[1])
        return system.kernel_basis(), np.array(np.divmod(free, M.dim), dtype=np.intp)
    targets = _summand_offsets(N)
    blocks = [(Ma, moff, Nb, noff, *_hom_kernel(Ma, Nb)) for Ma, moff in _summand_offsets(M) for Nb, noff in targets]
    # h as an N.dim x M.dim x (columns) array; the columns go block by block
    out = np.zeros((N.dim, M.dim, sum(basis.cols for *_, basis, _ in blocks)), dtype=np.int64)
    frees, start = [], 0
    for Ma, moff, Nb, noff, basis, free in blocks:
        stop = start + basis.cols
        out[noff : noff + Nb.dim, moff : moff + Ma.dim, start:stop] = basis.a.reshape(Nb.dim, Ma.dim, basis.cols)
        frees.append(free + np.array([[noff], [moff]]))
        start = stop
    free = np.hstack(frees)
    order = np.argsort(free[0] * M.dim + free[1])
    flat = out.reshape(N.dim * M.dim, start).take(order, axis=1)
    return FpMatrix._adopt(M.algebra.p, flat, reduced=True), free[:, order]


# ----------------------------------------------------------------------
# diagonal tensor structure (Hopf-style coproduct)
# ----------------------------------------------------------------------
def tensor_diagonal(M: Module, N: Module) -> Module:
    """M (x) N with generators acting through the coproduct, recording its
    factors: it acts through them (:meth:`Module.act`) and its action
    matrices are never assembled.

    x_i acts as the image of Delta(x_i) under the algebra map
    ``A (x) A -> End(M) (x) End(N)``, so the relations hold whenever Delta
    is an algebra map; :meth:`DiagonalTensor.pair` proves that once.
    """
    A = M.algebra
    if A is not N.algebra and A.describe() != N.algebra.describe():
        raise ValueError("tensor factors over different algebras")
    if A.coproduct is None:
        raise ValueError("diagonal tensor needs an algebra with coproduct")
    return Module._recorded(A, M.dim * N.dim, factors=(M, N))


# ----------------------------------------------------------------------
# enveloping algebra and bimodules
# ----------------------------------------------------------------------
@dataclass
class Enveloping:
    """``A (x) A^op`` presented as another algebra of the same family.

    Generators ``0..c-1`` act on the left, ``c..2c-1`` on the right; the
    cross commutators are 1 and the right block carries the inverted ones.
    """

    base: Algebra
    algebra: Algebra

    @property
    def c(self) -> int:
        return self.base.ngens

    def left_part(self, M: Module) -> tuple[FpMatrix, ...]:
        return M.action[: self.c]

    def right_part(self, M: Module) -> tuple[FpMatrix, ...]:
        return M.action[self.c :]


def enveloping(A: Algebra) -> Enveloping:
    c = A.ngens
    q = {}
    for i in range(c):
        for j in range(i + 1, c):
            v = A.commutator(i, j)
            if v != 1:
                q[(i, j)] = v
                q[(c + i, c + j)] = A.field.inv(v)
    env_alg = Algebra(A.field, A.exponents + A.exponents, q)
    return Enveloping(A, env_alg)


def regular_bimodule(env: Enveloping) -> Module:
    """The algebra as a module over its enveloping algebra."""
    A = env.base
    return Module(env.algebra, A.left_actions + A.right_actions, check=True)


def restrict_left(env: Enveloping, M: Module) -> Module:
    """Underlying left module of a bimodule."""
    return Module(env.base, env.left_part(M), check=False)


def restrict_right(env: Enveloping, M: Module) -> Module:
    """Underlying right module, as a left module over the opposite algebra."""
    return Module(env.base.opposite(), env.right_part(M), check=False)


def one_sided_projective(env: Enveloping, M: Module) -> bool:
    return is_projective(restrict_left(env, M)) and is_projective(restrict_right(env, M))


def tensor_unit(env: Enveloping, M: Module) -> Module:
    """``M (x)_A k = M / M rad A`` for a bimodule ``M``: each ``x_i`` kills ``k``, so the
    relations ``(b x_i) (x) v - b (x) x_i v`` span the image of the right generators.
    :func:`quotient_module` checks that span stable and the quotient's relations."""
    return quotient_module(restrict_left(env, M), hstack(env.right_part(M)))[0]


# ----------------------------------------------------------------------
# tensor context: the diagonal tensor of complexes
# ----------------------------------------------------------------------
class DiagonalTensor:
    """Tensor over the ground field with the diagonal (coproduct) action.

    The first :meth:`pair` proves that the coproduct is an algebra map, which
    gives every diagonal tensor over the algebra its relations, and that the
    antipode is one, which flags a tensor with a projective factor
    (:func:`is_projective`).
    """

    def __init__(self, algebra: Algebra, budget: Budget | None = None):
        if algebra.coproduct is None:
            raise ValueError("diagonal tensor needs a coproduct")
        self.algebra = algebra
        self.budget = budget or Budget()
        self._proved = False
        # the tensor of each factor pair while it lives; it holds its factors,
        # so their ids stay theirs while the entry does
        self._pairs: weakref.WeakValueDictionary = weakref.WeakValueDictionary()

    def _prove_coproduct(self) -> None:
        """Check that Delta sends each defining relation to zero in A (x) A.

        ``regular (x) regular`` is the regular module of A (x) A: faithful and
        cyclic on ``v = 1 (x) 1``, so an element is zero iff it kills ``v``.
        Matrix-vector chains check the relations on ``v``, each step one
        :meth:`Module.act` at factor size.  Budgeted like a pair, as the stage
        ``coproduct proof``.
        """
        A = self.algebra
        self.budget.check(A.dim * A.dim, "coproduct proof", (A.dim, A.dim))
        T = tensor_diagonal(regular_module(A), regular_module(A))
        v = np.zeros((T.dim, 1), dtype=np.int64)
        v[A.unit_index * (A.dim + 1)] = 1  # vec(E_unit): the unit in both factors
        v = FpMatrix._adopt(A.p, v, reduced=True)
        xv = [T.act(i, v) for i in range(A.ngens)]
        for i, w in enumerate(xv):
            for _ in range(A.exponents[i] - 1):
                w = T.act(i, w)
            if not w.is_zero():
                raise CertificationError(f"the coproduct violates x_{i}^{A.exponents[i]} = 0")
            for j in range(i + 1, A.ngens):
                if T.act(j, xv[i]) != T.act(i, xv[j]).scale(A.commutator(i, j)):
                    raise CertificationError(f"the coproduct violates the commutation of {i},{j}")

    def _prove_antipode(self) -> None:
        """Check that ``S`` of :meth:`Algebra.antipode_terms` is an antipode.

        ``S`` extends from the generators to an anti-algebra map of A when it
        respects the relations: ``S(x_i)^{a_i} = 0`` and, as ``x_j x_i =
        q_ij x_i x_j``, ``S(x_i) S(x_j) = q_ij S(x_j) S(x_i)``.  Delta being an
        algebra map (:meth:`_prove_coproduct`), the elements ``a`` with
        ``m(S (x) 1)Delta(a) = eps(a) = m(1 (x) S)Delta(a)`` then form a
        subalgebra, so checking both on the generators, where ``eps`` is zero,
        proves them on A.  An element is checked as its action on the regular
        module, which is faithful: a matrix of size dim A.  ``S(x_i)`` sums
        powers of ``x_i``'s matrix, and each term of ``Delta(x_i)`` is a
        product of at most two generator matrices.
        """
        A = self.algebra
        X = dict(enumerate(A.left_actions))

        def total(terms) -> FpMatrix:  # sum of c * m over (c, m), None the unit, in one array wrapped once
            acc = np.zeros((A.dim, A.dim), dtype=np.int64)
            for c, m in terms:  # at most max(a_i - 1, 3) terms, each entry below p^2 <= 2^40
                acc += (c % A.p) * (np.eye(A.dim, dtype=np.int64) if m is None else m.a)
            return FpMatrix._adopt(A.p, acc)

        S = {}
        for i in range(A.ngens):
            terms = A.antipode_terms(i)
            powers = [None, X[i]]  # x_i^k at index k, None the unit
            while len(powers) <= max(k for _, k in terms):
                powers.append(X[i] @ powers[-1])
            S[i] = total((c, powers[k]) for c, k in terms)

        def convolve(left, right, terms) -> FpMatrix:  # sum of c left[u] right[v], None the unit
            return total((c, _factor_product(left.get(u), right.get(v))) for c, u, v in terms)

        for i in range(A.ngens):
            if not S[i].power(A.exponents[i]).is_zero():
                raise CertificationError(f"the antipode violates x_{i}^{A.exponents[i]} = 0")
            for j in range(i + 1, A.ngens):
                if S[i] @ S[j] != (S[j] @ S[i]).scale(A.commutator(i, j)):
                    raise CertificationError(f"the antipode violates the commutation of {i},{j}")
            terms = A.coproduct_terms(i)
            if not (convolve(S, X, terms).is_zero() and convolve(X, S, terms).is_zero()):
                raise CertificationError(f"the antipode violates m(S (x) 1)Delta(x_{i}) = 0 = m(1 (x) S)Delta(x_{i})")

    def pair(self, M: Module, N: Module) -> Module:
        """``M (x) N``, one module per pair of factor objects: a pair asked
        for again while its tensor lives gets that tensor, flags and all, as
        the tensor tower's top term gets the parameter search's tensor.  A
        sum of one module is that module here (same basis, same action), so
        at rank 3 the tower's top term, ``(K_1 (x) K_2) (x) K_3`` with its
        left factor a one-summand tower term, is the search's tensor too.
        The first call proves the coproduct and the antipode."""
        M, N = (X.summands[0] if X.summands is not None and len(X.summands) == 1 else X for X in (M, N))
        self.budget.check(M.dim * N.dim, factors=(M.dim, N.dim))
        if not self._proved:
            self._prove_coproduct()
            self._prove_antipode()
            self._proved = True
        T = self._pairs.get((id(M), id(N)))
        if T is None:
            T = self._pairs[id(M), id(N)] = tensor_diagonal(M, N)
            T.hopf = self
        return T
