"""Bounded chain complexes of modules, chain maps, cones and tensors.

Homological (lower) indexing: differentials go from degree ``i`` to
``i - 1`` and ``d_i . d_{i+1} = 0`` is checked whenever a complex is
built.  The sign conventions, fixed once and recorded in certificates:

* suspension by ``m`` re-indexes objects upward and multiplies the
  differentials by ``(-1)^m``;
* a chain map of shift ``m`` from C to D is stored by components
  ``comps[j]: C_j -> D_{j+m}`` and represents a degree-zero map from the
  m-fold suspension of C, so its law is
  ``(-1)^m comps[j-1] d_j = d_{j+m} comps[j]``;
* the mapping cone of such a map has objects ``C_{i-1-m} (+) D_i`` (source
  part first) and differential blocks ``[-d_C, 0; -f, d_D]``;
* tensor products of complexes use the Koszul rule
  ``d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy``; a multi-factor product
  is built as left-associated pairs, which fixes the order of its summands
  (:func:`tensor_layout`), and a map on factor ``i`` carries the sign of
  passing the factors before it.

A basis of homology is one record per degree, :class:`HomologySpace`:
cycles ``Z`` and cocycles ``W`` with ``W Z = I``, ``W d = 0``, the induced
module and a homotopy ``h`` with ``Z W - 1 = -(d h + h d)``: a contraction,
which proves ``dim H`` = the number of classes with no rank.  Constructors:

* :func:`homology_space` forms cycles modulo boundaries, for complexes of
  factor size;
* :func:`kunneth_classes` places Kronecker products of the factors' records
  in the summand slots of a tensor tower, certified by
  :func:`certify_classes`.

Each quantity has one reader on the record: :meth:`HomologySpace.class_of`
(a cycle's coordinates, ``W v`` once ``d v = 0`` holds),
:meth:`HomologySpace.action` (``W (x Z)``, acting on a sum summand by
summand), :func:`induced_on_homology` (the classes of ``f_j Z_j``) and, for
a cone, :func:`cone_homology_dims`.  :func:`homology_rank_dims` is the
independent rank route the tests compare with.

Tower laws are checked on Kronecker blocks.  Every map on a tensor tower,
its differential, a map lifted from one factor and the Kunneth contraction,
is a sum of signed c-fold Kronecker products ``e_1 (x) ... (x) e_c`` of
factor matrices, so :func:`_slot_blocks` records it as such terms
(:class:`~smallhom.linalg.KronBlocks`), and composites compose their terms
factor by factor.  One routine, :func:`vanishes`, checks ``d . d = 0``,
every chain-map law and the homotopy identity, block by block at factor
size, so no check multiplies two tower-size matrices.  A plain map is the
one-block, one-term case.  Thin products against the Kunneth classes go
through the blocks too, and a cone's differentials are grids of blocks, so
no tower or cone matrix is assembled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cache, cached_property, partial, reduce
from itertools import accumulate
from math import prod
from operator import getitem
from typing import Callable

import numpy as np

from .linalg import FpMatrix, KronBlocks, block, kron_array, nonpivot_columns, quotient_by_subspace, read_coordinates
from .algebra import (
    CertificationError,
    Module,
    ModuleMorphism,
    direct_sum_modules,
    hom_space_basis,
    is_projective,
    zero_module,
)


class BlockMorphism(ModuleMorphism):
    """A module map between tensor terms, kept as :class:`KronBlocks`
    and unchecked; its dense matrix is assembled on the first read of
    :attr:`matrix`.  Products, sums and zero tests stay on the blocks."""

    def __init__(self, source: Module, target: Module, blocks: KronBlocks):
        if blocks.shape != (target.dim, source.dim):
            raise ValueError(f"blocks of shape {blocks.shape} do not match {(target.dim, source.dim)}")
        self.source = source
        self.target = target
        self.blocks = blocks

    @property
    def matrix(self) -> FpMatrix:
        return self.blocks.dense()

    def __matmul__(self, other: ModuleMorphism) -> "BlockMorphism":
        return BlockMorphism(other.source, self.target, self.blocks @ blocks_of(other))

    def __add__(self, other: ModuleMorphism) -> "BlockMorphism":
        return BlockMorphism(self.source, self.target, self.blocks + blocks_of(other))

    def scale(self, c: int) -> "BlockMorphism":
        return BlockMorphism(self.source, self.target, self.blocks.scale(c))

    def is_zero(self) -> bool:
        return self.blocks.is_zero()


def blocks_of(f: ModuleMorphism | FpMatrix | KronBlocks) -> KronBlocks:
    """The Kronecker blocks of a map; a plain map or matrix is one block of one term."""
    if isinstance(f, KronBlocks):
        return f
    if isinstance(f, BlockMorphism):
        return f.blocks
    return KronBlocks.single(f if isinstance(f, FpMatrix) else f.matrix)


def apply_map(f: ModuleMorphism | FpMatrix | KronBlocks, V: FpMatrix) -> FpMatrix:
    """``f V``: Kronecker blocks at factor size (:meth:`KronBlocks.apply`), a
    plain map or matrix by one product."""
    if isinstance(f, (KronBlocks, BlockMorphism)):
        return blocks_of(f).apply(V)
    return (f if isinstance(f, FpMatrix) else f.matrix) @ V


def vanishes(products: list[tuple[int, object, object]]) -> bool:
    """Whether ``sum c * (a o b)`` is zero, each of ``a``, ``b`` a map or
    matrix (:func:`blocks_of`) and ``None`` a zero map: the one check of every
    chain law and of the homotopy identity.

    The sum is taken on Kronecker blocks, so each block is summed from factor
    products and tested for zero at factor size; on plain maps this is one
    product per pair and one comparison.
    """
    total = None
    for c, a, b in products:
        if a is None or b is None:
            continue
        term = (blocks_of(a) @ blocks_of(b)).scale(c)
        total = term if total is None else total + term
    return total is None or total.is_zero()


class ChainComplex:
    """A bounded complex; degrees with zero objects are simply absent."""

    def __init__(self, algebra, objects: dict[int, Module], diffs: dict[int, ModuleMorphism], check: bool = True):
        self.algebra = algebra
        self.objects = {i: m for i, m in objects.items() if m.dim > 0}
        self.diffs = {}
        for i, d in diffs.items():
            if i in self.objects and (i - 1) in self.objects:
                self.diffs[i] = d
            elif not d.is_zero():
                raise CertificationError(f"nonzero differential {i} attached to a zero object")
        self._hcache: dict[int, HomologySpace] = {}
        if check:
            self.validate()

    def validate(self) -> None:
        for i, d in self.diffs.items():
            if d.source.dim != self.objects[i].dim or d.target.dim != self.objects[i - 1].dim:
                raise ValueError(f"differential {i} has inconsistent endpoints")
        bad = self.square_defects()
        if bad:
            raise CertificationError(f"d_{bad[0]} d_{bad[0] + 1} != 0")

    def square_defects(self) -> list[int]:
        """The degrees ``i`` with ``d_i d_{i+1} != 0``, checked on Kronecker blocks."""
        return [i for i in sorted(self.diffs) if not vanishes([(1, self.diffs[i], self.diffs.get(i + 1))])]

    # -- structure ------------------------------------------------------
    def degrees(self) -> list[int]:
        return sorted(self.objects)

    @property
    def lo(self) -> int:
        return min(self.objects) if self.objects else 0

    @property
    def hi(self) -> int:
        return max(self.objects) if self.objects else 0

    @cached_property
    def _zero(self) -> Module:
        """The zero object of every absent degree, built on the first read of one."""
        return zero_module(self.algebra)

    def module_at(self, i: int) -> Module:
        obj = self.objects.get(i)
        return self._zero if obj is None else obj

    def diff_at(self, i: int) -> ModuleMorphism:
        d = self.diffs.get(i)
        if d is None:
            d = ModuleMorphism.zero(self.module_at(i), self.module_at(i - 1))
        return d

    def dims(self) -> dict[int, int]:
        return {i: self.objects[i].dim for i in self.degrees()}

    def total_dim(self) -> int:
        return sum(m.dim for m in self.objects.values())

    def __repr__(self):
        return f"ChainComplex({self.dims()})"


def shift_complex(C: ChainComplex, m: int) -> ChainComplex:
    """Suspension: objects re-indexed by +m, differentials times (-1)^m."""
    objects = {i + m: mod for i, mod in C.objects.items()}
    diffs = {i + m: d.scale(-1) if m % 2 else d for i, d in C.diffs.items()}
    return ChainComplex(C.algebra, objects, diffs, check=False)


def euler_characteristic(C: ChainComplex) -> int:
    return sum((-1) ** i * m.dim for i, m in C.objects.items())


# ----------------------------------------------------------------------
# homology: one record per degree
# ----------------------------------------------------------------------
@dataclass
class HomologySpace:
    """One degree's homology: representative cycles ``reps`` (``Z``, as
    columns) and cocycles ``duals`` (``W``, as rows) of the complex's
    ``term`` in that degree, with ``W Z = I`` and ``W`` zero on boundaries.

    ``d`` is the outgoing differential, ``None`` when it is zero.  Then
    ``W`` reads the class of any cycle, and ``W (x Z)`` is the action of a
    generator ``x`` on homology.  A Kunneth record keeps ``W`` as
    :class:`~smallhom.linalg.KronBlocks`, so it is applied at factor size.
    ``contract(record)`` gives the :attr:`contraction`, and the first read
    of :attr:`module` builds the induced module and checks its relations.
    """

    term: Module
    d: ModuleMorphism | None
    reps: FpMatrix
    duals: FpMatrix | KronBlocks
    contract: Callable[["HomologySpace"], tuple]

    @property
    def dim(self) -> int:
        return self.reps.cols

    @cached_property
    def contraction(self) -> tuple[FpMatrix | KronBlocks, FpMatrix | KronBlocks | None]:
        """``(Z W, h)``, ``h`` going to the next degree (``None`` when zero),
        built on first read."""
        return self.contract(self)

    def read(self, vectors: FpMatrix) -> FpMatrix:
        """``W`` on the columns of ``vectors``."""
        return apply_map(self.duals, vectors)

    def class_of(self, vectors: FpMatrix) -> FpMatrix:
        """Homology classes of cycle vectors given in the term's coordinates."""
        if self.d is not None and not apply_map(self.d, vectors).is_zero():
            raise CertificationError("vector is not a cycle")
        return self.read(vectors)

    def action(self) -> list[FpMatrix]:
        """Each generator on homology, ``W (x Z)``; the term acts through
        its summands and tensor factors (:meth:`~smallhom.algebra.Module.act`)."""
        return [self.read(self.term.act(g, self.reps)) for g in range(self.term.algebra.ngens)]

    @cached_property
    def module(self) -> Module:
        """The homology module, built and its relations checked on the first read."""
        return Module(self.term.algebra, self.action(), check=True)


def homology_space(C: ChainComplex, i: int) -> HomologySpace:
    """Degree ``i`` homology as cycles modulo boundaries.

    ``Z`` is the section of the quotient by the boundaries' cycle
    coordinates, and ``W`` is the quotient map on the free rows of the kernel
    basis, so ``W Z = I``; the free rows of a boundary are its cycle
    coordinates, which the quotient map kills.  The checks that boundaries
    are cycles and that the cycles are stable under the action run here; the
    induced module waits for its first read (:attr:`HomologySpace.module`).

    At an end of the complex the shape gives part of this (Weibel 1994,
    section 1.1), and the same ``Z`` and ``W`` are built without it:

    * with no outgoing differential, ``H_i`` is the cokernel of ``d_{i+1}``.
      Every vector is a cycle, so the kernel basis is the identity and ``Z``
      and ``W`` are the section and the map of the quotient by the image.
      Neither check is made: against the identity basis the read-back
      ``basis @ v[rows] == v`` holds for every ``v``, so neither can fail;
    * with no incoming differential, ``H_i`` is the kernel of ``d_i``: the
      quotient is by zero, so ``Z`` is the kernel basis and ``W`` the
      identity on its free rows.  The action-stability check still runs,
      as a differential that is no module map fails it.
    """
    cached = C._hcache.get(i)
    if cached is not None:
        return cached
    p = C.algebra.p
    obj = C.module_at(i)
    out, up = C.diffs.get(i), C.diffs.get(i + 1)
    d_out = None if out is None else out.matrix
    if out is None and up is None:
        Z = W = FpMatrix.identity(p, obj.dim)
    elif out is None:
        W, Z = quotient_by_subspace(p, up.matrix)
    else:
        cycles = d_out.kernel_basis()
        free = nonpivot_columns(d_out.cols, d_out.rref()[1])
        if up is not None:
            boundary_coords = read_coordinates(cycles, free, up.matrix)
            if boundary_coords is None:
                raise AssertionError("boundaries must be cycles")
        for g in range(C.algebra.ngens):
            if read_coordinates(cycles, free, obj.act(g, cycles)) is None:
                raise AssertionError("cycles must be action-stable")
        if up is None:  # the quotient by zero
            qmap, Z = FpMatrix.identity(p, len(free)), cycles
        else:
            qmap, section = quotient_by_subspace(p, boundary_coords)
            Z = cycles @ section
        duals = np.zeros((qmap.rows, obj.dim), dtype=np.int64)
        duals[:, free] = qmap.a
        W = FpMatrix._adopt(p, duals, reduced=True)

    def contract(record: HomologySpace) -> tuple:
        if record.reps.cols != record.duals.rows:
            raise CertificationError(f"the degree-{i} classes do not pair to the identity")
        return record.reps @ record.duals, up and _boundary_homotopy(d_out, up.matrix, Z @ W)

    hs = HomologySpace(obj, out, Z, W, contract)
    C._hcache[i] = hs
    return hs


def _boundary_homotopy(d_out: FpMatrix | None, d_in: FpMatrix, projection: FpMatrix) -> FpMatrix:
    """``h_i`` with ``d h + h d = 1 - Z W`` on ``C_i``, whose differentials
    are ``d_i = d_out`` (``None`` when absent) and ``d_{i+1} = d_in``.

    ``C_i`` is the classes, the boundaries and the pivot coordinates of
    ``d_i``'s echelon form ``R``, where ``W`` vanishes and onto which ``J R``
    projects (``J`` puts row ``t`` at pivot ``t``).  ``h_i`` inverts
    ``d_{i+1}`` on its pivot coordinates: ``d_{i+1} h_i = 1 - Z W - J R``
    and ``h_{i-1} d_i = J R``.
    """
    rhs = np.eye(projection.rows, dtype=np.int64) - projection.a
    if d_out is not None:
        red, pivots = d_out.rref()
        rhs[list(pivots)] -= red.a[: len(pivots)]
    in_pivots = list(d_in.rref()[1])
    x = d_in.take_columns(in_pivots).solve(FpMatrix(d_in.p, rhs))
    if x is None:
        raise AssertionError("boundaries must have preimages")
    h = np.zeros((d_in.cols, projection.rows), dtype=np.int64)
    h[in_pivots] = x.a
    return FpMatrix._adopt(d_in.p, h, reduced=True)


def homology_rank_dims(C: ChainComplex) -> dict[int, int]:
    """Homology dimensions from differential ranks alone.

    ``dim H_i = dim C_i - rank d_i - rank d_{i+1}``; independent of the
    subquotient machinery in :func:`homology_space`, so the tests and the
    selftest compare with it.  It ranks each differential's matrix, which
    assembles a map kept as Kronecker blocks (:class:`BlockMorphism`): on a
    tensor tower or a cone it is the reference, not the route.
    """
    ranks = {i: d.matrix.rank() for i, d in C.diffs.items()}
    out = {}
    for i in range(C.lo, C.hi + 1):
        h = C.module_at(i).dim - ranks.get(i, 0) - ranks.get(i + 1, 0)
        if h < 0:
            raise AssertionError(f"rank bookkeeping must stay non-negative: dim H_{i} = {h}")
        if h:
            out[i] = h
    return out


# ----------------------------------------------------------------------
# chain maps
# ----------------------------------------------------------------------
class ChainMap:
    """A chain map of shift ``m``: components ``comps[j]: C_j -> D_{j+m}``."""

    def __init__(self, source: ChainComplex, target: ChainComplex, shift: int,
                 comps: dict[int, ModuleMorphism], check: bool = True):
        self.source = source
        self.target = target
        self.shift = shift
        self.comps = {j: f for j, f in comps.items() if not f.is_zero()}
        if check:
            self.validate()

    def component(self, j: int) -> ModuleMorphism:
        f = self.comps.get(j)
        if f is None:
            f = ModuleMorphism.zero(self.source.module_at(j), self.target.module_at(j + self.shift))
        return f

    def validate(self) -> None:
        for j, f in self.comps.items():
            if f.source.dim != self.source.module_at(j).dim:
                raise ValueError(f"component {j} has wrong source")
            if f.target.dim != self.target.module_at(j + self.shift).dim:
                raise ValueError(f"component {j} has wrong target")
        bad = self.law_defects()
        if bad:
            raise CertificationError(f"chain-map law fails at degree {bad[0]}")

    def law_defects(self) -> list[int]:
        """The degrees ``j`` where ``(-1)^m f_{j-1} d_j = d_{j+m} f_j`` fails,
        checked on Kronecker blocks."""
        sign = -1 if self.shift % 2 else 1
        degrees = set(self.comps)
        degrees.update(j + 1 for j in self.comps)
        degrees.update(self.source.diffs.keys())
        return [j for j in sorted(degrees)
                if not vanishes([(sign, self.comps.get(j - 1), self.source.diffs.get(j)),
                                 (-1, self.target.diffs.get(j + self.shift), self.comps.get(j))])]

    def is_chain_map(self) -> bool:
        try:
            self.validate()
            return True
        except ValueError:
            return False

    def is_zero(self) -> bool:
        return not self.comps

    def __add__(self, other: "ChainMap") -> "ChainMap":
        if (self.source, self.target, self.shift) != (other.source, other.target, other.shift):
            raise ValueError("can only add parallel chain maps")
        comps = dict(self.comps)
        for j, g in other.comps.items():
            comps[j] = comps[j] + g if j in comps else g
        return ChainMap(self.source, self.target, self.shift, comps, check=False)

    @classmethod
    def identity(cls, C: ChainComplex) -> "ChainMap":
        return cls(C, C, 0, {i: ModuleMorphism.identity(m) for i, m in C.objects.items()}, check=False)


def compose_shifted(f: ChainMap, g: ChainMap) -> ChainMap:
    """The graded product ``f . g = f o (suspension of g)``.

    For self maps this is the multiplication making the shifts add; the
    components of a suspended map are unchanged, so the composite at degree
    ``j`` is ``f.comps[j + g.shift] o g.comps[j]``.  Two lifts on one tensor
    tower compose their Kronecker terms (:class:`BlockMorphism`).
    """
    if g.target is not f.source and g.target.dims() != f.source.dims():
        raise ValueError("composition endpoint mismatch")
    comps = {}
    for j, gj in g.comps.items():
        fj = f.comps.get(j + g.shift)
        if fj is not None:
            comps[j] = fj @ gj
    return ChainMap(g.source, f.target, f.shift + g.shift, comps, check=False)


def mapping_cone(f: ChainMap) -> ChainComplex:
    """Cone of ``f`` after absorbing its shift.

    With ``X`` the suspended source, the cone has ``X_{i-1} (+) T_i`` in
    degree ``i`` and differential ``[-d_X, 0; -f, d_T]``, a grid of those
    blocks assembled only when read.  Its square is
    ``[d_X^2, 0; f d_X - d_T f, d_T^2]``, so the cone of two complexes is a
    complex exactly when ``f`` is a chain map: that law, checked on the
    blocks of ``f``, stands for a check of the assembled cone.
    """
    f.validate()
    X = shift_complex(f.source, f.shift)
    T = f.target
    objects = {}
    diffs = {}
    for i in range(min(X.lo + 1, T.lo), max(X.hi + 1, T.hi) + 1):
        xs, ts = X.module_at(i - 1), T.module_at(i)
        if xs.dim + ts.dim:
            objects[i] = direct_sum_modules([xs, ts])
    for i in sorted(objects):
        if (i - 1) not in objects:
            continue
        dx, u, dt = (m and blocks_of(m) for m in (X.diffs.get(i - 1), f.comps.get(i - 1 - f.shift), T.diffs.get(i)))
        kb = KronBlocks.grid(f.source.algebra.p, [[dx and dx.scale(-1), None], [u and u.scale(-1), dt]],
                             [S.dim for S in objects[i - 1].summands], [S.dim for S in objects[i].summands])
        diffs[i] = BlockMorphism(objects[i], objects[i - 1], kb)
    return ChainComplex(f.source.algebra, objects, diffs, check=False)


def cone_homology_dims(u: ChainMap, classes: dict[int, HomologySpace]) -> dict[int, int]:
    """The cone's homology dimensions for a self map ``u`` of shift ``s`` of
    a complex with certified records ``classes``, by the long exact sequence:
    the cokernel of ``u_*`` into degree ``i`` plus its kernel on ``i - 1 - s``."""
    s = u.shift
    dims = {n: h.dim for n, h in classes.items()}
    ranks = {j: m.rank() for j, m in induced_on_homology(u, classes).items()}
    return {i: h for i in sorted(set(dims) | {n + 1 + s for n in dims})
            if (h := dims.get(i, 0) - ranks.get(i - s, 0) + dims.get(i - 1 - s, 0) - ranks.get(i - 1 - s, 0))}


def is_null_homotopic(f: ChainMap) -> tuple[bool, dict[int, ModuleMorphism] | None]:
    """Solve ``comps[j] = d h_j + (-1)^shift h_{j-1} d`` for module maps
    ``h_j: S_j -> T_{j+shift+1}``; returns the witness on success.

    Each unknown is a combination of a basis of its Hom space, ``h_j = B_j
    c_j`` with ``B_j`` from :func:`~smallhom.algebra.hom_space_basis`, so the
    system holds only the homotopy equations, their coefficient blocks times
    ``B_j``, and is solved for the coordinates ``c_j``.  The witness is
    checked to be module maps and the identity is re-checked exactly.
    """
    if f.is_zero():
        return True, {}
    S, T, s = f.source, f.target, f.shift
    p = S.algebra.p
    sign = -1 if s % 2 else 1
    blocks = {}  # degree j -> (source module, target module, B_j, column offset)
    nvars = 0
    for j in S.degrees():
        smod, tmod = S.module_at(j), T.module_at(j + s + 1)
        if smod.dim * tmod.dim:
            basis = hom_space_basis(smod, tmod)
            blocks[j] = (smod, tmod, basis, nvars)
            nvars += basis.cols

    def coefficients(row: np.ndarray, j: int, coef: np.ndarray) -> None:
        _, _, basis, off = blocks[j]
        row[:, off : off + basis.cols] = (FpMatrix(p, coef) @ basis).a

    # homotopy equations, one per degree with anything nonzero
    eqdegs = sorted(set(f.comps) | set(blocks) | {j + 1 for j in blocks})
    rows, rhs = [], []
    for j in eqdegs:
        tdim, sdim = T.module_at(j + s).dim, S.module_at(j).dim
        if tdim * sdim == 0:
            continue
        row = np.zeros((tdim * sdim, nvars), dtype=np.int64)
        if j in blocks:
            coefficients(row, j, kron_array(T.diff_at(j + s + 1).matrix.a, np.eye(sdim, dtype=np.int64)))
        if (j - 1) in blocks:
            coefficients(row, j - 1, sign * kron_array(np.eye(tdim, dtype=np.int64), S.diff_at(j).matrix.a.T))
        rows.append(row)
        rhs.append(f.component(j).matrix.a.reshape(-1, 1))
    sol = FpMatrix(p, np.vstack(rows)).solve(FpMatrix(p, np.vstack(rhs)))
    if sol is None:
        return False, None
    witness = {}
    for j, (smod, tmod, basis, off) in blocks.items():
        h = basis @ FpMatrix(p, sol.a[off : off + basis.cols])
        witness[j] = ModuleMorphism(smod, tmod, FpMatrix(p, h.a.reshape(tmod.dim, smod.dim)), check=True)
    # re-check the homotopy identity exactly
    for j in eqdegs:
        if not vanishes([(1, T.diffs.get(j + s + 1), witness.get(j)), (sign, witness.get(j - 1), S.diffs.get(j)),
                         (-1, ModuleMorphism.identity(T.module_at(j + s)), f.comps.get(j))]):
            raise AssertionError("homotopy witness failed re-check")
    return True, witness


def induced_on_homology(f: ChainMap, classes: dict[int, HomologySpace]) -> dict[int, FpMatrix]:
    """Matrices of H_j -> H_{j+shift} for a self map ``f`` of the complex
    whose homology records are ``classes``, nonzero source degrees only:
    the classes of ``f_j Z_j``, each checked to be a cycle."""
    out = {}
    for j, h in classes.items():
        if not h.dim:
            continue
        target, fj = classes.get(j + f.shift), f.comps.get(j)
        if fj is None:
            out[j] = FpMatrix.zeros(f.source.algebra.p, target.dim if target is not None else 0, h.dim)
        else:
            out[j] = target.class_of(apply_map(fj, h.reps))
    return out


# ----------------------------------------------------------------------
# tensor products of complexes
# ----------------------------------------------------------------------
@dataclass
class SummandSlot:
    """One summand of a tensor term: a degree ``sigma_f`` of each factor and
    the dimension of that factor's object there."""

    degrees: tuple[int, ...]
    dims: tuple[int, ...]

    @property
    def dim(self) -> int:
        return prod(self.dims)


def tensor_layout(*factor_dims: dict[int, int]) -> dict[int, list[SummandSlot]]:
    """The summand slots of the tensor of complexes with these graded
    dimensions, in the order :func:`tensor_tower` builds them: by total
    degree, then by the degree of each left-associated partial product, from
    the longest down (the key ``accumulate(sigma)`` reversed).  Under the
    diagonal coproduct ``dim(M (x) N) = dim M * dim N``, so the layout needs
    no module."""
    layout: dict[int, list[SummandSlot]] = {}
    for sigma in sorted(itertools.product(*factor_dims), key=lambda s: tuple(accumulate(s))[::-1]):
        layout.setdefault(sum(sigma), []).append(SummandSlot(sigma, tuple(map(getitem, factor_dims, sigma))))
    return layout


def check_tensor_sizes(ctx, stage: str, factor_dims: list[dict[int, int]]) -> list[dict[int, list[SummandSlot]]]:
    """Check ``ctx``'s budget for every pair of a left-associated tensor
    before any of them is built, and return the slots of each pair.

    ``factor_dims`` holds the graded dimensions of the factors, one dict
    per factor (a module is ``{0: dim}``).  Each stage's slots come from
    :func:`tensor_layout`, visited in build order, and sum into the next
    stage's left factor, so this raises exactly when a later
    :meth:`~smallhom.algebra.DiagonalTensor.pair` call would.
    """
    stages, acc = [], factor_dims[0]
    for nxt in factor_dims[1:]:
        layout = tensor_layout(acc, nxt)
        for slots in layout.values():
            for sl in slots:
                ctx.budget.check(sl.dim, stage, sl.dims)
        stages.append(layout)
        acc = {n: sum(sl.dim for sl in slots) for n, slots in layout.items()}
    return stages


def _slot_blocks(p: int, layout: dict[int, list[SummandSlot]], i: int, m: int, comps: dict[int, FpMatrix],
                 before: list[dict[int, FpMatrix]] | None = None, drop_koszul_sign: bool = False,
                 ) -> dict[int, KronBlocks]:
    """Kronecker terms of ``(-1)^{m (sigma_1 + ... + sigma_{i-1})} e_1 (x) ...
    (x) e_{i-1} (x) f (x) 1 (x) ... (x) 1`` between the summand slots
    ``sigma`` of ``layout``, keyed by source degree.

    ``f`` is a shift-``m`` map of factor ``i``, given by its components.  Each
    ``e_j`` is the identity, or ``before[j][sigma_j]`` (no term where that is
    absent).  The Koszul sign is that of ``f`` passing the factors before it,
    unless ``drop_koszul_sign`` corrupts the convention.  Degrees where no
    block is nonzero are left out.
    """
    out = {}
    for n, slots in layout.items():
        target = layout.get(n + m)
        if not target:
            continue
        index = {sl.degrees: k for k, sl in enumerate(target)}
        terms = {}
        for jsrc, sl in enumerate(slots):
            sigma = sl.degrees
            f = comps.get(sigma[i])
            if f is None:
                continue
            jdst = index.get(sigma[:i] + (sigma[i] + m,) + sigma[i + 1 :])
            es = (None,) * i if before is None else tuple(b.get(s) for b, s in zip(before, sigma))
            if jdst is None or before is not None and any(e is None for e in es):
                continue
            sign = -1 if m * sum(sigma[:i]) % 2 and not drop_koszul_sign else 1
            terms[jdst, jsrc] = [(sign % p, *es, f) + (None,) * (len(sigma) - i - 1)]
        if terms:
            out[n] = KronBlocks(p, [sl.dims for sl in target], [sl.dims for sl in slots], terms)
    return out


def _add_blocks(parts) -> dict[int, KronBlocks]:
    """The degreewise sum of maps given as Kronecker blocks by degree."""
    out: dict[int, KronBlocks] = {}
    for blocks in parts:
        for n, kb in blocks.items():
            out[n] = out[n] + kb if n in out else kb
    return out


@dataclass
class TensorTower:
    """The tensor ``F_1 (x) ... (x) F_c`` of the complexes ``factors``: the
    summand slots of each degree, ``layout``, and the tensor ``complex``.

    Every map on the tower is recorded once, as c-fold Kronecker terms of
    factor maps (:func:`_slot_blocks`): the differential, the lifts of factor
    maps and, in :func:`kunneth_classes`, the contraction.
    """

    factors: list[ChainComplex]
    layout: dict[int, list[SummandSlot]]
    complex: ChainComplex

    def lift_factor_map(self, i: int, f: ChainMap, drop_koszul_sign: bool = False) -> ChainMap:
        """``1 (x) ... (x) f (x) ... (x) 1`` for a self chain map ``f`` of
        factor ``i``, with the Koszul sign ``(-1)^{m (sigma_1 + ... +
        sigma_{i-1})}`` of its shift ``m``, unchecked: callers test the lift
        with :meth:`ChainMap.is_chain_map`.  ``drop_koszul_sign`` is a test
        hook that deliberately corrupts the convention."""
        if not 0 <= i < len(self.factors):
            raise IndexError(f"no tensor factor {i}")
        if len(self.factors) == 1:
            return f
        m = f.shift
        blocks = _slot_blocks(self.complex.algebra.p, self.layout, i, m, {j: c.matrix for j, c in f.comps.items()},
                              drop_koszul_sign=drop_koszul_sign)
        objects = self.complex.objects
        maps = {n: BlockMorphism(objects[n], objects[n + m], kb) for n, kb in blocks.items()}
        return ChainMap(self.complex, self.complex, m, maps, check=False)


def tensor_tower(factors: list[ChainComplex], ctx) -> TensorTower:
    """The tensor of the factors, with Koszul signs; one factor is its own tower.

    ``ctx`` is a :class:`~smallhom.algebra.DiagonalTensor`, whose products
    are Kronecker products, so maps between summands are too.  The size of
    every summand of every stage is checked against its budget before the
    first one is built (:func:`check_tensor_sizes`).  Each term is then built
    by left-associated pairs, stage by stage, each stage's term the sum of
    its slots' tensors, so its summands follow :func:`tensor_layout`.  The
    differential ``sum_i (-1)^{sigma_1 + ... + sigma_{i-1}} 1 (x) ... (x)
    d_i (x) ... (x) 1`` is the sum of the factor differentials' lifts, each a
    map of shift -1, recorded by :func:`_slot_blocks` as Kronecker terms, and
    ``d . d = 0`` is checked on those blocks.
    """
    if not factors:
        raise ValueError("need at least one factor")
    dims = [C.dims() for C in factors]
    stages = check_tensor_sizes(ctx, "tensor tower", dims)
    layout = tensor_layout(*dims)
    if len(factors) == 1:
        return TensorTower(list(factors), layout, factors[0])
    objects = factors[0].objects
    for C, stage in zip(factors[1:], stages):
        objects = {n: direct_sum_modules([ctx.pair(objects[sl.degrees[0]], C.objects[sl.degrees[1]]) for sl in slots])
                   for n, slots in stage.items()}
    p = ctx.algebra.p
    blocks = _add_blocks(_slot_blocks(p, layout, i, -1, {s: d.matrix for s, d in C.diffs.items()})
                         for i, C in enumerate(factors))
    diffs = {n: BlockMorphism(objects[n], objects[n - 1], kb) for n, kb in blocks.items()}
    return TensorTower(list(factors), layout, ChainComplex(factors[0].algebra, objects, diffs, check=True))


def tensor_pair(C1: ChainComplex, C2: ChainComplex, ctx) -> TensorTower:
    """The tensor of two complexes (:func:`tensor_tower`)."""
    return tensor_tower([C1, C2], ctx)


# ----------------------------------------------------------------------
# homology of a tensor tower by Kunneth
# ----------------------------------------------------------------------
def kunneth_classes(tower: TensorTower) -> dict[int, HomologySpace]:
    """Homology records of the tower complex by Kunneth, unchecked, one for
    each degree of the tower.

    Each slot ``sigma`` holds the Kronecker products of its factors'
    records (:func:`homology_space`): ``Z_1 (x) ... (x) Z_c`` is a cycle and
    ``W_1 (x) ... (x) W_c`` kills boundaries by the Leibniz rule, and
    ``h = sum_i (-1)^{sigma_1 + ... + sigma_{i-1}} P_1 (x) ... (x) P_{i-1}
    (x) h_i (x) 1 (x) ... (x) 1``, with ``P_j = Z_j W_j``, contracts the
    tower (the tensor trick).  ``W``, ``Z W`` and ``h`` are kept as Kronecker
    terms of factor matrices.  :func:`certify_classes` checks all three.
    """
    records = [{n: homology_space(C, n) for n in C.degrees()} for C in tower.factors]
    if len(records) == 1:
        return records[0]
    p = tower.complex.algebra.p

    @cache
    def homotopies() -> dict[int, KronBlocks]:
        projections = [{n: h.contraction[0] for n, h in rec.items() if h.dim} for rec in records]
        return _add_blocks(
            _slot_blocks(p, tower.layout, i, 1, {n: h.contraction[1] for n, h in rec.items()
                                                 if h.contraction[1] is not None}, projections[:i])
            for i, rec in enumerate(records))

    def contract(record: HomologySpace, n: int, dims: list, hit: list) -> tuple:
        P = {(k, k): [(1, *(h.contraction[0] for h in hs))] for k, hs in hit}
        return KronBlocks(p, dims, dims, P), homotopies().get(n)

    out = {}
    for n, slots in tower.layout.items():
        hit = [(k, [rec[s] for rec, s in zip(records, sl.degrees)]) for k, sl in enumerate(slots)]
        hit = [(k, hs) for k, hs in hit if all(h.dim for h in hs)]
        zs = {k: reduce(FpMatrix.kron, (h.reps for h in hs)) for k, hs in hit}
        reps = block(p, [[zs[k] if k == j else None for j in zs] for k in range(len(slots))],
                     [sl.dim for sl in slots], [z.cols for z in zs.values()])
        dims = [sl.dims for sl in slots]
        duals = KronBlocks(p, [tuple(h.dim for h in hs) for _, hs in hit], dims,
                           {(r, k): [(1, *(h.duals for h in hs))] for r, (k, hs) in enumerate(hit)})
        out[n] = HomologySpace(tower.complex.objects[n], tower.complex.diffs.get(n), reps, duals,
                               partial(contract, n=n, dims=dims, hit=hit))
    return out


def certify_classes(C: ChainComplex, classes: dict[int, HomologySpace]) -> None:
    """Check that ``classes`` contracts ``C`` onto its homology, which
    proves that ``dim H_n(C)`` is the number of degree-``n`` classes.

    In each degree ``d_n Z = 0``, ``W d_{n+1} = 0``, ``W Z = I`` and
    ``Z W - 1 + d_{n+1} h_n + h_{n-1} d_n = 0`` (:func:`vanishes`).  Then
    ``Z`` and ``W`` are chain maps with ``W Z = 1`` and ``Z W`` homotopic to
    ``1``: inverse isomorphisms on homology, and ``W`` reads the coordinates
    of a cycle.
    """
    p = C.algebra.p
    for n in C.degrees():
        h = classes[n]
        Z = h.reps
        if n in C.diffs and not apply_map(C.diffs[n], Z).is_zero():
            raise CertificationError(f"a degree-{n} representative is not a cycle")
        if n + 1 in C.diffs and not (blocks_of(h.duals) @ blocks_of(C.diffs[n + 1])).is_zero():
            raise CertificationError(f"a degree-{n} cocycle does not vanish on boundaries")
        if h.read(Z) != FpMatrix.identity(p, h.dim):
            raise CertificationError(f"the degree-{n} classes do not pair to the identity")
        P, h_n = h.contraction
        slots = blocks_of(P).row_slots
        one = KronBlocks(p, slots, slots, {(k, k): [(1, *[None] * len(sl))] for k, sl in enumerate(slots)})
        below = classes[n - 1].contraction[1] if n in C.diffs else None
        if not vanishes([(1, one, P), (-1, one, one), (1, C.diffs.get(n + 1), h_n), (1, below, C.diffs.get(n))]):
            raise CertificationError(f"the degree-{n} homotopy identity fails")


def projectivity_flags(C: ChainComplex) -> dict[int, bool]:
    return {i: is_projective(m) for i, m in sorted(C.objects.items())}
