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
  ``d(x (x) y) = dx (x) y + (-1)^{|x|} x (x) dy`` with summands ordered by
  ascending left degree, and multi-factor products associate to the left.

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

Tower laws are checked on Kronecker blocks.  Every block of a tensor-pair
differential, and of a map lifted from one factor, is a signed Kronecker
product ``f (x) 1`` or ``1 (x) g`` of factor matrices, so
:func:`tensor_pair` and :func:`_lift_through_pair` record it as such a term
(:class:`~smallhom.linalg.KronBlocks`), and composites of lifts compose
their terms.  One routine, :func:`vanishes`, checks ``d . d = 0``, every
chain-map law and the homotopy identity, block by block at factor size, so
no check multiplies two tower-size matrices.  A plain map is the one-block,
one-term case.  Thin products against the Kunneth classes go through the
blocks too, and a cone's differentials are grids of blocks, so no tower or
cone matrix is assembled.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property, partial
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
    """A module map between tensor-pair terms, kept as :class:`KronBlocks`
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
        self._zero = zero_module(algebra)
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

    def module_at(self, i: int) -> Module:
        return self.objects.get(i, self._zero)

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
    ``contract(record)`` gives the :attr:`contraction`.
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
        """The homology module, its relations checked."""
        return Module(self.term.algebra, self.action(), check=True)


def homology_space(C: ChainComplex, i: int) -> HomologySpace:
    """Degree ``i`` homology as cycles modulo boundaries, with its module.

    ``Z`` is the section of the quotient by the boundaries' cycle
    coordinates, and ``W`` is the quotient map on the free rows of the kernel
    basis, so ``W Z = I``; the free rows of a boundary are its cycle
    coordinates, which the quotient map kills.
    """
    cached = C._hcache.get(i)
    if cached is not None:
        return cached
    p = C.algebra.p
    obj = C.module_at(i)
    d_out = C.diff_at(i).matrix
    cycles = d_out.kernel_basis()
    free = nonpivot_columns(d_out.cols, d_out.rref()[1])
    boundary_coords = read_coordinates(cycles, free, C.diff_at(i + 1).matrix)
    if boundary_coords is None:
        raise AssertionError("boundaries must be cycles")
    for g in range(C.algebra.ngens):
        if read_coordinates(cycles, free, obj.act(g, cycles)) is None:
            raise AssertionError("cycles must be action-stable")
    qmap, section = quotient_by_subspace(p, boundary_coords)
    duals = np.zeros((qmap.rows, obj.dim), dtype=np.int64)
    duals[:, free] = qmap.a
    Z, W = cycles @ section, FpMatrix._adopt(p, duals, reduced=True)
    up = C.diffs.get(i + 1)

    def contract(record: HomologySpace) -> tuple:
        if record.reps.cols != record.duals.rows:
            raise CertificationError(f"the degree-{i} classes do not pair to the identity")
        return record.reps @ record.duals, up and _boundary_homotopy(d_out, up.matrix, Z @ W)

    hs = HomologySpace(obj, C.diffs.get(i), Z, W, contract)
    hs.module  # built here, so that its relations are checked with the record
    C._hcache[i] = hs
    return hs


def _boundary_homotopy(d_out: FpMatrix, d_in: FpMatrix, projection: FpMatrix) -> FpMatrix:
    """``h_i`` with ``d h + h d = 1 - Z W`` on ``C_i``, whose differentials
    are ``d_i = d_out`` and ``d_{i+1} = d_in``.

    ``C_i`` is the classes, the boundaries and the pivot coordinates of
    ``d_i``'s echelon form ``R``, where ``W`` vanishes and onto which ``J R``
    projects (``J`` puts row ``t`` at pivot ``t``).  ``h_i`` inverts
    ``d_{i+1}`` on its pivot coordinates: ``d_{i+1} h_i = 1 - Z W - J R``
    and ``h_{i-1} d_i = J R``.
    """
    red, pivots = d_out.rref()
    rhs = np.eye(projection.rows, dtype=np.int64) - projection.a
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
    subquotient machinery in :func:`homology_space` and much cheaper on
    large complexes.
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
    pair compose their Kronecker terms (:class:`BlockMorphism`).
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
    left_degree: int
    right_degree: int
    dim: int


@dataclass
class TensorPair:
    """A two-factor tensor complex with its summand layout."""

    left: ChainComplex
    right: ChainComplex
    complex: ChainComplex
    layout: dict[int, list[SummandSlot]]


def tensor_pair(C1: ChainComplex, C2: ChainComplex, ctx) -> TensorPair:
    """Kunneth-style double complex totalization with Koszul signs.

    ``ctx`` is a :class:`~smallhom.algebra.DiagonalTensor`, whose products
    are Kronecker products, so maps between summands are too.  The
    differential ``d (x) 1 + (-1)^s 1 (x) d`` is the left lift of ``d_{C1}``
    plus the right lift of ``d_{C2}``, each a map of shift -1, so it is
    recorded by :func:`_slot_blocks` as Kronecker terms like any lifted map,
    and ``d . d = 0`` is checked on those blocks.
    """
    layout: dict[int, list[SummandSlot]] = {}
    objects: dict[int, Module] = {}
    for n in range(C1.lo + C2.lo, C1.hi + C2.hi + 1):
        slots = []
        mods = []
        for s in C1.degrees():
            t = n - s
            if t not in C2.objects:
                continue
            mod = ctx.pair(C1.objects[s], C2.objects[t])
            if mod.dim == 0:
                continue
            slots.append(SummandSlot(s, t, mod.dim))
            mods.append(mod)
        if slots:
            layout[n] = slots
            objects[n] = direct_sum_modules(mods)
    blocks = _slot_blocks(C1, C2, layout, -1,
                          {s: d.matrix for s, d in C1.diffs.items()},
                          {t: d.matrix for t, d in C2.diffs.items()})
    diffs = {n: BlockMorphism(objects[n], objects[n - 1], kb) for n, kb in blocks.items()}
    algebra = next(iter(objects.values())).algebra if objects else C1.algebra
    cx = ChainComplex(algebra, objects, diffs, check=True)
    return TensorPair(C1, C2, cx, layout)


def _slot_blocks(left: ChainComplex, right: ChainComplex, layout: dict[int, list[SummandSlot]],
                 m: int, left_comps: dict[int, FpMatrix], right_comps: dict[int, FpMatrix],
                 drop_koszul_sign: bool = False, right_left: dict[int, FpMatrix] | None = None,
                 ) -> dict[int, KronBlocks]:
    """Kronecker terms of ``f (x) 1 + (-1)^{m s} e (x) g`` between the summand slots.

    ``f`` and ``g`` are shift-``m`` maps of the left and right factor, given
    by their components; the Koszul sign falls on the summand with left
    degree ``s``, unless ``drop_koszul_sign`` corrupts the convention.
    ``e`` is the identity, or ``right_left[s]`` (no term where that is absent).
    Degrees where no block is nonzero are left out.
    """
    p = left.algebra.p

    def factor_dims(slots):
        return [(left.objects[sl.left_degree].dim, right.objects[sl.right_degree].dim) for sl in slots]

    out = {}
    for n, slots in layout.items():
        target_slots = layout.get(n + m)
        if not target_slots:
            continue
        dst_index = {(sl.left_degree, sl.right_degree): k for k, sl in enumerate(target_slots)}
        terms: dict[tuple[int, int], list] = {}
        for jsrc, sl in enumerate(slots):
            s, t = sl.left_degree, sl.right_degree
            f, jdst = left_comps.get(s), dst_index.get((s + m, t))
            if f is not None and jdst is not None:
                terms.setdefault((jdst, jsrc), []).append((1, f, None))
            g, jdst = right_comps.get(t), dst_index.get((s, t + m))
            e = None if right_left is None else right_left.get(s)
            if g is not None and jdst is not None and (right_left is None or e is not None):
                sign = -1 if (m * s) % 2 and not drop_koszul_sign else 1
                terms.setdefault((jdst, jsrc), []).append((sign % p, e, g))
        if terms:
            out[n] = KronBlocks(p, factor_dims(target_slots), factor_dims(slots), terms)
    return out


def _lift_through_pair(tp: TensorPair, f: ChainMap, side: str, drop_koszul_sign: bool = False) -> ChainMap:
    """Extend a self chain map of one factor to the tensor complex, unchecked:
    callers test the lift with :meth:`ChainMap.is_chain_map`.

    Only a map on the right factor picks up a Koszul sign
    (:func:`_slot_blocks`).  ``drop_koszul_sign`` is a test hook that
    deliberately corrupts the convention.
    """
    m = f.shift
    comps = {j: c.matrix for j, c in f.comps.items()}
    blocks = _slot_blocks(tp.left, tp.right, tp.layout, m,
                          comps if side == "left" else {}, comps if side == "right" else {},
                          drop_koszul_sign)
    objects = tp.complex.objects
    maps = {n: BlockMorphism(objects[n], objects[n + m], kb) for n, kb in blocks.items()}
    return ChainMap(tp.complex, tp.complex, m, maps, check=False)


@dataclass
class TensorTower:
    """Left-associated tensor of several complexes, with map lifting."""

    factors: list[ChainComplex]
    pairs: list[TensorPair]

    @property
    def complex(self) -> ChainComplex:
        if self.pairs:
            return self.pairs[-1].complex
        return self.factors[0]

    def lift_factor_map(self, i: int, f: ChainMap, drop_koszul_sign: bool = False) -> ChainMap:
        if not 0 <= i < len(self.factors):
            raise IndexError(f"no tensor factor {i}")
        if not self.pairs:
            return f
        if i == 0:
            g = _lift_through_pair(self.pairs[0], f, "left", drop_koszul_sign)
            rest = self.pairs[1:]
        else:
            g = _lift_through_pair(self.pairs[i - 1], f, "right", drop_koszul_sign)
            rest = self.pairs[i:]
        for tp in rest:
            g = _lift_through_pair(tp, g, "left", drop_koszul_sign)
        return g


def tensor_tower(factors: list[ChainComplex], ctx) -> TensorTower:
    """Left-associated tensor of the factors.

    ``ctx`` is a :class:`~smallhom.algebra.DiagonalTensor`: the size of
    every summand of every stage is checked against its budget before the
    first one is built.
    """
    if not factors:
        raise ValueError("need at least one factor")
    ctx.check_sizes("tensor tower", [C.dims() for C in factors])
    pairs = []
    acc = factors[0]
    for nxt in factors[1:]:
        tp = tensor_pair(acc, nxt, ctx)
        pairs.append(tp)
        acc = tp.complex
    return TensorTower(list(factors), pairs)


# ----------------------------------------------------------------------
# homology of a tensor tower by Kunneth
# ----------------------------------------------------------------------
def kunneth_classes(tower: TensorTower) -> dict[int, HomologySpace]:
    """Homology records of the tower complex by Kunneth, unchecked, one for
    each degree of the tower.

    Each stage places the Kronecker products of its left classes with the
    right factor's classes (:func:`homology_space`) in the summand slots of
    its layout: ``z (x) z'`` is a cycle and ``w (x) w'`` kills boundaries by
    the Leibniz rule, and ``h_1 (x) 1 + (-1)^s (Z_1 W_1) (x) h_2`` contracts
    the stage (the tensor trick).  :func:`certify_classes` checks all three.
    """
    def factor(C: ChainComplex) -> dict[int, HomologySpace]:
        return {n: homology_space(C, n) for n in C.degrees()}

    acc = factor(tower.factors[0])
    for tp in tower.pairs:
        acc = _pair_classes(tp, acc, factor(tp.right))
    return acc


def _pair_classes(tp: TensorPair, left: dict[int, HomologySpace],
                  right: dict[int, HomologySpace]) -> dict[int, HomologySpace]:
    """One stage: ``z (x) z'`` in its slot's rows, ``w (x) w'`` in its
    columns, the latter kept as one Kronecker term per class slot."""
    p = tp.complex.algebra.p

    def projection(h: HomologySpace) -> FpMatrix:
        return blocks_of(h.contraction[0]).dense()

    @cache
    def homotopies() -> dict[int, KronBlocks]:
        hs = [{n: blocks_of(h.contraction[1]).dense() for n, h in side.items() if h.contraction[1]}
              for side in (left, right)]
        return _slot_blocks(tp.left, tp.right, tp.layout, 1, *hs,
                            right_left={s: projection(h) for s, h in left.items() if h.dim})

    def contract(record: HomologySpace, n: int, factor_dims: list, hit: list) -> tuple:
        P = {(k, k): [(1, projection(hl), projection(hr))] for k, hl, hr in hit}
        return KronBlocks(p, factor_dims, factor_dims, P), homotopies().get(n)

    out = {}
    for n, slots in tp.layout.items():
        pairs = [(k, left[sl.left_degree], right[sl.right_degree]) for k, sl in enumerate(slots)]
        hit = [(k, hl, hr) for k, hl, hr in pairs if hl.dim and hr.dim]
        zs = {k: hl.reps.kron(hr.reps) for k, hl, hr in hit}
        dims = [sl.dim for sl in slots]
        reps = block(p, [[zs[k] if k == j else None for j in zs] for k in range(len(slots))],
                     dims, [z.cols for z in zs.values()])
        factor_dims = [(tp.left.objects[sl.left_degree].dim, tp.right.objects[sl.right_degree].dim)
                       for sl in slots]
        duals = KronBlocks(p, [(hl.dim, hr.dim) for _, hl, hr in hit], factor_dims,
                           {(r, k): [(1, blocks_of(hl.duals).dense(), blocks_of(hr.duals).dense())]
                            for r, (k, hl, hr) in enumerate(hit)})
        out[n] = HomologySpace(tp.complex.objects[n], tp.complex.diffs.get(n), reps, duals,
                               partial(contract, n=n, factor_dims=factor_dims, hit=hit))
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
        one = KronBlocks(p, slots, slots, {(k, k): [(1, None, None)] for k in range(len(slots))})
        below = classes[n - 1].contraction[1] if n in C.diffs else None
        if not vanishes([(1, one, P), (-1, one, one), (1, C.diffs.get(n + 1), h_n), (1, below, C.diffs.get(n))]):
            raise CertificationError(f"the degree-{n} homotopy identity fails")


def projectivity_flags(C: ChainComplex) -> dict[int, bool]:
    return {i: is_projective(m) for i, m in sorted(C.objects.items())}
