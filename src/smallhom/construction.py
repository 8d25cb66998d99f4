"""Pushout complexes with two unit homologies, their graded self maps,
parameter systems, and the cone pipelines.

Given a nonzero degree-n cohomology class of the coefficient object (the
trivial module, or the algebra itself in the two-sided variant), the class
factors through the n-th syzygy as a morphism ``zhat``.  Pushing the syzygy
inclusion out along ``zhat`` produces a module ``K`` sitting in a length-n
complex

    K -> P_{n-2} -> ... -> P_0

whose homology is the coefficient object in degrees 0 and n-1 and nothing
else, together with a degree-(n-1) chain self map (unit embedding composed
with the augmentation) that is not null-homotopic and squares to zero.

Classes are built from the images of a basis of cocycles modulo
coboundaries, and each is validated when it is built (cocycle, both morphism
laws, the exact factorization through the syzygy, nonzero class).  The
factorization reads one right inverse of the syzygy cover per degree.  The
parameter search builds only the classes of the tuples it tries.

Tensoring several of these and lifting the self maps gives anticommuting
odd-degree operators; the cone of a quadratic element of the resulting
exterior algebra is the certified object: a bounded complex of projectives
whose total homology undercuts the hypercube bound.
"""

from __future__ import annotations

import functools
import itertools
import sys
from collections.abc import Sequence
from dataclasses import dataclass
from math import comb

import numpy as np

from .linalg import FpMatrix, echelon_pivots, read_coordinates, vstack
from .algebra import (
    Algebra,
    Budget,
    CertificationError,
    DiagonalTensor,
    Module,
    ModuleMorphism,
    Resolution,
    direct_sum_modules,
    enveloping,
    free_images_matrix,
    free_restrictions,
    is_projective,
    minimal_resolution,
    mono_images,
    one_sided_projective,
    quotient_module,
    regular_bimodule,
    tensor_unit,
    trivial_module,
)
from .chain import (
    ChainComplex,
    ChainMap,
    TensorTower,
    certify_classes,
    check_tensor_sizes,
    compose_shifted,
    cone_homology_dims,
    homology_space,
    induced_on_homology,
    is_null_homotopic,
    kunneth_classes,
    mapping_cone,
    projectivity_flags,
    tensor_tower,
)
from .lefschetz import (LefschetzModel, cone_dimensions, cone_oracle, family_lengths, total_with_tail,
                        verify_lefschetz_profile)


class UnsupportedRank(ValueError):
    """Rank outside the supported chain/symbolic windows."""


# ----------------------------------------------------------------------
# cohomology classes on a minimal resolution
# ----------------------------------------------------------------------
@dataclass
class CohomologyClass:
    """A degree-n class, stored by the slot-unit images of its cocycle.

    ``images`` is a (target.dim x rank P_n) matrix; the cocycle is the
    induced map P_n -> target and ``induced`` its factorization through the
    n-th syzygy.
    """

    resolution: Resolution
    degree: int
    images: FpMatrix
    induced: ModuleMorphism

    @property
    def target(self) -> Module:
        return self.resolution.module

    @functools.cached_property
    def pushout(self) -> tuple[Module, ModuleMorphism, ModuleMorphism]:
        """:func:`pushout_module` of the class, built on the first read."""
        return pushout_module(self)

    @functools.cached_property
    def free_restrictions(self) -> frozenset[int]:
        """:func:`~smallhom.algebra.free_restrictions` of the pushout, ranked on the first read."""
        return free_restrictions(self.pushout[0])

    def is_zero_class(self) -> bool:
        bnd = _coboundary_space(self.resolution, self.degree)
        vec = FpMatrix(self.images.p, self.images.a.reshape(-1, 1))
        return read_coordinates(bnd, echelon_pivots(bnd), vec) is not None


def _diff_units(res: Resolution, a: int) -> FpMatrix:
    """The slot-unit columns of d_{a+1}: the images of P_{a+1}'s generators."""
    A = res.algebra
    return res.diff(a + 1).matrix.take_columns([t * A.dim + A.unit_index for t in range(res.ranks[a + 1])])


def _delta_matrix(res: Resolution, a: int) -> FpMatrix:
    """The linear map Hom(P_a, T) -> Hom(P_{a+1}, T) on vectorized images.

    Images are vectorized row-major.  With ``D`` the slot-unit columns of
    d_{a+1}, ``D_k`` its rows ``s * dim A + k`` (one per slot ``s`` of P_a)
    and ``act_k`` the action of ``basis[k]`` on T, the map is
    ``V -> sum_k act_k V D_k``, so ``vec(act_k V D_k) = kron(act_k, D_k^T) vec(V)``
    gives ``Delta = sum_k kron(act_k, D_k^T)``.  The sum over ``k`` is one
    product: the ``act_k`` entries as rows, ``(r, c) x k``, times the ``D_k``
    entries as columns, ``k x (s, t)``.
    """
    A, T = res.algebra, res.module
    b_a, b_next = res.ranks[a], res.ranks[a + 1]
    if res._target_acts is None:
        res._target_acts = mono_images(T, FpMatrix.identity(A.p, T.dim))  # acts[r, c, k]
    acts_rows = FpMatrix._adopt(A.p, res._target_acts.reshape(T.dim * T.dim, A.dim), reduced=True)
    D = _diff_units(res, a).a.reshape(b_a, A.dim, b_next)  # D[s, k, t] = D_k[s, t]
    d_cols = FpMatrix._adopt(A.p, D.transpose(1, 0, 2).reshape(A.dim, b_a * b_next), reduced=True)
    # summed[(r, c), (s, t)] = sum_k act_k[r, c] D_k[s, t] = Delta[(r, t), (c, s)]
    summed = (acts_rows @ d_cols).a.reshape(T.dim, T.dim, b_a, b_next)
    delta = summed.transpose(0, 3, 1, 2).reshape(T.dim * b_next, T.dim * b_a)
    return FpMatrix._adopt(A.p, delta, reduced=True)


def _coboundary_space(res: Resolution, n: int) -> FpMatrix:
    """Echelonized coboundaries in degree ``n >= 1``, built once per resolution."""
    if n not in res._coboundaries:
        res._coboundaries[n] = _delta_matrix(res, n - 1).column_space()
    return res._coboundaries[n]


def _syzygy_section(res: Resolution, n: int) -> FpMatrix:
    """A right inverse ``S`` of the cover ``E: P_n -> Omega^n`` (``E S = I``),
    solved once per resolution and degree.  ``E`` is onto, so a map ``f`` out
    of ``P_n`` that factors through ``E`` does so uniquely, as ``(f S) E``."""
    if n not in res._sections:
        E = res.omega(n).epi.matrix
        S = E.solve(FpMatrix.identity(E.p, E.rows))
        if S is None:
            raise AssertionError("the syzygy cover is onto")
        res._sections[n] = S
    return res._sections[n]


def class_from_images(res: Resolution, n: int, images: FpMatrix) -> CohomologyClass:
    """Build and validate a degree-n class, ``n >= 1``, from slot-unit images
    of its cocycle.

    The images must define a cocycle, which must be a module map; its
    factorization ``Z = full S`` through the n-th syzygy
    (:func:`_syzygy_section`) is checked exactly, ``Z E == full``, and must
    be a module map; the class must be nonzero.
    """
    if n < 1:
        raise ValueError(f"Ext classes are built in degrees n >= 1, not {n}")
    A = res.algebra
    T = res.module
    if images.shape != (T.dim, res.ranks[n]):
        raise ValueError("images matrix has the wrong shape")
    if res.length < n + 1:
        raise ValueError("resolution too short to validate the cocycle")
    full = free_images_matrix(A, T, images)
    if not (full @ _diff_units(res, n)).is_zero():
        raise CertificationError("images do not define a cocycle")
    ModuleMorphism(res.projectives[n], T, full, check=True)  # the cocycle is a module map
    omega = res.omega(n)
    z = full @ _syzygy_section(res, n)
    if z @ omega.epi.matrix != full:
        raise AssertionError("cocycles factor through the syzygy")
    induced = ModuleMorphism(omega.module, T, z, check=True)
    cls = CohomologyClass(res, n, images, induced)
    if cls.is_zero_class():
        raise ValueError("the class is zero in cohomology")
    return cls


def _class_images(res: Resolution, n: int) -> list[FpMatrix]:
    """Slot-unit images of a deterministic basis of the degree-n
    self-extensions of the target, ``n >= 1``, before any validation.

    Cocycles modulo coboundaries on vectorized slot-unit images; for the
    trivial coefficient module both spaces are degenerate (minimality) and
    the representatives are exactly the slot duals in slot order.
    """
    if n < 1:
        raise ValueError(f"Ext classes are built in degrees n >= 1, not {n}")
    if res.length < n + 1:
        raise ValueError(f"resolution of length {res.length} cannot give degree {n} classes")
    T = res.module
    p = T.algebra.p
    cocycles = _delta_matrix(res, n).kernel_basis()
    bnd = _coboundary_space(res, n)
    stacked = FpMatrix(p, np.hstack([bnd.a, cocycles.a]))
    _, pivots = stacked.rref()
    reps = [pc - bnd.cols for pc in pivots if pc >= bnd.cols]
    return [FpMatrix(p, cocycles.a[:, k].reshape(T.dim, res.ranks[n])) for k in reps]


class ExtClasses(Sequence):
    """A deterministic basis of the degree-n self-extensions of the target,
    ``n >= 1``: the classes of :func:`_class_images`, each built and
    validated by :func:`class_from_images` on its first read, so a class
    that nothing reads is never built."""

    def __init__(self, res: Resolution, n: int):
        self.resolution, self.degree = res, n
        self.images = _class_images(res, n)
        self._classes: list[CohomologyClass | None] = [None] * len(self.images)

    def __len__(self) -> int:
        return len(self.images)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(*i.indices(len(self)))]
        if self._classes[i] is None:
            self._classes[i] = class_from_images(self.resolution, self.degree, self.images[i])
        return self._classes[i]


def ext_classes(res: Resolution, n: int) -> ExtClasses:
    """The degree-n basis classes, built as they are read (:class:`ExtClasses`)."""
    return ExtClasses(res, n)


def yoneda_power(z: CohomologyClass, s: int) -> CohomologyClass:
    """The s-th Yoneda power, via a lifted chain map of resolutions.

    The cocycle lifts to maps phi_i: P_{n+i} -> P_i (exactness makes every
    stage solvable); composing the running power with phi at stage k*n
    multiplies by the class once more.
    """
    if s < 1:
        raise ValueError("powers need s >= 1")
    if s == 1:
        return z
    res, n = z.resolution, z.degree
    A = res.algebra
    T = res.module
    need = s * n + 1
    if res.length < need:
        raise ValueError(f"resolution length {res.length} < {need} needed for power {s}")
    # lift the base class up to stage (s-1)*n; stage i is the slot-image
    # matrix of phi_i: P_{n+i} -> P_i
    stages: list[FpMatrix] = []
    top = (s - 1) * n
    w = res.aug.matrix.solve(z.images)
    if w is None:
        raise AssertionError("the class images lift through the augmentation")
    stages.append(w)
    for i in range(1, top + 1):
        prev_full = free_images_matrix(A, res.projectives[i - 1], stages[i - 1])
        rhs_cols = prev_full @ _diff_units(res, n + i - 1)
        w = res.diff(i).matrix.solve(rhs_cols)
        if w is None:
            raise AssertionError("resolution exactness guarantees the lift")
        stages.append(w)
    # multiply one factor at a time: the slot-unit images of f . phi are
    # full(f) applied to the stage columns of the lift
    images = z.images
    for k in range(1, s):
        full = free_images_matrix(A, T, images)
        images = full @ stages[k * n]
    return class_from_images(res, s * n, images)


# ----------------------------------------------------------------------
# the pushout complex and its self map
# ----------------------------------------------------------------------
@dataclass
class ClassComplex:
    """The length-n complex attached to a class, with its structure maps."""

    pushout: Module
    unit_embed: ModuleMorphism  # coefficient object -> pushout, mono
    complex: ChainComplex
    self_map: ChainMap  # shift n-1, component mu . augmentation


def pushout_module(cls: CohomologyClass) -> tuple[Module, ModuleMorphism, ModuleMorphism]:
    """The pushout of the syzygy inclusion along the induced morphism.

    K = (T (+) P_{n-1}) / span{(zhat(u), -u)} over the syzygy basis; comes
    with the unit embedding mu and the induced map rho to P_{n-2}.
    """
    res, n = cls.resolution, cls.degree
    if n < 2:
        raise ValueError("the pushout needs degree >= 2")
    T = cls.target
    om = res.omega(n)
    P = res.projectives[n - 1]
    ambient = direct_sum_modules([T, P])
    rel = vstack([cls.induced.matrix, -om.incl.matrix])
    K, proj, section = quotient_module(ambient, rel)
    if K.dim != T.dim + P.dim - om.module.dim:
        raise AssertionError("pushout dimension count")
    mu = ModuleMorphism(T, K, FpMatrix(K.action[0].p, proj.matrix.a[:, : T.dim]), check=True)
    if mu.matrix.rank() != T.dim:
        raise AssertionError("unit embedding must be injective")
    d_prev = res.diff(n - 1)
    rho_mat = d_prev.matrix @ FpMatrix(d_prev.matrix.p, section.a[T.dim :, :])
    rho = ModuleMorphism(K, d_prev.target, rho_mat, check=True)
    # rho is induced: rho . proj must be [0 | d_{n-1}] on T (+) P_{n-1}
    lift_back = (rho.matrix @ proj.matrix).a
    if lift_back[:, : T.dim].any() or not np.array_equal(lift_back[:, T.dim :], d_prev.matrix.a):
        raise AssertionError("pushout quotient must be compatible with d_{n-1}")
    return K, mu, rho


def build_class_complex(cls: CohomologyClass) -> ClassComplex:
    """The class complex on the class's pushout (:attr:`CohomologyClass.pushout`)."""
    res, n = cls.resolution, cls.degree
    K, mu, rho = cls.pushout
    objects = {n - 1: K}
    diffs = {n - 1: rho}
    for i in range(0, n - 1):
        objects[i] = res.projectives[i]
    for i in range(1, n - 1):
        diffs[i] = res.diff(i)
    cx = ChainComplex(res.algebra, objects, diffs, check=True)
    nu = ChainMap(cx, cx, n - 1, {0: mu @ res.aug}, check=True)
    return ClassComplex(K, mu, cx, nu)


# ----------------------------------------------------------------------
# parameter systems
# ----------------------------------------------------------------------
@dataclass
class ParameterSystem:
    """Basis classes (``indices`` into the degree's basis), each holding its
    pushout (:attr:`CohomologyClass.pushout`); :func:`verify_parameter_system`
    sets ``tensor``, the tensor of the pushouts, and ``verified``.  The
    classes are any sequence, such as the lazy :class:`PickedClasses`."""

    classes: Sequence[CohomologyClass]
    indices: tuple[int, ...]
    verified: bool | None = None
    tensor: Module | None = None


class PickedClasses(Sequence):
    """The classes at ``indices`` of a basis (:class:`ExtClasses`), each
    built on its first read, so a tuple refused after reading its first class
    builds no other."""

    def __init__(self, basis: ExtClasses, indices: tuple[int, ...]):
        self.basis, self.indices = basis, indices

    def __len__(self) -> int:
        return len(self.indices)

    def __getitem__(self, i: int) -> CohomologyClass:
        return self.basis[self.indices[i]]


def tensor_pushouts(mods: list[Module], ctx) -> Module:
    """Left-associated tensor of the pushout modules of a parameter system,
    each product by :meth:`DiagonalTensor.pair` (``ctx``)."""
    acc = mods[0]
    for nxt in mods[1:]:
        acc = ctx.pair(acc, nxt)
    return acc


def passes_restriction_screen(classes) -> bool:
    """The cyclic-restriction screen, a necessary condition at factor size
    for the tensor of the classes' pushouts to be projective: every
    generator ``x_k`` has a pushout free over ``B_k = F_p[x_k]/(x_k^p)``
    (:attr:`CohomologyClass.free_restrictions`).

    ``B_k`` is a sub-Hopf algebra under both coproducts, and a projective
    module restricts to a free ``B_k``-module.  Over ``B_k`` the support
    variety of a tensor is the intersection of its factors' (Carlson, "The
    varieties and the cohomology ring of a module", J. Algebra 85 (1983), for
    the shifted coproduct, where ``B_k`` is the group algebra of Z/p;
    Friedlander and Parshall, "Support varieties for restricted Lie
    algebras", Invent. Math. 86 (1986), for the primitive one), and the
    variety of ``B_k`` is a line, so a tensor is free over ``B_k`` only if a
    factor is.
    """
    covered = frozenset().union(*(z.free_restrictions for z in classes))
    return len(covered) == classes[0].resolution.algebra.ngens


def verify_parameter_system(ps: ParameterSystem, ctx, screen: bool = False) -> bool:
    """The operational test: the tensor of the classes' pushouts is
    projective.  Keeps the tensor on ``ps``; each class keeps its pushout.

    The size of every product is checked against ``ctx``'s budget before
    any is built, and before any class but the first is read: the classes
    are of one degree, and every degree-n pushout has dimension ``dim T +
    dim P_{n-1} - dim Omega^n`` (:func:`pushout_module` checks it), so the
    first sizes them all.  With ``screen`` a tuple that fails
    :func:`passes_restriction_screen` is then rejected with no tensor and no
    rank.  The screen only rejects: a tuple that passes is verified by its
    full rank.
    """
    first = ps.classes[0].pushout[0]
    check_tensor_sizes(ctx, "parameter search", [{0: first.dim}] * len(ps.classes))
    mods = [z.pushout[0] for z in ps.classes]
    if screen and not passes_restriction_screen(ps.classes):
        ps.verified = False
        return False
    ps.tensor = tensor_pushouts(mods, ctx)
    ps.verified = is_projective(ps.tensor)
    return ps.verified


def find_parameter_system(res: Resolution, ctx, degree: int = 2) -> ParameterSystem:
    """First tuple of basis classes (lexicographic indices) passing the
    projectivity verification, one class per generator of the algebra: the
    generator count is the Krull dimension of the cohomology ring of these
    algebras, the number of parameters the construction needs.

    A class is built when the first tuple that holds it reads it
    (:class:`PickedClasses`); a class that no tried tuple reads is never
    built.  Each tuple is sized from its first class and screened at factor
    size before its tensor is built (:func:`verify_parameter_system`).
    """
    if degree % 2 or degree < 2:
        raise ValueError("parameter degrees must be even and >= 2")
    count = res.algebra.ngens
    classes = ext_classes(res, degree)
    if len(classes) < count:
        raise ValueError(f"only {len(classes)} classes in degree {degree}, need {count}")
    for combo in itertools.combinations(range(len(classes)), count):
        ps = ParameterSystem(PickedClasses(classes, combo), combo)
        if verify_parameter_system(ps, ctx, screen=True):
            return ps
    raise ValueError("no basis-class tuple verifies as a parameter system")


# ----------------------------------------------------------------------
# lifted self maps and Lefschetz products
# ----------------------------------------------------------------------
def build_thetas(tower: TensorTower, class_complexes, drop_koszul_sign: bool = False) -> list[ChainMap]:
    """The class complexes' self maps lifted to the tower, unchecked."""
    return [tower.lift_factor_map(i, cc.self_map, drop_koszul_sign) for i, cc in enumerate(class_complexes)]


# ----------------------------------------------------------------------
# run reports
# ----------------------------------------------------------------------
@dataclass
class Verdict:
    name: str
    passed: bool
    detail: str = ""


class ChainRun:
    """Chain-level pipeline for the module-category route.

    The rank is the algebra's generator count, the Krull dimension of its
    cohomology ring.  Supported ranks: 1..3 (tensor sizes explode beyond
    that; ranks 4..7 are rejected rather than extrapolated, and 8+ belong to
    the symbolic model).
    """

    def __init__(self, algebra: Algebra, *, degree: int = 2, power: int = 1,
                 budget: Budget | None = None, drop_koszul_sign: bool = False):
        rank = algebra.ngens
        if rank < 1:
            raise UnsupportedRank("rank must be positive")
        if 4 <= rank <= 7:
            raise UnsupportedRank("ranks 4..7 are not supported: the quadratic element needs "
                                  "8 generators and chain level stops at 3")
        if rank > 7:
            raise UnsupportedRank("chain level supports rank <= 3; use the symbolic mode")
        if degree % 2 or degree < 2:
            raise ValueError("the class degree must be even and >= 2")
        self.algebra = algebra
        self.base_degree = degree
        self.power = power
        self.budget = budget or Budget()
        self.drop_koszul_sign = drop_koszul_sign

    def run(self) -> dict:
        A = self.algebra
        c = A.ngens
        n = self.base_degree * self.power
        m = n - 1
        ctx = DiagonalTensor(A, self.budget)
        verdicts: list[Verdict] = []
        report: dict = {
            "mode": "chain",
            "variant": "module",
            "rank": c,
            "base_degree": self.base_degree,
            "power": self.power,
            "effective_degree": n,
            "shift": m,
            # over these local algebras every composition factor is the
            # unit, so length and dimension agree: one additive function
            "additive_function": "dim",
        }

        res = minimal_resolution(trivial_module(A), n + 1)
        report["betti"] = res.betti()

        base_ps = find_parameter_system(res, ctx, self.base_degree)
        if self.power == 1:
            ps = base_ps  # the search has verified it already
        else:
            classes = tuple(yoneda_power(z, self.power) for z in base_ps.classes)
            ps = ParameterSystem(classes, base_ps.indices)
            verify_parameter_system(ps, ctx)
        lemma_ok = ps.verified
        ktensor = ps.tensor
        report["parameter_indices"] = list(base_ps.indices)
        report["pushout_dims"] = [z.pushout[0].dim for z in ps.classes]
        report["k_tensor_dim"] = ktensor.dim
        report["k_tensor_free_rank"] = ktensor.dim // A.dim if lemma_ok else None
        verdicts.append(Verdict("lemma_projective", lemma_ok,
                                f"tensor of pushouts has dim {ktensor.dim}"))

        ccs = [build_class_complex(z) for z in ps.classes]
        factor_ok = True
        for idx, cc in enumerate(ccs):
            hs = {j: homology_space(cc.complex, j) for j in cc.complex.degrees()}
            hd = {j: h.dim for j, h in hs.items() if h.dim}
            two_units = hd == {0: 1, m: 1}
            nonnull = not is_null_homotopic(cc.self_map)[0]
            sq = compose_shifted(cc.self_map, cc.self_map)
            sq_null = is_null_homotopic(sq)[0]
            ind = induced_on_homology(cc.self_map, hs)
            iso = 0 in ind and ind[0].rank() == 1
            # a single pushout is projective only at rank 1, where it is the
            # whole tensor; at higher rank only the full tensor is
            kproj = is_projective(cc.pushout)
            factor_ok = factor_ok and two_units and nonnull and sq_null and iso
            if c == 1:
                factor_ok = factor_ok and kproj
            report[f"factor_{idx}"] = {
                "homology": hd,
                "self_map_nonnull": nonnull,
                "self_map_square_null": sq_null,
                "induced_iso": iso,
                "pushout_projective": kproj,
            }
        verdicts.append(Verdict("factor_complexes", factor_ok,
                                "two unit homologies, nonnull self map, square null"))

        tower = tensor_tower([cc.complex for cc in ccs], ctx)
        big = tower.complex
        report["tensor_dims"] = big.dims()
        # a basis by Kunneth, certified as a contraction: its size is the homology
        classes = kunneth_classes(tower)
        certify_classes(big, classes)
        hyper = {n: h.dim for n, h in classes.items() if h.dim}
        expected = {t * m: comb(c, t) for t in range(c + 1)}
        hyper_ok = hyper == expected
        units_ok = all(x.is_zero() for h in classes.values() if h.dim for x in h.action())
        report["hypercube_homology"] = hyper
        report["hypercube_expected"] = expected
        report["hypercube_total"] = sum(hyper.values())
        verdicts.append(Verdict("hypercube_homology", hyper_ok and units_ok,
                                f"found {hyper}, expected {expected}, trivial action {units_ok}"))

        flags = projectivity_flags(big)
        report["tensor_projective"] = flags
        verdicts.append(Verdict("tensor_terms_projective", all(flags.values()),
                                f"{sum(flags.values())}/{len(flags)} terms projective"))

        thetas = build_thetas(tower, ccs, self.drop_koszul_sign)
        chain_ok = all(t.is_chain_map() for t in thetas)
        verdicts.append(Verdict("theta_chain_maps", chain_ok,
                                "lifted self maps satisfy the chain-map law"))

        anticomm_ok = chain_ok
        squares_ok = chain_ok
        freeness_ok = chain_ok
        if chain_ok:
            theta_h = [induced_on_homology(t, classes) for t in thetas]
            for i in range(c):
                sq = compose_shifted(thetas[i], thetas[i])
                squares_ok = squares_ok and is_null_homotopic(sq)[0]
            for i in range(c):
                for j in range(i + 1, c):
                    anti = compose_shifted(thetas[i], thetas[j]) + compose_shifted(thetas[j], thetas[i])
                    anticomm_ok = anticomm_ok and is_null_homotopic(anti)[0]
                    for t in range(c - 1):
                        left = theta_h[i].get((t + 1) * m)
                        right = theta_h[j].get(t * m)
                        lswap = theta_h[j].get((t + 1) * m)
                        rswap = theta_h[i].get(t * m)
                        if None in (left, right, lswap, rswap):
                            continue
                        if left @ right != (lswap @ rswap).scale(-1):
                            anticomm_ok = False
            start = FpMatrix.identity(A.p, hyper.get(0, 0))
            for t in range(c + 1):
                cols = []
                for subset in itertools.combinations(range(c), t):
                    v = start
                    deg = 0
                    for g in reversed(subset):
                        v = theta_h[g][deg] @ v
                        deg += m
                    cols.append(v)
                stackmat = FpMatrix(A.p, np.hstack([cv.a for cv in cols]))
                if stackmat.rank() != comb(c, t):
                    freeness_ok = False
        verdicts.append(Verdict("theta_squares_null", squares_ok, "each lifted map squares to zero up to homotopy"))
        verdicts.append(Verdict("theta_anticommute", anticomm_ok,
                                "graded commutators null-homotopic and homology matrices anticommute"))
        verdicts.append(Verdict("exterior_freeness", freeness_ok,
                                "theta monomials applied to degree-0 homology give bases"))

        if c >= 2 and chain_ok:
            u = compose_shifted(thetas[0], thetas[1])
            cone = mapping_cone(u)
            cone_h = cone_homology_dims(u, classes)
            oracle = cone_oracle(LefschetzModel(c, A.field), ((1, (1, 2)),))
            predicted = oracle.at_m(m)
            cone_ok = cone_h == predicted
            cone_flags = projectivity_flags(cone)
            length = len(cone.degrees())
            length_expected = (c + 2) * m + 2
            support_contiguous = cone.degrees() == list(range(cone.lo, cone.hi + 1))
            total = sum(cone_h.values())
            report["cone"] = {
                "homology": cone_h,
                "oracle": predicted,
                "total": total,
                "oracle_total": oracle.total,
                "projective": cone_flags,
                "length": length,
                "length_formula": length_expected,
            }
            verdicts.append(Verdict("cone_oracle_equivalence", cone_ok,
                                    f"chain {cone_h} vs model {predicted}"))
            verdicts.append(Verdict("cone_terms_projective", all(cone_flags.values()), ""))
            verdicts.append(Verdict("cone_length_formula",
                                    support_contiguous and length == length_expected,
                                    f"support length {length}, formula {length_expected}"))

        report["family_lengths"] = family_lengths(c, self.base_degree, range(1, 6))
        report["verdicts"] = verdicts
        return report


class BimoduleRun:
    """Chain-level pipeline for the two-sided (enveloping-algebra) route.

    The rank is the algebra's generator count, and it must be 1: the run
    needs one degree-n class whose reduced pushout is projective, and one
    class cannot cut a rank-2 support down to a point (no class does over
    F_2[x,y]/(x^2,y^2), nor over F_3[x,y]/(x^3,y^3) with q = 1 or q = 2).
    The reduced pushout ``K (x)_A k`` is the quotient of the pushout by its
    right radical (:func:`~smallhom.algebra.tensor_unit`).
    """

    def __init__(self, algebra: Algebra, *, degree: int = 2, budget: Budget | None = None):
        if algebra.ngens != 1:
            raise UnsupportedRank("the two-sided route supports rank 1 only (one generator)")
        if degree % 2 or degree < 2:
            raise ValueError("the class degree must be even and >= 2")
        self.algebra = algebra
        self.degree = degree
        self.budget = budget or Budget()

    def run(self) -> dict:
        A = self.algebra
        n = self.degree
        m = n - 1
        env = enveloping(A)
        verdicts: list[Verdict] = []
        report: dict = {
            "mode": "chain",
            "variant": "bimodule",
            "rank": A.ngens,
            "effective_degree": n,
            "shift": m,
            "enveloping_dim": env.algebra.dim,
        }
        bim = regular_bimodule(env)
        res = minimal_resolution(bim, n + 1)
        report["bimodule_betti"] = res.betti()

        classes = ext_classes(res, n)
        chosen = None
        for idx, z in enumerate(classes):  # each class is built when the loop reaches it
            cc = build_class_complex(z)
            # the reduced pushout is budgeted as the tensor K (x)_A k, k of dim 1
            self.budget.check(cc.pushout.dim, "reduced pushout", (cc.pushout.dim, 1))
            reduced = tensor_unit(env, cc.pushout)
            if is_projective(reduced):
                chosen = (idx, z, cc, reduced)
                break
        if chosen is None:
            raise ValueError("no degree-n class gives a projective reduced pushout")
        idx, z, cc, reduced = chosen
        report["class_index"] = idx
        report["class_count"] = len(classes)
        report["pushout_dim"] = cc.pushout.dim

        hs = {j: homology_space(cc.complex, j) for j in cc.complex.degrees()}
        h0, hm = hs[0], hs[m]
        iso0 = False
        if h0.dim == A.dim:
            to_a = res.aug.matrix @ h0.reps
            mor = ModuleMorphism(h0.module, bim, to_a, check=True)
            iso0 = mor.matrix.rank() == A.dim
        isom = False
        if hm.dim == A.dim:
            cls_of_mu = hm.class_of(cc.unit_embed.matrix)
            mor = ModuleMorphism(bim, hm.module, cls_of_mu, check=True)
            isom = mor.matrix.rank() == A.dim
        report["homology_dims"] = {j: h.dim for j, h in hs.items() if h.dim}
        verdicts.append(Verdict("two_sided_homology", iso0 and isom,
                                f"H_0 and H_{m} isomorphic to the algebra (dim {A.dim})"))

        one_sided = {i: one_sided_projective(env, mod) for i, mod in sorted(cc.complex.objects.items())}
        report["one_sided_projective"] = one_sided
        verdicts.append(Verdict("terms_one_sided_projective", all(one_sided.values()), str(one_sided)))

        report["reduced_pushout_dim"] = reduced.dim
        verdicts.append(Verdict("reduced_pushout_projective", is_projective(reduced),
                                f"pushout (x)_A unit has dim {reduced.dim}"))

        nonnull = not is_null_homotopic(cc.self_map)[0]
        ind = induced_on_homology(cc.self_map, hs)
        nubar_iso = 0 in ind and ind[0].rank() == A.dim
        verdicts.append(Verdict("self_map", nonnull and nubar_iso,
                                "nonnull and inducing an isomorphism between the two homologies"))

        report["verdicts"] = verdicts
        return report


def max_printable_rank() -> int | None:
    """The largest rank ``d`` whose bound ``2^d`` the interpreter prints in
    decimal, from its integer string limit; ``None`` when there is no limit.

    ``2^d`` has at most ``limit`` digits exactly when ``2^d < 10^limit``.
    """
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    return (10 ** limit).bit_length() - 1 if limit else None


class SymbolicRun:
    """Symbolic pipeline for rank >= 8: rank profiles and closed-form totals.

    The rank is capped by :func:`max_printable_rank`, so that the totals of
    the certificate print.
    """

    def __init__(self, field, rank: int, degree: int = 2):
        if rank < 8:
            raise UnsupportedRank("symbolic mode needs rank >= 8 (ranks 4..7 are unsupported; "
                                  "chain mode covers 1..3)")
        top = max_printable_rank()
        if top is not None and rank > top:
            raise UnsupportedRank(f"symbolic mode supports rank <= {top}: the bound 2^rank must print "
                                  "within the interpreter's integer string limit")
        if degree % 2 or degree < 2:
            raise ValueError("the class degree must be even and >= 2")
        self.field = field
        self.rank = rank
        self.degree = degree

    def run(self) -> dict:
        d = self.rank
        n = self.degree
        m = n - 1
        verdicts: list[Verdict] = []
        report: dict = {
            "mode": "symbolic",
            "rank": d,
            "degree": n,
            "shift": m,
            "characteristic": self.field.p,
            "additive_function": "dim",
        }
        # one table of w ranks, grades 0..8, serves the profile and the cone
        table = cone_dimensions(LefschetzModel(8, self.field))
        profile = verify_lefschetz_profile(table)
        expect_fail = self.field.p == 2
        profile_ok = (not profile.ok) if expect_fail else profile.ok
        report["profile_ranks"] = profile.ranks
        report["profile_failures"] = profile.failures
        name = "lefschetz_profile_control" if expect_fail else "lefschetz_profile"
        verdicts.append(Verdict(name, profile_ok,
                                "rank deficit found, as forced in characteristic 2" if expect_fail
                                else "injective at grades 0..3, surjective at 3..6"))

        if not expect_fail:
            entries = {f"{t}m+{off}" if off else f"{t}m": v
                       for (t, off), v in sorted(table.entries.items())}
            report["cone_table"] = entries
            report["cone_total_rank8"] = table.total
            total = total_with_tail(table, d)
            closed = 2 ** d - 2 ** (d - 6)
            report["total"] = total
            report["closed_form"] = closed
            report["bound"] = 2 ** d
            verdicts.append(Verdict("cone_total", table.total == 252, f"rank-8 cone total {table.total}"))
            verdicts.append(Verdict("closed_form", total == closed and total < 2 ** d,
                                    f"total {total} {'=' if total == closed else '!='} 2^{d} - 2^{d - 6} < 2^{d}"))
        report["family_lengths"] = family_lengths(d, n, range(1, 6))
        distinct = len(set(report["family_lengths"])) == 5
        verdicts.append(Verdict("family_distinct", distinct, str(report["family_lengths"])))
        report["verdicts"] = verdicts
        return report
