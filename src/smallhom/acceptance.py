"""The acceptance suite shared by ``smallhom selftest`` and the test suite.

Each criterion returns a :class:`CriterionResult` with one-line details; a
criterion passes only if every exact check inside it holds and the run
stays inside its time limit.  Everything here is integer arithmetic; the
randomized suites draw from a seeded generator and record the seed.
"""

from __future__ import annotations

import itertools
import random
import time
from dataclasses import dataclass, field
from math import comb

import numpy as np

from .linalg import FieldSpec, FpMatrix
from .algebra import (
    Algebra,
    Budget,
    DiagonalTensor,
    Module,
    ModuleMorphism,
    direct_sum_modules,
    free_module,
    hom_space_basis,
    qci_algebra,
    trivial_module,
)
from .chain import (
    ChainComplex,
    euler_characteristic,
    homology_rank_dims,
    homology_space,
    tensor_pair,
)
from .construction import BimoduleRun, ChainRun
from .lefschetz import (
    LEFSCHETZ_TERMS,
    LefschetzModel,
    cone_dimensions,
    cone_oracle,
    family_lengths,
    total_with_tail,
    verify_lefschetz_profile,
    w_matrix,
)


@dataclass
class CriterionResult:
    key: str
    passed: bool
    runtime: float
    details: list[str] = field(default_factory=list)

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"{mark} {self.key} ({self.runtime:.2f}s)"


def _timed(key: str, limit: float, work) -> CriterionResult:
    t0 = time.perf_counter()
    details: list[str] = []
    ok = True
    try:
        ok = work(details)
    except Exception as exc:  # an exception is a failure, not a crash of the suite
        details.append(f"exception: {exc}")
        ok = False
    dt = time.perf_counter() - t0
    if dt >= limit:
        details.append(f"runtime {dt:.2f}s exceeded limit {limit}s")
        ok = False
    return CriterionResult(key, bool(ok), dt, details)


# ----------------------------------------------------------------------
# expected values frozen from independent bookkeeping
# ----------------------------------------------------------------------
def les_cone_table_rank8() -> dict[tuple[int, int], int]:
    """The cone homology of the quadratic element on the rank-8 model,
    assembled from the long-exact-sequence bookkeeping alone.

    Isomorphisms at the two ends, three short exact sequences on each side
    (cokernels at degrees 2m..4m, kernels shifted to 6m+1..8m+1), zero at
    5m and 6m.
    """
    return {
        (0, 0): comb(8, 0),
        (1, 0): comb(8, 1),
        (2, 0): comb(8, 2) - comb(8, 0),
        (3, 0): comb(8, 3) - comb(8, 1),
        (4, 0): comb(8, 4) - comb(8, 2),
        (6, 1): comb(8, 4) - comb(8, 6),
        (7, 1): comb(8, 5) - comb(8, 7),
        (8, 1): comb(8, 6) - comb(8, 8),
        (9, 1): comb(8, 7),
        (10, 1): comb(8, 8),
    }


PROFILE_RANKS = {0: 1, 1: 8, 2: 28, 3: 56, 4: 28, 5: 8, 6: 1}


def rank8_table():
    """The cone table of the Lefschetz element on the rank-8 model over F_3."""
    return cone_dimensions(LefschetzModel(8, FieldSpec(3)))


# ----------------------------------------------------------------------
# criteria
# ----------------------------------------------------------------------
def criterion_symbolic_total(rank8=rank8_table) -> CriterionResult:
    """``rank8`` returns the rank-8 table, which :func:`run_all` shares
    among the criteria that read it."""
    def work(details: list[str]) -> bool:
        table = rank8()
        expected = les_cone_table_rank8()
        details.append(f"total {table.total}, per-degree {sorted(table.entries.items())}")
        return table.total == 252 == 2 ** 8 - 4 and table.entries == expected

    return _timed("symbolic-total-rank8", 1.0, work)


def criterion_closed_form(rank8=rank8_table) -> CriterionResult:
    def work(details: list[str]) -> bool:
        ok = True
        table = rank8()
        for d in range(8, 17):
            total = total_with_tail(table, d)
            ok = ok and total == 2 ** d - 2 ** (d - 6) and total < 2 ** d
        details.append("totals " + ", ".join(str(total_with_tail(table, d)) for d in range(8, 17)))
        return ok

    return _timed("closed-form-8-16", 1.0, work)


def criterion_lefschetz_profile(rank8=rank8_table) -> CriterionResult:
    def work(details: list[str]) -> bool:
        ok = True
        for p in (3, 5):
            prof = verify_lefschetz_profile(rank8() if p == 3 else cone_dimensions(LefschetzModel(8, FieldSpec(p))))
            ok = ok and prof.ok and prof.ranks == PROFILE_RANKS
            details.append(f"F{p} ranks {prof.ranks}")
        prof2 = verify_lefschetz_profile(cone_dimensions(LefschetzModel(8, FieldSpec(2))))
        first_fail = prof2.failures[0][0] if prof2.failures else None
        ok = ok and not prof2.ok and first_fail == 2
        model2 = LefschetzModel(8, FieldSpec(2))
        wvec_idx = [model2.grade_basis(2).index(pair) for _, pair in LEFSCHETZ_TERMS]
        wvec = np.zeros((comb(8, 2), 1), dtype=np.int64)
        for k in wvec_idx:
            wvec[k, 0] = 1
        in_kernel = (w_matrix(model2, 2) @ FpMatrix(2, wvec)).is_zero()
        details.append(f"F2 first failure at grade {first_fail}, element in kernel: {in_kernel}")
        return ok and in_kernel

    return _timed("lefschetz-profile", 1.0, work)


def _verdicts_ok(report: dict, details: list[str]) -> bool:
    ok = True
    for v in report["verdicts"]:
        if not v.passed:
            details.append(f"verdict {v.name} failed: {v.detail}")
            ok = False
    return ok


def criterion_rank1_construction() -> CriterionResult:
    def work(details: list[str]) -> bool:
        A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
        ok = True
        for power in (1, 2):
            rep = ChainRun(A, degree=2, power=power).run()
            ok = _verdicts_ok(rep, details) and ok
            n = rep["effective_degree"]
            factor = rep["factor_0"]
            ok = ok and factor["homology"] == {0: 1, n - 1: 1}
            ok = ok and factor["pushout_projective"]
            details.append(f"power {power}: homology {factor['homology']}, pushout dim "
                           f"{rep['pushout_dims'][0]}")
        return ok

    return _timed("construction-rank1", 1.0, work)


def rank2_report(coproduct: str = "primitive") -> dict:
    """The ``ChainRun`` report over F_3[x,y]/(x^3,y^3) with this coproduct."""
    return ChainRun(qci_algebra(FieldSpec(3), [3, 3], coproduct=coproduct)).run()


def criterion_rank2_hypercube(primitive=rank2_report) -> CriterionResult:
    """``primitive`` returns the primitive-coproduct report, which
    :func:`run_all` shares with :func:`criterion_oracle_equivalence`."""
    def work(details: list[str]) -> bool:
        ok = True
        for cop in ("primitive", "shifted"):
            rep = primitive() if cop == "primitive" else rank2_report(cop)
            ok = _verdicts_ok(rep, details) and ok
            ok = ok and rep["hypercube_homology"] == {0: 1, 1: 2, 2: 1}
            ok = ok and rep["k_tensor_dim"] == 81 and rep["k_tensor_free_rank"] == 9
            details.append(f"{cop}: hypercube {rep['hypercube_homology']}, tensor of pushouts "
                           f"dim {rep['k_tensor_dim']} free rank {rep['k_tensor_free_rank']}")
        return ok

    return _timed("hypercube-rank2", 10.0, work)


def criterion_oracle_equivalence(primitive=rank2_report) -> CriterionResult:
    def work(details: list[str]) -> bool:
        rep = primitive()
        cone = rep["cone"]
        ok = _verdicts_ok(rep, details)
        ok = ok and cone["homology"] == cone["oracle"] and cone["total"] == 6
        ok = ok and cone["length"] == cone["length_formula"] == 6
        details.append(f"cone homology {cone['homology']} total {cone['total']}, "
                       f"length {cone['length']}")
        return ok

    return _timed("oracle-equivalence-rank2", 30.0, work)


def criterion_bimodule_variant() -> CriterionResult:
    def work(details: list[str]) -> bool:
        A = qci_algebra(FieldSpec(3), [3])
        rep = BimoduleRun(A, degree=2).run()
        ok = _verdicts_ok(rep, details)
        ok = ok and rep["homology_dims"] == {0: 3, 1: 3}
        ok = ok and all(rep["one_sided_projective"].values())
        details.append(f"homology {rep['homology_dims']}, one-sided {rep['one_sided_projective']}, "
                       f"reduced pushout dim {rep['reduced_pushout_dim']}")
        return ok

    return _timed("bimodule-rank1", 5.0, work)


def criterion_family_lengths() -> CriterionResult:
    def work(details: list[str]) -> bool:
        lengths = family_lengths(8, 2, range(1, 6))
        expected = [(8 + 2) * (2 * s - 1) + 2 for s in range(1, 6)]
        details.append(f"lengths {lengths}")
        return lengths == expected == [12, 32, 52, 72, 92] and len(set(lengths)) == 5

    return _timed("family-lengths", 1.0, work)


# ----------------------------------------------------------------------
# randomized property suites (criterion 9)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class ModulePieces:
    """The summands of the random modules over one algebra: the free modules
    of ranks 1 and 2 and the trivial module.

    Built once and shared by every module drawn from them, so that
    :func:`~smallhom.algebra.hom_space_basis` solves each pair of pieces once.
    """

    algebra: Algebra
    free: tuple[Module, Module]
    trivial: Module


def module_pieces(A: Algebra) -> ModulePieces:
    return ModulePieces(A, (free_module(A, 1), free_module(A, 2)), trivial_module(A))


def random_module(pieces: ModulePieces, rng: random.Random) -> Module:
    """A random direct sum of one or two pieces (always valid)."""
    chosen = []
    for _ in range(rng.randint(1, 2)):
        if rng.random() < 0.5:
            chosen.append(pieces.free[rng.randint(1, 2) - 1])
        else:
            chosen.append(pieces.trivial)
    return direct_sum_modules(chosen)


def random_complex(pieces: ModulePieces, rng: random.Random, length: int = 3) -> ChainComplex:
    """A random bounded complex over ``pieces.algebra`` with exactly enforced d . d = 0.

    Each differential is a random combination of the morphism-space basis
    cut down by the constraint that it lands in the kernel of the previous
    differential: one coefficient per basis column, drawn in column order.
    """
    A = pieces.algebra
    mods = {i: random_module(pieces, rng) for i in range(length + 1)}
    p = A.p
    diffs = {}
    prev = None  # previous differential matrix out of degree i-1
    for i in range(1, length + 1):
        src, dst = mods[i], mods[i - 1]
        basis = hom_space_basis(src, dst)
        if prev is not None and basis.cols:
            basis = _kernel_constrained(basis, prev, src.dim)
        if not basis.cols:
            prev = None
            continue
        coeffs = FpMatrix(p, [[rng.randrange(p)] for _ in range(basis.cols)])
        mat = FpMatrix._adopt(p, (basis @ coeffs).a.reshape(dst.dim, src.dim), reduced=True)
        if mat.is_zero():
            prev = None
            continue
        diffs[i] = ModuleMorphism(src, dst, mat, check=True)
        prev = mat
    return ChainComplex(A, mods, diffs, check=True)


def _kernel_constrained(basis: FpMatrix, prev: FpMatrix, m: int) -> FpMatrix:
    """Basis of the h in the span of ``basis`` with prev @ h = 0.

    ``basis`` holds ``n x m`` morphisms as row-major columns
    (:func:`~smallhom.algebra.hom_space_basis`).  Read as ``n x (m * b)`` it
    holds every ``h_k``, so one product gives every ``prev @ h_k``; read back
    as ``(rows * m) x b``, its column ``k`` is ``prev @ h_k`` vectorized.
    """
    p, b = basis.p, basis.cols
    side_by_side = FpMatrix._adopt(p, basis.a.reshape(basis.rows // m, m * b), reduced=True)
    images = (prev @ side_by_side).a.reshape(prev.rows * m, b)
    return basis @ FpMatrix._adopt(p, images, reduced=True).kernel_basis()


def _relations_hold_directly(A, mats) -> bool:
    """Independent relation check by plain numpy arithmetic."""
    p = A.p
    for i, x in enumerate(mats):
        acc = np.eye(x.shape[0], dtype=np.int64)
        for _ in range(A.exponents[i]):
            acc = (acc @ x) % p
        if acc.any():
            return False
    for i in range(A.ngens):
        for j in range(i + 1, A.ngens):
            lhs = (mats[j] @ mats[i]) % p
            rhs = (A.commutator(i, j) * (mats[i] @ mats[j])) % p
            if not np.array_equal(lhs, rhs):
                return False
    return True


def criterion_property_suites(seed: int = 0, rank8=rank8_table) -> CriterionResult:
    def work(details: list[str]) -> bool:
        rng = random.Random(seed)
        cases = 0
        ok = True

        # d^2 = 0, Euler characteristic, and the two homology routes agreeing
        for p, exps in ((3, [3]), (5, [2]), (3, [2, 2])):
            pieces = module_pieces(qci_algebra(FieldSpec(p), exps, {(0, 1): -1} if len(exps) == 2 else None))
            for _ in range(20):
                C = random_complex(pieces, rng)  # ChainComplex checks d^2 = 0
                subq = {i: h.dim for i in C.degrees() if (h := homology_space(C, i)).dim}
                ok = ok and subq == homology_rank_dims(C)
                lhs = euler_characteristic(C)
                rhs = sum((-1) ** i * v for i, v in subq.items())
                ok = ok and lhs == rhs
                cases += 1
        details.append(f"complex properties: {cases} cases")

        # Kunneth dimension identity in the diagonal model
        A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
        pieces = module_pieces(A)
        ctx = DiagonalTensor(A, Budget(max_dim=400, max_entries=200_000))
        kcases = 0
        for _ in range(60):
            C1 = random_complex(pieces, rng, length=2)
            C2 = random_complex(pieces, rng, length=2)
            if C1.total_dim() * C2.total_dim() > 250:
                continue
            tensored = tensor_pair(C1, C2, ctx).complex
            # dimensions only: the rank route (section 1 checks it agrees)
            got = homology_rank_dims(tensored)
            h1, h2 = homology_rank_dims(C1), homology_rank_dims(C2)
            expect: dict[int, int] = {}
            for s, a in h1.items():
                for t, b in h2.items():
                    expect[s + t] = expect.get(s + t, 0) + a * b
            ok = ok and got == {k: v for k, v in sorted(expect.items()) if v}
            kcases += 1
        details.append(f"kunneth identity: {kcases} cases")
        cases += kcases

        # module construction rejects exactly the broken actions
        A2 = qci_algebra(FieldSpec(3), [3, 3], {(0, 1): 1})
        pieces = module_pieces(A2)
        reject = 0
        for _ in range(60):
            M = random_module(pieces, rng)
            mats = [x.a.copy() for x in M.action]
            g = rng.randrange(A2.ngens)
            r, c = rng.randrange(M.dim), rng.randrange(M.dim)
            mats[g][r, c] = (mats[g][r, c] + rng.randint(1, 2)) % 3
            holds = _relations_hold_directly(A2, mats)
            try:
                Module(A2, [FpMatrix(3, m) for m in mats], check=True)
                accepted = True
            except ValueError:
                accepted = False
            ok = ok and accepted == holds
            reject += 0 if holds else 1
            cases += 1
        details.append(f"relation rejection: 60 cases, {reject} rejected")

        # cone conservation: total = 2*2^d - 2*sum of ranks, for random elements
        for _ in range(40):
            d = rng.randint(2, 6)
            model = LefschetzModel(d, FieldSpec(rng.choice((3, 5))))
            grade = rng.choice([g for g in (2, 4) if g <= d])
            monos = list(itertools.combinations(range(1, d + 1), grade))
            element = tuple((rng.randint(1, model.field.p - 1), mono)
                            for mono in monos if rng.random() < 0.5)
            if not element:
                element = ((1, monos[0]),)
            table = cone_oracle(model, element)
            ok = ok and table.total == 2 * 2 ** d - 2 * sum(table.ranks.values())
            cases += 1
        table = rank8()
        for d in range(8, 21):
            ok = ok and 64 * total_with_tail(table, d) == 63 * 2 ** d
            cases += 1
        details.append(f"cone conservation and ratio: {40 + 13} cases")
        details.append(f"total cases {cases}, seed {seed}")
        return ok and cases >= 200

    return _timed("property-suites", 60.0, work)


def run_all(seed: int = 0) -> list[CriterionResult]:
    from functools import cache

    # one primitive rank-2 run and one rank-8 table per call, each read by
    # several criteria; the first criterion to ask pays for it
    primitive, rank8 = cache(rank2_report), cache(rank8_table)
    return [
        criterion_symbolic_total(rank8),
        criterion_closed_form(rank8),
        criterion_lefschetz_profile(rank8),
        criterion_rank1_construction(),
        criterion_rank2_hypercube(primitive),
        criterion_oracle_equivalence(primitive),
        criterion_bimodule_variant(),
        criterion_family_lengths(),
        criterion_property_suites(seed, rank8),
    ]


def control_sign_corruption() -> CriterionResult:
    """Negative control: a corrupted Koszul sign must break the theta maps."""

    def work(details: list[str]) -> bool:
        A = qci_algebra(FieldSpec(3), [3, 3], coproduct="primitive")
        rep = ChainRun(A, drop_koszul_sign=True).run()
        broken = {v.name: v.passed for v in rep["verdicts"]}
        details.append(f"theta_chain_maps verdict with corrupted signs: {broken['theta_chain_maps']}")
        return broken["theta_chain_maps"] is False

    return _timed("control-sign-corruption", 30.0, work)
