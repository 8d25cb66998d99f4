"""Split-local algebras, modules, covers, resolutions, tensor structures."""

import re
from math import prod

import numpy as np
import pytest

from smallhom import algebra
from smallhom.linalg import FieldSpec, FpMatrix, echelon_pivots
from smallhom.algebra import (
    Algebra,
    Budget,
    BudgetExceeded,
    CertificationError,
    DiagonalTensor,
    Module,
    ModuleMorphism,
    _gen_coords,
    direct_sum_modules,
    enveloping,
    free_images_matrix,
    free_module,
    hom_space_basis,
    intertwining_system,
    is_projective,
    minimal_resolution,
    mono_images,
    one_sided_projective,
    projective_cover,
    qci_algebra,
    radical_subspace,
    regular_bimodule,
    regular_module,
    restrict_left,
    restrict_right,
    submodule,
    tensor_diagonal,
    tensor_unit,
    trivial_module,
    zero_module,
)

F3 = FieldSpec(3)


@pytest.fixture(scope="module")
def truncated():
    return qci_algebra(F3, [3], coproduct="primitive")


@pytest.fixture(scope="module")
def two_vars():
    return qci_algebra(F3, [3, 3], {(0, 1): 1}, coproduct="primitive")


def test_qci_dimensions_and_basis_order(truncated, two_vars):
    assert truncated.dim == 3 and truncated.basis == ((0,), (1,), (2,))
    assert two_vars.dim == 9
    assert two_vars.basis[0] == (0, 0) and two_vars.basis[-1] == (2, 2)
    ext = qci_algebra(F3, [2, 2], {(0, 1): -1})
    assert ext.dim == 4


def test_qci_rejects_bad_parameters():
    with pytest.raises(ValueError):
        qci_algebra(F3, [1])
    with pytest.raises(ValueError):
        qci_algebra(F3, [2, 2], {(0, 1): 0})
    with pytest.raises(ValueError):
        qci_algebra(F3, [2, 2], {(0, 1): -1}, coproduct="primitive")  # needs a_i = p, q = 1
    with pytest.raises(ValueError):
        qci_algebra(F3, [3], coproduct="mystery")


def test_commutation_scalar_moves_correctly():
    A = qci_algebra(FieldSpec(5), [2, 2], {(0, 1): 2})
    # x2 * x1 = 2 * x1 x2
    coeff, mono = A.mono_mul((0, 1), (1, 0))
    assert mono == (1, 1) and coeff == 2
    coeff, mono = A.mono_mul((1, 0), (0, 1))
    assert mono == (1, 1) and coeff == 1


def test_opposite_inverts_commutators():
    A = qci_algebra(FieldSpec(5), [2, 2], {(0, 1): 2})
    assert A.opposite().commutator(0, 1) == 3  # inverse of 2 mod 5


def test_multiplication_associative_on_all_triples():
    for A in (qci_algebra(FieldSpec(5), [2, 2], {(0, 1): 2}),
              qci_algebra(FieldSpec(3), [3, 2], {(0, 1): -1})):
        for e in A.basis:
            for f in A.basis:
                for g in A.basis:
                    ef = A.mono_mul(e, f)
                    fg = A.mono_mul(f, g)
                    left = None
                    if ef is not None:
                        c, m = ef
                        r = A.mono_mul(m, g)
                        if r is not None:
                            left = ((c * r[0]) % A.p, r[1])
                    right = None
                    if fg is not None:
                        c, m = fg
                        r = A.mono_mul(e, m)
                        if r is not None:
                            right = ((c * r[0]) % A.p, r[1])
                    assert left == right


def test_trivial_and_regular(truncated):
    k = trivial_module(truncated)
    reg = regular_module(truncated)
    assert k.dim == 1 and all(x.is_zero() for x in k.action)
    assert reg.dim == 3
    x = reg.action[0]
    assert not x.is_zero() and x.power(3).is_zero()
    assert is_projective(reg) and not is_projective(k)
    assert is_projective(zero_module(truncated))


def test_module_construction_rejects_broken_relations(truncated):
    bad = [FpMatrix(3, [[0, 0], [1, 1]])]  # square is not zero... cube is
    with pytest.raises(ValueError):
        Module(truncated, [FpMatrix(3, [[1, 0], [0, 1]])])  # identity is not nilpotent
    A2 = qci_algebra(F3, [3, 3], {(0, 1): 1})
    x = FpMatrix(3, [[0, 0], [1, 0]])
    y = FpMatrix(3, [[0, 1], [0, 0]])
    with pytest.raises(ValueError):
        Module(A2, [x, y])  # xy != yx


def test_morphism_must_intertwine(truncated):
    reg = regular_module(truncated)
    k = trivial_module(truncated)
    aug = projective_cover(k).epi
    assert aug.matrix.shape == (1, 3)
    with pytest.raises(ValueError):
        ModuleMorphism(reg, reg, FpMatrix(3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))


def test_projective_cover_cases(truncated):
    reg = regular_module(truncated)
    cov = projective_cover(reg)
    assert cov.rank == 1 and cov.kernel.dim == 0
    k = trivial_module(truncated)
    cov2 = projective_cover(k)
    assert cov2.rank == 1 and cov2.free.dim == 3 and cov2.kernel.dim == 2
    z = zero_module(truncated)
    assert projective_cover(z).rank == 0


def test_a_cover_kernel_is_echelonized_once(two_vars, monkeypatch):
    # the cover's kernel comes echelonized from one elimination, and the
    # syzygy is built on it as it is: no second elimination
    res = minimal_resolution(trivial_module(two_vars), 2)
    mods = [trivial_module(two_vars), regular_module(two_vars), res.omega(1).module, res.omega(2).module]
    echelonized = []
    real = FpMatrix.column_space
    monkeypatch.setattr(FpMatrix, "column_space", lambda m: echelonized.append(m.shape) or real(m))
    for M in mods:
        cov = projective_cover(M)
        reference = cov.epi.matrix.kernel_basis()
        echelonized.clear()
        assert cov.kernel_incl.matrix == real(reference)
        assert echelonized == []
        assert cov.kernel.dim == cov.free.dim - M.dim


def test_minimal_resolution_betti(truncated, two_vars):
    assert minimal_resolution(trivial_module(truncated), 4).betti() == [1, 1, 1, 1, 1]
    assert minimal_resolution(trivial_module(two_vars), 3).betti() == [1, 2, 3, 4]
    assert minimal_resolution(regular_module(truncated), 3).betti() == [1, 0, 0, 0]


def test_an_extended_resolution_is_the_longer_resolution(two_vars):
    # extend covers each syzygy not yet covered, as the constructor does;
    # the last cover's kernel basis is read before and after it is built
    res, direct = minimal_resolution(trivial_module(two_vars), 1), minimal_resolution(trivial_module(two_vars), 3)
    top = res.syzygy_cols(2)
    assert top is res._cover.ker_cols and len(res._syzygies) == 1
    res.extend(3)
    assert res.length == 3 and res.betti() == direct.betti() == [1, 2, 3, 4]
    assert all(res.diff(i).matrix == direct.diff(i).matrix for i in range(1, 4))
    assert res.omega(2).incl.matrix is top
    assert all(res.syzygy_cols(i) == direct.syzygy_cols(i) == direct.omega(i).incl.matrix for i in range(1, 5))
    res.extend(2)  # a length already reached builds nothing
    assert res.length == 3 and len(res.projectives) == 4
    with pytest.raises(IndexError):
        res.syzygy_cols(5)


def test_resolution_exactness_and_minimality(two_vars):
    res = minimal_resolution(trivial_module(two_vars), 3)
    for i in range(1, 3):
        assert res.diff(i).matrix.rank() + res.diff(i + 1).matrix.rank() == res.projectives[i].dim
    # minimality: every differential lands inside the radical
    for i in range(1, 4):
        rad = radical_subspace(res.projectives[i - 1])
        assert rad.solve(res.diff(i).matrix) is not None
    assert res.aug.matrix.rank() == 1


def test_syzygy_periodicity_rank_one(truncated):
    res = minimal_resolution(trivial_module(truncated), 4)
    # syzygies alternate between dimensions 2 and 1: (x) and (x^2)
    dims = [res.omega(i).module.dim for i in range(1, 5)]
    assert dims == [2, 1, 2, 1]


def _acting(M) -> list:
    """Each generator of ``M`` on the identity, through ``Module.act``."""
    return [M.act(g, FpMatrix.identity(M.algebra.p, M.dim)) for g in range(M.algebra.ngens)]


def test_tensor_diagonal_unit_laws(truncated):
    k = trivial_module(truncated)
    reg = regular_module(truncated)
    left_unit = tensor_diagonal(k, reg)
    assert left_unit.dim == 3
    # unit (x) M has exactly the action matrices of M under the index pairing
    assert _acting(left_unit) == list(reg.action)
    assert tensor_diagonal(reg, k).dim == 3
    t = tensor_diagonal(reg, reg)
    assert t.dim == 9 and is_projective(t)


def test_tensor_diagonal_projective_ideal(truncated):
    # projective (x) anything is projective, and regular (x) M is free of rank dim M
    k = trivial_module(truncated)
    m = projective_cover(k).kernel  # dim 2, not projective
    t = tensor_diagonal(regular_module(truncated), m)
    assert t.dim == 6 and is_projective(t)
    assert not is_projective(tensor_diagonal(k, m))


def test_tensor_diagonal_needs_coproduct():
    A = qci_algebra(F3, [3])
    with pytest.raises(ValueError):
        tensor_diagonal(trivial_module(A), trivial_module(A))


def test_tensor_diagonal_shifted_coproduct():
    A = qci_algebra(F3, [3], coproduct="shifted")
    t = tensor_diagonal(regular_module(A), regular_module(A))
    assert t.dim == 9 and is_projective(t)
    u = tensor_diagonal(trivial_module(A), regular_module(A))
    assert _acting(u) == list(regular_module(A).action)


def test_tensor_associativity_on_the_nose(two_vars):
    # both coproducts are strictly coassociative and the Kronecker pairing is
    # row-major, so the two associations have identical action matrices
    k = trivial_module(two_vars)
    m = projective_cover(k).kernel
    a = tensor_diagonal(tensor_diagonal(m, m), k)
    b = tensor_diagonal(m, tensor_diagonal(m, k))
    assert a.dim == b.dim == 64
    assert _acting(a) == _acting(b)
    A = qci_algebra(F3, [3], coproduct="shifted")
    r = regular_module(A)
    t = trivial_module(A)
    left = tensor_diagonal(tensor_diagonal(r, t), r)
    right = tensor_diagonal(r, tensor_diagonal(t, r))
    assert _acting(left) == _acting(right)


def test_enveloping_and_regular_bimodule(truncated):
    env = enveloping(truncated)
    assert env.algebra.dim == 9
    bim = regular_bimodule(env)
    assert bim.dim == 3
    assert is_projective(restrict_left(env, bim))
    assert is_projective(restrict_right(env, bim))


def test_enveloping_of_commutative_is_plain_tensor(two_vars):
    env = enveloping(two_vars)
    assert env.algebra.dim == 81
    assert all(v == 1 for v in env.algebra.q.values()) or not env.algebra.q


def test_enveloping_noncommutative_right_block():
    A = qci_algebra(FieldSpec(5), [2, 2], {(0, 1): 2})
    env = enveloping(A)
    assert env.algebra.commutator(0, 1) == 2
    assert env.algebra.commutator(2, 3) == 3  # inverted on the right block
    assert env.algebra.commutator(0, 3) == 1
    bim = regular_bimodule(env)  # validates all mixed relations
    assert bim.dim == 4


def test_regular_bimodule_tensor_unit_is_the_unit(truncated):
    # A (x)_A k = k
    env = enveloping(truncated)
    reduced = tensor_unit(env, regular_bimodule(env))
    assert reduced.algebra is truncated and reduced.dim == 1
    assert list(reduced.action) == list(trivial_module(truncated).action)


@pytest.mark.parametrize("rank", [1, 2])
def test_free_bimodule_tensor_unit_is_free(truncated, rank):
    # (A (x) A^op)^r (x)_A k = A^r: dim r * dim A and projective
    env = enveloping(truncated)
    free = free_module(env.algebra, rank)  # dim 9 r
    assert one_sided_projective(env, free)
    reduced = tensor_unit(env, free)
    assert reduced.dim == rank * truncated.dim and is_projective(reduced)


def test_budget_guard(truncated):
    ctx = DiagonalTensor(truncated, Budget(max_dim=5))
    reg = regular_module(truncated)
    with pytest.raises(BudgetExceeded):
        ctx.pair(reg, reg)


def test_budget_guard_names_the_factors(truncated):
    ctx = DiagonalTensor(truncated, Budget(max_dim=8))
    reg = regular_module(truncated)
    with pytest.raises(BudgetExceeded, match=r"^tensor 3 x 3 = 9 exceeds budget 8$"):
        ctx.pair(reg, reg)
    entries = DiagonalTensor(truncated, Budget(max_dim=100, max_entries=80))
    with pytest.raises(BudgetExceeded, match=r"^tensor 3 x 3 = 9 exceeds entry budget 80 \(81 entries"):
        entries.pair(reg, reg)
    DiagonalTensor(truncated, Budget(max_dim=9, max_entries=81)).pair(reg, reg)


def test_coproduct_proof_budget_error_names_its_stage(truncated):
    # the pair fits, the proof's regular (x) regular does not
    k, reg = trivial_module(truncated), regular_module(truncated)
    with pytest.raises(BudgetExceeded, match=r"^coproduct proof: tensor 3 x 3 = 9 exceeds budget 8$") as err:
        DiagonalTensor(truncated, Budget(max_dim=8)).pair(k, reg)
    assert (err.value.stage, err.value.factors) == ("coproduct proof", (3, 3))


def test_hom_space_basis_counts(truncated):
    k = trivial_module(truncated)
    reg = regular_module(truncated)
    assert hom_space_basis(k, k).cols == 1
    # Hom(A, A) = A as a vector space for the regular module
    assert hom_space_basis(reg, reg).cols == 3
    assert hom_space_basis(reg, k).cols == 1


@pytest.fixture(scope="module")
def anticommuting():
    return qci_algebra(F3, [2, 2], {(0, 1): -1})


def test_hom_space_basis_column_counts(truncated, anticommuting):
    for A in (truncated, anticommuting):
        k, reg, zero = trivial_module(A), regular_module(A), zero_module(A)
        assert hom_space_basis(k, k).cols == 1
        assert hom_space_basis(reg, reg).cols == A.dim  # End(A) = A^op
        assert hom_space_basis(reg, k).cols == 1
        assert hom_space_basis(k, reg).cols == 1  # the socle is a line
        assert hom_space_basis(zero, reg).shape == hom_space_basis(reg, zero).shape == (0, 0)


def test_hom_space_columns_are_independent_module_morphisms(truncated, anticommuting):
    for A in (truncated, anticommuting):
        k, reg = trivial_module(A), regular_module(A)
        mixed = direct_sum_modules([reg, k])
        for M, N in [(k, k), (reg, reg), (reg, k), (k, reg), (free_module(A, 2), mixed), (mixed, mixed)]:
            basis = hom_space_basis(M, N)
            assert basis.rows == N.dim * M.dim and basis.rank() == basis.cols
            for col in basis.a.T:
                ModuleMorphism(M, N, FpMatrix(A.p, col.reshape(N.dim, M.dim)), check=True)


def _block_route_cases(A):
    """Modules over ``A`` built from a few shared leaves, and the leaves: sums
    of one and of several summands, a repeated summand, a zero summand and
    nested sums; with a coproduct also a diagonal tensor summand.  The free
    leaf of rank 2 is itself a sum of two copies of one regular module."""
    k, free1, free2, zero = trivial_module(A), free_module(A, 1), free_module(A, 2), zero_module(A)
    leaves = [k, free1, free2, zero]
    sum_ = direct_sum_modules
    mods = [sum_([k]), sum_([free1]), sum_([free2, k]), sum_([k, free1, k]), sum_([k, zero, free1]),
            sum_([sum_([k, free1]), k]), sum_([free1, sum_([k, sum_([free1])])])]
    if A.coproduct is not None:
        # a diagonal tensor's action is never assembled (see
        # test_hom_space_basis_of_a_tensor_is_not_assembled): this leaf holds it
        tensor = Module(A, _acting(tensor_diagonal(free1, k)), check=False)
        leaves.append(tensor)
        mods.append(sum_([tensor, k]))
    return leaves, mods


def _leaves(M):
    return [leaf for S in M.summands for leaf in _leaves(S)] if M.summands is not None else [M]


@pytest.mark.parametrize("p, exps, q, coproduct", [
    (3, [3], None, None), (5, [2], None, None), (3, [2, 2], {(0, 1): -1}, None),
    (3, [3], None, "primitive"), (3, [3, 3], None, None),
], ids=["F3-3", "F5-2", "F3-2-2-anti", "F3-3-primitive", "F3-3-3"])
def test_hom_space_basis_equals_the_dense_kernel(p, exps, q, coproduct, hom_space_reference):
    A = qci_algebra(FieldSpec(p), exps, q, coproduct)
    leaves, mods = _block_route_cases(A)
    cases = leaves + mods
    for M in cases:
        for N in cases:  # both directions of every pair
            got, expected = hom_space_basis(M, N), hom_space_reference(M, N)
            assert got.a.dtype == expected.a.dtype and np.array_equal(got.a, expected.a), (M, N)


def test_hom_space_basis_solves_each_summand_pair_once(two_vars, monkeypatch):
    _, mods = _block_route_cases(two_vars)
    real, solved = intertwining_system, []

    def counted(M, N):
        solved.append((M, N))
        return real(M, N)

    monkeypatch.setattr("smallhom.algebra.intertwining_system", counted)
    pairs = set()
    for _ in range(2):
        for M in mods:
            for N in mods:
                hom_space_basis(M, N)
                pairs |= {(id(a), id(b)) for a in _leaves(M) for b in _leaves(N)}
    # each distinct pair of leaves exactly once, over both rounds
    assert sorted((id(M), id(N)) for M, N in solved) == sorted(pairs)


def test_failed_module_checks_raise_certification_error(truncated):
    reg = regular_module(truncated)
    with pytest.raises(CertificationError, match="violates x"):
        Module(truncated, [FpMatrix.identity(3, 2)])
    A2 = qci_algebra(F3, [3, 3], {(0, 1): 1})
    with pytest.raises(CertificationError, match="commutation"):
        Module(A2, [FpMatrix(3, [[0, 0], [1, 0]]), FpMatrix(3, [[0, 1], [0, 0]])])
    with pytest.raises(CertificationError, match="intertwine"):
        ModuleMorphism(reg, reg, FpMatrix(3, [[0, 1, 0], [0, 0, 0], [0, 0, 0]]))
    with pytest.raises(CertificationError, match="action-stable"):
        submodule(reg, FpMatrix(3, [[1], [0], [0]]))


def test_free_module_slot_major_indexing(truncated):
    f = free_module(truncated, 2)
    assert f.dim == 6
    x = f.action[0]
    # slot 1 block sits at rows/cols 3..5 and matches the regular action
    assert np.array_equal(x.a[3:, 3:], regular_module(truncated).action[0].a)
    assert not x.a[:3, 3:].any()


FREE_ALGEBRAS = [qci_algebra(FieldSpec(2), [2, 2]), qci_algebra(F3, [3, 3], {(0, 1): -1}),
                 qci_algebra(FieldSpec(5), [5])]


@pytest.mark.parametrize("A", FREE_ALGEBRAS, ids=["F2-2-2", "F3-3-3-skew", "F5-5"])
@pytest.mark.parametrize("rank", [0, 1, 2, 5])
def test_free_module_acts_through_one_regular_module(A, rank, action_builds):
    F = free_module(A, rank)
    assert F.dim == rank * A.dim
    if rank >= 2:  # copies of one regular module, with no action stored
        assert len(F.summands) == rank and all(S is F.summands[0] for S in F.summands)
        assert F._action is None
    rng = np.random.default_rng(rank)
    for cols in (0, 1, 4):
        V = FpMatrix(A.p, rng.integers(0, A.p, size=(F.dim, cols)))
        for g, L in enumerate(A.left_actions):
            want = np.kron(np.eye(rank, dtype=np.int64), L.a) @ V.a % A.p
            assert np.array_equal(F.act(g, V).a, want)
    assert action_builds == [] and (rank < 2 or F._action is None)
    # a reader of the dense action still gets kron(I_rank, L_g), assembled once
    eye = np.eye(rank, dtype=np.int64)
    assert all(np.array_equal(x.a, np.kron(eye, L.a)) for x, L in zip(F.action, A.left_actions, strict=True))
    assert F.action is F.action and len(action_builds) == (rank >= 2)


@pytest.mark.parametrize("M", ["free", "regular"])
def test_resolving_a_projective_module_gives_rank_zero_covers(M):
    A = qci_algebra(F3, [3, 3], {(0, 1): -1})
    P = free_module(A, 2) if M == "free" else regular_module(A)
    res = minimal_resolution(P, 3)
    assert res.betti() == [P.dim // A.dim, 0, 0, 0]
    assert res.aug.matrix.rank() == P.dim
    assert [S.module.dim for S in res.syzygies] == [0, 0, 0, 0]
    assert all(Q.dim == 0 and is_projective(Q) for Q in res.projectives[1:])
    assert all(res.diff(i).matrix.shape == (res.projectives[i - 1].dim, 0) for i in range(1, 4))


def test_syzygies_are_built_once_and_the_last_on_first_read(monkeypatch, sum_action_reference):
    A = qci_algebra(F3, [3, 3], {(0, 1): -1})
    built = []
    monkeypatch.setattr("smallhom.algebra.submodule", lambda M, cols: built.append(M) or submodule(M, cols))
    length = 3
    res = minimal_resolution(trivial_module(A), length)
    # omega(1) .. omega(length) feed the covers; the last cover's kernel waits
    assert built == res.projectives[:length]
    last = res.omega(length + 1)
    assert built == res.projectives and last.epi is None
    assert res.omega(length + 1) is last and [res.omega(i) for i in range(1, length + 2)] == res.syzygies
    assert len(built) == length + 1  # reading again builds nothing
    # the same syzygy as an eager build: the kernel of a fresh cover of omega(length)
    eager = projective_cover(res.omega(length).module)
    assert eager.kernel_incl.matrix == last.incl.matrix
    assert last.incl.source is last.module and last.incl.target is res.projectives[length]
    assert all(x == y for x, y in zip(eager.kernel.action, last.module.action, strict=True))
    # the inclusion intertwines the dense action of the free term
    P = res.projectives[length]
    for x, y in zip(last.module.action, sum_action_reference(P.summands or (P,)), strict=True):
        assert (FpMatrix(A.p, y) @ last.incl.matrix) == (last.incl.matrix @ x)


UNSTABLE_COVER_KERNEL = """
import sys
import smallhom.algebra as algebra
from smallhom.linalg import FieldSpec
assert False, "reached only without -O"
# the transposed regular action moves x to 1, so the kernel (the radical) is not stable
real = algebra.free_module
algebra.free_module = lambda A, rank: algebra.Module(A, [x.transpose() for x in real(A, rank).action])
A = algebra.qci_algebra(FieldSpec(3), [3])
cover = algebra.projective_cover(algebra.trivial_module(A))
print("cover built")
try:
    cover.kernel
except algebra.CertificationError as exc:
    sys.exit(f"optimize={sys.flags.optimize}: {exc}")
"""


def test_an_unstable_cover_kernel_raises_when_read(monkeypatch, run_optimized):
    monkeypatch.setattr("smallhom.algebra.free_module", lambda A, rank: Module(
        A, [x.transpose() for x in free_module(A, rank).action]))
    cover = projective_cover(trivial_module(qci_algebra(F3, [3])))  # the kernel is not built yet
    for read in ("kernel", "kernel_incl"):
        with pytest.raises(CertificationError, match="^columns do not span an action-stable subspace$"):
            getattr(cover, read)
    run = run_optimized(UNSTABLE_COVER_KERNEL)
    assert (run.returncode, run.stdout) == (1, "cover built\n")
    assert run.stderr.strip() == "optimize=1: columns do not span an action-stable subspace"


def _reference_targets():
    """Targets over p = 2, 3, 5, one with q != 1: trivial, regular, free of
    ranks 0, 2 and 5, a syzygy (non-trivial, not free) and the zero module."""
    algebras = [qci_algebra(FieldSpec(2), [2, 2, 2], coproduct="primitive"),
                qci_algebra(F3, [3, 2], {(0, 1): -1}),
                qci_algebra(FieldSpec(5), [2, 3], {(0, 1): 2})]
    for A in algebras:
        for M in (trivial_module(A), regular_module(A), free_module(A, 0), free_module(A, 2), free_module(A, 5),
                  projective_cover(trivial_module(A)).kernel, zero_module(A)):
            yield A, M


@pytest.mark.parametrize("rank", [0, 1, 3])
def test_free_images_matrix_matches_per_monomial_reference(rank, free_images_reference):
    rng = np.random.default_rng(rank)
    for A, M in _reference_targets():
        V = FpMatrix(A.p, rng.integers(0, A.p, size=(M.dim, rank)))
        out = free_images_matrix(A, M, V)
        assert out.shape == (M.dim, rank * A.dim)
        assert np.array_equal(out.a, free_images_reference(A, M, V))


def test_mono_images_match_product_chain(mono_action_reference):
    for A, M in _reference_targets():
        acts = mono_images(M, FpMatrix.identity(A.p, M.dim))
        assert acts.shape == (M.dim, M.dim, A.dim)
        for k, mono in enumerate(A.basis):
            want = mono_action_reference(M, mono)
            assert np.array_equal(acts[:, :, k], want)
            # the coordinate lists of a leaf: a generator off its action, the unit
            # as the identity
            if sum(mono) <= 1:
                rows, cols, vals = _gen_coords(M, mono.index(1) if any(mono) else None)
                got = np.zeros((M.dim, M.dim), dtype=np.int64)
                np.add.at(got, (rows, cols), vals)
                assert np.array_equal(got % A.p, want)


@pytest.mark.parametrize("rank", [0, 1, 4])
def test_free_images_matrix_makes_one_product_per_generator_power(rank, matmul_calls, free_images_reference):
    # the powers of x_c act on V, then those of x_{c-1} on the stack of their
    # images, and so on: sum(a_i - 1) products, of width rank * prod_{j > i} a_j
    skew = qci_algebra(F3, [3, 3], {(0, 1): 2})
    env = enveloping(qci_algebra(FieldSpec(5), [2, 3], {(0, 1): 2})).algebra
    for A in (skew, env):
        M = projective_cover(trivial_module(A)).kernel
        V = FpMatrix(A.p, np.random.default_rng(rank).integers(0, A.p, size=(M.dim, rank)))
        matmul_calls.clear()
        out = free_images_matrix(A, M, V)
        assert matmul_calls == [(M.dim, M.dim, rank * prod(A.exponents[i + 1:]))
                                for i in reversed(range(A.ngens)) for _ in range(A.exponents[i] - 1)]
        assert np.array_equal(out.a, free_images_reference(A, M, V))
    assert len(matmul_calls) == 1 + 2 + 1 + 2  # env: exponents 2, 3, 2, 3


def test_submodule_reads_coordinates_and_rejects_unstable_columns(truncated, two_vars):
    reg = regular_module(two_vars)
    rad = radical_subspace(reg)
    sub, incl = submodule(reg, rad)
    assert sub.dim == 8 and incl.matrix == rad
    for x, inside in zip(reg.action, sub.action):
        assert inside == rad.solve(x @ rad)
    # the unit spans a line that x moves out of
    with pytest.raises(ValueError, match="action-stable"):
        submodule(regular_module(truncated), FpMatrix(3, [[1], [0], [0]]))
    with pytest.raises(ValueError, match="action-stable"):
        submodule(reg, rad.take_columns([0, 1]))


def test_echelon_pivots_reads_first_nonzero_rows():
    basis = FpMatrix(3, [[0, 0], [1, 0], [2, 0], [0, 1]])
    assert echelon_pivots(basis) == [1, 3]
    assert echelon_pivots(FpMatrix.zeros(3, 4, 0)) == []
    assert echelon_pivots(FpMatrix.zeros(3, 0, 0)) == []


UNSURJECTIVE_COVER = """
import sys
import smallhom.algebra as algebra
from smallhom.linalg import FieldSpec, FpMatrix
assert False, "reached only without -O"
# a free map that sends every generator to zero cannot be onto
algebra.free_images_matrix = lambda A, target, V: FpMatrix.zeros(A.p, target.dim, V.cols * A.dim)
A = algebra.qci_algebra(FieldSpec(3), [3])
try:
    algebra.projective_cover(algebra.trivial_module(A))
except AssertionError as exc:
    sys.exit(f"optimize={sys.flags.optimize}: {exc}")
"""


def test_cover_rejects_a_map_that_is_not_onto_under_optimize(run_optimized):
    # the surjectivity check must not be an assert, which python -O strips
    run = run_optimized(UNSURJECTIVE_COVER)
    assert run.returncode == 1
    assert run.stderr.strip() == "optimize=1: cover must be surjective"


def test_diagonal_tensor_proves_the_coproduct_once(truncated, tensor_diagonal_calls):
    ctx = DiagonalTensor(truncated)
    k, reg = trivial_module(truncated), regular_module(truncated)
    ctx.pair(k, reg)
    ctx.pair(reg, reg)
    # the first pair builds regular (x) regular for the proof, then its own tensor
    assert tensor_diagonal_calls == [(3, 3), (1, 3), (3, 3)]


def test_diagonal_tensor_builds_one_module_per_factor_pair(truncated, tensor_diagonal_calls):
    ctx = DiagonalTensor(truncated)
    k, reg = trivial_module(truncated), regular_module(truncated)
    T = ctx.pair(k, reg)
    assert is_projective(T)
    # the same factor objects give the same module, flag included
    assert ctx.pair(k, reg) is T and T._projective
    # another order or another object with equal action gives another tensor
    assert ctx.pair(reg, k) is not T and ctx.pair(k, regular_module(truncated)) is not T
    assert tensor_diagonal_calls == [(3, 3), (1, 3), (3, 1), (1, 3)]
    # a tensor that nobody holds is forgotten, and its pair built anew
    del T
    assert ctx.pair(k, reg)._projective is None
    assert tensor_diagonal_calls[-1] == (1, 3)


PROOF_CASES = {
    # x -> x(x)1 + 1(x)x + x(x)x + 1(x)1 = (1 + x)(x)(1 + x) over F_5: the
    # proof applies x(x)x through both factors' act, and x^5 acts as the identity
    "grouplike": ("real = Algebra.coproduct_terms\n"
                  "Algebra.coproduct_terms = lambda A, i: real(A, i) + [(1, i, i), (1, None, None)]\n"
                  "A = qci_algebra(FieldSpec(5), [5, 5], coproduct='primitive')\n",
                  "the coproduct violates x_0^5 = 0"),
    # x -> x(x)1 + 1(x)x + 1(x)1 is no algebra map: x^3 acts as the identity
    "unit-term": ("real = Algebra.coproduct_terms\n"
                  "Algebra.coproduct_terms = lambda A, i: real(A, i) + [(1, None, None)]\n"
                  "A = qci_algebra(FieldSpec(3), [3, 3], coproduct='primitive')\n",
                  "the coproduct violates x_0^3 = 0"),
    # (x(x)1 + 1(x)x)^2 = 2 x(x)x over F_3, past the constructor's guard
    "exponent": ("A = qci_algebra(FieldSpec(3), [2])\nA.coproduct = 'primitive'\n",
                 "the coproduct violates x_0^2 = 0"),
    # Delta(y) Delta(x) - q Delta(x) Delta(y) keeps (1 - q)(x(x)y + y(x)x)
    "commutator": ("A = qci_algebra(FieldSpec(3), [3, 3], {(0, 1): 2})\nA.coproduct = 'primitive'\n",
                   "the coproduct violates the commutation of 0,1"),
}

PROOF_SCRIPT = """
import sys
from smallhom.algebra import Algebra, CertificationError, DiagonalTensor, qci_algebra, trivial_module
from smallhom.linalg import FieldSpec
assert False, "reached only without -O"
{setup}
k = trivial_module(A)
try:
    DiagonalTensor(A).pair(k, k)
except CertificationError as exc:
    print(f"optimize={{sys.flags.optimize}} {{exc}}")
"""


@pytest.mark.parametrize("case", sorted(PROOF_CASES))
def test_coproduct_proof_fails_at_the_first_pair(case, monkeypatch, run_optimized):
    setup, message = PROOF_CASES[case]
    # the grouplike and unit-term cases replace Algebra.coproduct_terms; monkeypatch restores it
    monkeypatch.setattr(Algebra, "coproduct_terms", Algebra.coproduct_terms)
    scope = {"Algebra": Algebra, "FieldSpec": FieldSpec, "qci_algebra": qci_algebra}
    exec(setup, scope)
    ctx, k = DiagonalTensor(scope["A"]), trivial_module(scope["A"])
    with pytest.raises(CertificationError, match=f"^{re.escape(message)}$"):
        ctx.pair(k, k)
    run = run_optimized(PROOF_SCRIPT.format(setup=setup))
    assert run.stdout == f"optimize=1 {message}\n", run.stderr


def test_coproduct_proof_multiplies_factor_size_matrices(matmul_calls):
    A = qci_algebra(FieldSpec(7), [7, 7], coproduct="primitive")
    DiagonalTensor(A)._prove_coproduct()
    # matrix-vector chains on the 2401-dim regular (x) regular, at factor size
    assert matmul_calls and max(max(call) for call in matmul_calls) == A.dim


def _tensor_act_cases(A):
    """Factor pairs: regular, trivial, a syzygy, a zero-dim factor, a nested
    tensor (a tensor (x) regular) and a sum with a tensor summand."""
    k, reg, zero = trivial_module(A), regular_module(A), zero_module(A)
    syz = projective_cover(k).kernel
    return [(reg, reg), (syz, k), (k, syz), (reg, zero), (zero, syz),
            (tensor_diagonal(syz, reg), reg), (reg, tensor_diagonal(k, syz)),
            (direct_sum_modules([k, tensor_diagonal(syz, k)]), syz)]


@pytest.mark.parametrize("coproduct", ["primitive", "shifted"])
@pytest.mark.parametrize("p, exps", [(2, [2, 2]), (3, [3, 3]), (5, [5])], ids=["F2", "F3", "F5"])
def test_tensor_act_matches_the_eager_kronecker_sum(p, exps, coproduct, tensor_action_reference, matmul_calls):
    A = qci_algebra(FieldSpec(p), exps, coproduct=coproduct)
    rng = np.random.default_rng(p)
    for M, N in _tensor_act_cases(A):
        t = tensor_diagonal(M, N)
        ref = tensor_action_reference(M, N)
        for cols in (0, 1, 5):
            V = FpMatrix(p, rng.integers(0, p, (t.dim, cols)))
            matmul_calls.clear()
            got = [t.act(g, V) for g in range(A.ngens)]
            assert all(np.array_equal(x.a, r @ V.a % p) for x, r in zip(got, ref, strict=True)), (M, N)
            # every product multiplies a leaf's action, never the tensor's
            assert all(m <= A.dim and k <= A.dim for m, k, _ in matmul_calls)
        with pytest.raises(ValueError, match="^a diagonal tensor acts through its factors"):
            t.action


@pytest.mark.parametrize("coproduct", ["primitive", "shifted"])
@pytest.mark.parametrize("p, exps", [(2, [2, 2]), (3, [3, 3]), (5, [5])], ids=["F2", "F3", "F5"])
def test_tensor_projectivity_matches_the_dense_radical(p, exps, coproduct, projective_reference):
    A = qci_algebra(FieldSpec(p), exps, coproduct=coproduct)
    k = trivial_module(A)
    flags = []
    for M, N in _tensor_act_cases(A) + [(k, k)]:
        t = tensor_diagonal(M, N)
        flags.append(is_projective(t))
        assert flags[-1] == projective_reference(t), (M, N)
    # trivial (x) trivial is the trivial module: a tensor that is not projective
    assert flags[-1] is False and True in flags


@pytest.mark.parametrize("coproduct", ["primitive", "shifted"])
@pytest.mark.parametrize("p, exps", [(2, [2, 2]), (3, [3, 3]), (5, [5])], ids=["F2", "F3", "F5"])
def test_a_projective_factor_flags_a_pair_by_the_antipode(p, exps, coproduct, projective_reference, monkeypatch):
    A = qci_algebra(FieldSpec(p), exps, coproduct=coproduct)
    ranked, proofs = [], []
    real_rank, real_proof = algebra._free_by_rank, DiagonalTensor._prove_antipode
    monkeypatch.setattr(algebra, "_free_by_rank", lambda M: ranked.append(M) or real_rank(M))
    monkeypatch.setattr(DiagonalTensor, "_prove_antipode", lambda ctx: proofs.append(ctx) or real_proof(ctx))
    ctx = DiagonalTensor(A)
    k, reg, free = trivial_module(A), regular_module(A), free_module(A, 2)
    syz = projective_cover(k).kernel
    inner = ctx.pair(syz, free)  # a tensor with a free factor, as a factor
    pairs = [ctx.pair(M, N) for M, N in [(free, syz), (syz, reg), (inner, k), (k, direct_sum_modules([reg, free]))]]
    assert proofs == [ctx]  # the first pair proves the antipode
    assert all(is_projective(T) for T in pairs) and proofs == [ctx]
    assert not [M for M in ranked if M.factors is not None]  # no tensor ranked
    assert all(projective_reference(T) for T in pairs)
    # a tensor with no projective factor is ranked, though its factor is a tensor
    T = ctx.pair(ctx.pair(k, syz), k)
    assert is_projective(T) == projective_reference(T) and ranked[-1] is T
    assert proofs == [ctx]  # once per context
    # a tensor made outside a context is ranked, its free factor notwithstanding
    plain = tensor_diagonal(reg, k)
    assert is_projective(plain) and ranked[-1] is plain


def test_a_sum_of_one_module_pairs_as_that_module(truncated, tensor_diagonal_calls):
    ctx = DiagonalTensor(truncated)
    k, reg = trivial_module(truncated), regular_module(truncated)
    T = ctx.pair(k, reg)
    assert ctx.pair(direct_sum_modules([k]), direct_sum_modules([reg])) is T
    assert ctx.pair(direct_sum_modules([k, k]), reg) is not T
    assert tensor_diagonal_calls == [(3, 3), (1, 3), (2, 3)]


WRONG_ANTIPODE = """
import sys
from smallhom import cli
from smallhom.algebra import Algebra
assert False, "reached only without -O"
{setup}
sys.exit(cli.main(["certify", "--mode", "chain", "--char", "3", "--exponents", "3 3", "--coproduct", "{coproduct}"]))
"""

ANTIPODE_CASES = {
    # S(x) = x: m(S (x) 1)Delta(x) = 2x over F_3
    "identity": ("Algebra.antipode_terms = lambda A, i: [(1, 1)]\n",
                 "primitive", "the antipode violates m(S (x) 1)Delta(x_0) = 0 = m(1 (x) S)Delta(x_0)"),
    # S(t) = -t, the primitive antipode, misses the t^2 term the shifted one needs
    "first-term": ("real = Algebra.antipode_terms\nAlgebra.antipode_terms = lambda A, i: real(A, i)[:1]\n",
                   "shifted", "the antipode violates m(S (x) 1)Delta(x_0) = 0 = m(1 (x) S)Delta(x_0)"),
}


@pytest.mark.parametrize("case", sorted(ANTIPODE_CASES))
def test_a_wrong_antipode_fails_the_run(case, monkeypatch, capsys, run_optimized):
    from smallhom import cli

    setup, coproduct, message = ANTIPODE_CASES[case]
    monkeypatch.setattr(Algebra, "antipode_terms", Algebra.antipode_terms)
    exec(setup, {"Algebra": Algebra})
    argv = ["certify", "--mode", "chain", "--char", "3", "--exponents", "3 3", "--coproduct", coproduct]
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"certification error: {message}\n"
    run = run_optimized(WRONG_ANTIPODE.format(setup=setup, coproduct=coproduct))
    assert run.returncode == 2 and run.stderr == f"certification error: {message}\n"


FAKE_BIMODULE = """
import sys
from smallhom.algebra import CertificationError, Module, enveloping, qci_algebra, tensor_unit
from smallhom.linalg import FieldSpec
assert False, "reached only without -O"
A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
env = enveloping(A)
x = A.left_actions[0]
try:
    tensor_unit(env, Module(env.algebra, [x, x.transpose()], check=False))
except CertificationError as exc:
    sys.exit(f"optimize={sys.flags.optimize}: {exc}")
"""


def test_tensor_unit_checks_that_the_right_radical_is_stable(truncated, run_optimized):
    # left x and right x^T do not commute, so this unchecked "bimodule" is not
    # one, and x moves the span of x^T, (e0, e1), to e2: the projection onto
    # the quotient fails its law check
    env = enveloping(truncated)
    x = truncated.left_actions[0]
    fake = Module(env.algebra, [x, x.transpose()], check=False)
    with pytest.raises(CertificationError, match="^matrix does not intertwine the actions$"):
        tensor_unit(env, fake)
    run = run_optimized(FAKE_BIMODULE)
    assert run.returncode == 1
    assert run.stderr.strip() == "optimize=1: matrix does not intertwine the actions"


def test_sum_projectivity_reads_the_summands(truncated, projective_reference):
    k, free, reg = trivial_module(truncated), free_module(truncated, 2), regular_module(truncated)
    mixed = direct_sum_modules([k, free])
    both = direct_sum_modules([free, reg])
    assert mixed.summands == (k, free) and both.summands == (free, reg)
    assert not is_projective(mixed) and not projective_reference(mixed)
    assert is_projective(both) and projective_reference(both)
    assert not is_projective(direct_sum_modules([reg, mixed]))


@pytest.mark.parametrize("coproduct", ["primitive", "shifted"])
def test_deferred_actions_match_the_eager_assembly_and_build_once(coproduct, action_builds,
                                                                   sum_action_reference, tensor_action_reference):
    A = qci_algebra(F3, [3, 3], coproduct=coproduct)
    k, reg, free = trivial_module(A), regular_module(A), free_module(A, 2)
    mixed = direct_sum_modules([reg, k, free])
    t = tensor_diagonal(mixed, reg)
    nested = direct_sum_modules([t, mixed])
    assert action_builds == []  # nothing is assembled before it is read
    ref = sum_action_reference([reg, k, free])
    assert all(np.array_equal(x.a, r) for x, r in zip(mixed.action, ref, strict=True))
    assert mixed.action is mixed.action
    # a tensor, and a sum with a tensor summand, act without an assembled action
    for M, ref in ((t, tensor_action_reference(mixed, reg)), (nested, sum_action_reference([t, mixed]))):
        assert all(np.array_equal(x.a, r) for x, r in zip(_acting(M), ref, strict=True))
        with pytest.raises(ValueError, match="^a diagonal tensor acts through its factors"):
            M.action
    # assembling mixed reads the action of its free summand, two copies of one regular module
    assert action_builds == [("sum", (9, 1, 18)), ("sum", (9, 9))] and nested._action is None


def test_a_sum_acts_through_its_summands(two_vars, action_builds, sum_action_reference):
    k, reg = trivial_module(two_vars), regular_module(two_vars)
    total = direct_sum_modules([tensor_diagonal(reg, reg), k, free_module(two_vars, 2)])
    V = FpMatrix(3, np.random.default_rng(5).integers(0, 3, (total.dim, 4)))
    got = [total.act(g, V) for g in range(two_vars.ngens)]
    # neither the sum nor its tensor summand is assembled
    assert action_builds == [] and total._action is None
    assert got == [FpMatrix(3, x) @ V for x in sum_action_reference(total.summands)]


def test_hom_space_basis_of_a_tensor_is_not_assembled(two_vars):
    k, reg = trivial_module(two_vars), regular_module(two_vars)
    t = tensor_diagonal(reg, k)
    for M, N in ((t, k), (k, t), (direct_sum_modules([t, k]), k)):
        with pytest.raises(ValueError, match="^a diagonal tensor acts through its factors"):
            hom_space_basis(M, N)


@pytest.mark.parametrize("caps", [(0, 10), (-7, 10), (10, 0), (10, -1)])
def test_budget_rejects_nonpositive_caps(caps):
    with pytest.raises(ValueError, match="must be at least 1"):
        Budget(*caps)
