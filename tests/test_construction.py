"""The pushout construction, parameter systems, theta maps and pipelines."""

import itertools
from pathlib import Path

import numpy as np
import pytest

from smallhom import algebra, cli, construction, lefschetz
from smallhom.linalg import FieldSpec, FpMatrix
from smallhom.algebra import (
    Budget,
    BudgetExceeded,
    CertificationError,
    DiagonalTensor,
    enveloping,
    is_projective,
    minimal_resolution,
    projective_cover,
    qci_algebra,
    quotient_module,
    radical_subspace,
    regular_bimodule,
    regular_module,
    restrict_left,
    restrict_right,
    trivial_module,
    zero_module,
)
from smallhom.chain import (
    compose_shifted,
    homology_space,
    induced_on_homology,
    is_null_homotopic,
    mapping_cone,
    tensor_tower,
)
from smallhom.construction import (
    BimoduleRun,
    ChainRun,
    CohomologyClass,
    ParameterSystem,
    SymbolicRun,
    UnsupportedRank,
    _class_images,
    _delta_matrix,
    _diff_units,
    build_class_complex,
    build_thetas,
    class_from_images,
    ext_classes,
    find_parameter_system,
    passes_restriction_screen,
    pushout_module,
    tensor_pushouts,
    verify_parameter_system,
    yoneda_power,
)

F3 = FieldSpec(3)


def subquotient_classes(C):
    """The subquotient record of every degree of ``C``."""
    return {i: homology_space(C, i) for i in C.degrees()}


def subquotient_dims(C):
    """The class counts of the subquotient records, nonzero degrees only."""
    return {i: h.dim for i, h in subquotient_classes(C).items() if h.dim}


@pytest.fixture(scope="module")
def one_var():
    return qci_algebra(F3, [3], coproduct="primitive")


@pytest.fixture(scope="module")
def two_vars():
    return qci_algebra(F3, [3, 3], {(0, 1): 1}, coproduct="primitive")


@pytest.fixture(scope="module")
def res1(one_var):
    return minimal_resolution(trivial_module(one_var), 5)


@pytest.fixture(scope="module")
def res2(two_vars):
    return minimal_resolution(trivial_module(two_vars), 3)


def test_ext_class_counts(res1, res2):
    # every class is built, and so validated, as it is read
    assert len(list(ext_classes(res1, 2))) == 1
    assert len(list(ext_classes(res2, 2))) == 3
    with pytest.raises(ValueError, match="degrees n >= 1"):
        ext_classes(res1, 0)  # no pipeline asks for degree 0


def test_ext_class_degree_limit(res1, one_var):
    # cocycles are tested on the next syzygy, the last cover's kernel at
    # the top, so a resolution of length 5 gives classes through degree 5
    assert len(ext_classes(res1, 5)) == 1 and ext_classes(res1, 5)[0].degree == 5  # built and validated
    with pytest.raises(ValueError, match="resolution of length 5 cannot give degree 6 classes"):
        ext_classes(res1, 6)  # needs P_6
    # the power s of a degree-n class reads d_{s n} at most: length s n
    z = ext_classes(minimal_resolution(trivial_module(one_var), 4), 2)[0]
    assert yoneda_power(z, 2).degree == 4
    with pytest.raises(ValueError, match="resolution length 4 < 6 needed for power 3"):
        yoneda_power(z, 3)


def test_zero_class_rejected(res1, one_var):
    with pytest.raises(ValueError):
        class_from_images(res1, 2, FpMatrix.zeros(3, 1, 1))


NON_COCYCLE = """
import sys
import numpy as np
from smallhom.algebra import CertificationError, enveloping, minimal_resolution, qci_algebra, regular_bimodule
from smallhom.construction import _delta_matrix, _diff_units, class_from_images
from smallhom.linalg import FieldSpec, FpMatrix
assert False, "reached only without -O"
res = minimal_resolution(regular_bimodule(enveloping(qci_algebra(FieldSpec(5), [2, 3], {(0, 1): 2}))), 3)
cochain = np.zeros(res.module.dim * res.ranks[2], dtype=np.int64)
cochain[_delta_matrix(res, 2, _diff_units(res, 2)).a.any(axis=0).argmax()] = 1
try:
    class_from_images(res, 2, FpMatrix(5, cochain.reshape(res.module.dim, res.ranks[2])))
except CertificationError as exc:
    print(f"optimize={sys.flags.optimize} {exc}")
"""


def test_non_cocycle_is_a_certification_error(run_optimized):
    # a standard cochain that the coboundary map does not kill
    res = minimal_resolution(regular_bimodule(enveloping(qci_algebra(FieldSpec(5), [2, 3], {(0, 1): 2}))), 3)
    delta = _delta_matrix(res, 2, _diff_units(res, 2))
    cochain = np.zeros(delta.cols, dtype=np.int64)
    cochain[delta.a.any(axis=0).argmax()] = 1
    assert not (delta @ FpMatrix(5, cochain.reshape(-1, 1))).is_zero()
    with pytest.raises(CertificationError, match="^images do not define a cocycle$"):
        class_from_images(res, 2, FpMatrix(5, cochain.reshape(res.module.dim, res.ranks[2])))
    run = run_optimized(NON_COCYCLE)
    assert run.stdout == "optimize=1 images do not define a cocycle\n", run.stderr


@pytest.mark.parametrize("target", [
    lambda: trivial_module(qci_algebra(FieldSpec(2), [2, 2])),
    lambda: trivial_module(qci_algebra(F3, [3, 3])),
    lambda: trivial_module(qci_algebra(FieldSpec(5), [5])),
    lambda: trivial_module(qci_algebra(F3, [3, 3, 3])),
    lambda: regular_bimodule(enveloping(qci_algebra(FieldSpec(5), [2, 3], {(0, 1): 2}))),
], ids=["F2-2-2", "F3-3-3", "F5-5", "F3-3-3-3", "bimodule-F5-2-3-q2"])
def test_cocycles_on_the_next_syzygy_are_the_cocycles_through_the_next_differential(target):
    # f d_{n+1} = 0 exactly when f kills Omega_{n+1}, onto which P_{n+1}
    # maps: the kernels agree, whether Omega_{n+1} is a built syzygy (length
    # n + 1) or the last cover's kernel (length n), and so do the classes
    T = target()
    longer = minimal_resolution(T, 3)
    for n in (1, 2):
        shorter = minimal_resolution(T, n)
        assert shorter.length == n and len(shorter._syzygies) == n  # Omega_{n+1} is not built
        through_d = _delta_matrix(longer, n, _diff_units(longer, n)).kernel_basis()
        for res in (longer, shorter):
            on_omega = _delta_matrix(res, n, res.syzygy_cols(n + 1)).kernel_basis()
            assert on_omega.shape == through_d.shape and on_omega == through_d
        assert len(shorter._syzygies) == n  # reading its basis built no submodule
        assert _class_images(shorter, n) == _class_images(longer, n)


def test_coboundary_is_a_zero_class():
    # over the regular bimodule the coboundaries are nonzero, unlike the
    # trivial module's; a class built from one must be rejected
    skew = qci_algebra(FieldSpec(5), [2, 3], {(0, 1): 2})
    res = minimal_resolution(regular_bimodule(enveloping(skew)), 3)
    delta = _delta_matrix(res, 1, _diff_units(res, 1))
    j = int(np.flatnonzero(delta.a.any(axis=0))[0])
    images = FpMatrix(5, delta.a[:, j].reshape(res.module.dim, res.ranks[2]))
    with pytest.raises(ValueError, match="zero in cohomology"):
        class_from_images(res, 2, images)
    assert list(ext_classes(res, 2))  # every basis class builds and validates


def test_ext_classes_build_each_class_of_a_slice(res2):
    classes = ext_classes(res2, 2)
    head = classes[:2]
    assert [type(z) for z in head] == [CohomologyClass] * 2
    assert all(z is classes[k] for k, z in zip(range(1, 3), classes[1:]))
    assert head[0] is classes[0] and classes[5:] == []


def test_induced_morphism_is_epi_onto_unit(res1):
    z = ext_classes(res1, 2)[0]
    assert z.induced.matrix.rank() == 1
    assert z.induced.source.dim == res1.omega(2).module.dim


def test_yoneda_power_identity_and_growth(res1):
    z = ext_classes(res1, 2)[0]
    assert yoneda_power(z, 1) is z
    z2 = yoneda_power(z, 2)
    assert z2.degree == 4 and not z2.images.is_zero()
    with pytest.raises(ValueError):
        yoneda_power(z, 3)  # resolution of length 5 < 3*2


def test_yoneda_power_coherence(one_var):
    res = minimal_resolution(trivial_module(one_var), 9)
    z = ext_classes(res, 2)[0]
    a = yoneda_power(z, 4).images
    b = yoneda_power(yoneda_power(z, 2), 2).images
    stacked = FpMatrix(3, np.vstack([a.a.reshape(1, -1), b.a.reshape(1, -1)]))
    assert stacked.rank() == 1  # equal up to a nonzero scalar


def test_pushout_dimensions_rank1(res1):
    z = ext_classes(res1, 2)[0]
    K, mu, rho = pushout_module(z)
    # 1 + dim P_1 - dim Omega^2 = 1 + 3 - 1
    assert K.dim == 3
    assert K.dim == 1 + res1.omega(1).module.dim  # extension by Omega^{n-1}
    assert mu.matrix.rank() == 1
    assert is_projective(K)
    assert (rho @ mu).is_zero()


def test_pushout_dimensions_rank2(res2):
    z = ext_classes(res2, 2)[0]
    K, mu, rho = pushout_module(z)
    assert K.dim == 1 + 2 * 9 - res2.omega(2).module.dim == 9
    assert res2.omega(2).module.dim == 10
    assert K.dim == 1 + res2.omega(1).module.dim


WRONG_SIZE_PUSHOUT = """
import sys
import smallhom.construction as construction
from smallhom.algebra import minimal_resolution, qci_algebra, trivial_module
from smallhom.linalg import FieldSpec
assert False, "reached only without -O"
real = construction.quotient_module
# quotient by nothing: the ambient module, larger than the pushout
construction.quotient_module = lambda M, cols: real(M, cols.take_columns([]))
A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
res = minimal_resolution(trivial_module(A), 3)
try:
    construction.pushout_module(construction.ext_classes(res, 2)[0])
except AssertionError as exc:
    sys.exit(f"optimize={sys.flags.optimize}: {exc}")
"""


def test_pushout_rejects_a_wrong_size_quotient_under_optimize(run_optimized):
    # the dimension count must not be an assert, which python -O strips
    run = run_optimized(WRONG_SIZE_PUSHOUT)
    assert run.returncode == 1
    assert run.stderr.strip() == "optimize=1: pushout dimension count"


def _tensor_leaves(M) -> tuple:
    """The factor modules of a left-associated tensor, reading through sums of one module."""
    if M.factors is not None:
        return sum((_tensor_leaves(F) for F in M.factors), ())
    if M.summands is not None and len(M.summands) == 1:
        return _tensor_leaves(M.summands[0])
    return (M,)


def test_chain_run_ranks_the_k_tensor_once(monkeypatch):
    # configs/chain-rank2.ini and configs/chain-rank3-f2.ini: the tower's top
    # term pairs the same pushouts as the parameter search, so it is the same
    # module and shares its projectivity flag; every other tower and cone term
    # has a free factor, so no tensor but a tried tuple's K-tensor and, at
    # rank 3, its left factor K_1 (x) K_2 (at factor size) is ranked
    ranked, systems = [], []
    real_rank, real_verify = algebra._free_by_rank, construction.verify_parameter_system
    monkeypatch.setattr(algebra, "_free_by_rank", lambda M: ranked.append(M) or real_rank(M))
    monkeypatch.setattr(construction, "verify_parameter_system",
                        lambda ps, ctx, **kw: systems.append(ps) or real_verify(ps, ctx, **kw))
    for char, exponents, k_dim in [(3, [3, 3], 81), (2, [2, 2, 2], 512)]:
        ranked.clear()
        systems.clear()
        report = ChainRun(qci_algebra(FieldSpec(char), exponents, coproduct="primitive")).run()
        ps = systems[-1]  # the search tries tuples until one verifies
        assert ps.verified and list(ps.indices) == report["parameter_indices"]
        top = max(report["tensor_projective"])
        assert report["tensor_projective"][top] and report["tensor_dims"][top] == ps.tensor.dim == k_dim
        assert all(report["tensor_projective"].values()) and all(report["cone"]["projective"].values())
        tensors = [M for M in ranked if M.factors is not None]
        assert [_tensor_leaves(M) for M in tensors].count(tuple(z.pushout[0] for z in ps.classes)) == 1
        k_tensors = [s.tensor for s in systems if s.tensor is not None]
        parts = k_tensors + [F for T in k_tensors for F in T.factors]
        assert all(any(M is X for X in parts) for M in tensors)


def test_a_class_builds_its_pushout_once(monkeypatch):
    # F_3 [3, 3] has three degree-2 classes; with the first tuple (0, 1)
    # failing, class 0 is also in the second, (0, 2), and keeps its pushout
    A = qci_algebra(F3, [3, 3], coproduct="primitive")
    res = minimal_resolution(trivial_module(A), 3)
    assert len(ext_classes(res, 2)) == 3
    built, verdicts = [], iter([False])
    real = construction.pushout_module
    monkeypatch.setattr(construction, "pushout_module", lambda z: built.append(z) or real(z))
    monkeypatch.setattr(construction, "passes_restriction_screen", lambda classes: next(verdicts, True))
    ps = find_parameter_system(res, DiagonalTensor(A))
    assert ps.indices == (0, 2)
    assert len({id(z) for z in built}) == len(built) == 3  # each class once, not class 0 twice
    assert built[0] is ps.classes[0]
    z = ps.classes[0]
    first, second = build_class_complex(z), build_class_complex(z)
    assert first.pushout is second.pushout is z.pushout[0]
    assert first.complex.objects[1] is second.complex.objects[1] is z.pushout[0]
    assert len(built) == 3


UNSOLVABLE = """
import sys
import smallhom.construction as construction
from smallhom.algebra import minimal_resolution, qci_algebra, trivial_module
from smallhom.linalg import FieldSpec, FpMatrix
assert False, "reached only without -O"
A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
res = minimal_resolution(trivial_module(A), 5)
z = construction.ext_classes(res, 2)[0]
{corrupt}
try:
    {call}
except AssertionError as exc:
    sys.exit(f"optimize={{sys.flags.optimize}}: {{exc}}")
"""

# the cached right inverse of the degree-2 syzygy cover, zeroed: Z = full S is
# then zero, a module map, but Z E != full
ZEROED_SECTION = "res._sections[2] = FpMatrix.zeros(3, *res._sections[2].shape)"

FAILING_SOLVES = """
real = FpMatrix.solve
solved = []
def solve(self, b):
    # the first {keep} systems solve, every later one is inconsistent
    solved.append(b)
    return real(self, b) if len(solved) <= {keep} else None
FpMatrix.solve = solve
"""


@pytest.mark.parametrize("call, corrupt, message", [
    pytest.param("construction.class_from_images(res, 2, z.images)", ZEROED_SECTION,
                 "cocycles factor through the syzygy",
                 id="construction.class_from_images(res, 2, z.images)-zeroed section"),
    pytest.param("construction.yoneda_power(z, 2)", FAILING_SOLVES.format(keep=0),
                 "the class images lift through the augmentation",
                 id="construction.yoneda_power(z, 2)-0-the class images lift through the augmentation"),
    pytest.param("construction.yoneda_power(z, 2)", FAILING_SOLVES.format(keep=1),
                 "resolution exactness guarantees the lift",
                 id="construction.yoneda_power(z, 2)-1-resolution exactness guarantees the lift"),
])
def test_factorization_and_lifts_fail_under_optimize(run_optimized, call, corrupt, message):
    # a failed factorization or solve must raise, not pass an assert that python -O strips
    run = run_optimized(UNSOLVABLE.format(call=call, corrupt=corrupt))
    assert run.returncode == 1
    assert run.stderr.strip() == f"optimize=1: {message}"


def _delta_column_by_column(res, a, free_images_reference):
    """Hom(P_a, T) -> Hom(P_{a+1}, T) by its definition: each basis vector of
    Hom(P_a, T), as slot-unit images, composed with d_{a+1}; row-major."""
    A, T = res.algebra, res.module
    b_a, b_next = res.ranks[a], res.ranks[a + 1]
    d = res.diff(a + 1).matrix.a
    units = [t * A.dim + A.unit_index for t in range(b_next)]
    cols = np.zeros((T.dim * b_next, T.dim * b_a), dtype=np.int64)
    for j in range(T.dim * b_a):
        V = np.zeros(T.dim * b_a, dtype=np.int64)
        V[j] = 1
        full = free_images_reference(A, T, FpMatrix(A.p, V.reshape(T.dim, b_a)))
        cols[:, j] = (full @ d % A.p)[:, units].reshape(-1)
    return cols


def _delta_resolutions():
    """Targets over p = 2, 3, 5, one with q != 1: the trivial module, a
    syzygy, the regular bimodule, a free module (rank 0 from P_1 on) and the
    zero module."""
    F2_cube = qci_algebra(FieldSpec(2), [2, 2, 2], coproduct="primitive")
    skew = qci_algebra(FieldSpec(5), [2, 3], {(0, 1): 2})
    one = qci_algebra(F3, [3], coproduct="primitive")
    yield minimal_resolution(trivial_module(F2_cube), 3)
    yield minimal_resolution(trivial_module(skew), 3)
    yield minimal_resolution(projective_cover(trivial_module(skew)).kernel, 2)
    yield minimal_resolution(regular_bimodule(enveloping(one)), 3)
    yield minimal_resolution(regular_bimodule(enveloping(skew)), 2)
    yield minimal_resolution(regular_module(skew), 2)
    yield minimal_resolution(zero_module(one), 2)


def test_delta_matrix_matches_column_by_column_reference(free_images_reference, monkeypatch):
    stacked = []
    real = construction.mono_images

    def counted(M, V):
        stacked.append(M)
        return real(M, V)

    monkeypatch.setattr(construction, "mono_images", counted)
    for res in _delta_resolutions():
        stacked.clear()
        for a in range(res.length):
            delta = _delta_matrix(res, a, _diff_units(res, a))
            assert np.array_equal(delta.a, _delta_column_by_column(res, a, free_images_reference))
        # the target's monomial actions are stacked once per resolution
        assert stacked == [res.module]


def test_class_complex_homology_and_self_map(res1):
    z = ext_classes(res1, 2)[0]
    cc = build_class_complex(z)
    assert subquotient_dims(cc.complex) == {0: 1, 1: 1}
    assert not is_null_homotopic(cc.self_map)[0]
    square = compose_shifted(cc.self_map, cc.self_map)
    assert is_null_homotopic(square)[0]
    ind = induced_on_homology(cc.self_map, subquotient_classes(cc.complex))
    assert ind[0].rank() == 1  # isomorphism between the two unit homologies


def test_parameter_system_search_and_duplicate_failure(res2, two_vars):
    ctx = DiagonalTensor(two_vars)
    ps = find_parameter_system(res2, ctx)
    assert ps.verified
    big = tensor_pushouts([pushout_module(z)[0] for z in ps.classes], ctx)
    assert big.dim == 81 and is_projective(big)
    cls = ext_classes(res2, 2)
    bad = ParameterSystem((cls[0], cls[0]), (0, 0))
    assert not verify_parameter_system(bad, ctx)


@pytest.mark.parametrize("coproduct", ["primitive", "shifted"])
@pytest.mark.parametrize("char, exponents", [
    (2, [2, 2]), (3, [3, 3]), (2, [2, 2, 2]),
    pytest.param(3, [3, 3, 3], marks=pytest.mark.slow),  # 20 tensors of 19683 dimensions
], ids=["F2-2-2", "F3-3-3", "F2-2-2-2", "F3-3-3-3"])
def test_restriction_screen_rejects_exactly_the_tuples_whose_rank_fails(char, exponents, coproduct):
    # the screen against the full rank of each tuple's tensor, every tuple of
    # degree-2 basis classes that the parameter search could try
    A = qci_algebra(FieldSpec(char), exponents, coproduct=coproduct)
    classes = ext_classes(minimal_resolution(trivial_module(A), 3), 2)
    ctx = DiagonalTensor(A, Budget(10**6, 10**12))
    screened, ranked = [], []
    for combo in itertools.combinations(classes, len(exponents)):
        screened.append(passes_restriction_screen(combo))
        ranked.append(algebra._free_by_rank(tensor_pushouts([z.pushout[0] for z in combo], ctx)))
    assert screened == ranked and True in ranked and False in ranked


@pytest.mark.parametrize("char, exponents, coproduct, power", [
    (3, [3, 3], "primitive", 1), (3, [3, 3], "shifted", 1), (2, [2, 2, 2], "primitive", 1),
    (3, [3], "primitive", 2),
], ids=["F3-3-3-primitive", "F3-3-3-shifted", "F2-2-2-2", "F3-3-power2"])
def test_every_class_of_a_degree_gives_a_pushout_of_one_dimension(char, exponents, coproduct, power):
    # verify_parameter_system sizes a tuple from its first pushout: every
    # degree-n pushout is dim T + dim P_{n-1} - dim Omega^n, whatever the class
    A = qci_algebra(FieldSpec(char), exponents, coproduct=coproduct)
    n = 2 * power
    res = minimal_resolution(trivial_module(A), n + 1)
    classes = list(ext_classes(res, n))
    if power > 1:
        classes += [yoneda_power(z, power) for z in ext_classes(res, 2)]
    assert len(classes) > 1
    expected = res.module.dim + res.projectives[n - 1].dim - res.omega(n).module.dim
    assert {z.pushout[0].dim for z in classes} == {expected}


def test_a_refused_tuple_builds_its_first_class_only(monkeypatch):
    # the budget refuses F_2 [2, 2, 2]'s first tuple from its first pushout
    A = qci_algebra(FieldSpec(2), [2, 2, 2], coproduct="primitive")
    res = minimal_resolution(trivial_module(A), 3)
    built = []
    real = construction.class_from_images
    monkeypatch.setattr(construction, "class_from_images",
                        lambda res, n, images: built.append(n) or real(res, n, images))
    with pytest.raises(BudgetExceeded, match="parameter search: tensor 8 x 8 = 64 exceeds budget 63"):
        find_parameter_system(res, DiagonalTensor(A, Budget(63)))
    assert built == [2]


def test_parameter_search_takes_one_class_per_generator():
    # the count is the generator count: three classes over three generators
    A = qci_algebra(FieldSpec(2), [2, 2, 2], coproduct="primitive")
    ps = find_parameter_system(minimal_resolution(trivial_module(A), 3), DiagonalTensor(A))
    assert ps.verified and len(ps.classes) == len(ps.indices) == 3


def test_theta_maps_rank2(res2, two_vars):
    ctx = DiagonalTensor(two_vars)
    ps = find_parameter_system(res2, ctx)
    ccs = [build_class_complex(z) for z in ps.classes]
    tower = tensor_tower([cc.complex for cc in ccs], ctx)
    assert subquotient_dims(tower.complex) == {0: 1, 1: 2, 2: 1}
    thetas = build_thetas(tower, ccs)
    assert all(t.is_chain_map() for t in thetas)
    # graded commutator vanishes on the nose at chain level
    anti = compose_shifted(thetas[0], thetas[1]) + compose_shifted(thetas[1], thetas[0])
    assert anti.is_zero()
    sq = compose_shifted(thetas[0], thetas[0])
    assert sq.is_zero()
    # homology matrices: theta_1 theta_2 = -theta_2 theta_1, both isos H_0 -> H_2
    h = [induced_on_homology(t, subquotient_classes(tower.complex)) for t in thetas]
    prod01 = h[0][1] @ h[1][0]
    prod10 = h[1][1] @ h[0][0]
    assert prod01 == prod10.scale(-1)
    assert prod01.rank() == 1


def test_mini_cone_matches_oracle(res2, two_vars):
    from smallhom.lefschetz import LefschetzModel, cone_oracle

    ctx = DiagonalTensor(two_vars)
    ps = find_parameter_system(res2, ctx)
    ccs = [build_class_complex(z) for z in ps.classes]
    tower = tensor_tower([cc.complex for cc in ccs], ctx)
    thetas = build_thetas(tower, ccs)
    assert all(t.is_chain_map() for t in thetas)
    cone = mapping_cone(compose_shifted(thetas[0], thetas[1]))
    got = subquotient_dims(cone)
    predicted = cone_oracle(LefschetzModel(2, F3), ((1, (1, 2)),)).at_m(1)
    assert got == predicted
    assert sum(got.values()) == 6


def test_chain_run_rank_windows(one_var, two_vars):
    # the rank is the generator count: a stale positional rank is an error,
    # not a class degree
    with pytest.raises(TypeError):
        ChainRun(two_vars, 2)
    F2 = FieldSpec(2)
    with pytest.raises(UnsupportedRank, match="ranks 4..7"):
        ChainRun(qci_algebra(F2, [2] * 5))
    with pytest.raises(UnsupportedRank, match="chain level supports rank <= 3"):
        ChainRun(qci_algebra(F2, [2] * 9))
    with pytest.raises(UnsupportedRank, match="rank must be positive"):
        ChainRun(qci_algebra(F2, []))
    with pytest.raises(ValueError):
        ChainRun(one_var, degree=3)


def test_chain_run_rank1_report(one_var):
    rep = ChainRun(one_var).run()
    assert all(v.passed for v in rep["verdicts"])
    assert rep["betti"] == [1, 1, 1, 1]
    assert rep["family_lengths"] == [(1 + 2) * (2 * s - 1) + 2 for s in range(1, 6)]


def test_chain_run_budget(two_vars):
    with pytest.raises(BudgetExceeded):
        ChainRun(two_vars, budget=Budget(max_dim=50)).run()


def test_symbolic_run_values():
    rep = SymbolicRun(F3, 8).run()
    assert all(v.passed for v in rep["verdicts"])
    assert rep["total"] == 252 and rep["bound"] == 256
    rep10 = SymbolicRun(F3, 10).run()
    assert rep10["total"] == 1008 == 2 ** 10 - 2 ** 4
    with pytest.raises(UnsupportedRank):
        SymbolicRun(F3, 7)


def test_symbolic_char2_is_a_control():
    rep = SymbolicRun(FieldSpec(2), 8).run()
    names = {v.name: v.passed for v in rep["verdicts"]}
    assert names["lefschetz_profile_control"]


def test_bimodule_run_report():
    A = qci_algebra(F3, [3])
    rep = BimoduleRun(A, degree=2).run()
    assert all(v.passed for v in rep["verdicts"])
    assert rep["bimodule_betti"] == [1, 1, 1, 1]
    assert rep["pushout_dim"] == 9
    assert rep["homology_dims"] == {0: 3, 1: 3}
    assert rep["reduced_pushout_dim"] == 3


def test_bimodule_run_rank_window():
    A = qci_algebra(F3, [3, 3, 3], {})
    with pytest.raises(UnsupportedRank):
        BimoduleRun(A)
    # rank 2 is rejected before the enveloping resolution: no class of these
    # algebras gives a projective reduced pushout
    for B in (qci_algebra(FieldSpec(2), [2, 2]), qci_algebra(F3, [3, 3]), qci_algebra(F3, [3, 3], {(0, 1): 2})):
        with pytest.raises(UnsupportedRank, match="rank 1 only"):
            BimoduleRun(B)
    with pytest.raises(TypeError):
        BimoduleRun(qci_algebra(F3, [3]), 2)


def test_lefschetz_element_missing_t7_t8_fails_cone_total(monkeypatch):
    # negative control: without t_7 t_8 the rank-8 cone total is 280, not 252
    monkeypatch.setattr(lefschetz, "LEFSCHETZ_TERMS", lefschetz.LEFSCHETZ_TERMS[:3])
    rep = SymbolicRun(F3, 8).run()
    names = {v.name: v.passed for v in rep["verdicts"]}
    assert rep["cone_total_rank8"] == 280 and names["cone_total"] is False


def test_nonprojective_tensor_fails_only_lemma_projective(one_var, nonprojective_powered_tensor):
    # negative control: the operational test of the powered parameter system
    rep = ChainRun(one_var, power=2).run()
    assert len(nonprojective_powered_tensor) == 2
    failed = [v.name for v in rep["verdicts"] if not v.passed]
    assert failed == ["lemma_projective"]


def test_corrupted_sign_hook_breaks_thetas(two_vars):
    rep = ChainRun(two_vars, drop_koszul_sign=True).run()
    names = {v.name: v.passed for v in rep["verdicts"]}
    assert names["theta_chain_maps"] is False


@pytest.mark.parametrize("char, exponents, power", [(3, [3, 3], 1), (2, [2, 2], 2)])
def test_recorded_sum_flags_match_the_radical_test(char, exponents, power, monkeypatch,
                                                   projective_reference):
    # configs/chain-rank2.ini, and F_2 2 2 at power 2: every tower and cone
    # term is a recorded sum, flagged from its summands
    seen = []
    real = construction.projectivity_flags

    def recorded(C):
        seen.append((C, real(C)))
        return seen[-1][1]

    monkeypatch.setattr(construction, "projectivity_flags", recorded)
    A = qci_algebra(FieldSpec(char), exponents, coproduct="primitive")
    assert all(v.passed for v in ChainRun(A, power=power).run()["verdicts"])
    assert len(seen) == 2  # the tensor tower, then the cone
    for C, flags in seen:
        assert C.objects and all(M.summands is not None for M in C.objects.values())
        assert flags == {i: projective_reference(M) for i, M in sorted(C.objects.items())}


def test_leaf_projectivity_matches_the_radical_test(projective_reference):
    # modules with stored actions, ranked from the coordinate lists of their
    # nonzeros: the summands of resolution terms, syzygies, pushouts,
    # quotients, one-sided restrictions of bimodules, trivial and zero-dim modules
    leaves = []
    for A in (qci_algebra(FieldSpec(2), [2, 2]), qci_algebra(F3, [3, 2], {(0, 1): -1}), qci_algebra(FieldSpec(5), [5])):
        res = minimal_resolution(trivial_module(A), 3)
        leaves += [S for P in res.projectives for S in P.summands or (P,)]
        leaves += [S.module for S in res.syzygies] + [trivial_module(A), zero_module(A)]
        leaves += [pushout_module(z)[0] for z in ext_classes(res, 2)]
        reg = regular_module(A)
        leaves += [quotient_module(reg, cols)[0] for cols in (radical_subspace(reg), FpMatrix.zeros(A.p, A.dim, 0))]
        env = enveloping(A)
        bimodules = [S.module for S in minimal_resolution(regular_bimodule(env), 1).syzygies]
        for M in [regular_bimodule(env)] + bimodules:
            leaves += [M, restrict_left(env, M), restrict_right(env, M)]
    assert all(M.summands is None and M.factors is None for M in leaves)
    flags = [is_projective(M) for M in leaves]
    assert flags == [projective_reference(M) for M in leaves]
    assert True in flags and False in flags


# not the raised-budget templates (``*-raised.ini``): a dense radical stack of
# their 14641-dim terms would take gigabytes, and their certificates are held
# byte for byte by test_golden_certificates.py
CONFIGS = sorted(c for c in (Path(__file__).resolve().parent.parent / "configs").glob("*.ini")
                 if not c.stem.endswith("-raised"))


@pytest.mark.parametrize("config", CONFIGS, ids=[c.stem for c in CONFIGS])
def test_tower_and_cone_summands_match_the_radical_test(config, chain_run_parts, projective_reference, tmp_path):
    # every term of every tower and cone, and every summand of those terms
    # down to the diagonal tensors and their factors' sums, the terms of the
    # tower's left-associated partial products among them
    assert cli.main(["certify", "--config", str(config), "--out", str(tmp_path / "run.cert")]) == 0
    complexes = [t.complex for t in chain_run_parts["towers"]] + chain_run_parts["cones"]
    seen, stack = {}, [M for C in complexes for M in C.objects.values()]
    while stack:
        M = stack.pop()
        if id(M) not in seen:
            seen[id(M)] = M
            stack += list(M.summands or ()) + list(M.factors or ())
    tensors = [M for M in seen.values() if M.factors is not None]
    assert bool(tensors) == config.stem.startswith("chain")
    assert all(is_projective(M) == projective_reference(M) for M in seen.values())
