"""Chain complexes, homology, cones, homotopies and tensor products."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import smallhom
from smallhom import chain, cli, construction
from smallhom.linalg import FieldSpec, FpMatrix
from smallhom.algebra import (
    CertificationError,
    Budget,
    BudgetExceeded,
    DiagonalTensor,
    ModuleMorphism,
    hom_space_basis,
    qci_algebra,
    regular_module,
    trivial_module,
)
from smallhom.chain import (
    ChainComplex,
    ChainMap,
    certify_classes,
    compose_shifted,
    cone_homology_dims,
    euler_characteristic,
    homology_rank_dims,
    homology_space,
    induced_on_homology,
    is_null_homotopic,
    kunneth_classes,
    mapping_cone,
    projectivity_flags,
    shift_complex,
    tensor_pair,
    tensor_tower,
)
from smallhom.construction import ChainRun

F3 = FieldSpec(3)


def subquotient_classes(C):
    """The subquotient record of every degree of ``C``."""
    return {i: homology_space(C, i) for i in C.degrees()}


def subquotient_dims(C):
    """The class counts of the subquotient records, nonzero degrees only."""
    return {i: h.dim for i, h in subquotient_classes(C).items() if h.dim}


@pytest.fixture(scope="module")
def algebra():
    return qci_algebra(F3, [3], coproduct="primitive")


@pytest.fixture(scope="module")
def two_term(algebra):
    """A --x--> A, homology k in degrees 0 and 1."""
    reg = regular_module(algebra)
    d = ModuleMorphism(reg, reg, algebra.left_actions[0], check=True)
    return ChainComplex(algebra, {0: reg, 1: reg}, {1: d})


def test_d_squared_enforced(algebra):
    reg = regular_module(algebra)
    x = ModuleMorphism(reg, reg, algebra.left_actions[0], check=True)
    ident = ModuleMorphism.identity(reg)
    with pytest.raises(ValueError):
        ChainComplex(algebra, {0: reg, 1: reg, 2: reg}, {1: ident, 2: ident})
    # d1 d2 = x . x^2 = 0 is fine
    xsq = ModuleMorphism(reg, reg, algebra.left_actions[0].power(2), check=True)
    ChainComplex(algebra, {0: reg, 1: reg, 2: reg}, {1: x, 2: xsq})


def test_stalk_homology(algebra):
    k = trivial_module(algebra)
    s = ChainComplex(algebra, {0: k}, {})
    assert subquotient_dims(s) == {0: 1}
    assert homology_space(s, 0).module.dim == 1 and homology_space(s, 5).module.dim == 0


def test_shift_identities(two_term):
    assert shift_complex(two_term, 0).dims() == two_term.dims()
    back = shift_complex(shift_complex(two_term, 1), -1)
    assert back.dims() == two_term.dims()
    assert back.diffs[1].matrix == two_term.diffs[1].matrix
    up = shift_complex(two_term, 1)
    assert up.diffs[2].matrix == two_term.diffs[1].matrix.scale(-1)


def test_shift_of_stalk_has_no_sign(algebra):
    s = ChainComplex(algebra, {0: trivial_module(algebra)}, {})
    moved = shift_complex(s, 3)
    assert moved.dims() == {3: 1} and not moved.diffs


def test_homology_of_two_term(two_term):
    assert subquotient_dims(two_term) == {0: 1, 1: 1}
    assert euler_characteristic(two_term) == 0


def test_homology_induced_module_structure(algebra):
    # A --x^2--> A: H_0 = A/(x^2) is 2-dimensional with a nontrivial action
    reg = regular_module(algebra)
    d = ModuleMorphism(reg, reg, algebra.left_actions[0].power(2), check=True)
    C = ChainComplex(algebra, {0: reg, 1: reg}, {1: d})
    h0 = homology_space(C, 0).module
    assert h0.dim == 2 and not h0.action[0].is_zero()
    assert h0.action[0].power(2).is_zero()


def test_class_of_rejects_a_non_cycle(two_term):
    # H_1 of A --x--> A is spanned by x^2; the unit is not a cycle
    hs = homology_space(two_term, 1)
    assert hs.class_of(FpMatrix(3, [[0], [0], [1]])) == FpMatrix(3, [[1]])
    with pytest.raises(ValueError, match="not a cycle"):
        hs.class_of(FpMatrix(3, [[1], [0], [0]]))


def test_failed_chain_checks_raise_certification_error(algebra, two_term):
    reg = regular_module(algebra)
    ident = ModuleMorphism.identity(reg)
    with pytest.raises(CertificationError, match="d_1 d_2"):
        ChainComplex(algebra, {0: reg, 1: reg, 2: reg}, {1: ident, 2: ident})
    with pytest.raises(CertificationError, match="not a cycle"):
        homology_space(two_term, 1).class_of(FpMatrix(3, [[1], [0], [0]]))
    with pytest.raises(CertificationError, match="chain-map law"):
        ChainMap(two_term, two_term, 0, {0: ident})
    # is_chain_map still reads the failed law as False
    assert not ChainMap(two_term, two_term, 0, {0: ident}, check=False).is_chain_map()


BROKEN_COMPLEX = """
import sys
from smallhom.algebra import ModuleMorphism, qci_algebra, regular_module
from smallhom.chain import ChainComplex, homology_space
from smallhom.linalg import FieldSpec
assert False, "reached only without -O"
A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
reg = regular_module(A)
ident = ModuleMorphism.identity(reg)
C = ChainComplex(A, {0: reg, 1: reg, 2: reg}, {1: ident, 2: ident}, check=False)
try:
    homology_space(C, 1)
except AssertionError as exc:
    sys.exit(f"optimize={sys.flags.optimize}: {exc}")
"""


def test_homology_space_rejects_d_squared_nonzero_under_optimize():
    # d_1 d_2 = id, so the boundaries are not cycles; the check must not be
    # an assert, which python -O strips
    src = os.path.dirname(os.path.dirname(smallhom.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    run = subprocess.run([sys.executable, "-O", "-c", BROKEN_COMPLEX],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 1
    assert run.stderr.strip() == "optimize=1: boundaries must be cycles"


NEGATIVE_HOMOLOGY = """
import sys
from smallhom.algebra import ModuleMorphism, qci_algebra, trivial_module
from smallhom.chain import ChainComplex, homology_rank_dims
from smallhom.linalg import FieldSpec
assert False, "reached only without -O"
A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
k = trivial_module(A)
one = ModuleMorphism.identity(k)
C = ChainComplex(A, {0: k, 1: k, 2: k}, {1: one, 2: one}, check=False)
try:
    homology_rank_dims(C)
except AssertionError as exc:
    sys.exit(f"optimize={sys.flags.optimize}: {exc}")
"""


def test_homology_rank_dims_rejects_negative_homology_under_optimize(run_optimized):
    # d_1 d_2 = 1 on k -> k -> k, so dim H_1 = 1 - 1 - 1 = -1; the check
    # guards the reference route, so it must not be an assert
    run = run_optimized(NEGATIVE_HOMOLOGY)
    assert run.returncode == 1
    assert run.stderr.strip() == "optimize=1: rank bookkeeping must stay non-negative: dim H_1 = -1"


def test_cone_of_identity_is_exact(two_term):
    cone = mapping_cone(ChainMap.identity(two_term))
    assert subquotient_dims(cone) == {}
    assert euler_characteristic(cone) == 0


def test_cone_of_zero_map(two_term, algebra):
    zero = ChainMap(two_term, two_term, 0, {}, check=True)
    cone = mapping_cone(zero)
    # homology of target plus shifted homology of source
    assert subquotient_dims(cone) == {0: 1, 1: 2, 2: 1}


def test_cone_les_identity_on_random_maps(algebra):
    # f = d h + h d is always a chain map; test the cone dimension identity
    rng = random.Random(7)
    reg = regular_module(algebra)
    k = trivial_module(algebra)
    x = ModuleMorphism(reg, reg, algebra.left_actions[0], check=True)
    C = ChainComplex(algebra, {0: reg, 1: reg}, {1: x})
    hom01 = [FpMatrix(3, col.reshape(reg.dim, reg.dim)) for col in hom_space_basis(reg, reg).a.T]
    for _ in range(10):
        h0 = sum((rng.randrange(3) * b.a for b in hom01), 0 * hom01[0].a)
        h = {0: ModuleMorphism(reg, reg, FpMatrix(3, h0), check=True)}
        comps = {}
        comps[0] = ModuleMorphism(reg, reg, C.diffs[1].matrix @ h[0].matrix, check=False)
        comps[1] = ModuleMorphism(reg, reg, h[0].matrix @ C.diffs[1].matrix, check=False)
        f = ChainMap(C, C, 0, comps, check=True)
        cone = mapping_cone(f)
        hf = induced_on_homology(f, subquotient_classes(C))
        for i in range(0, 3):
            hs = homology_space(C, i).module.dim
            ht = homology_space(C, i - 1).module.dim
            coker = homology_space(C, i).module.dim
            if i in hf:
                coker = homology_space(C, i).module.dim - hf[i].rank()
            ker = 0
            if (i - 1) in hf:
                ker = homology_space(C, i - 1).module.dim - hf[i - 1].rank()
            elif homology_space(C, i - 1).module.dim:
                ker = homology_space(C, i - 1).module.dim
            got = homology_space(cone, i).module.dim if i <= cone.hi else 0
            expected = (coker if homology_space(C, i).module.dim else 0) + ker
            assert got == expected


def test_null_homotopy_cases(two_term, monkeypatch):
    zero = ChainMap(two_term, two_term, 0, {}, check=True)
    ok, witness = is_null_homotopic(zero)
    assert ok and witness == {}
    ident = ChainMap.identity(two_term)
    assert not is_null_homotopic(ident)[0]
    cone = mapping_cone(ident)
    # the unknowns are Hom-space coordinates: with every Hom basis between
    # the cone's sums solved beforehand, the solver writes no intertwining rows
    bases = {j: hom_space_basis(cone.module_at(j), cone.module_at(j + 1)) for j in cone.degrees()}
    calls = []
    monkeypatch.setattr("smallhom.algebra.intertwining_system", lambda *a: calls.append(a))
    monkeypatch.setattr(chain, "intertwining_system", lambda *a: calls.append(a), raising=False)
    ok, witness = is_null_homotopic(ChainMap.identity(cone))
    assert ok and witness and calls == []
    for j, h in witness.items():
        assert (h.source, h.target) == (cone.module_at(j), cone.module_at(j + 1))
        assert bases[j].solve(FpMatrix(3, h.matrix.a.reshape(-1, 1))) is not None


def test_class_complex_self_map_is_decided_with_no_unknowns(monkeypatch):
    # the complex spans degrees 0..n-1 and the self map has shift n-1, so
    # every h_j would land in a zero term: the system has no columns
    from smallhom.algebra import minimal_resolution
    from smallhom.construction import build_class_complex, ext_classes

    A = qci_algebra(F3, [3], coproduct="primitive")
    cc = build_class_complex(ext_classes(minimal_resolution(trivial_module(A), 3), 2)[0])
    shapes, real = [], FpMatrix.solve
    monkeypatch.setattr(FpMatrix, "solve", lambda self, b: shapes.append(self.shape) or real(self, b))
    assert is_null_homotopic(cc.self_map) == (False, None)
    assert len(shapes) == 1 and shapes[0][0] > 0 and shapes[0][1] == 0


ZERO_WITNESS = """
import sys
from smallhom.algebra import ModuleMorphism, qci_algebra, regular_module
from smallhom.chain import ChainComplex, ChainMap, is_null_homotopic
from smallhom.linalg import FieldSpec, FpMatrix
assert False, "reached only without -O"
# every system "solves" to zero: the zero witnesses are module maps, but
# d h + h d = 0 is not the identity
FpMatrix.solve = lambda self, b: FpMatrix.zeros(self.p, self.cols, b.cols)
A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
reg = regular_module(A)
C = ChainComplex(A, {0: reg, 1: reg}, {1: ModuleMorphism(reg, reg, A.left_actions[0])})
try:
    print(is_null_homotopic(ChainMap.identity(C)))
except AssertionError as exc:
    print(f"optimize={sys.flags.optimize}: {exc}")
"""


def test_null_homotopy_recheck_survives_optimize(run_optimized):
    # the re-check certifies the witness, so it must not be an assert
    run = run_optimized(ZERO_WITNESS)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "optimize=1: homotopy witness failed re-check\n"


def test_compose_with_identity(two_term):
    ident = ChainMap.identity(two_term)
    x = two_term.diffs[1]
    f = ChainMap(two_term, two_term, -1, {1: x}, check=True)
    assert compose_shifted(f, ident).comps[1].matrix == x.matrix
    assert compose_shifted(ident, f).comps[1].matrix == x.matrix


def test_tensor_with_unit_stalk(two_term, algebra):
    ctx = DiagonalTensor(algebra)
    unit = ChainComplex(algebra, {0: trivial_module(algebra)}, {})
    t = tensor_pair(two_term, unit, ctx).complex
    assert t.dims() == two_term.dims()
    assert subquotient_dims(t) == subquotient_dims(two_term)


def test_kunneth_convolution(two_term, algebra):
    ctx = DiagonalTensor(algebra)
    t = tensor_pair(two_term, two_term, ctx).complex
    assert subquotient_dims(t) == {0: 1, 1: 2, 2: 1}
    assert euler_characteristic(t) == 0


def test_tower_three_factors(two_term, algebra):
    ctx = DiagonalTensor(algebra)
    tower = tensor_tower([two_term] * 3, ctx)
    assert subquotient_dims(tower.complex) == {0: 1, 1: 3, 2: 3, 3: 1}


def test_tower_checks_every_stage_before_building(two_term, algebra, tensor_diagonal_calls):
    # stage 1 gives terms (9, 18, 9); stage 2 pairs them with (3, 3), largest 18 x 3
    with pytest.raises(BudgetExceeded, match=r"^tensor tower: tensor 18 x 3 = 54 exceeds budget 53$"):
        tensor_tower([two_term] * 3, DiagonalTensor(algebra, Budget(max_dim=53)))
    assert tensor_diagonal_calls == []
    tensor_tower([two_term] * 3, DiagonalTensor(algebra, Budget(max_dim=54)))
    # the coproduct proof on regular (x) regular at the first pair, then one
    # tensor per pair of factor objects: two_term holds one regular module in
    # both degrees, so stage 1's four summands share one tensor T; a sum of
    # one module pairs as that module, so stage 2's two one-summand sums (in
    # degrees 0 and 2) share T (x) regular, and its 18-dim sum adds one more
    assert tensor_diagonal_calls == [(3, 3), (3, 3), (9, 3), (18, 3)]


@pytest.mark.parametrize("char, exponents, power", [(3, [3, 3], 1), (2, [2, 2], 2)])
def test_chain_run_budget_is_exact(char, exponents, power, monkeypatch):
    # the largest tensor pair a run builds is exactly the budget it needs
    A = qci_algebra(FieldSpec(char), exponents, coproduct="primitive")
    sizes = []
    pair = DiagonalTensor.pair

    def recorded(self, M, N):
        sizes.append(M.dim * N.dim)
        return pair(self, M, N)

    monkeypatch.setattr(DiagonalTensor, "pair", recorded)

    def run(max_dim, max_entries):
        sizes.clear()
        return ChainRun(A, power=power, budget=Budget(max_dim, max_entries)).run()

    run(10**6, 10**12)
    largest = max(sizes)
    assert all(v.passed for v in run(largest, largest**2)["verdicts"])
    for caps in [(largest - 1, 10**12), (10**6, largest**2 - 1)]:
        with pytest.raises(BudgetExceeded):
            run(*caps)
        # the size check, not pair's own guard, stopped the run
        assert largest not in sizes


def test_lift_factor_map_koszul_sign(two_term, algebra):
    # lifting the degree-1 map x: C -> C on either factor of C (x) C must
    # still be a chain map; the right lift needs the Koszul sign
    ctx = DiagonalTensor(algebra)
    tower = tensor_tower([two_term, two_term], ctx)
    reg = regular_module(algebra)
    xsq = ModuleMorphism(reg, reg, algebra.left_actions[0].power(2), check=True)
    f = ChainMap(two_term, two_term, 1, {0: xsq}, check=True)
    for i in (0, 1):
        lifted = tower.lift_factor_map(i, f)
        assert lifted.is_chain_map()
    broken = tower.lift_factor_map(1, f, drop_koszul_sign=True)
    assert not broken.is_chain_map()


def test_projectivity_flags_and_summary(two_term):
    assert projectivity_flags(two_term) == {0: True, 1: True}
    assert two_term.dims() == {0: 3, 1: 3}
    assert subquotient_dims(two_term) == {0: 1, 1: 1}


def test_rank_dims_agree_with_subquotients(two_term, algebra):
    # two independent homology computations: subquotient modules vs ranks
    assert homology_rank_dims(two_term) == subquotient_dims(two_term)
    ctx = DiagonalTensor(algebra)
    t = tensor_pair(two_term, two_term, ctx).complex
    assert homology_rank_dims(t) == subquotient_dims(t) == {0: 1, 1: 2, 2: 1}
    cone = mapping_cone(ChainMap.identity(two_term))
    assert homology_rank_dims(cone) == {}


def test_rank_dims_agree_with_subquotients_on_the_rank2_cone():
    # the F_3 `3 3` primitive cone of ChainRun, whose certificate reads its
    # homology off the long exact sequence; ranks and subquotients agree
    from smallhom.construction import build_class_complex, build_thetas, find_parameter_system
    from smallhom.algebra import minimal_resolution

    A = qci_algebra(F3, [3, 3], {(0, 1): 1}, coproduct="primitive")
    ctx = DiagonalTensor(A)
    ps = find_parameter_system(minimal_resolution(trivial_module(A), 3), ctx)
    ccs = [build_class_complex(z) for z in ps.classes]
    tower = tensor_tower([cc.complex for cc in ccs], ctx)
    thetas = build_thetas(tower, ccs)
    assert all(t.is_chain_map() for t in thetas)
    cone = mapping_cone(compose_shifted(thetas[0], thetas[1]))
    ranks = homology_rank_dims(cone)
    assert all(d.matrix._rref is None for d in cone.diffs.values())  # the rank route peeled
    assert ranks == subquotient_dims(cone) == {0: 1, 1: 2, 4: 2, 5: 1}


CONFIGS = Path(__file__).resolve().parent.parent / "configs"
RANK2_TEMPLATE = ["--config", str(CONFIGS / "chain-rank2.ini")]
RANK3_TEMPLATE = ["--config", str(CONFIGS / "chain-rank3-f2.ini")]
F2_POWER2 = ["--mode", "chain", "--char", "2", "--exponents", "2 2", "--power", "2", "--coproduct"]
F3_SHIFTED = ["--mode", "chain", "--char", "3", "--exponents", "3 3", "--coproduct", "shifted"]


@pytest.mark.parametrize("args", [RANK2_TEMPLATE, F2_POWER2 + ["primitive"], F2_POWER2 + ["shifted"],
                                  RANK3_TEMPLATE, F3_SHIFTED],
                         ids=["chain-rank2", "f2-power2-primitive", "f2-power2-shifted", "chain-rank3-f2",
                              "f3-shifted"])
def test_kunneth_classes_against_the_subquotient_route(args, chain_run_parts, tmp_path):
    # the subquotient and rank routes on the run's own tower and cone are the reference
    assert cli.main(["certify", *args, "--out", str(tmp_path / "run.cert")]) == 0
    (tower,), (thetas,), (cone,) = (chain_run_parts[k] for k in ("towers", "thetas", "cones"))
    big = tower.complex
    dims = homology_rank_dims(big)
    sub = subquotient_classes(big)
    assert {n: h.dim for n, h in sub.items() if h.dim} == dims
    classes = kunneth_classes(tower)
    assert list(classes) == list(sub)  # one record per tower degree
    certify_classes(big, classes)
    assert {n: h.dim for n, h in classes.items() if h.dim} == dims
    # the cone by the long exact sequence against the cone's ranks, and a
    # zero map, whose cone splits, against its own
    u = compose_shifted(thetas[0], thetas[1])
    assert cone_homology_dims(u, classes) == homology_rank_dims(cone)
    zero = ChainMap(big, big, u.shift, {}, check=False)
    split = cone_homology_dims(zero, classes)
    assert split == homology_rank_dims(mapping_cone(zero)) != homology_rank_dims(cone)
    # subquotient coordinates of the Kunneth representatives: a change of basis
    change = {n: sub[n].class_of(h.reps) for n, h in classes.items() if h.dim}
    assert list(change) == list(dims)
    assert all(P.shape == (dims[n], dims[n]) and P.rank() == dims[n] for n, P in change.items())
    for n, P in change.items():
        assert all(xs @ P == P @ xk for xs, xk in zip(sub[n].action(), classes[n].action()))
    nonzero = 0
    for theta in thetas:
        old, new = induced_on_homology(theta, sub), induced_on_homology(theta, classes)
        assert list(old) == list(new)
        for j, mat in new.items():
            target = change.get(j + theta.shift)
            if target is None:
                assert old[j].shape == mat.shape == (0, dims[j])
            else:
                assert old[j] @ change[j] == target @ mat
                nonzero += not mat.is_zero()
    assert nonzero >= len(thetas)


@pytest.mark.parametrize("p, exponents", [(3, [3]), (5, [5]), (2, [2, 2])])
def test_subquotient_and_kunneth_records_are_contractions(p, exponents):
    # random complexes of free and trivial summands, and their tensor pairs:
    # every record passes certify_classes, whose homotopy identity is checked
    # here once more on assembled matrices
    from smallhom.acceptance import module_pieces, random_complex

    A = qci_algebra(FieldSpec(p), exponents, coproduct="primitive")
    pieces, rng = module_pieces(A), random.Random(p)
    complexes = [random_complex(pieces, rng, length=2) for _ in range(6)]
    for C in complexes:
        classes = subquotient_classes(C)
        certify_classes(C, classes)
        for n, h in classes.items():
            P, h_n = h.contraction
            below = classes.get(n - 1)
            total = P.a - np.eye(C.module_at(n).dim, dtype=np.int64)
            if h_n is not None:
                total = total + C.diffs[n + 1].matrix.a @ h_n.a
            if n in C.diffs and below.contraction[1] is not None:
                total = total + below.contraction[1].a @ C.diffs[n].matrix.a
            assert not (total % p).any()
    for C1, C2 in zip(complexes[::2], complexes[1::2]):
        tower = tensor_tower([C1, C2], DiagonalTensor(A))
        classes = kunneth_classes(tower)
        certify_classes(tower.complex, classes)
        dims = {n: h.dim for n, h in classes.items() if h.dim}
        assert dims == homology_rank_dims(tower.complex) == subquotient_dims(tower.complex)


# A self map built unchecked whose degree-1 component sends x^2, the H_1
# representative of A --x--> A, to the unit, which is not a cycle; on the
# tower C (x) C its left lift sends a Kunneth representative off the cycles.
NON_CYCLE_IMAGE = """
from smallhom.algebra import DiagonalTensor, ModuleMorphism, qci_algebra, regular_module
from smallhom.chain import (ChainComplex, ChainMap, certify_classes, homology_space, induced_on_homology,
                            kunneth_classes, tensor_tower)
from smallhom.linalg import FieldSpec, FpMatrix

A = qci_algebra(FieldSpec(3), [3], coproduct="primitive")
reg = regular_module(A)
C = ChainComplex(A, {0: reg, 1: reg}, {1: ModuleMorphism(reg, reg, A.left_actions[0])})
to_unit = ModuleMorphism(reg, reg, FpMatrix(3, [[0, 0, 1], [0, 0, 0], [0, 0, 0]]), check=False)
f = ChainMap(C, C, 0, {1: to_unit}, check=False)
tower = tensor_tower([C, C], DiagonalTensor(A))
kunneth = kunneth_classes(tower)
certify_classes(tower.complex, kunneth)
CASES = {
    "subquotient": (f, {i: homology_space(C, i) for i in C.degrees()}),
    "kunneth": (tower.lift_factor_map(0, f), kunneth),
}
"""
NON_CYCLE_RUN = """
import sys
from smallhom.algebra import CertificationError
assert False, "reached only without -O"
for route, (g, classes) in CASES.items():
    try:
        induced_on_homology(g, classes)
    except CertificationError as exc:
        print(f"optimize={sys.flags.optimize} {route}: {exc}")
"""


@pytest.mark.parametrize("route", ["subquotient", "kunneth"])
def test_induced_on_homology_rejects_a_non_cycle_image(route):
    scope: dict = {}
    exec(NON_CYCLE_IMAGE, scope)
    f, classes = scope["CASES"][route]
    with pytest.raises(CertificationError, match="^vector is not a cycle$"):
        induced_on_homology(f, classes)


def test_induced_on_homology_rejects_a_non_cycle_image_under_optimize(run_optimized):
    run = run_optimized(NON_CYCLE_IMAGE + NON_CYCLE_RUN)
    assert run.stderr == ""
    assert run.stdout == ("optimize=1 subquotient: vector is not a cycle\n"
                          "optimize=1 kunneth: vector is not a cycle\n")


def _assert_block_laws_match_dense(tower, thetas, class_complexes, dense_laws):
    for tp in tower.pairs:
        assert tp.complex.square_defects() == dense_laws.square_defects(tp.complex) == []
    for theta in thetas:
        assert theta.law_defects() == dense_laws.law_defects(theta) == []
    # with the Koszul sign dropped both see the same failing degrees; the
    # sign is invisible over F_2, and over an odd prime a right lift fails
    broken = [tower.lift_factor_map(i, cc.self_map, drop_koszul_sign=True)
              for i, cc in enumerate(class_complexes)]
    defects = [f.law_defects() for f in broken]
    assert defects == [dense_laws.law_defects(f) for f in broken]
    assert any(defects) == (tower.complex.algebra.p != 2)
    # composites of lifts read their zero blocks where dense products are zero
    for f in thetas:
        for g in thetas:
            comp = compose_shifted(f, g)
            assert sorted(comp.comps) == dense_laws.product_support([(f, g)])
            assert comp.law_defects() == dense_laws.law_defects(comp) == []
            anti = comp + compose_shifted(g, f)
            assert sorted(anti.comps) == dense_laws.product_support([(f, g), (g, f)])


@pytest.mark.parametrize("args", [RANK2_TEMPLATE, F2_POWER2 + ["primitive"], F2_POWER2 + ["shifted"]],
                         ids=["chain-rank2", "f2-power2-primitive", "f2-power2-shifted"])
def test_block_laws_agree_with_the_dense_reference(args, chain_run_parts, dense_laws, tmp_path):
    assert cli.main(["certify", *args, "--out", str(tmp_path / "run.cert")]) == 0
    (tower,), (thetas,), (ccs,), (cone,) = (chain_run_parts[k] for k in ("towers", "thetas", "class_complexes", "cones"))
    _assert_block_laws_match_dense(tower, thetas, ccs, dense_laws)
    # the law of u on its blocks stood for the cone's d . d
    assert dense_laws.square_defects(cone) == []


def test_rank3_lifts_agree_with_the_dense_reference(dense_laws):
    # the tower and lifts of configs/chain-rank3-f2.ini, 1536-dim at most
    from smallhom.construction import build_class_complex, build_thetas, find_parameter_system
    from smallhom.algebra import minimal_resolution

    A = qci_algebra(FieldSpec(2), [2, 2, 2], coproduct="primitive")
    ctx = DiagonalTensor(A)
    ps = find_parameter_system(minimal_resolution(trivial_module(A), 3), ctx)
    ccs = [build_class_complex(z) for z in ps.classes]
    tower = tensor_tower([cc.complex for cc in ccs], ctx)
    assert max(tower.complex.dims().values()) == 1536
    for tp in tower.pairs:
        assert tp.complex.square_defects() == dense_laws.square_defects(tp.complex) == []
    for theta in build_thetas(tower, ccs):
        assert theta.law_defects() == dense_laws.law_defects(theta) == []


def _tower_read_shapes(monkeypatch, args, chain_run_parts, tmp_path):
    """Run ``args`` and return the tower and the operand shapes of every
    product made inside a law check, the trivial-action check, an induced
    map, the class certification and the coproduct proof, by check."""
    active, shapes, tower_checks = [None], {}, [0]
    real_matmul = FpMatrix.__matmul__

    def within(label, real):
        def wrapped(*args, **kwargs):
            if label == "law":
                tower_checks[0] += any(isinstance(m, chain.BlockMorphism) for _, a, b in args[0] for m in (a, b))
            outer, active[0] = active[0], active[0] or label
            try:
                return real(*args, **kwargs)
            finally:
                active[0] = outer
        return wrapped

    def counted_matmul(a, b):
        if active[0]:
            shapes.setdefault(active[0], []).append(a.shape + b.shape)
        return real_matmul(a, b)

    monkeypatch.setattr(chain, "vanishes", within("law", chain.vanishes))
    monkeypatch.setattr(chain.HomologySpace, "action", within("action", chain.HomologySpace.action))
    for name in ("induced_on_homology", "certify_classes"):
        monkeypatch.setattr(construction, name, within(name, getattr(construction, name)))
    proof = smallhom.algebra.DiagonalTensor._prove_coproduct
    monkeypatch.setattr(smallhom.algebra.DiagonalTensor, "_prove_coproduct", within("proof", proof))
    monkeypatch.setattr(FpMatrix, "__matmul__", counted_matmul)
    assert cli.main(["certify", *args, "--out", str(tmp_path / "run.cert")]) == 0
    (tower,) = chain_run_parts["towers"]
    assert tower_checks[0] >= 3
    return tower, shapes


def _assert_tower_reads_at_factor_size(tower, shapes, smallest):
    last = tower.pairs[-1]
    factor_term = max(M.dim for C in (last.left, last.right) for M in C.objects.values())
    # d . d of the tower, the thetas' laws, u's law, the action on the
    # Kunneth classes, the induced maps, the class certification and the
    # coproduct proof all ran on factors: every operand is smaller than any
    # tower term, and every left operand is at most a factor term
    assert min(tower.complex.dims().values()) == smallest
    assert set(shapes) == {"law", "action", "induced_on_homology", "certify_classes", "proof"}
    every = [s for ss in shapes.values() for s in ss]
    assert [s for s in every if max(s) >= smallest] == []
    assert [s for s in every if max(s[:2]) > factor_term] == []


def test_law_checks_multiply_no_tower_size_matrices(monkeypatch, chain_run_parts, tmp_path):
    tower, shapes = _tower_read_shapes(monkeypatch, RANK2_TEMPLATE, chain_run_parts, tmp_path)
    _assert_tower_reads_at_factor_size(tower, shapes, 81)


def test_rank3_tower_reads_multiply_no_tower_size_matrices(monkeypatch, chain_run_parts, tmp_path):
    tower, shapes = _tower_read_shapes(monkeypatch, RANK3_TEMPLATE, chain_run_parts, tmp_path)
    _assert_tower_reads_at_factor_size(tower, shapes, 512)


def _elimination_widths(monkeypatch) -> list:
    """``(tower built, columns)`` for every ``rank`` and ``rref`` call of a run."""
    widths, built = [], [False]
    for name in ("rank", "rref"):
        def counted(a, real=getattr(FpMatrix, name)):
            widths.append((built[0], a.cols))
            return real(a)
        monkeypatch.setattr(FpMatrix, name, counted)
    tower = construction.tensor_tower

    def recorded(*args, **kwargs):
        out = tower(*args, **kwargs)
        built[0] = True
        return out

    monkeypatch.setattr(construction, "tensor_tower", recorded)
    return widths


def test_chain_run_leaves_the_tower_and_cone_unbuilt(chain_run_parts, monkeypatch, tmp_path):
    widths = _elimination_widths(monkeypatch)
    for args in (RANK2_TEMPLATE, RANK3_TEMPLATE):
        for recorded in chain_run_parts.values():
            recorded.clear()
        widths.clear()
        assert cli.main(["certify", *args, "--out", str(tmp_path / "run.cert")]) == 0
        _assert_tower_and_cone_unbuilt(chain_run_parts, widths)


def _assert_tower_and_cone_unbuilt(chain_run_parts, widths):
    (tower,), (cone,) = chain_run_parts["towers"], chain_run_parts["cones"]
    # no cone differential was assembled: each is a grid of its pieces' blocks
    assert cone.diffs and all(d.blocks._dense is None for d in cone.diffs.values())
    # nothing as wide as a tower term was ranked or row-reduced; once the
    # tower exists, nothing wider than a factor homotopy's solve, which
    # eliminates d on its pivot columns against a factor term's identity
    last = tower.pairs[-1]
    factor_term = max(M.dim for C in (last.left, last.right) for M in C.objects.values())
    assert max(w for _, w in widths) < min(tower.complex.dims().values())
    assert any(built for built, _ in widths)
    assert max(w for built, w in widths if built) <= 2 * factor_term
    stages = [tp.complex for tp in tower.pairs]
    # homology_space ran on the factor complexes, never on a tower stage,
    # and no tower differential was row-reduced
    called = chain_run_parts["homology_space"]
    assert called and all(any(C is F for F in tower.factors) for C in called)
    assert sum(d.matrix._rref is not None for S in stages for d in S.diffs.values()) == 0
    # no tower sum and no cone term had its action assembled
    terms = [M for C in stages + [cone] for M in C.objects.values()]
    assert terms and sum(M._action is not None for M in terms) == 0
