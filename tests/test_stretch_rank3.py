"""Rank-3 oracle equivalence, the largest chain-level run in the suite.

Uses characteristic 2 so the base algebra has dimension 8 (the smallest
coproduct-carrying family), which keeps the three-fold tensor at 4096 total
dimensions; homology is compared through the rank-based route.
"""

import time

from smallhom.linalg import FieldSpec
from smallhom.algebra import Budget, DiagonalTensor, is_projective, minimal_resolution, qci_algebra, trivial_module
from smallhom.chain import homology_rank_dims, mapping_cone, tensor_tower
from smallhom.construction import (
    build_class_complex,
    build_thetas,
    find_parameter_system,
    pushout_module,
    quadratic_product,
    tensor_pushouts,
)
from smallhom.lefschetz import LefschetzModel, cone_oracle


def test_rank3_hypercube_and_cone_oracle(capsys):
    t0 = time.perf_counter()
    F2 = FieldSpec(2)
    A = qci_algebra(F2, [2, 2, 2], {}, coproduct="primitive")
    ctx = DiagonalTensor(A, Budget(max_dim=8192, max_entries=40_000_000))
    res = minimal_resolution(trivial_module(A), 3)
    assert res.betti() == [1, 3, 6, 10]

    ps = find_parameter_system(res, 3, ctx)
    ktensor = tensor_pushouts([pushout_module(z)[0] for z in ps.classes], ctx)
    assert ktensor.dim == 512 and is_projective(ktensor)

    ccs = [build_class_complex(z) for z in ps.classes]
    tower = tensor_tower([cc.complex for cc in ccs], ctx)
    assert tower.complex.dims() == {0: 512, 1: 1536, 2: 1536, 3: 512}
    assert homology_rank_dims(tower.complex) == {0: 1, 1: 3, 2: 3, 3: 1}

    thetas = build_thetas(tower, ccs, check=False)
    assert all(t.is_chain_map() for t in thetas)
    anti = quadratic_product(thetas, 0, 1) + quadratic_product(thetas, 1, 0)
    assert anti.is_zero()

    cone = mapping_cone(quadratic_product(thetas, 0, 1))
    got = homology_rank_dims(cone)
    predicted = cone_oracle(LefschetzModel(3, F2), ((1, (1, 2)),)).at_m(1)
    assert got == predicted
    assert sum(got.values()) == 12
    assert len(cone.degrees()) == (3 + 2) * 1 + 2

    with capsys.disabled():
        print(f"\nPASS stretch-rank3 ({time.perf_counter() - t0:.1f}s): "
              f"hypercube (1,3,3,1), cone {got}")
