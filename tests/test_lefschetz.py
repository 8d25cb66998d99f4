"""The symbolic exterior-algebra model and its cone bookkeeping."""

import random
from itertools import combinations
from math import comb

import numpy as np
import pytest

from smallhom import lefschetz
from smallhom.linalg import FieldSpec, FpMatrix
from smallhom.lefschetz import (
    LEFSCHETZ_TERMS,
    ConeDimensionTable,
    LefschetzModel,
    cone_dimensions,
    cone_oracle,
    family_lengths,
    multiplication_matrix,
    multiply_generator,
    multiply_monomial,
    total_with_tail,
    verify_lefschetz_profile,
    w_matrix,
)

F3 = FieldSpec(3)


def test_grade_dimensions():
    model = LefschetzModel(8, F3)
    assert [model.grade_dim(t) for t in range(9)] == [comb(8, t) for t in range(9)]
    assert sum(model.grade_dim(t) for t in range(9)) == 2 ** 8


def test_generator_multiplication_signs():
    assert multiply_generator((2,), 1) == (1, (1, 2))
    assert multiply_generator((1,), 2) == (-1, (1, 2))
    assert multiply_generator((1, 2), 1) is None
    assert multiply_monomial((3,), (1, 2)) == (1, (1, 2, 3))
    # t1 t2 . e_3 : apply t2 (one swap), then t1 (no swap)... sign (-1)^2
    sign, out = multiply_monomial((2,), (1, 3))
    assert out == (1, 2, 3) and sign == -1


def _subset_reference(model, element, t) -> list:
    """The multiplication matrix by its definition: each basis subset times
    each term through :func:`multiply_monomial`, summed, then reduced."""
    g = len(element[0][1])
    dst = model.grade_basis(t + g)
    rows = {subset: k for k, subset in enumerate(dst)}
    src = model.grade_basis(t)
    mat = [[0] * len(src) for _ in dst]
    for col, subset in enumerate(src):
        for coeff, mono in element:
            res = multiply_monomial(subset, mono)
            if res is not None:
                mat[rows[res[1]]][col] += coeff * res[0]
    return [[x % model.field.p for x in row] for row in mat]


def test_multiplication_matrix_matches_the_subset_reference():
    rng = random.Random(11)
    for d in range(1, 11):
        for p in (2, 3, 5, 7):
            model = LefschetzModel(d, FieldSpec(p))
            for _ in range(8):
                # unsorted and repeated generators, coefficients outside 0..p-1
                g = rng.randint(0, min(d, 4))
                element = tuple((rng.randint(-2 * p, 3 * p), tuple(rng.randint(1, d) for _ in range(g)))
                                for _ in range(rng.randint(1, 5)))
                for t in range(-1, d + 2):
                    got = multiplication_matrix(model, element, t)
                    assert got.shape == (model.grade_dim(t + g), model.grade_dim(t))
                    assert got.a.tolist() == _subset_reference(model, element, t), (d, p, element, t)


def test_lefschetz_model_rank_is_bounded_by_the_mask_width():
    with pytest.raises(ValueError, match="at most 62"):
        LefschetzModel(63, F3)
    with pytest.raises(ValueError, match="at most 62"):
        LefschetzModel(64, F3)
    # the top generators sit on the highest bits a model uses
    model = LefschetzModel(62, F3)
    element = ((1, (62,)), (2, (61,)))
    assert multiplication_matrix(model, element, 1).a.tolist() == _subset_reference(model, element, 1)


def test_multiplication_matrix_rejects_generators_outside_the_model():
    model = LefschetzModel(4, F3)
    for mono in ((0, 1), (2, 5)):
        with pytest.raises(ValueError, match="1..4"):
            multiplication_matrix(model, ((1, mono),), 1)
    # grade 6 > 4 builds no matrix in the cone oracle, which still checks
    with pytest.raises(ValueError, match="1..4"):
        cone_oracle(model, ((1, (1, 2, 3, 4, 5, 6)),))


def test_w_matrix_ranks_f3():
    model = LefschetzModel(8, F3)
    assert w_matrix(model, 0).rank() == 1
    assert w_matrix(model, 3).rank() == 56 == comb(8, 3) == comb(8, 5)
    assert w_matrix(model, 3).shape == (comb(8, 5), comb(8, 3))


def test_profile_pass_f3_f5():
    for p in (3, 5):
        prof = verify_lefschetz_profile(cone_dimensions(LefschetzModel(8, FieldSpec(p))))
        assert prof.ok and not prof.failures
        assert prof.ranks == {0: 1, 1: 8, 2: 28, 3: 56, 4: 28, 5: 8, 6: 1}


def test_profile_fails_char2_with_element_in_kernel():
    model = LefschetzModel(8, FieldSpec(2))
    prof = verify_lefschetz_profile(cone_dimensions(model))
    assert not prof.ok
    assert prof.failures[0][0] == 2
    basis2 = model.grade_basis(2)
    wvec = np.zeros((len(basis2), 1), dtype=np.int64)
    for _, pair in LEFSCHETZ_TERMS:
        wvec[basis2.index(pair), 0] = 1
    assert (w_matrix(model, 2) @ FpMatrix(2, wvec)).is_zero()


def test_w_needs_rank_8():
    with pytest.raises(ValueError):
        w_matrix(LefschetzModel(4, F3), 0)


def test_cone_dimensions_table_and_total():
    table = cone_dimensions(LefschetzModel(8, F3))
    assert table.total == 252 == 2 ** 8 - 4
    assert table.entries == {
        (0, 0): 1, (1, 0): 8, (2, 0): 27, (3, 0): 48, (4, 0): 42,
        (6, 1): 42, (7, 1): 48, (8, 1): 27, (9, 1): 8, (10, 1): 1,
    }
    # degrees 5m and 6m vanish
    assert (5, 0) not in table.entries and (6, 0) not in table.entries
    assert table.total < 2 ** table.d


def test_cone_dimensions_at_weight():
    table = cone_dimensions(LefschetzModel(8, F3))
    deg = table.at_m(3)
    assert deg[0] == 1 and deg[3] == 8 and deg[12] == 42 and deg[19] == 42 and deg[31] == 1
    assert sum(deg.values()) == 252
    deg1 = table.at_m(1)
    assert sum(deg1.values()) == 252 and deg1[7] == 42  # 6m+1 at m=1


def test_cone_dimensions_requires_rank8():
    with pytest.raises(ValueError):
        cone_dimensions(LefschetzModel(9, F3))


def test_total_with_tail_values():
    table = cone_dimensions(LefschetzModel(8, F3))
    assert total_with_tail(table, 8) == 252 < 256
    assert total_with_tail(table, 10) == 1008 == 2 ** 10 - 2 ** 4
    assert total_with_tail(table, 16) == 64512 == 2 ** 16 - 2 ** 10
    with pytest.raises(ValueError):
        total_with_tail(table, 7)
    # the total scales the table's, so a wrong table gives a wrong total
    wrong = cone_oracle(LefschetzModel(8, F3), LEFSCHETZ_TERMS[:3])
    assert total_with_tail(wrong, 10) == 280 * 4 != 2 ** 10 - 2 ** 4


def test_cone_oracle_rejects_the_zero_element():
    with pytest.raises(ValueError, match="zero element"):
        cone_oracle(LefschetzModel(2, F3), ())


def test_cone_oracle_quadratic_rank2():
    model = LefschetzModel(2, F3)
    table = cone_oracle(model, ((1, (1, 2)),))
    assert table.total == 6 == 2 * 2 ** 2 - 2 * 1
    assert table.entries == {(0, 0): 1, (1, 0): 2, (3, 1): 2, (4, 1): 1}
    assert table.at_m(1) == {0: 1, 1: 2, 4: 2, 5: 1}


def test_cone_oracle_rejects_odd_grade():
    model = LefschetzModel(1, F3)
    with pytest.raises(ValueError):
        cone_oracle(model, ((1, (1,)),))


def test_cone_conservation_random_elements():
    rng = random.Random(5)
    for _ in range(30):
        d = rng.randint(2, 6)
        model = LefschetzModel(d, FieldSpec(rng.choice((3, 5))))
        grade = rng.choice([g for g in (2, 4) if g <= d])
        monos = list(combinations(range(1, d + 1), grade))
        element = tuple((rng.randint(1, model.field.p - 1), mono)
                        for mono in monos if rng.random() < 0.6)
        if not element:
            element = ((1, monos[0]),)
        table = cone_oracle(model, element)
        ranks = sum(multiplication_matrix(model, element, t).rank() for t in range(d + 1))
        assert table.total == 2 * 2 ** d - 2 * ranks


def _cone_table_ranking_every_grade(model, element) -> ConeDimensionTable:
    """The cone table with the element's rank taken from every grade
    ``0..d``, including those it maps into an empty grade."""
    grade = len(element[0][1])
    ranks = {t: multiplication_matrix(model, element, t).rank() for t in range(model.d + 1)}
    entries = {}
    for t in range(model.d + 1):
        coker = model.grade_dim(t) - ranks.get(t - grade, 0)
        if coker:
            entries[(t, 0)] = coker
        ker = model.grade_dim(t) - ranks[t]
        if ker:
            entries[(t + grade, 1)] = ker
    return ConeDimensionTable(model.d, grade, entries, ranks)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_cone_oracle_ranks_only_into_nonempty_grades(p, monkeypatch):
    built, real = [], lefschetz.multiplication_matrix
    monkeypatch.setattr(lefschetz, "multiplication_matrix", lambda m, e, t: built.append(t) or real(m, e, t))
    rng = random.Random(p)
    for d in range(2, 9):
        model = LefschetzModel(d, FieldSpec(p))
        for grade in (g for g in (2, 4) if g <= d):
            monos = list(combinations(range(1, d + 1), grade))
            element = tuple((rng.randint(1, p - 1), mono) for mono in monos if rng.random() < 0.5) or ((1, monos[0]),)
            built.clear()
            table = cone_oracle(model, element)
            assert built == list(range(d - grade + 1))
            assert list(table.ranks) == list(range(d + 1))
            assert all(table.ranks[t] == 0 for t in range(d - grade + 1, d + 1))
            assert table == _cone_table_ranking_every_grade(model, element)


def test_ratio_constancy():
    table = cone_dimensions(LefschetzModel(8, F3))
    for d in range(8, 21):
        assert 64 * total_with_tail(table, d) == 63 * 2 ** d


def test_family_lengths_formula():
    assert family_lengths(8, 2, range(1, 6)) == [12, 32, 52, 72, 92]
    assert family_lengths(8, 4, [1, 2]) == [32, 72]
    assert family_lengths(10, 2, [1]) == [14]
    with pytest.raises(ValueError):
        family_lengths(8, 3, [1])


def test_anticommutation_in_subset_basis():
    # t_i t_j = -t_j t_i as matrices, any grade
    model = LefschetzModel(4, F3)
    for t in range(0, 3):
        ij = multiplication_matrix(model, ((1, (1, 3)),), t)
        ji = multiplication_matrix(model, ((1, (3, 1)),), t)
        assert ij == ji.scale(-1)
