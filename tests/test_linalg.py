"""Exact linear algebra over prime fields."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import smallhom.linalg
from smallhom.linalg import (
    BLAS_MIN_WORK,
    FLOAT32_EXACT,
    FieldSpec,
    FpMatrix,
    KronBlocks,
    _peeled_rank,
    block,
    hstack,
    is_prime,
    kron_array,
    kron_apply,
    nonpivot_columns,
    quotient_by_subspace,
    read_coordinates,
)


def test_fieldspec_rejects_composites():
    with pytest.raises(ValueError):
        FieldSpec(4)
    with pytest.raises(ValueError):
        FieldSpec(1)
    assert FieldSpec(2).p == 2
    assert FieldSpec(3).inv(2) == 2


def test_fieldspec_bounds_the_characteristic():
    assert FieldSpec(1048573).p == 1048573  # largest prime <= 2**20
    for p in (1048583, 2**31 - 1):
        with pytest.raises(ValueError, match="2\\*\\*20"):
            FieldSpec(p)


def test_is_prime_small():
    assert [n for n in range(2, 20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_rank_identity_and_zero():
    assert FpMatrix.identity(3, 5).rank() == 5
    assert FpMatrix.zeros(3, 4, 7).rank() == 0
    assert FpMatrix.zeros(3, 4, 7).kernel_basis().cols == 7


def test_kernel_of_row_vector():
    m = FpMatrix(3, [[1, 1]])
    k = m.kernel_basis()
    assert k.cols == 1
    assert (m @ k).is_zero()
    # spanned by (1, -1) up to scale
    assert (k.a[0, 0] + k.a[1, 0]) % 3 == 0 and k.a[:, 0].any()


def test_kernel_of_identity_is_empty():
    assert FpMatrix.identity(5, 4).kernel_basis().cols == 0


def test_solve_identity_and_inconsistent():
    b = FpMatrix(3, [[1], [2], [0]])
    assert FpMatrix.identity(3, 3).solve(b) == b
    assert FpMatrix.zeros(3, 2, 2).solve(FpMatrix(3, [[1], [0]])) is None


def test_solve_underdetermined_witness():
    m = FpMatrix(3, [[1, 0], [0, 0]])
    b = FpMatrix(3, [[1], [0]])
    x = m.solve(b)
    assert x is not None and (m @ x) == b


def test_solve_shape_mismatch_is_error():
    with pytest.raises(ValueError):
        FpMatrix.identity(3, 3).solve(FpMatrix.zeros(3, 2, 1))


def _reference_product(a, b, p):
    """Schoolbook product in Python integers, which never overflow."""
    a, b = a.tolist(), b.tolist()
    return [[sum(a[i][t] * b[t][j] for t in range(len(b))) % p for j in range(len(b[0]))]
            for i in range(len(a))]


def test_product_that_could_overflow_int64_raises():
    p = 2**31 - 1
    m = FpMatrix(p, np.full((8, 8), p - 1))
    with pytest.raises(ValueError, match="overflow"):
        m @ m


def test_product_at_largest_prime_is_exact():
    p = 1048573
    a = FpMatrix(p, np.full((6, 40), p - 1))
    b = FpMatrix(p, np.full((40, 5), p - 1))
    assert (a @ b).a.tolist() == _reference_product(a.a, b.a, p)


@pytest.mark.parametrize("k, fill", [(1, 4092), (2, 4092), (3, 4091)])
def test_float_path_boundary(k, fill):
    # at p = 4093, k = 1 is the last inner dimension with k * (p - 1)**2 < 2**24;
    # with entries 4091 and k = 3, float32 partial sums would round
    p = 4093
    assert 200 * k * 200 >= BLAS_MIN_WORK
    assert (k * (p - 1) ** 2 < FLOAT32_EXACT) == (k == 1)
    a = FpMatrix(p, np.full((200, k), fill))
    b = FpMatrix(p, np.full((k, 200), fill))
    assert (a @ b).a.tolist() == _reference_product(a.a, b.a, p)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_products_either_side_of_blas_threshold(p):
    rng = np.random.RandomState(p)
    # m * k * n: the first and third fall below 32**3 (int64), the rest reach it (float32)
    for m, k, n in [(31, 32, 32), (32, 32, 32), (16, 16, 16), (40, 64, 13), (1, 5000, 7), (70, 3, 200)]:
        a = rng.randint(0, p, size=(m, k))
        b = rng.randint(0, p, size=(k, n))
        assert np.array_equal((FpMatrix(p, a) @ FpMatrix(p, b)).a, (a @ b) % p)


def test_power_small_exponents():
    m = FpMatrix(5, np.random.RandomState(0).randint(0, 5, size=(6, 6)))
    assert m.power(0) == FpMatrix.identity(5, 6)
    assert m.power(1) == m
    assert m.power(4) == m @ m @ m @ m
    with pytest.raises(ValueError):
        m.power(-1)


def test_kron_scalars_and_identities():
    two = FpMatrix(3, [[2]])
    assert two.kron(two) == FpMatrix(3, [[1]])
    eye2, eye3 = FpMatrix.identity(3, 2), FpMatrix.identity(3, 3)
    assert block(3, [[eye2, None], [None, eye3]], [2, 3], [2, 3]) == FpMatrix.identity(3, 5)
    assert FpMatrix.identity(3, 3).kron(FpMatrix.identity(3, 4)) == FpMatrix.identity(3, 12)


KRON_SHAPES = [((0, 3), (2, 2)), ((2, 2), (0, 3)), ((3, 0), (2, 2)), ((2, 3), (3, 0)), ((0, 0), (1, 1)),
               ((1, 1), (1, 1)), ((2, 3), (4, 1)), ((1, 4), (3, 2)), ((3, 3), (3, 3))]


@pytest.mark.parametrize("p", [2, 3, 1048573])
def test_kron_array_matches_np_kron(p):
    rng = np.random.RandomState(p % 1000)
    for sa, sb in KRON_SHAPES:
        a, b = rng.randint(0, p, size=sa), rng.randint(0, p, size=sb)
        expected = np.kron(a, b)
        assert kron_array(a, b).shape == expected.shape
        assert np.array_equal(kron_array(a, b), expected)
        k = FpMatrix(p, a).kron(FpMatrix(p, b))
        assert ((0 <= k.a) & (k.a < p)).all()
        assert np.array_equal(k.a, expected % p)


def test_kron_index_pairing_is_row_major():
    a = FpMatrix(5, [[0, 1], [0, 0]])
    b = FpMatrix(5, [[2]])
    k = a.kron(b)
    # entry (i*1 + 0, j*1 + 0) = a[i, j] * b[0, 0]
    assert k.a[0, 1] == 2 and k.a[1, 0] == 0


@pytest.mark.parametrize("p", [2, 3, 5])
def test_rank_nullity_and_kron_rank_random(p):
    rng = np.random.RandomState(11 + p)
    for _ in range(40):
        r, c = rng.randint(0, 7), rng.randint(0, 7)
        m = FpMatrix(p, rng.randint(0, p, size=(r, c)))
        k = m.kernel_basis()
        assert m.rank() + k.cols == c
        if k.cols:
            assert (m @ k).is_zero()
    for _ in range(15):
        a = FpMatrix(p, rng.randint(0, p, size=(rng.randint(1, 4), rng.randint(1, 4))))
        b = FpMatrix(p, rng.randint(0, p, size=(rng.randint(1, 4), rng.randint(1, 4))))
        assert a.kron(b).rank() == a.rank() * b.rank()


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=4),
    st.integers(min_value=0, max_value=4),
    st.randoms(use_true_random=False),
)
def test_rref_is_projection_and_solve_verifies(rows, cols, rnd):
    p = 3
    data = np.array([rnd.randrange(p) for _ in range(rows * cols)], dtype=np.int64)
    m = FpMatrix(p, data.reshape(rows, cols))
    red, pivots = m.rref()
    red2, pivots2 = red.rref()
    assert red2 == red and pivots2 == pivots
    xdata = np.array([rnd.randrange(p) for _ in range(cols)], dtype=np.int64)
    x = FpMatrix(p, xdata.reshape(cols, 1))
    b = m @ x
    sol = m.solve(b)
    assert sol is not None and (m @ sol) == b


def test_column_space_is_echelonized_and_spans():
    m = FpMatrix(3, [[1, 2, 0], [2, 4, 0], [0, 0, 0]])
    cs = m.column_space()
    assert cs.cols == m.rank() == 1
    assert cs.solve(FpMatrix(3, [[1], [2], [0]])) is not None


def test_quotient_by_subspace_splitting():
    sub = FpMatrix(3, [[1], [1], [0]])
    q, s = quotient_by_subspace(3, sub)
    assert (q @ s) == FpMatrix.identity(3, 2)
    v = FpMatrix(3, [[2], [0], [1]])
    residual = v - s @ (q @ v)
    assert sub.solve(residual) is not None  # residual lies in the subspace


def _transpose(rows, ncols):
    return [[row[c] for row in rows] for c in range(ncols)]


def _reference_kernel(rref, rows, ncols, p):
    red, pivots = rref(rows, ncols, p)
    free = [c for c in range(ncols) if c not in pivots]
    basis = [[0] * len(free) for _ in range(ncols)]
    for k, f in enumerate(free):
        basis[f][k] = 1
        for t, pc in enumerate(pivots):
            basis[pc][k] = -red[t][f] % p
    return basis


def _reference_solve(rref, rows, ncols, rhs, p):
    aug = [row + b for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols + len(rhs[0]), p)
    if any(pc >= ncols for pc in pivots):
        return None
    x = [[0] * len(rhs[0]) for _ in range(ncols)]
    for t, pc in enumerate(pivots):
        x[pc] = red[t][ncols:]
    return x


def _reference_column_space(rref, rows, ncols, p):
    red, pivots = rref(_transpose(rows, ncols), len(rows), p)
    return _transpose(red[: len(pivots)], len(rows))


def _reference_quotient(rref, rows, ncols, p):
    n = len(rows)
    red, pivots = rref(_transpose(rows, ncols), n, p)
    nonpiv = [c for c in range(n) if c not in pivots]
    qmap = [[0] * n for _ in nonpiv]
    section = [[0] * len(nonpiv) for _ in range(n)]
    for k, c in enumerate(nonpiv):
        qmap[k][c] = 1
        section[c][k] = 1
        for t, pc in enumerate(pivots):
            qmap[k][pc] = -red[t][c] % p
    return qmap, section


def _elimination_cases(p):
    """Empty, zero, full-rank, rank-deficient and repeated-row matrices."""
    rng = np.random.RandomState(p % 1000)
    cases = [np.zeros((0, 4)), np.zeros((4, 0)), np.zeros((0, 0)), np.zeros((3, 5)),
             np.eye(4), np.full((3, 3), p - 1)]
    for _ in range(12):
        r, c, k = rng.randint(1, 8), rng.randint(1, 8), rng.randint(0, 4)
        # a product through k < min(r, c) dimensions is rank-deficient
        low = rng.randint(0, p, size=(r, k)) @ rng.randint(0, p, size=(k, c)) % p
        cases.append(low)
        cases.append(rng.randint(0, p, size=(r, c)))
        row = rng.randint(0, p, size=(1, c))
        cases.append(np.vstack([row, rng.randint(0, p, size=(r, c)), row, (2 * row) % p]))
    return [np.asarray(a, dtype=np.int64) for a in cases]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1048573])
def test_elimination_matches_reference(p, rref_reference):
    rng = np.random.RandomState(1)
    for a in _elimination_cases(p):
        rows, ncols = a.tolist(), a.shape[1]
        m = FpMatrix(p, a)
        red, pivots = m.rref()
        ref_red, ref_pivots = rref_reference(rows, ncols, p)
        assert red.shape == a.shape and red.a.tolist() == ref_red
        assert list(pivots) == ref_pivots and m.rank() == len(ref_pivots)
        assert m.kernel_basis().a.tolist() == _reference_kernel(rref_reference, rows, ncols, p)
        assert m.column_space().shape == (a.shape[0], len(ref_pivots))
        assert m.column_space().a.tolist() == _reference_column_space(rref_reference, rows, ncols, p)
        qmap, section = quotient_by_subspace(p, m)
        ref_q, ref_s = _reference_quotient(rref_reference, rows, ncols, p)
        assert qmap.shape == (len(ref_q), a.shape[0]) and qmap.a.tolist() == ref_q
        assert section.shape == (a.shape[0], len(ref_q)) and section.a.tolist() == ref_s
        if a.shape[0]:
            # one consistent right-hand side and one random one
            for b in (a @ rng.randint(0, p, size=(ncols, 2)) % p, rng.randint(0, p, size=(a.shape[0], 2))):
                sol = m.solve(FpMatrix(p, b))
                ref = _reference_solve(rref_reference, rows, ncols, b.tolist(), p)
                assert (sol is None) == (ref is None)
                if ref is not None:
                    assert sol.shape == (ncols, 2) and sol.a.tolist() == ref


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1048573])
def test_a_zero_matrix_is_its_own_rref(p, rref_reference, monkeypatch):
    calls = []
    real = smallhom.linalg._eliminate
    monkeypatch.setattr(smallhom.linalg, "_eliminate", lambda m, q: calls.append(m.shape) or real(m, q))
    shapes = [(0, 0), (0, 5), (5, 0), (1, 1), (4, 6), (6, 4)]
    for a in [np.zeros(shape, dtype=np.int64) for shape in shapes] + [p * np.ones((3, 3), dtype=np.int64)]:
        m = FpMatrix(p, a)
        red, pivots = m.rref()
        ref_red, ref_pivots = rref_reference(a.tolist(), a.shape[1], p)
        assert red.shape == a.shape and red.a.tolist() == ref_red and list(pivots) == ref_pivots == []
        assert m.kernel_basis() == FpMatrix.identity(p, a.shape[1]) and m.column_space().shape == (a.shape[0], 0)
        assert m.rref()[0] is red
    assert calls == []  # no elimination
    m = FpMatrix(p, np.eye(2, dtype=np.int64))
    m.rref()
    assert calls == [(2, 2)]  # the spy does see a nonzero matrix eliminated


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1048573])
def test_identity_row_conventions(p):
    """Kernel bases are the identity on the free rows, echelonized column
    bases on the pivot rows, and quotients depend only on the span."""
    rng = np.random.RandomState(2)
    for a in _elimination_cases(p):
        m = FpMatrix(p, a)
        free = nonpivot_columns(m.cols, m.rref()[1])
        kernel = m.kernel_basis()
        assert np.array_equal(kernel.a[free], np.eye(len(free), dtype=np.int64))
        cols = m.column_space()
        lead = list(cols.transpose().rref()[1])
        assert np.array_equal(cols.a[lead], np.eye(len(lead), dtype=np.int64))
        assert quotient_by_subspace(p, m) == quotient_by_subspace(p, cols)
        for basis, rows in ((kernel, free), (cols, lead)):
            x = FpMatrix(p, rng.randint(0, p, size=(basis.cols, 3)))
            assert read_coordinates(basis, rows, basis @ x) == x
            v = FpMatrix(p, rng.randint(0, p, size=(basis.rows, 1)))
            assert read_coordinates(basis, rows, v) == basis.solve(v)


def test_read_coordinates_rejects_wrong_shape():
    kernel = FpMatrix(3, [[1, 1]]).kernel_basis()
    with pytest.raises(ValueError):
        read_coordinates(kernel, [1], FpMatrix.zeros(3, 3, 1))


def test_block_assembly():
    i2 = FpMatrix.identity(3, 2)
    m = block(3, [[i2, None], [None, i2.scale(2)]], [2, 2], [2, 2])
    assert m.a[0, 0] == 1 and m.a[2, 2] == 2 and m.a[0, 2] == 0


def _rank_cases(p, rng):
    """Inputs for the peeled rank: empty, dense, sparse, and some that peel
    in rounds or not at all."""
    def nonzero(*shape):
        return rng.randint(1, p, size=shape)

    cases = [np.zeros(shape, dtype=np.int64) for shape in ((0, 5), (5, 0), (0, 0), (4, 6))]
    # dense, square, wide, tall and of low rank
    for shape in ((7, 7), (12, 5), (5, 12)):
        cases.append(rng.randint(0, p, size=shape))
    cases.append(rng.randint(0, p, size=(20, 3)) @ rng.randint(0, p, size=(3, 15)) % p)
    # sparse: 0.5% nonzero
    for shape in ((200, 100), (100, 200), (150, 150)):
        cases.append(nonzero(*shape) * (rng.rand(*shape) < 0.005))
    # row 0 holds the only nonzero of columns 0..3: one pivot, not four;
    # the transpose has four singleton rows in one column
    shared = np.zeros((6, 9), dtype=np.int64)
    shared[0, :4] = nonzero(4)
    shared[0, 4:] = rng.randint(0, p, size=5)
    shared[1:, 4:] = nonzero(5, 5)
    cases += [shared, shared.T]
    # a cycle: every row and column has two nonzeros, so nothing peels;
    # with the entries 1 and -1 the all-ones vector is in the kernel
    cycle = np.zeros((6, 6), dtype=np.int64)
    cycle[range(6), range(6)] = 1
    cycle[range(6), [1, 2, 3, 4, 5, 0]] = p - 1
    cases.append(cycle)
    random_cycle = np.zeros((6, 6), dtype=np.int64)
    random_cycle[range(6), range(6)] = nonzero(6)
    random_cycle[range(6), [1, 2, 3, 4, 5, 0]] = nonzero(6)
    cases.append(random_cycle)
    # a staircase peels one end per round, down to nothing
    stairs = np.zeros((8, 8), dtype=np.int64)
    stairs[range(8), range(8)] = nonzero(8)
    stairs[range(7), range(1, 8)] = nonzero(7)
    cases.append(stairs)
    return cases


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1048573])
def test_peeled_rank_matches_rref(p, monkeypatch):
    calls = []
    real = smallhom.linalg._eliminate

    def recorded(m, p):
        calls.append(m.shape)
        return real(m, p)

    monkeypatch.setattr(smallhom.linalg, "_eliminate", recorded)
    for a in _rank_cases(p, np.random.RandomState(3)):
        peeled = FpMatrix(p, a)
        rank = peeled.rank()
        assert peeled._rref is None and not calls  # no RREF and no dense elimination
        assert rank == len(FpMatrix(p, a).rref()[1])
        assert calls == ([a.shape] if a.any() else [])  # the rref only; a zero matrix is its own
        calls.clear()


def test_rank_reads_a_cached_rref(monkeypatch):
    m = FpMatrix(3, [[1, 2], [2, 1], [1, 1]])
    _, pivots = m.rref()

    def unreachable(*args, **kwargs):
        raise AssertionError("peeled a matrix whose RREF is cached")

    monkeypatch.setattr(smallhom.linalg, "_peel", unreachable)
    assert m.rank() == len(pivots) == 2


def _dense_rank(p, a) -> int:
    return len(FpMatrix(p, a).rref()[1])


def _split_entries(p, a, rng):
    """Coordinate lists of ``a`` in which every nonzero is split into three
    repeats whose values add up to it mod p, shuffled, with some zeros of
    ``a`` present as three repeats that cancel."""
    rows, cols = (a + (rng.random(a.shape) < 0.1)).nonzero()
    r1, r2 = rng.integers(0, p, rows.size), rng.integers(0, p, rows.size)
    vals = np.concatenate([r1, r2, (a[rows, cols] - r1 - r2) % p])
    order = rng.permutation(vals.size)
    return np.tile(rows, 3)[order], np.tile(cols, 3)[order], vals[order]


@pytest.mark.parametrize("p", [2, 3, 5, 7, 1048573])
def test_coordinate_peeled_rank_matches_the_dense_rank(p):
    rng = np.random.default_rng(p)
    cases = _rank_cases(p, np.random.RandomState(5))
    for density in (0.02, 0.1, 0.5, 1.0):  # random sparse and dense matrices
        for shape in ((12, 30), (30, 12), (25, 25)):
            cases.append(rng.integers(0, p, size=shape) * (rng.random(shape) < density))
    cases += [np.zeros((4, 6), dtype=np.int64), np.zeros((0, 5), dtype=np.int64),
              np.zeros((5, 0), dtype=np.int64)]
    for a in cases:
        want = _dense_rank(p, a)
        rows, cols = a.nonzero()
        assert FpMatrix(p, a).rank() == want  # the dense entry
        assert _peeled_rank(a.shape, rows, cols, a[rows, cols], p) == want
        assert _peeled_rank(a.shape, *_split_entries(p, a, rng), p) == want


@pytest.mark.parametrize("p", [2, 3, 1048573])
def test_rank_matches_the_rref_rank_with_zero_rows_and_columns(p, rref_reference):
    rng = np.random.default_rng(p)
    cases = [np.zeros(shape, dtype=np.int64) for shape in ((0, 0), (0, 5), (5, 0), (4, 6))]
    cases.append(p * rng.integers(1, 3, size=(4, 4)))  # no nonzeros once reduced mod p
    base = rng.integers(1, p, size=(5, 4)) * (rng.random((5, 4)) < 0.7)
    zeros = np.zeros((5, 3), dtype=np.int64)
    interleaved = np.zeros((5, 9), dtype=np.int64)
    interleaved[:, 1::2] = base
    cases += [np.hstack([zeros, base]), interleaved, np.hstack([base, zeros])]  # leading, interleaved, trailing
    for _ in range(20):
        a = rng.integers(0, p, size=(7, 9)) * (rng.random((7, 9)) < 0.4)
        a[rng.random(7) < 0.3] = 0  # zero rows
        a[:, rng.random(9) < 0.3] = 0  # zero columns
        cases += [a, a.T]
    for a in cases:
        m = FpMatrix(p, a)
        assert m.rank() == _dense_rank(p, a)
        assert m._rref is None  # ranked from its coordinate lists
        # elimination skips the zero columns; the reference visits every column
        red, pivots = FpMatrix(p, a).rref()
        ref_red, ref_pivots = rref_reference(a.tolist(), a.shape[1], p)
        assert red.a.tolist() == ref_red and list(pivots) == ref_pivots


def test_coordinate_peeled_rank_cancels_repeats():
    empty = np.array([], dtype=np.int64)
    assert _peeled_rank((3, 3), empty, empty, empty, 5) == 0
    # two entries at (0, 0) that cancel mod 5, and an all-zero value list
    assert _peeled_rank((2, 2), np.array([0, 0, 1]), np.array([0, 0, 1]), np.array([2, 3, 4]), 5) == 1
    assert _peeled_rank((2, 2), np.array([0, 1]), np.array([1, 0]), np.array([0, 10]), 5) == 0
    # a cancelled entry would otherwise make the cycle's columns independent
    rows, cols = np.array([0, 0, 1, 1, 1]), np.array([0, 1, 0, 1, 1])
    assert _peeled_rank((2, 2), rows, cols, np.array([1, 1, 1, 3, 3]), 5) == 1
    # a zero listed alone in column 1 is no singleton: peeling it would give 2
    rows, cols = np.array([0, 1, 0, 1, 0]), np.array([0, 0, 2, 2, 1])
    assert _peeled_rank((2, 3), rows, cols, np.array([1, 1, 1, 1, 5]), 5) == 1
    # entries that cancel once a pivot row is merged in: the rank stays 2
    rows, cols = np.array([0, 0, 1, 1, 2, 2]), np.array([0, 1, 0, 1, 0, 1])
    assert _peeled_rank((3, 2), rows, cols, np.array([1, 2, 1, 2, 1, 1]), 5) == 2


def _cycle(p, n, gains, chords=0, rng=None):
    """An ``n x n`` cycle: column ``j`` is ``e_j + g_j e_{j+1 mod n}``, and
    ``chords`` random columns get a third nonzero at a further row.

    Without chords nothing peels; the rank is ``n - 1`` when the product of
    the ``-g_j`` is 1 (a balanced cycle), else ``n``.
    """
    a = np.zeros((n, n), dtype=np.int64)
    a[range(n), range(n)] = 1
    a[[(j + 1) % n for j in range(n)], range(n)] = np.asarray(gains) % p
    for j in (rng.choice(n, chords, replace=False) if chords else ()):
        a[(j + 2 + rng.integers(0, n - 2)) % n, j] = rng.integers(1, p)
    return a


@pytest.mark.parametrize("p", [2, 3, 5, 13, 1048573])
def test_sparse_rank_of_two_and_three_nonzeros_per_column(p):
    rng = np.random.default_rng(p + 1)
    cases = [_cycle(p, 9, [-1] * 9)]
    if p > 2:  # over F_2 every cycle is balanced
        cases.append(_cycle(p, 9, [-1] * 8 + [-2]))  # the product of the -g_j is 2
        assert _dense_rank(p, cases[-1]) == 9
    for n in (3, 10, 40):
        gains = rng.integers(1, p, n)
        # fix the last gain so that the product of the -g_j is 1
        prod = 1
        for g in gains[:-1]:
            prod = prod * -int(g) % p
        gains[-1] = -pow(prod, p - 2, p) % p
        assert _dense_rank(p, _cycle(p, n, gains)) == n - 1
        cases += [_cycle(p, n, gains), _cycle(p, n, rng.integers(1, p, n))]
        cases += [_cycle(p, n, gains, chords=n // 3 + 1, rng=rng), _cycle(p, n, gains, chords=n, rng=rng)]
    for rows, cols, per_col in ((30, 45, 2), (45, 30, 2), (30, 45, 3), (45, 30, 3), (20, 20, 3)):
        a = np.zeros((rows, cols), dtype=np.int64)
        for j in range(cols):
            a[rng.choice(rows, per_col, replace=False), j] = rng.integers(1, p, per_col)
        cases.append(a)
    for a in cases:
        assert np.count_nonzero(a, axis=0).min() >= 2  # no singleton column
        want = _dense_rank(p, a)
        for b in (a, a.T):
            rows, cols = b.nonzero()
            assert _peeled_rank(b.shape, rows, cols, b[rows, cols], p) == want
            assert _peeled_rank(b.shape, *_split_entries(p, b, rng), p) == want


def test_peeled_rank_memory_stays_with_the_nonzeros():
    # a 3000-cycle peels nowhere; a dense core of it would take 72 MB
    n, p = 3000, 5
    rows = np.concatenate([np.arange(n), (np.arange(n) + 1) % n])
    cols = np.tile(np.arange(n), 2)
    vals = np.concatenate([np.ones(n, dtype=np.int64), np.full(n, p - 1)])
    tracemalloc.start()
    try:
        rank = _peeled_rank((n, n), rows, cols, vals, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rank == n - 1
    assert peak < 1000 * rows.size  # bytes: a small multiple of the 6000 nonzeros


def _kron_blocks(p, rng, row_slots, col_slots, terms_per_block, identity=True):
    """Random Kronecker blocks between the given slots; ``None`` factors
    where a slot pair is square and ``identity`` allows."""
    terms = {}
    for i, (rl, rr) in enumerate(row_slots):
        for j, (cl, cr) in enumerate(col_slots):
            ts = []
            for _ in range(terms_per_block):
                L = None if identity and rl == cl and rng.random() < 0.3 else FpMatrix(p, rng.integers(0, p, (rl, cl)))
                R = None if identity and rr == cr and rng.random() < 0.3 else FpMatrix(p, rng.integers(0, p, (rr, cr)))
                ts.append((int(rng.integers(1, p)), L, R))
            terms[(i, j)] = ts
    return KronBlocks(p, row_slots, col_slots, terms)


@pytest.mark.parametrize("p", [2, 3, 5])
def test_kron_blocks_apply_matches_the_dense_product(p, matmul_calls):
    rng = np.random.default_rng(p)
    for rows, cols, nterms in [([(2, 3), (3, 3)], [(2, 3), (1, 4)], 1), ([(3, 2)], [(3, 2), (2, 2)], 3),
                               ([(4, 1)], [(4, 1)], 2), ([(2, 2), (0, 3)], [(2, 2)], 2)]:
        kb = _kron_blocks(p, rng, rows, cols, nterms)
        for k in (0, 1, 4):
            V = FpMatrix(p, rng.integers(0, p, (kb.shape[1], k)))
            matmul_calls.clear()
            got = kb.apply(V)
            # factor products only: no operand has a slot's full size as both dimensions
            assert all(m <= 4 and kk <= 4 for m, kk, _ in matmul_calls)
            assert got == kb.dense() @ V


def test_kron_apply_takes_maps_and_the_identity():
    p, rng = 5, np.random.default_rng(0)
    L, R = FpMatrix(p, rng.integers(0, p, (2, 3))), FpMatrix(p, rng.integers(0, p, (4, 5)))
    V = FpMatrix(p, rng.integers(0, p, (15, 3)))
    assert kron_apply(V, (3, 5), L, R) == L.kron(R) @ V
    assert kron_apply(V, (3, 5), lambda X: L @ X, None) == L.kron(FpMatrix.identity(p, 5)) @ V
    assert kron_apply(V, (3, 5), None, R) == FpMatrix.identity(p, 3).kron(R) @ V
    assert kron_apply(V, (3, 5), None, None) == V


def _count_blocks(monkeypatch):
    """The blocks summed at block size, by ``dense()`` or a zero test."""
    formed = []
    real = KronBlocks._add_block

    def counted(self, i, j, out):
        formed.append((i, j))
        return real(self, i, j, out)

    monkeypatch.setattr(KronBlocks, "_add_block", counted)
    return formed


@pytest.mark.parametrize("p", [3, 5])
def test_kron_blocks_is_zero_merges_terms_that_share_a_factor(p, monkeypatch):
    rng = np.random.default_rng(p)
    formed = _count_blocks(monkeypatch)
    reduced = []
    real_rref = FpMatrix.rref

    def counted_rref(self):
        reduced.append(self.shape)
        return real_rref(self)

    monkeypatch.setattr(FpMatrix, "rref", counted_rref)
    L1, L2 = (FpMatrix(p, rng.integers(0, p, (3, 4))) for _ in range(2))
    R, R2 = (FpMatrix(p, rng.integers(0, p, (2, 5))) for _ in range(2))
    almost = FpMatrix(p, (L1 + L2).a + np.eye(3, 4, dtype=np.int64))  # off by one entry
    x, y = FpMatrix(p, rng.integers(0, p, (3, 3))), FpMatrix(p, rng.integers(1, p, (2, 2)))
    x_plus_1 = FpMatrix(p, x.a + np.eye(3, dtype=np.int64))
    zero_R = FpMatrix.zeros(p, 2, 5)
    # name: (column slot, terms, zero, whether every term shares one factor object)
    cases = {
        # L1 (x) R + L2 (x) R - (L1 + L2) (x) R: cancels in the summed left factor
        "shared right": ((4, 5), [(1, L1, R), (1, L2, R), (p - 1, L1 + L2, R)], True, True),
        "shared right, almost": ((4, 5), [(1, L1, R), (1, L2, R), (p - 1, almost, R)], False, True),
        # L1 (x) R + L1 (x) R2 - L1 (x) (R + R2), the identity on neither side
        "shared left": ((4, 5), [(1, L1, R), (1, L1, R2), (p - 1, L1, R + R2)], True, True),
        "shared left, almost": ((4, 5), [(1, L1, R), (2, L1, R2), (p - 1, L1, R + R2)], False, True),
        # entries that add up to a multiple of p, never to zero over the integers
        "cancels mod p": ((4, 5), [(1, L1, R), (1, L1.scale(p - 1), R)], True, True),
        "cancels mod p, coefficients": ((4, 5), [(2, L1, R), (p - 2, L1, R)], True, True),
        "cancels mod p, almost": ((4, 5), [(2, L1, R), (p - 1, L1, R)], False, True),
        # a zero shared factor kills any sum on the other side
        "zero shared factor": ((4, 5), [(1, L1, zero_R), (1, L2, zero_R)], True, True),
        # identity factors: shared on the left, summed on the left, shared on the right
        "shared left identity": ((3, 5), [(1, None, R), (1, None, R2), (p - 1, None, R + R2)], True, True),
        "shared left identity, almost": ((3, 5), [(1, None, R), (1, None, R2)], False, True),
        "summed left identity": ((3, 5), [(1, None, R), (1, x, R), (p - 1, x_plus_1, R)], True, True),
        "summed left identity, almost": ((3, 5), [(1, None, R), (1, x, R), (p - 1, x, R)], False, True),
        "shared right identity": ((4, 2), [(1, L1, None), (1, L2, None), (p - 1, L1 + L2, None)], True, True),
        "summed right identity": ((4, 2), [(1, L1, None), (p - 1, L1, y)], False, True),
        # L1 (x) R + L2 (x) R' + (L1 + L2) (x) (-R), R' a copy of R: no factor
        # object is shared, and the terms cancel through L1 + L2 - (L1 + L2) = 0
        "left relation": ((4, 5), [(1, L1, R), (1, L2, FpMatrix(p, R.a)), (1, L1 + L2, R.scale(p - 1))],
                          True, False),
        "left relation, almost": ((4, 5), [(1, L1, R), (1, L2, FpMatrix(p, R.a)), (1, almost, R.scale(p - 1))],
                                  False, False),
    }
    for name, (cols, ts, zero, one_group) in cases.items():
        kb = KronBlocks(p, [(3, 2)], [cols], {(0, 0): ts})
        reduced.clear()
        assert kb.is_zero() == zero == kb.dense().is_zero(), name
        # a sum on one shared factor is read off directly, without row reduction
        assert bool(reduced) != one_group, name
    assert formed == [(0, 0)] * len(cases)  # only by dense(), never by is_zero
    # identity factors merge too: x (x) 1 - x (x) 1 over a square slot
    kb = KronBlocks(p, [(3, 2)], [(3, 2)], {(0, 0): [(1, x, None), (p - 1, x, None)]})
    assert kb.is_zero() and kb.dense().is_zero()


@pytest.mark.parametrize("p", [3, 5])
def test_kron_blocks_is_zero_resolves_terms_that_share_no_factor(p, monkeypatch):
    rng = np.random.default_rng(p)
    formed = _count_blocks(monkeypatch)
    L, R = FpMatrix(p, rng.integers(1, p, (3, 4))), FpMatrix(p, rng.integers(1, p, (2, 5)))
    # (2L) (x) (2^-1 R) = L (x) R with no factor object in common: it cancels
    # through the relation 2L = 2 * L between the left factors
    inv2 = pow(2, p - 2, p)
    ts = [(1, L, R), (p - 1, L.scale(2), R.scale(inv2))]
    kb = KronBlocks(p, [(3, 2)], [(4, 5)], {(0, 0): ts})
    assert kb.is_zero() and kb.dense().is_zero()
    off = KronBlocks(p, [(3, 2)], [(4, 5)], {(0, 0): [(1, L, R), (p - 1, L.scale(2), R)]})
    assert not off.is_zero() and not off.dense().is_zero()
    # only the two dense() calls form the block: no zero test sums it at block size
    assert formed == [(0, 0)] * 2


def test_immutability():
    m = FpMatrix.identity(3, 2)
    with pytest.raises(ValueError):
        m.a[0, 0] = 2
