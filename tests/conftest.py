"""Fixtures shared by the test modules."""

import os
import subprocess
import sys
import weakref
from types import SimpleNamespace

import numpy as np
import pytest

import smallhom
import smallhom.algebra
import smallhom.chain
import smallhom.construction
from smallhom.algebra import intertwining_system
from smallhom.linalg import FpMatrix, nonpivot_columns, quotient_by_subspace, read_coordinates


def _reference_rref(rows, ncols, p):
    """Textbook Gauss-Jordan on lists of Python integers, visiting every
    column in turn: first nonzero pivot at or below the current row, row
    swap, scale, clear the column."""
    m = [[x % p for x in row] for row in rows]
    pivots, r = [], 0
    for c in range(ncols):
        i = next((i for i in range(r, len(m)) if m[i][c]), None)
        if i is None:
            continue
        m[r], m[i] = m[i], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [x * inv % p for x in m[r]]
        for k in range(len(m)):
            if k != r and m[k][c]:
                f = m[k][c]
                m[k] = [(x - f * y) % p for x, y in zip(m[k], m[r])]
        pivots.append(c)
        r += 1
    return m, pivots


@pytest.fixture
def rref_reference():
    return _reference_rref


@pytest.fixture
def tensor_diagonal_calls(monkeypatch):
    """``(dim M, dim N)`` of every ``tensor_diagonal`` call made during a test."""
    calls = []
    real = smallhom.algebra.tensor_diagonal

    def counted(M, N):
        calls.append((M.dim, N.dim))
        return real(M, N)

    monkeypatch.setattr(smallhom.algebra, "tensor_diagonal", counted)
    return calls


@pytest.fixture
def matmul_calls(monkeypatch):
    """``(m, k, n)`` of every ``FpMatrix`` product made during a test."""
    calls = []
    real = FpMatrix.__matmul__

    def counted(a, b):
        calls.append((a.rows, a.cols, b.cols))
        return real(a, b)

    monkeypatch.setattr(FpMatrix, "__matmul__", counted)
    return calls


@pytest.fixture
def nonprojective_powered_tensor(monkeypatch):
    """Make the second ``tensor_pushouts`` call, which is the powered system
    of a ``power=2`` run, return its tensor plus a trivial summand.  Returns
    the list of real tensors built."""
    real = smallhom.construction.tensor_pushouts
    built = []

    def corrupted(mods, ctx):
        built.append(real(mods, ctx))
        if len(built) != 2:
            return built[-1]
        unit = smallhom.algebra.trivial_module(built[-1].algebra)
        return smallhom.algebra.direct_sum_modules([built[-1], unit])

    monkeypatch.setattr(smallhom.construction, "tensor_pushouts", corrupted)
    return built


@pytest.fixture
def run_optimized():
    """Run a script under ``python -O`` with ``smallhom`` importable."""
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(smallhom.__file__))}

    def run(script: str) -> subprocess.CompletedProcess:
        return subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env, timeout=120)

    return run


def _mono_action(M, mono) -> np.ndarray:
    """``x^mono`` acting on ``M``: the product chain from the identity."""
    out = np.eye(M.dim, dtype=np.int64)
    action = _dense_action(M)
    for i, e in enumerate(mono):
        for _ in range(e):
            out = out @ action[i] % M.algebra.p
    return out


def _free_images_per_monomial(A, target, V: FpMatrix) -> np.ndarray:
    """The free-module map by its definition: column ``slot * dim A + k`` is
    ``basis[k]`` acting on column ``slot`` of ``V``, one matvec each."""
    cols = np.zeros((target.dim, V.cols * A.dim), dtype=np.int64)
    for slot in range(V.cols):
        for k, mono in enumerate(A.basis):
            cols[:, slot * A.dim + k] = _mono_action(target, mono) @ V.a[:, slot] % A.p
    return cols


@pytest.fixture
def mono_action_reference():
    return _mono_action


@pytest.fixture
def free_images_reference():
    return _free_images_per_monomial


def _kernel_constrained_per_element(basis, prev: FpMatrix, p: int) -> list:
    """The morphisms h in the span of ``basis`` (a list of matrices) with
    ``prev @ h = 0``, one product and one combination per basis element."""
    if not basis:
        return []
    rows = np.vstack([(prev @ h).a.reshape(1, -1) for h in basis]).T
    ker = FpMatrix(p, rows).kernel_basis()
    out = []
    for k in range(ker.cols):
        acc = sum(int(ker.a[j, k]) * basis[j].a for j in range(len(basis)))
        out.append(FpMatrix(p, acc))
    return [h for h in out if not h.is_zero()]


@pytest.fixture
def kernel_constrained_reference():
    return _kernel_constrained_per_element


def _dense_hom_space(M, N) -> FpMatrix:
    """The Hom space by its definition: the kernel basis of the whole
    intertwining system, with no use of recorded summands."""
    return FpMatrix(M.algebra.p, intertwining_system(*(_plain(X) for X in (M, N)))).kernel_basis()


def _plain(M):
    """``M`` as a module that records nothing, with its dense action."""
    return smallhom.algebra.Module(M.algebra, [FpMatrix(M.algebra.p, x) for x in _dense_action(M)], check=False)


@pytest.fixture
def hom_space_reference():
    return _dense_hom_space


def _radical_projective(M) -> bool:
    """The whole-module test: ``M`` is free iff ``dim A * dim(M / rad M) = dim M``,
    with ``dim rad M`` the pivot count of the dense radical stack's RREF."""
    if M.dim == 0:
        return True
    rad_dim = len(FpMatrix(M.algebra.p, np.hstack(_dense_action(M))).rref()[1])
    return M.algebra.dim * (M.dim - rad_dim) == M.dim


@pytest.fixture
def projective_reference():
    return _radical_projective


def _eager_sum_action(mods) -> list:
    """A direct sum's action by block-diagonal assembly, one array per generator."""
    A = mods[0].algebra
    dim = sum(m.dim for m in mods)
    out = []
    for g in range(A.ngens):
        a = np.zeros((dim, dim), dtype=np.int64)
        off = 0
        for m in mods:
            a[off : off + m.dim, off : off + m.dim] = _dense_action(m)[g]
            off += m.dim
        out.append(a)
    return out


def _eager_tensor_action(M, N) -> list:
    """``x_i`` on ``M (x) N`` as the sum of ``np.kron`` over the coproduct terms of ``x_i``."""
    A = M.algebra

    def gen(X, w):  # x_w on X, the identity for the unit (None)
        return _mono_action(X, tuple(int(k == w) for k in range(A.ngens)))
    return [sum(c * np.kron(gen(M, u), gen(N, v)) for c, u, v in A.coproduct_terms(i)) % A.p
            for i in range(A.ngens)]


_DENSE_ACTIONS = weakref.WeakKeyDictionary()


def _dense_action(M) -> list:
    """The action arrays of any module, a diagonal tensor's by the eager
    Kronecker sum and a sum's by block-diagonal assembly, recursively; kept
    while the module lives."""
    if M not in _DENSE_ACTIONS:
        if M.factors is not None:
            _DENSE_ACTIONS[M] = _eager_tensor_action(*M.factors)
        elif M.summands is not None:
            _DENSE_ACTIONS[M] = _eager_sum_action(M.summands)
        else:
            _DENSE_ACTIONS[M] = [x.a for x in M.action]
    return _DENSE_ACTIONS[M]


@pytest.fixture
def sum_action_reference():
    return _eager_sum_action


@pytest.fixture
def tensor_action_reference():
    return _eager_tensor_action


@pytest.fixture
def action_builds(monkeypatch):
    """``("sum", summand dims)`` for every direct sum whose action is
    assembled during a test; a diagonal tensor's never is."""
    builds = []
    real_sum = smallhom.algebra._sum_action

    def counted_sum(M):
        builds.append(("sum", tuple(S.dim for S in M.summands)))
        return real_sum(M)

    monkeypatch.setattr(smallhom.algebra, "_sum_action", counted_sum)
    return builds


@pytest.fixture
def chain_run_parts(monkeypatch):
    """What a ``ChainRun`` builds: its tensor towers, lifted theta lists,
    the class complexes they were lifted from, and cones, and the complex of
    every ``homology_space`` call."""
    parts = {"towers": [], "thetas": [], "class_complexes": [], "cones": [], "homology_space": []}

    def recording(key, real):
        def wrapped(*args, **kwargs):
            out = real(*args, **kwargs)
            parts[key].append(out)
            if key == "thetas":
                parts["class_complexes"].append(args[1])
            return out
        return wrapped

    for key, name in (("towers", "tensor_tower"), ("thetas", "build_thetas"), ("cones", "mapping_cone")):
        monkeypatch.setattr(smallhom.construction, name, recording(key, getattr(smallhom.construction, name)))
    real_hs = smallhom.chain.homology_space

    def homology_space(C, i):
        parts["homology_space"].append(C)
        return real_hs(C, i)

    monkeypatch.setattr(smallhom.chain, "homology_space", homology_space)
    monkeypatch.setattr(smallhom.construction, "homology_space", homology_space)
    return parts


def _homology_space_reference(C, i) -> SimpleNamespace:
    """Degree ``i`` homology by the general route in every degree: an absent
    differential is an explicit zero map, both read-backs run, and the
    quotient is by the boundaries' cycle coordinates even when there are
    none.  Gives ``reps`` (``Z``), ``duals`` (``W``) and the
    ``contraction`` ``(Z W, h)``."""
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
    h = up and smallhom.chain._boundary_homotopy(d_out, up.matrix, Z @ W)
    return SimpleNamespace(reps=Z, duals=W, contraction=(Z @ W, h))


@pytest.fixture
def homology_space_reference():
    return _homology_space_reference


def _dense_square_defects(C) -> list:
    """``d . d = 0`` by assembled products: the degrees ``i`` with ``d_i d_{i+1} != 0``."""
    return [i for i in sorted(C.diffs)
            if i + 1 in C.diffs and not (C.diffs[i].matrix @ C.diffs[i + 1].matrix).is_zero()]


def _dense_law_defects(f) -> list:
    """The chain-map law by assembled products: the degrees ``j`` with
    ``(-1)^m f_{j-1} d_j != d_{j+m} f_j``."""
    sign = -1 if f.shift % 2 else 1
    degrees = set(f.comps) | {j + 1 for j in f.comps} | set(f.source.diffs)
    bad = []
    for j in sorted(degrees):
        lhs = (f.component(j - 1).matrix @ f.source.diff_at(j).matrix).scale(sign)
        if lhs != f.target.diff_at(j + f.shift).matrix @ f.component(j).matrix:
            bad.append(j)
    return bad


def _dense_product_support(pairs) -> list:
    """The degrees where ``sum f . g`` over ``pairs`` of parallel graded
    products is nonzero, by assembled products."""
    total = {}
    for f, g in pairs:
        for j, gj in g.comps.items():
            fj = f.comps.get(j + g.shift)
            if fj is not None:
                prod = fj.matrix @ gj.matrix
                total[j] = total[j] + prod if j in total else prod
    return sorted(j for j, m in total.items() if not m.is_zero())


@pytest.fixture
def dense_laws():
    """The dense reference for the laws that ``smallhom.chain`` checks on
    Kronecker blocks: every product is formed at tower size."""
    return SimpleNamespace(square_defects=_dense_square_defects, law_defects=_dense_law_defects,
                           product_support=_dense_product_support)
