"""Exact dense linear algebra over prime fields.

All arithmetic is exact arithmetic reduced modulo a prime.  Matrices are
immutable wrappers around 2-D numpy ``int64`` arrays with entries normalized
to ``0..p-1``.  Ranks, kernels and solutions come from Gauss-Jordan
elimination with exact modular inverses, so every derived basis is
deterministic.

Floating point appears in one place only: a product with inner dimension
``k`` runs as a float32 BLAS product when ``k * (p - 1)**2 < 2**24``.  The
operands are integers in ``0..p-1``, so every partial sum is an integer no
larger than that bound and float32 represents it exactly; the result is
converted back to ``int64`` before it is reduced.  This is the
delayed-reduction technique of FFLAS (Dumas, Giorgi and Pernet, "Dense
linear algebra over word-size prime fields: the FFLAS and FFPACK packages",
ACM TOMS 35(3), 2008).  Every other product runs in ``int64`` under the same
bound against ``2**63``, and a product that could overflow even that raises.

Conventions fixed here and relied on by every other module:

* Kronecker products pair indices row-major: ``(i, j) -> i * n_b + j``.
* Kernel bases are read off the unique reduced row echelon form; a kernel
  basis is the identity on the free (non-pivot) rows.
* Column-space bases are echelonized (rref of the transpose); such a basis
  is the identity on its pivot rows, and each column's pivot row is its
  first nonzero row (:func:`echelon_pivots`).  That reading holds for these
  bases only: a kernel basis column may be nonzero above its free row.
* :meth:`FpMatrix.echelon_kernel` gives a kernel already echelonized, from
  one elimination of the column-reversed matrix, and
  :func:`is_echelonized` recognises such a basis, so a kernel that is to be
  echelonized is eliminated once, not twice.

Because of these identity rows, the coordinates of a vector in either kind
of basis are not solved for: they are read off those rows
(:func:`read_coordinates`) and re-checked by one exact product, which fails
exactly when the vector lies outside the span.  :meth:`FpMatrix.solve` is
for general systems.

A rank alone does not need the reduced echelon form.  :meth:`FpMatrix.rank`
reads the pivot count of a cached form when there is one; otherwise
:func:`_peeled_rank` ranks the coordinate lists of its nonzeros, the one rank
route, and never makes a matrix dense.  It is structured Gaussian elimination
(Bouillaguet and Delaplace, "Sparse Gaussian elimination modulo p: an
update", CASC 2016): singletons are peeled first (:func:`_peel`), which makes
no fill-in, and the core that is left is eliminated on rows kept as dicts by
Markowitz pivoting (Markowitz, Management Science 3, 1957).  A matrix that is
never assembled, such as a module's radical stack, is ranked the same way
from lists in which a coordinate may repeat and a value may vanish.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from heapq import heappop, heappush
from itertools import accumulate
from math import prod

import numpy as np

# Field sizes: FieldSpec accepts p <= MAX_CHAR, which keeps p**3 and every
# k * (p - 1)**2 with k < 2**23 below 2**63.
MAX_CHAR = 2**20
# Integers up to 2**24 are exact in float32 (24-bit significand).
FLOAT32_EXACT = 2**24
INT64_EXACT = 2**63
# m * k * n at which a float32 BLAS product beats numpy's int64 loop.
BLAS_MIN_WORK = 32**3


def is_prime(n: int) -> bool:
    """Trial-division primality test; the moduli used here are tiny."""
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The prime field F_p, given by its characteristic."""

    p: int

    def __post_init__(self) -> None:
        if self.p > MAX_CHAR:
            raise ValueError(f"characteristic must be at most 2**20 = {MAX_CHAR}, got {self.p}")
        if not is_prime(self.p):
            raise ValueError(f"characteristic must be a prime >= 2, got {self.p}")

    def inv(self, a: int) -> int:
        a %= self.p
        if a == 0:
            raise ZeroDivisionError("inverting 0 in F_p")
        return pow(a, self.p - 2, self.p)


class FpMatrix:
    """An immutable dense matrix over F_p."""

    __slots__ = ("p", "a", "_rref")

    def __init__(self, p: int, array) -> None:
        self.p = int(p)
        arr = np.array(array, dtype=np.int64, copy=True)
        if arr.ndim != 2:
            raise ValueError("matrix data must be 2-dimensional")
        arr %= self.p
        arr.setflags(write=False)
        self.a = arr
        self._rref = None

    @classmethod
    def _adopt(cls, p: int, arr: np.ndarray, reduced: bool = False) -> "FpMatrix":
        """Wrap a 2-D ``int64`` array without copying it.

        The array is reduced in place, so it must be fresh (nobody else
        holds it), unless ``reduced`` says its entries already lie in
        ``0..p-1``; such an array may also be a read-only view.
        """
        if not reduced:
            arr %= p
        arr.setflags(write=False)
        out = cls.__new__(cls)
        out.p = p
        out.a = arr
        out._rref = None
        return out

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def zeros(cls, p: int, rows: int, cols: int) -> "FpMatrix":
        return cls(p, np.zeros((rows, cols), dtype=np.int64))

    @classmethod
    def identity(cls, p: int, n: int) -> "FpMatrix":
        return cls(p, np.eye(n, dtype=np.int64))

    # ------------------------------------------------------------------
    # basic structure
    # ------------------------------------------------------------------
    @property
    def rows(self) -> int:
        return self.a.shape[0]

    @property
    def cols(self) -> int:
        return self.a.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.a.shape

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpMatrix):
            return NotImplemented
        a, b = self.a, other.a
        return self.p == other.p and a.shape == b.shape and bool((a == b).all())

    def __repr__(self) -> str:
        return f"FpMatrix(p={self.p}, shape={self.a.shape})"

    def is_zero(self) -> bool:
        return not np.count_nonzero(self.a)  # a C call: ndarray.any goes through a Python wrapper

    # ------------------------------------------------------------------
    # arithmetic
    # ------------------------------------------------------------------
    def _coerce(self, other: "FpMatrix") -> None:
        if self.p != other.p:
            raise ValueError("mixing matrices over different fields")

    def __add__(self, other: "FpMatrix") -> "FpMatrix":
        self._coerce(other)
        return FpMatrix(self.p, self.a + other.a)

    def __sub__(self, other: "FpMatrix") -> "FpMatrix":
        self._coerce(other)
        return FpMatrix(self.p, self.a - other.a)

    def __neg__(self) -> "FpMatrix":
        return FpMatrix(self.p, -self.a)

    def __matmul__(self, other: "FpMatrix") -> "FpMatrix":
        p, a, b = self.p, self.a, other.a
        if p != other.p:
            raise ValueError("mixing matrices over different fields")
        (m, k), (k2, n) = a.shape, b.shape
        if k != k2:
            raise ValueError(f"shape mismatch {a.shape} @ {b.shape}")
        # entries lie in 0..p-1, so every partial sum is an integer <= bound
        bound = k * (p - 1) ** 2
        if bound < FLOAT32_EXACT and m * k * n >= BLAS_MIN_WORK:
            c = (a.astype(np.float32) @ b.astype(np.float32)).astype(np.int64)
        elif bound < INT64_EXACT:
            c = a @ b
        else:
            raise ValueError(f"product over F_{p} with inner dimension {k} could overflow: "
                             f"k * (p - 1)**2 = {bound} >= 2**63")
        return FpMatrix._adopt(p, c)

    def scale(self, c: int) -> "FpMatrix":
        return FpMatrix(self.p, self.a * (c % self.p))

    def transpose(self) -> "FpMatrix":
        # a read-only view of reduced entries: shared, never written
        return FpMatrix._adopt(self.p, self.a.T, reduced=True)

    def power(self, e: int) -> "FpMatrix":
        """``self`` to the power ``e >= 0`` by repeated squaring."""
        if self.rows != self.cols:
            raise ValueError("powers need a square matrix")
        if e < 0:
            raise ValueError(f"powers need an exponent >= 0, got {e}")
        if e == 0:
            return FpMatrix.identity(self.p, self.rows)
        # repeated squaring: one product per bit of e below the top and one
        # per set bit after the first, 7 rather than 22 at e = 23
        out, square = None, self
        while True:
            if e & 1:
                out = square if out is None else out @ square
            e >>= 1
            if not e:
                return out
            square = square @ square

    def take_columns(self, idx) -> "FpMatrix":
        return FpMatrix._adopt(self.p, self.a[:, list(idx)], reduced=True)

    # ------------------------------------------------------------------
    # elimination
    # ------------------------------------------------------------------
    def rref(self) -> tuple["FpMatrix", tuple[int, ...]]:
        """Reduced row echelon form and its pivot columns.

        :func:`_eliminate` leaves the rows in place; the pivot rows are
        gathered into echelon order at the end, the others after them.  A
        zero matrix is its own RREF (a view of its array, so that the cache
        makes no reference cycle), with no pivots and no elimination.
        """
        if self._rref is None and self.is_zero():
            self._rref = (FpMatrix._adopt(self.p, self.a, reduced=True), ())
        elif self._rref is None:
            m = self.a.copy()
            pivots, pivot_rows, free = _eliminate(m, self.p)
            m = m[pivot_rows + free.nonzero()[0].tolist()]
            self._rref = (FpMatrix._adopt(self.p, m, reduced=True), tuple(pivots))
        return self._rref

    def rank(self) -> int:
        """The rank: a cached RREF's pivot count, else :func:`_peeled_rank`.
        A peeled rank is not cached: no caller ranks one matrix twice.

        A caller that needs the RREF too should ask for it first, so that
        the matrix is eliminated once.
        """
        if self._rref is not None:
            return len(self._rref[1])
        rows, cols = self.a.nonzero()
        return _peeled_rank(self.shape, rows, cols, self.a[rows, cols], self.p)

    def kernel_basis(self) -> "FpMatrix":
        """Columns span the right null space; count = cols - rank.

        The basis is the identity on the free (non-pivot) rows.
        """
        red, pivots = self.rref()
        free = nonpivot_columns(self.cols, pivots)
        basis = np.zeros((self.cols, len(free)), dtype=np.int64)
        basis[free, range(len(free))] = 1
        basis[list(pivots)] = -red.a[: len(pivots), free]
        return FpMatrix._adopt(self.p, basis)

    def echelon_kernel(self) -> "FpMatrix":
        """The right null space as an echelonized column basis, equal to
        ``kernel_basis().column_space()`` but from one elimination; the rank
        is ``cols`` minus its column count.

        That elimination is of the matrix with its columns reversed.  In
        reversed order a kernel basis vector is 1 on its free column and
        nonzero elsewhere only on pivot columns left of it (a reduced row
        vanishes left of its pivot), and it vanishes on the other free
        columns.  Reversed back, its free row is its first nonzero row, where
        it is 1, and it vanishes on the other free rows: with the columns in
        ascending order of those rows, that is the reduced echelon basis of
        the span, which is unique.
        """
        flipped = FpMatrix._adopt(self.p, self.a[:, ::-1], reduced=True)
        return FpMatrix._adopt(self.p, flipped.kernel_basis().a[::-1, ::-1].copy(), reduced=True)

    def column_space(self) -> "FpMatrix":
        """Echelonized basis of the column space, returned as columns."""
        red, pivots = self.transpose().rref()
        return FpMatrix(self.p, red.a[: len(pivots)].T)

    def solve(self, b: "FpMatrix") -> "FpMatrix | None":
        """Solve ``self @ x = b``; ``None`` when inconsistent.

        The witness is re-checked exactly before it is returned.
        """
        self._coerce(b)
        if b.rows != self.rows:
            raise ValueError(f"rhs has {b.rows} rows, matrix has {self.rows}")
        aug = FpMatrix(self.p, np.hstack([self.a, b.a]))
        red, pivots = aug.rref()
        n = self.cols
        if any(pc >= n for pc in pivots):
            return None
        x = np.zeros((n, b.cols), dtype=np.int64)
        for t, pc in enumerate(pivots):
            x[pc, :] = red.a[t, n:]
        sol = FpMatrix(self.p, x)
        if (self @ sol) != b:
            raise AssertionError("solver produced an invalid witness")
        return sol

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def kron(self, other: "FpMatrix") -> "FpMatrix":
        self._coerce(other)
        return FpMatrix._adopt(self.p, kron_array(self.a, other.a))


def kron_array(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``np.kron`` of two 2-D arrays as one broadcast product, a fresh array."""
    return (a[:, None, :, None] * b[None, :, None, :]).reshape(
        a.shape[0] * b.shape[0], a.shape[1] * b.shape[1])


def _eliminate(m: np.ndarray, p: int) -> tuple[list[int], list[int], np.ndarray]:
    """Gauss-Jordan elimination of ``m`` in place, column by column.

    Returns the pivot columns, their rows and the mask of rows that hold no
    pivot.  Rows stay in place: each pivot row is scaled to a leading 1 and
    its column is cleared in every other row.  The pivot row of column ``c``
    vanishes left of ``c``, so every row update starts at column ``c``.
    Only the columns that are nonzero at the start are visited: a row
    operation keeps a zero column zero.  Every entry written is reduced, so
    ``m`` stays in ``0..p-1``.
    """
    rows = m.shape[0]
    pivots: list[int] = []
    pivot_rows: list[int] = []
    free = np.ones(rows, dtype=bool)
    for c in m.any(axis=0).nonzero()[0].tolist():
        nz = m[:, c].nonzero()[0]
        candidates = nz[free[nz]]
        if not candidates.size:
            continue
        i = int(candidates[0])
        row = m[i, c:]
        lead = int(row[0])
        if lead != 1:
            row *= pow(lead, p - 2, p)
            row %= p
        if nz.size == 2:
            # one other row, nz[0] + nz[1] - i: update its view in place
            other = m[int(nz[0] + nz[1]) - i, c:]
            other -= int(other[0]) * row
            other %= p
        elif nz.size > 2:
            touched = nz[nz != i]
            blk = m[touched, c:]
            blk -= blk[:, :1] * row
            blk %= p
            m[touched, c:] = blk
        free[i] = False
        pivots.append(c)
        pivot_rows.append(i)
        if len(pivot_rows) == rows:
            break
    return pivots, pivot_rows, free


def _peeled_rank(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray, vals: np.ndarray, p: int) -> int:
    """Rank of the ``shape`` matrix whose entries are the sums mod ``p`` of
    ``vals`` at ``(rows, cols)``.  Values that vanish mod ``p`` are dropped
    and singletons peeled (:func:`_peel`).  The core keeps one dict per row,
    repeats added up, and the rows of each column.  The column of least count
    (from a heap, stale pairs skipped) is pivoted in its shortest row, which
    is merged into the column's other rows and removed.
    """
    nz = vals % p != 0
    rank, rows, cols, vals = _peel(shape, rows[nz], cols[nz], vals[nz])
    grid: dict[int, dict[int, int]] = {}
    for i, j, v in zip(rows.tolist(), cols.tolist(), vals.tolist()):
        row = grid.setdefault(i, {})
        row[j] = (row.get(j, 0) + v) % p
    grid = {i: {j: v for j, v in row.items() if v} for i, row in grid.items()}
    lines: dict[int, set[int]] = {}
    for i, row in grid.items():
        for j in row:
            lines.setdefault(j, set()).add(i)
    heap = sorted((len(s), j) for j, s in lines.items())  # a sorted list is a heap
    while heap:
        n, j = heappop(heap)
        col = lines[j]
        if not n or len(col) != n:
            continue
        i = min(col, key=lambda r: len(grid[r]))
        pivot = grid.pop(i)
        inv = pow(pivot[j], p - 2, p)
        for r in col - {i}:
            row = grid[r]
            f = row[j] * inv % p
            for k, v in pivot.items():
                row[k] = x = (row.get(k, 0) - f * v) % p
                if x:
                    lines[k].add(r)
                else:
                    del row[k]
                    lines[k].discard(r)
        rank += 1
        for k in pivot:
            lines[k].discard(i)
            heappush(heap, (len(lines[k]), k))
    return rank


def _peel(shape: tuple[int, int], rows: np.ndarray, cols: np.ndarray,
          vals: np.ndarray) -> tuple[int, np.ndarray, np.ndarray, np.ndarray]:
    """Peel singleton columns and rows off the entries ``vals`` at ``(rows,
    cols)``; returns the pivots peeled and the lists that are left.

    A column whose only nonzero sits in row ``i`` splits off a 1x1 block
    (column operations with it clear row ``i`` and touch no other row): it
    adds one to the rank, row ``i`` and the column go, and the other singleton
    columns in row ``i`` become zero.  A round drops the rows of the singleton
    columns, one pivot per distinct row, then the columns of the singleton
    rows likewise; rounds repeat while they peel.  Coordinates may repeat if
    every listed value is nonzero mod p: a line listed once then holds one
    nonzero, and a line whose repeats cancel is listed twice, so never peeled.
    """
    rank = 0
    peeled = True
    while peeled and rows.size:
        peeled = False
        for axis in (1, 0):  # singleton columns, then singleton rows
            line, cross = (cols, rows) if axis else (rows, cols)
            single = np.bincount(line, minlength=shape[axis])[line] == 1
            if not single.any():
                continue
            hit = np.zeros(shape[1 - axis], dtype=bool)
            hit[cross[single]] = True
            rank += int(np.count_nonzero(hit))
            keep = ~hit[cross]
            rows, cols, vals = rows[keep], cols[keep], vals[keep]
            peeled = True
    return rank, rows, cols, vals


def hstack(mats: list[FpMatrix]) -> FpMatrix:
    p = mats[0].p
    return FpMatrix._adopt(p, np.hstack([m.a for m in mats]), reduced=True)


def vstack(mats: list[FpMatrix]) -> FpMatrix:
    p = mats[0].p
    return FpMatrix._adopt(p, np.vstack([m.a for m in mats]), reduced=True)


def block(p: int, grid: list[list["FpMatrix | None"]], row_dims: list[int], col_dims: list[int]) -> FpMatrix:
    """Assemble a block matrix; ``None`` entries are zero blocks."""
    out = np.zeros((sum(row_dims), sum(col_dims)), dtype=np.int64)
    r0 = 0
    for bi, rd in enumerate(row_dims):
        c0 = 0
        for bj, cd in enumerate(col_dims):
            blk = grid[bi][bj]
            if blk is not None:
                if blk.shape != (rd, cd):
                    raise ValueError(f"block ({bi},{bj}) has shape {blk.shape}, expected {(rd, cd)}")
                out[r0 : r0 + rd, c0 : c0 + cd] = blk.a
            c0 += cd
        r0 += rd
    return FpMatrix._adopt(p, out, reduced=True)


class KronBlocks:
    """A matrix between two direct sums of tensor slots, kept as Kronecker terms.

    Slot ``k`` of either side has factor dimensions ``(d_1, ..., d_c)`` and
    size ``d_1 ... d_c``.  Block ``(i, j)`` is the sum of its terms
    ``(c, F_1, ..., F_c)``, each ``c * F_1 (x) ... (x) F_c`` with ``F_f`` of
    shape ``d_f(i) x d_f(j)``; ``None`` stands for an identity factor, and a
    two-fold term is ``(c, L, R)``.  Products and sums stay in this form by the
    mixed-product rule ``(F_1 (x) F_2)(G_1 (x) G_2) = F_1 G_1 (x) F_2 G_2``,
    factor by factor (Van Loan, "The ubiquitous Kronecker product", J. Comput.
    Appl. Math. 123, 2000), so they multiply factors only.  A thin matrix is
    multiplied through the reshape identity (:meth:`apply`), a zero test runs
    at factor size (:meth:`is_zero`), and the dense matrix is assembled only
    on request (:meth:`dense`).  A plain matrix is the one-block, one-term case
    (:meth:`single`).
    """

    __slots__ = ("p", "row_slots", "col_slots", "terms", "_dense")

    def __init__(self, p: int, row_slots, col_slots, terms: dict) -> None:
        self.p = p
        self.row_slots = tuple(row_slots)
        self.col_slots = tuple(col_slots)
        self.terms = terms  # {(i, j): [(c, F_1, ..., F_c), ...]}, no empty lists
        self._dense: FpMatrix | None = None

    @classmethod
    def single(cls, m: FpMatrix) -> "KronBlocks":
        out = cls(m.p, [(m.rows, 1)], [(m.cols, 1)], {(0, 0): [(1, m, None)]})
        out._dense = m
        return out

    @classmethod
    def grid(cls, p: int, grid: list[list["KronBlocks | None"]], row_dims: list[int],
             col_dims: list[int]) -> "KronBlocks":
        """The block matrix of a grid of Kronecker blocks, ``None`` being zero.
        A grid row (column) takes its slots from its blocks, or is one slot
        of its dimension."""
        rows = [next((b.row_slots for b in row if b), ((d, 1),) if d else ()) for row, d in zip(grid, row_dims)]
        cols = [next((row[c].col_slots for row in grid if row[c]), ((d, 1),) if d else ())
                for c, d in enumerate(col_dims)]
        terms = {}
        for r, row in enumerate(grid):
            for c, b in enumerate(row):
                if b is not None:
                    if (b.row_slots, b.col_slots) != (rows[r], cols[c]):
                        raise ValueError("the blocks of one grid row or column must share their slots")
                    i0, j0 = sum(map(len, rows[:r])), sum(map(len, cols[:c]))
                    terms.update({(i + i0, j + j0): ts for (i, j), ts in b.terms.items()})
        return cls(p, sum(rows, ()), sum(cols, ()), terms)

    @property
    def shape(self) -> tuple[int, int]:
        return sum(map(prod, self.row_slots)), sum(map(prod, self.col_slots))

    def __matmul__(self, other: "KronBlocks") -> "KronBlocks":
        if self.col_slots != other.row_slots:
            # the inner sums are split differently: multiply densely
            return KronBlocks.single(self.dense() @ other.dense())
        by_row: dict[int, list] = {}
        for (j, k), ts in other.terms.items():
            by_row.setdefault(j, []).append((k, ts))
        terms: dict = {}
        for (i, j), ts in self.terms.items():
            for k, us in by_row.get(j, ()):
                for t in ts:
                    for u in us:
                        tu = [t[0] * u[0] % self.p]
                        for f, g in zip(t[1:], u[1:]):
                            fg = _factor_product(f, g)
                            if fg is not None and fg.is_zero():
                                break
                            tu.append(fg)
                        else:
                            terms.setdefault((i, k), []).append(tuple(tu))
        return KronBlocks(self.p, self.row_slots, other.col_slots, terms)

    def __add__(self, other: "KronBlocks") -> "KronBlocks":
        if (self.row_slots, self.col_slots) != (other.row_slots, other.col_slots):
            return KronBlocks.single(self.dense() + other.dense())
        terms = dict(self.terms)
        for key, ts in other.terms.items():
            terms[key] = terms.get(key, []) + ts
        return KronBlocks(self.p, self.row_slots, self.col_slots, terms)

    def scale(self, c: int) -> "KronBlocks":
        c %= self.p
        terms = {key: [(c * c0 % self.p, *fs) for c0, *fs in ts] for key, ts in self.terms.items()}
        return KronBlocks(self.p, self.row_slots, self.col_slots, terms if c else {})

    def _add_block(self, i: int, j: int, out: np.ndarray) -> None:
        """Add block ``(i, j)``, summed from its terms, to ``out`` in place."""
        for c, *fs in self.terms[(i, j)]:
            mats = [f.a if f is not None else np.eye(n, dtype=np.int64) for f, n in zip(fs, self.row_slots[i])]
            term = reduce(lambda x, y: kron_array(x % self.p, y), mats)
            out += term if c == 1 else c * term
            out %= self.p

    def dense(self) -> FpMatrix:
        """The assembled matrix, built once, each block summed in place."""
        if self._dense is None:
            row_off = list(accumulate(map(prod, self.row_slots), initial=0))
            col_off = list(accumulate(map(prod, self.col_slots), initial=0))
            out = np.zeros((row_off[-1], col_off[-1]), dtype=np.int64)
            for i, j in self.terms:
                self._add_block(i, j, out[row_off[i] : row_off[i + 1], col_off[j] : col_off[j + 1]])
            self._dense = FpMatrix._adopt(self.p, out, reduced=True)
        return self._dense

    def is_zero(self) -> bool:
        """Block by block, at factor size (:func:`_kron_sum_is_zero`)."""
        return all(_kron_sum_is_zero(self.p, ts, self.row_slots[i]) for (i, _), ts in self.terms.items())

    def apply(self, V: FpMatrix) -> FpMatrix:
        """``self @ V`` for a thin ``V``, term by term through
        :func:`kron_apply`, so no operand is larger than a factor or a slot
        of ``V``; slots where ``V`` is zero are skipped."""
        col_off = list(accumulate(map(prod, self.col_slots), initial=0))
        row_off = list(accumulate(map(prod, self.row_slots), initial=0))
        out = np.zeros((row_off[-1], V.cols), dtype=np.int64)
        # a slot of V that is zero contributes nothing: Kunneth classes sit in few slots
        pieces = [V.a[col_off[j] : col_off[j + 1]] for j in range(len(self.col_slots))]
        pieces = [FpMatrix._adopt(self.p, x, reduced=True) if x.any() else None for x in pieces]
        for (i, j), ts in self.terms.items():
            Vj = pieces[j]
            if Vj is None:
                continue
            acc = out[row_off[i] : row_off[i + 1]]
            for c, *fs in ts:
                acc += c * kron_apply(Vj, self.col_slots[j], *fs).a
            acc %= self.p
        return FpMatrix._adopt(self.p, out, reduced=True)


def kron_apply(V: FpMatrix, dims: tuple[int, ...], *factors) -> FpMatrix:
    """``(F_1 (x) ... (x) F_c) V`` without forming the Kronecker product.

    Column ``v`` of ``V`` is the row-major vectorisation of a
    ``d_1 x ... x d_c`` array ``X``, ``dims = (d_1, ..., d_c)``, and ``F_f``
    acts on axis ``f`` of ``X`` alone; for two factors this is
    ``(L (x) R) vec(X) = vec(L X R^T)`` (the reshape identity; Van Loan, "The
    ubiquitous Kronecker product").  So each factor acts on the
    ``d_f x (rest * cols)`` unfolding of ``X`` along its axis, by one guarded
    product.  A factor is an :class:`FpMatrix`, a map on the columns of a
    matrix (such as ``Module.act`` of a tensor factor) or ``None`` for the
    identity.
    """
    p, k = V.p, V.cols
    dims, X, pre = list(dims), V.a, 1
    for axis, f in enumerate(factors):
        if f is not None:
            d, post = dims[axis], prod(dims[axis + 1 :]) * k
            Y = X.reshape(d, post) if pre == 1 else X.reshape(pre, d, post).transpose(1, 0, 2).reshape(d, pre * post)
            Y = _factor_apply(f, FpMatrix._adopt(p, Y, reduced=True)).a
            dims[axis] = Y.shape[0]
            X = Y if pre == 1 else Y.reshape(dims[axis], pre, post).transpose(1, 0, 2)
        pre *= dims[axis]
    return FpMatrix._adopt(p, X.reshape(prod(dims), k), reduced=True)


def _factor_apply(f, X: FpMatrix) -> FpMatrix:
    return f @ X if isinstance(f, FpMatrix) else f(X)


def _factor_product(x: FpMatrix | None, y: FpMatrix | None) -> FpMatrix | None:
    """The product of two Kronecker factors, ``None`` being an identity."""
    if x is None:
        return y
    return x if y is None else x @ y


def _kron_sum_is_zero(p: int, terms: list, rows: tuple[int, ...]) -> bool:
    """Whether ``sum c F_1 (x) ... (x) F_k`` over ``terms``, a block whose
    row slot has factor dimensions ``rows``, is zero, at factor size.

    A factor object ``S`` shared by every term (an identity among them)
    splits off: up to the order of the factors the block is ``S (x) F``, with
    ``F`` the sum of the terms' other ``k - 1`` factors, so it is zero
    exactly when ``S`` is or ``F`` is.  A one-fold sum is read off directly.
    Otherwise the terms are grouped by their first factor object into
    ``sum_g S_g (x) F_g``.  Row reduction of the matrix whose columns are the
    vectorised ``S_g`` writes ``S_g = sum_t a_tg V_t``, the ``V_t`` its pivot
    columns, so the block is ``sum_t V_t (x) (sum_g a_tg F_g)``, and with the
    ``V_t`` independent it is zero exactly when each of these ``(k - 1)``-fold
    combinations is.  The elimination is as wide as the number of groups.
    """
    def vec(f, n):  # a factor as a row, None being the n x n identity
        return (f.a if f is not None else np.eye(n, dtype=np.int64)).reshape(-1)

    if len(rows) == 1:
        return not (sum(c * vec(f, rows[0]) for c, f in terms) % p).any()
    for k in range(len(rows)):
        S = terms[0][k + 1]
        if all(t[k + 1] is S for t in terms):
            return (S is not None and S.is_zero()) or _kron_sum_is_zero(
                p, [t[: k + 1] + t[k + 2 :] for t in terms], rows[:k] + rows[k + 1 :])
    groups: dict = {}
    for c, first, *rest in terms:
        groups.setdefault(id(first), (first, []))[1].append((c, *rest))
    red, pivots = FpMatrix(p, [vec(f, rows[0]) for f, _ in groups.values()]).transpose().rref()
    members = [ms for _, ms in groups.values()]
    return all(_kron_sum_is_zero(p, [(a * c % p, *rest) for a, ms in zip(coeffs, members) if a for c, *rest in ms],
                                 rows[1:])
               for coeffs in red.a[: len(pivots)].tolist())


def nonpivot_columns(n: int, pivots) -> list[int]:
    """The columns ``0..n-1`` that are not pivots, ascending."""
    piv = set(pivots)
    return [c for c in range(n) if c not in piv]


def echelon_pivots(basis: FpMatrix) -> list[int]:
    """Pivot rows of an echelonized column basis, one per column.

    Column ``t`` of such a basis (:meth:`FpMatrix.column_space`) is row ``t``
    of a reduced echelon form, transposed, so its pivot is its first nonzero
    row.  Not for kernel bases, whose identity rows are the free rows.
    """
    if not basis.a.size:
        return []
    return (basis.a != 0).argmax(axis=0).tolist()


def is_echelonized(basis: FpMatrix) -> bool:
    """Whether ``basis`` is the echelonized basis of its own span, as
    :meth:`FpMatrix.column_space` would return it: its pivots
    (:func:`echelon_pivots`) ascend strictly and it is the identity on them.
    The reduced echelon form of a span is unique, so such a basis needs no
    elimination."""
    pivots = echelon_pivots(basis)
    return (all(a < b for a, b in zip(pivots, pivots[1:]))
            and np.array_equal(basis.a[pivots], np.eye(len(pivots), dtype=np.int64)))


def read_coordinates(basis: FpMatrix, rows, v: FpMatrix) -> FpMatrix | None:
    """Coordinates ``x`` with ``basis @ x == v``; ``None`` outside the span.

    ``basis`` must be the identity on ``rows`` (a kernel basis on its free
    rows, an echelonized column basis on its pivot rows).  Then the only
    candidate is ``x = v[rows]``, and it is the answer exactly when the
    product re-check below holds.
    """
    basis._coerce(v)
    if v.rows != basis.rows:
        raise ValueError(f"vectors have {v.rows} rows, basis has {basis.rows}")
    x = FpMatrix._adopt(v.p, v.a[list(rows)], reduced=True)
    if (basis @ x) != v:
        return None
    return x


def quotient_by_subspace(p: int, sub_cols: FpMatrix) -> tuple[FpMatrix, FpMatrix]:
    """Quotient of ``F_p^n`` by the column span of ``sub_cols``.

    Returns ``(qmap, section)`` with ``qmap`` of shape ``(n - s) x n`` and
    ``section`` of shape ``n x (n - s)``, where ``qmap @ section = I`` and
    ``v - section @ qmap @ v`` always lies in the subspace.  The complement
    basis is the set of standard vectors at the non-pivot coordinates of the
    echelonized subspace, so the construction is deterministic.  Any
    spanning set gives the same result: the reduced echelon form of a row
    space is unique.
    """
    n = sub_cols.rows
    red, pivots = sub_cols.transpose().rref()
    s = len(pivots)
    nonpiv = nonpivot_columns(n, pivots)
    # v - sum_t v[p_t] * E_t lies in v + S and vanishes at the pivot coords,
    # where E_t are the echelon rows spanning S
    full = np.eye(n, dtype=np.int64)
    full[:, list(pivots)] -= red.a[:s].T
    qmap = FpMatrix._adopt(p, full[nonpiv, :])
    section = np.zeros((n, n - s), dtype=np.int64)
    section[nonpiv, range(n - s)] = 1
    return qmap, FpMatrix._adopt(p, section, reduced=True)
