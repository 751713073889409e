"""Brute-force verification by exact linear algebra over F_p.

Builds coboundary matrices on the full difference-tensor basis, computes
ranks and kernels by Gauss-Jordan elimination mod p, and answers the
questions the rest of the library is checked against: coboundary
membership, class equality, and seeded random cocycles.  Each column is
the bar-formula reference ``cochain._bar_coboundary`` of one basis
cochain, so nothing here depends on the coboundary kernel that ``d``
runs, nor on the inverse-map code, and agreement with either is
meaningful evidence.

The degree-n matrix has (p^r - 1)^(2n+1) dense entries; anything whose
dense form exceeds the entry budget is refused with an explicit error
rather than attempted.  Cohomology dimensions (``graded.cohomology_report``)
come from the multigraded blocks of ``graded`` instead; ``d_matrix`` and
``rank`` stay as the dense reference they are checked against.
"""

from __future__ import annotations

import functools
import itertools
import random

import numpy as np

from .cochain import ICochain, _bar_coboundary
from .group_ring import MOD_P, GroupContext, NotACocycleError, check_budget


@functools.lru_cache(maxsize=None)
def cochain_basis(ctx: GroupContext, n: int) -> tuple:
    """All degree-n basis keys (tuples of nonidentity elements), in
    lexicographic order."""
    return tuple(itertools.product(tuple(ctx.nonidentity_elements()), repeat=n))


class FpMatrix:
    """Matrix over F_p stored as sparse columns; densified for elimination."""

    __slots__ = ("p", "rows", "cols", "columns")

    def __init__(self, p: int, rows: int, cols: int, columns):
        check_budget(rows * cols)
        if len(columns) != cols:
            raise ValueError("column count mismatch")
        self.p = p
        self.rows = rows
        self.cols = cols
        self.columns = [{i: v % p for i, v in col.items() if v % p} for col in columns]

    @classmethod
    def from_dense(cls, p: int, array) -> "FpMatrix":
        array = np.asarray(array, dtype=np.int64) % p
        rows, cols = array.shape
        columns = []
        for j in range(cols):
            nz = np.nonzero(array[:, j])[0]
            columns.append({int(i): int(array[i, j]) for i in nz})
        return cls(p, rows, cols, columns)

    def to_dense(self):
        dense = np.zeros((self.rows, self.cols), dtype=_elimination_dtype(self.p))
        for j, col in enumerate(self.columns):
            for i, v in col.items():
                dense[i, j] = v
        return dense


def _elimination_dtype(p: int):
    """Narrowest signed dtype holding every intermediate of a row update
    mod p, whose magnitude stays below (p-1)^2 + p; exact Python ints
    (``object``) once int64 no longer does."""
    bound = (p - 1) ** 2 + p
    for dtype in (np.int8, np.int16, np.int32, np.int64):
        if bound <= np.iinfo(dtype).max:
            return dtype
    return object


def _rref(mat, p: int):
    """Reduced row echelon form mod p; returns (array, pivot columns).

    Eliminates in ``_elimination_dtype(p)``.  All rows are zero left of the
    current column, so each update touches only the trailing columns of the
    rows that have a nonzero entry there.
    """
    dtype = _elimination_dtype(p)
    red = np.asarray(mat)
    # reduce before narrowing, so no entry wraps in the cast
    red = red.astype(object) % p if dtype is object else red % p
    red = red.astype(dtype, order="C", copy=False)
    rows, cols = red.shape
    pivots = []
    rank_so_far = 0
    for col in range(cols):
        if rank_so_far == rows:
            break
        nz = np.flatnonzero(red[rank_so_far:, col])
        if nz.size == 0:
            continue
        pivot_row = rank_so_far + int(nz[0])
        if pivot_row != rank_so_far:
            red[[rank_so_far, pivot_row], col:] = red[[pivot_row, rank_so_far], col:]
        lead = int(red[rank_so_far, col])
        if lead != 1:
            red[rank_so_far, col:] = red[rank_so_far, col:] * pow(lead, -1, p) % p
        hit = np.flatnonzero(red[:, col])
        hit = hit[hit != rank_so_far]
        if hit.size:
            red[hit, col:] = (red[hit, col:]
                              - np.outer(red[hit, col], red[rank_so_far, col:])) % p
        pivots.append(col)
        rank_so_far += 1
    return red, pivots


def rank(m: FpMatrix) -> int:
    return len(_rref(m.to_dense(), m.p)[1])


def kernel_basis(m: FpMatrix) -> list:
    """A basis of the null space, one numpy vector per free column."""
    red, pivots = _rref(m.to_dense(), m.p)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        v = np.zeros(m.cols, dtype=_elimination_dtype(m.p))
        v[free] = 1
        for row_idx, pc in enumerate(pivots):
            v[pc] = (-red[row_idx, free]) % m.p
        basis.append(v)
    return basis


def d_matrix(ctx: GroupContext, n: int) -> FpMatrix:
    """Matrix of the degree-n coboundary on the difference-tensor bases.

    Column j is the bar coboundary (``cochain._bar_coboundary``) of the
    j-th basis cochain of degree n, written in coordinates on the
    degree-(n+1) basis.  Rows and columns follow the lexicographic basis
    order of ``cochain_basis``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    dim_src = (ctx.order - 1) ** n
    dim_dst = (ctx.order - 1) ** (n + 1)
    check_budget(dim_dst * dim_src)
    rows = {key: i for i, key in enumerate(cochain_basis(ctx, n + 1))}
    columns = []
    for key in cochain_basis(ctx, n):
        image = _bar_coboundary(ICochain(ctx, n, MOD_P, {key: 1}))
        columns.append({rows[k]: v for k, v in image.values.items()})
    return FpMatrix(ctx.p, dim_dst, dim_src, columns)


def vectorize(f: ICochain):
    """Coordinates of a cochain on the lexicographic basis."""
    values = f.values
    return np.array([values.get(k, 0) for k in cochain_basis(f.ctx, f.degree)], dtype=np.int64)


def cochain_from_vector(ctx: GroupContext, n: int, vec) -> ICochain:
    basis = cochain_basis(ctx, n)
    return ICochain(ctx, n, MOD_P, {basis[i]: int(c) for i, c in enumerate(vec) if c % ctx.p})


@functools.lru_cache(maxsize=None)
def _kernel_basis_cached(ctx: GroupContext, n: int) -> tuple:
    return tuple(kernel_basis(d_matrix(ctx, n)))


@functools.lru_cache(maxsize=None)
def _image_reducer(ctx: GroupContext, n: int):
    """Echelonized column space of d_(n-1), for membership queries.

    Returns (rows, pivots): the reduced row echelon form of the transpose,
    whose row space is the space of degree-n coboundaries.
    """
    mat = d_matrix(ctx, n - 1)
    red, pivots = _rref(mat.to_dense().T, ctx.p)
    return red[: len(pivots)], pivots


def is_coboundary(f: ICochain) -> bool:
    """Decide whether a cocycle is a coboundary, by solving d x = f.

    Raises NotACocycleError on non-cocycle input; the question only makes
    sense inside the kernel.
    """
    if f.ring != MOD_P:
        raise ValueError("coboundary membership is a mod-p question here")
    if not f.is_cocycle():
        raise NotACocycleError("input cochain is not a cocycle")
    if f.degree == 0:
        return f.is_zero()  # nothing maps into degree 0
    red, pivots = _image_reducer(f.ctx, f.degree)
    v = vectorize(f)
    for row_idx, pc in enumerate(pivots):
        if v[pc]:
            v = (v - v[pc] * red[row_idx]) % f.ctx.p
    return not v.any()


def classes_equal(f: ICochain, g: ICochain) -> bool:
    """Whether two cocycles represent the same cohomology class."""
    if f.ctx != g.ctx or f.degree != g.degree:
        raise ValueError("cocycles must share context and degree")
    return is_coboundary(f - g)


def random_cocycle(ctx: GroupContext, n: int, seed: int) -> ICochain:
    """A uniformly random element of ker d_n, deterministic per seed."""
    basis = _kernel_basis_cached(ctx, n)
    rng = random.Random(seed)
    v = np.zeros((ctx.order - 1) ** n, dtype=np.int64)
    for b in basis:
        v = (v + rng.randrange(ctx.p) * b) % ctx.p
    return cochain_from_vector(ctx, n, v)
