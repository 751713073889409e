"""Brute-force verification by exact linear algebra over F_p.

Builds coboundary matrices on the full difference-tensor basis, computes
ranks and kernels by sparse row reduction mod p, and answers the
questions the rest of the library is checked against: coboundary
membership, class equality, and seeded random cocycles.  Each column is
the bar-formula reference ``cochain._bar_coboundary`` of one basis
cochain, so nothing here depends on the coboundary kernel that ``d``
runs, nor on the inverse-map code, and agreement with either is
meaningful evidence.

Every rank, kernel and membership question runs on one elimination,
``graded._reduce`` and ``graded._echelon``, which also ranks the
multigraded blocks; the matrices they reduce (the bar-built columns here,
the slot-merge rows there) are two independent derivations of d.  The
module imports no numpy, and vectors are lists of ints.

The degree-n matrix has (p^r - 1)^(2n+1) cells; one whose rows x columns
exceed the entry budget is refused with an explicit error rather than
attempted.  Cohomology dimensions (``graded.cohomology_report``) come
from the multigraded blocks of ``graded`` instead; ``d_matrix`` and
``rank`` stay as the whole-matrix reference they are checked against.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from .cochain import ICochain, _bar_coboundary
from .graded import _echelon, _reduce
from .group_ring import MOD_P, GroupContext, NotACocycleError, check_budget, is_prime


@functools.lru_cache(maxsize=None)
def cochain_basis(ctx: GroupContext, n: int) -> tuple:
    """All degree-n basis keys (tuples of nonidentity elements), in
    lexicographic order."""
    return tuple(itertools.product(tuple(ctx.nonidentity_elements()), repeat=n))


class FpMatrix:
    """Matrix over F_p stored as sparse columns ({row: value} dicts).

    The constructor is the one way to build a matrix from outside the
    library.  A p or shape that is not an integer, a p that is not prime
    and a negative shape raise ValueError, and a shape over the entry
    budget is refused; then every entry is checked: a row index or value
    that is not an integer, or a row outside [0, rows), raises
    ValueError.  Integers are read with ``operator.index``, so numpy
    integers pass, and stored as Python ints, reduced mod p with zeros
    dropped.
    """

    __slots__ = ("p", "rows", "cols", "columns")

    def __init__(self, p: int, rows: int, cols: int, columns):
        try:
            p, rows, cols = operator.index(p), operator.index(rows), operator.index(cols)
        except TypeError:
            raise ValueError(f"p and the shape must be integers: "
                             f"{p!r}, {rows!r} x {cols!r}") from None
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if rows < 0 or cols < 0:
            raise ValueError(f"shape must be nonnegative, got {rows} x {cols}")
        check_budget(rows * cols)
        if len(columns) != cols:
            raise ValueError("column count mismatch")
        clean = []
        for col in columns:
            entries = {}
            for i, v in col.items():
                try:
                    i, v = operator.index(i), operator.index(v)
                except TypeError:
                    raise ValueError(f"row indices and values must be integers: "
                                     f"{i!r}: {v!r}") from None
                if not 0 <= i < rows:
                    raise ValueError(f"row {i} outside [0, {rows})")
                if v := v % p:
                    entries[i] = v
            clean.append(entries)
        self.p = p
        self.rows = rows
        self.cols = cols
        self.columns = clean

    @classmethod
    def _trusted(cls, p: int, rows: int, cols: int, columns: list) -> "FpMatrix":
        """Wrap valid columns, rows in [0, rows) and values in [1, p), of a
        shape already checked against the budget.  No check, no copy."""
        m = cls.__new__(cls)
        m.p, m.rows, m.cols, m.columns = p, rows, cols, columns
        return m


def rank(m: FpMatrix) -> int:
    return len(_echelon(map(dict, m.columns), m.p))


def kernel_basis(m: FpMatrix) -> list:
    """A basis of the null space, one list of m.cols ints per free column.

    Column j is eliminated with a tag entry 1 at index -1-j, below every
    row index, so each pivot carries in its tags the combination of
    columns it is.  A combination whose row entries cancel leads with a
    tag, and its tags are the coefficients of a null vector.
    """
    tagged = ({**col, -1 - j: 1} for j, col in enumerate(m.columns))
    basis = []
    for lead, combo in _echelon(tagged, m.p).items():
        if lead < 0:
            v = [0] * m.cols
            for t, c in combo.items():
                v[-1 - t] = c
            basis.append(v)
    return basis


def d_matrix(ctx: GroupContext, n: int) -> FpMatrix:
    """Matrix of the degree-n coboundary on the difference-tensor bases.

    Column j is the bar coboundary (``cochain._bar_coboundary``) of the
    j-th basis cochain of degree n, written in coordinates on the
    degree-(n+1) basis.  Rows and columns follow the lexicographic basis
    order of ``cochain_basis``.  The shape is checked against the budget
    before anything is built, and the basis cochains and the matrix,
    built from valid keys and reduced values, are wrapped without checks.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    dim_src = (ctx.order - 1) ** n
    dim_dst = (ctx.order - 1) ** (n + 1)
    check_budget(dim_dst * dim_src)
    rows = {key: i for i, key in enumerate(cochain_basis(ctx, n + 1))}
    columns = []
    for key in cochain_basis(ctx, n):
        image = _bar_coboundary(ICochain._trusted(ctx, n, MOD_P, {key: 1}))
        columns.append({rows[k]: v for k, v in image.values.items()})
    return FpMatrix._trusted(ctx.p, dim_dst, dim_src, columns)


def vectorize(f: ICochain) -> list:
    """Coordinates of a cochain on the lexicographic basis, as a list of ints."""
    values = f.values
    return [values.get(k, 0) for k in cochain_basis(f.ctx, f.degree)]


def cochain_from_vector(ctx: GroupContext, n: int, vec) -> ICochain:
    basis = cochain_basis(ctx, n)
    return ICochain._trusted(ctx, n, MOD_P,
                             {basis[i]: m for i, c in enumerate(vec) if (m := c % ctx.p)})


@functools.lru_cache(maxsize=None)
def _kernel_basis_cached(ctx: GroupContext, n: int) -> tuple:
    return tuple(kernel_basis(d_matrix(ctx, n)))


@functools.lru_cache(maxsize=None)
def _image_pivots(ctx: GroupContext, n: int) -> dict:
    """Echelon of the columns of d_(n-1), which span the degree-n
    coboundaries."""
    return _echelon(map(dict, d_matrix(ctx, n - 1).columns), ctx.p)


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
    row = {i: c for i, c in enumerate(vectorize(f)) if c}
    _reduce(row, _image_pivots(f.ctx, f.degree), f.ctx.p)
    return not row


def classes_equal(f: ICochain, g: ICochain) -> bool:
    """Whether two cocycles represent the same cohomology class."""
    if f.ctx != g.ctx or f.degree != g.degree:
        raise ValueError("cocycles must share context and degree")
    return is_coboundary(f - g)


def random_cocycle(ctx: GroupContext, n: int, seed: int) -> ICochain:
    """A uniformly random element of ker d_n, deterministic per seed."""
    basis = _kernel_basis_cached(ctx, n)
    rng = random.Random(seed)
    v = [0] * (ctx.order - 1) ** n
    for b in basis:
        c = rng.randrange(ctx.p)
        v = [(x + c * y) % ctx.p for x, y in zip(v, b)]
    return cochain_from_vector(ctx, n, v)
