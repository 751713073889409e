"""Brute-force verification by exact linear algebra over F_p.

Builds coboundary matrices on the full difference-tensor basis, computes
ranks and kernels by sparse row reduction mod p, and answers the
questions the rest of the library is checked against: coboundary
membership, class equality, and seeded random cocycles.  Each column is
the bar-formula reference ``cochain._bar_coboundary`` of one basis
cochain, so nothing here depends on the coboundary kernel that ``d``
runs, nor on the inverse-map code, and agreement with either is
meaningful evidence.

A matrix is a plain list of sparse {row: value} columns, values in
[1, p), and a vector one such dict.  Every question runs on the
elimination ``graded._reduce``/``_echelon`` that also ranks the
multigraded blocks, from which ``graded.cohomology_report`` takes its
dimensions; ``d_matrix`` and ``rank`` stay as the whole-matrix reference
they are checked against.  A degree-n matrix has (p^r - 1)^(2n+1)
cells, which bound the elimination's fill-in, and one over the entry
budget is refused before it is built.  The module imports no numpy.
"""

from __future__ import annotations

import functools
import itertools
import random

from .cochain import ICochain, _bar_coboundary
from .graded import _echelon, _reduce
from .group_ring import MOD_P, GroupContext, NotACocycleError, check_budget


@functools.lru_cache(maxsize=None)
def cochain_basis(ctx: GroupContext, n: int) -> tuple:
    """All degree-n basis keys (tuples of nonidentity elements), in
    lexicographic order."""
    return tuple(itertools.product(tuple(ctx.nonidentity_elements()), repeat=n))


@functools.lru_cache(maxsize=None)
def _basis_index(ctx: GroupContext, n: int) -> dict:
    """The position of each degree-n basis key in ``cochain_basis``."""
    return {key: i for i, key in enumerate(cochain_basis(ctx, n))}


def rank(columns: list, p: int) -> int:
    return len(_echelon(map(dict, columns), p))


def kernel_basis(columns: list, p: int) -> list:
    """A basis of the null space, one sparse {column: coeff} vector per
    free column.

    Column j is eliminated with a tag entry 1 at index -1-j, below every
    row index, so each pivot carries in its tags the combination of
    columns it is.  A combination whose row entries cancel leads with a
    tag, and its tags are the coefficients of a null vector.
    """
    tagged = ({**col, -1 - j: 1} for j, col in enumerate(columns))
    return [{-1 - t: c for t, c in combo.items()}
            for lead, combo in _echelon(tagged, p).items() if lead < 0]


def d_matrix(ctx: GroupContext, n: int) -> list:
    """Columns of the degree-n coboundary on the difference-tensor bases.

    Column j is the bar coboundary of the j-th basis cochain of degree n
    (wrapped without checks), on the degree-(n+1) basis; both follow the
    lexicographic order of ``cochain_basis``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    check_budget((ctx.order - 1) ** (2 * n + 1))
    rows = _basis_index(ctx, n + 1)
    return [{rows[k]: v for k, v in
             _bar_coboundary(ICochain._trusted(ctx, n, MOD_P, {key: 1})).values.items()}
            for key in cochain_basis(ctx, n)]


@functools.lru_cache(maxsize=None)
def _kernel_basis_cached(ctx: GroupContext, n: int) -> tuple:
    return tuple(kernel_basis(d_matrix(ctx, n), ctx.p))


@functools.lru_cache(maxsize=None)
def _image_pivots(ctx: GroupContext, n: int) -> dict:
    """Echelon of the columns of d_(n-1), which span the degree-n
    coboundaries."""
    return _echelon(d_matrix(ctx, n - 1), ctx.p)


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
    index = _basis_index(f.ctx, f.degree)
    row = {index[k]: c for k, c in f.values.items()}
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
    p = ctx.p
    v: dict = {}
    for b in basis:
        c = rng.randrange(p)
        for j, y in b.items():
            v[j] = (v.get(j, 0) + c * y) % p
    keys = cochain_basis(ctx, n)
    return ICochain._trusted(ctx, n, MOD_P, {keys[j]: v[j] for j in sorted(v) if v[j]})
