"""Brute-force verification by exact linear algebra over F_p.

Builds coboundary matrices on the full difference-tensor basis, computes
ranks by sparse row reduction mod p, and answers the questions the rest
of the library is checked against: coboundary membership and class
equality.  Each column is the bar-formula reference
``cochain._bar_coboundary`` of one basis cochain, so nothing here depends
on the coboundary kernel that ``d`` runs, nor on the inverse-map code,
and agreement with either is meaningful evidence.

A matrix is a plain list of sparse {row: value} columns, values in
[1, p), and a vector one such dict, both indexed by key number
(``cochain._key_codes``).  Every question runs on the
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

from .cochain import ICochain, _bar_coboundary, _key_codes
from .graded import _echelon, _reduce
from .group_ring import MOD_P, GroupContext, NotACocycleError, check_budget


@functools.lru_cache(maxsize=None)
def cochain_basis(ctx: GroupContext, n: int) -> tuple:
    """All degree-n basis keys (tuples of nonidentity elements), in
    increasing order, which is the order of their key numbers."""
    return tuple(itertools.product(ctx.nonidentity_elements(), repeat=n))


# The benchmark's tracer (bench/spans.py) patches this name.
def rank(columns: list, p: int) -> int:
    return len(_echelon(map(dict, columns), p))


def d_matrix(ctx: GroupContext, n: int) -> list:
    """Columns of the degree-n coboundary on the difference-tensor bases.

    Column j is the bar coboundary of the j-th basis cochain of degree n
    (wrapped without checks), on the degree-(n+1) basis; both are indexed
    by key number (``_key_codes``), the order of ``cochain_basis``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    check_budget((ctx.order - 1) ** (2 * n + 1))
    columns = (_bar_coboundary(ICochain._trusted(ctx, n, MOD_P, {key: 1})).values
               for key in cochain_basis(ctx, n))
    return [dict(zip(_key_codes(ctx, col), col.values())) for col in columns]


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
    row = dict(zip(_key_codes(f.ctx, f.values), f.values.values()))
    _reduce(row, _image_pivots(f.ctx, f.degree), f.ctx.p)
    return not row


def classes_equal(f: ICochain, g: ICochain) -> bool:
    """Whether two cocycles represent the same cohomology class."""
    if f.ctx != g.ctx or f.degree != g.degree:
        raise ValueError("cocycles must share context and degree")
    return is_coboundary(f - g)

