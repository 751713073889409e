"""Multigraded rank oracle: cohomology dimensions from small blocks of d.

The paper writes the normalized n-cochains with values in M as
Hom(T^n(I), M), where I is the augmentation ideal of F_p[G] and T^n(I)
its n-th tensor power.  Over F_p put t_i = s_i - 1 for the generators
s_i of G.  Then F_p[G] = F_p[t_1, ..., t_r] / (t_i^p), and I has the
basis of monomials t^a with a in [0, p)^r, a != 0: one for each
nonidentity group element, N = p^r - 1 in all.  The product is
t^a t^b = t^(a+b), or 0 once some coordinate of a + b reaches p.

With M = F_p and the trivial action, the coboundary of f is

    (d f)(b_1 x ... x b_(n+1)) = sum_i (-1)^i f(b_1 x ... x b_i b_(i+1) x ... x b_(n+1)),

summed over i = 1..n.  In the dual basis of t-tensors, the row of d_n at
an (n+1)-key (a_1, ..., a_(n+1)) therefore holds (-1)^i at the n-key that
merges slots i and i+1 into a_i + a_(i+1), for each i whose sum stays
below p in every coordinate: at most n entries, all of them +-1.  Merging
keeps the multidegree a_1 + ... + a_(n+1) in Z^r, so d_n is block
diagonal, one block per multidegree, and its rank is the sum of the
block ranks.  Each block is row-reduced mod p in pure Python by
``_echelon``, which pivots each sparse row on its largest column; the
dense oracle (``oracle.rank``, ``is_coboundary``) runs on the same
``_reduce`` and ``_echelon`` over its sparse columns.

This derivation of d shares no code with the coboundary kernel, the
difference-basis ``oracle.d_matrix`` or the inverse map, so agreement
with them is independent evidence; the elimination they share is checked
against its own reference in the tests.  ``graded_dimension`` gives the
expected dim H^n, the count C(n+r-1, r-1) of monomial signatures,
without any block.
The module imports only ``group_ring``, so ``dims`` loads no cochain,
algebra or inverse-map code, and no numpy.  ``check_table_budget``
refuses a whole dimension table, counted in the key slots its degrees
build, before its first degree.
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import NamedTuple

from .group_ring import GroupContext, _log10_size, check_budget


def _reduce(row: dict, pivots: dict, p: int) -> None:
    """Reduce a sparse row ({column: value} dict, values in [1, p)) in
    place against pivot rows ({leading column: row}) until it is zero or
    its largest column has no pivot.

    Each pivot row leads with 1 at its largest column, so subtracting it
    from a row clears that column and changes only smaller ones.  An
    unreduced value p is never dropped: leading a row, it makes
    ``_echelon``'s ``pow(p, -1, p)`` raise.
    """
    while row:
        col = max(row)
        prow = pivots.get(col)
        if prow is None:
            return
        c = row[col]
        for j, v in prow.items():
            x = (row.get(j, 0) - c * v) % p
            if x:
                row[j] = x
            else:
                row.pop(j, None)


def _echelon(rows, p: int) -> dict:
    """Row echelon form mod p of an iterable of sparse rows (consumed),
    their values in [1, p) as ``_reduce`` requires: {leading column:
    pivot row}, one pivot per unit of rank.

    Each row is reduced against the pivots so far; one left nonzero is
    scaled to lead with 1 and becomes a new pivot.
    """
    pivots: dict = {}
    for row in rows:
        _reduce(row, pivots, p)
        if row:
            col = max(row)
            inv = pow(row[col], -1, p)
            pivots[col] = {j: v * inv % p for j, v in row.items()}
    return pivots


@functools.lru_cache(maxsize=None)
def _block_ranks(ctx: GroupContext, n: int) -> tuple:
    """((multidegree, rank), ...) for the blocks of d_n, by increasing
    multidegree.

    Refuses, before enumerating, when the N^n + N^(n+1) = N^n p^r keys
    exceed the entry budget, and before eliminating, when the rows x
    columns of the largest block do.  Only the n-keys are held; the rows
    of one block at a time are generated as they are eliminated.
    """
    check_budget(lambda: (ctx.order - 1) ** n * ctx.order, _log10_size(ctx, 1, n + 1))
    p, r = ctx.p, ctx.r
    # A t-exponent vector a != 0 is coded in a base that no coordinate of
    # an (n+1)-key's multidegree reaches, so a key's multidegree is the
    # sum of its codes and a + b is a monomial of I iff its code is one.
    base = (n + 1) * (p - 1) + 1
    place = [base ** (r - 1 - j) for j in range(r)]
    elems = [sum(e * w for e, w in zip(a, place))
             for a in itertools.product(range(p), repeat=r) if any(a)]
    valid = set(elems)
    cols = {0: [()]}  # multidegree -> n-keys
    for _ in range(n):
        longer: dict = {}
        for weight, keys in cols.items():
            for a in elems:
                longer.setdefault(weight + a, []).extend([k + (a,) for k in keys])
        cols = longer
    # The rows of block m are the n-keys of weight w, each followed by a,
    # for every w + a = m; blocks without columns have rank 0.
    parts: dict = {}
    for weight in cols:
        for a in elems:
            if weight + a in cols:
                parts.setdefault(weight + a, []).append((cols[weight], a))
    largest = max((len(cols[m]) * sum(len(heads) for heads, _ in ps)
                   for m, ps in parts.items()), default=0)
    check_budget(largest)
    signs = [1 if i % 2 else p - 1 for i in range(1, n + 1)]  # (-1)^i mod p
    out = []
    for m in sorted(parts):
        index = {k: j for j, k in enumerate(cols[m])}

        def row(key):
            entries = {}
            for i in range(n):
                merged = key[i] + key[i + 1]
                if merged in valid:
                    entries[index[key[:i] + (merged,) + key[i + 2:]]] = signs[i]
            return entries

        rows = (row(head + (a,)) for heads, a in parts[m] for head in heads)
        out.append((tuple(m // w % base for w in place), len(_echelon(rows, p))))
    return tuple(out)


class CohomologyReport(NamedTuple):
    """Dimension bookkeeping for one degree, from ranks alone."""

    p: int
    r: int
    n: int
    dim_cochains: int
    rank_dn: int
    dim_ker_dn: int
    rank_d_prev: int
    dim_h: int


def _rank(ctx: GroupContext, n: int) -> int:
    return sum(rank for _, rank in _block_ranks(ctx, n))


def cohomology_report(ctx: GroupContext, n: int) -> CohomologyReport:
    """Compute dim H^n as nullity(d_n) minus rank(d_(n-1)), summing the
    block ranks."""
    if n < 0:
        raise ValueError("n must be >= 0")
    rank_dn = _rank(ctx, n)  # its budget check refuses a huge N before N^n
    dim_c = (ctx.order - 1) ** n
    dim_ker = dim_c - rank_dn
    rank_prev = _rank(ctx, n - 1) if n > 0 else 0
    return CohomologyReport(ctx.p, ctx.r, n, dim_c, rank_dn, dim_ker,
                            rank_prev, dim_ker - rank_prev)


def check_table_budget(ctx: GroupContext, max_n: int) -> None:
    """Refuse the reports of degrees 0..max_n before the first is computed.

    Degree n builds its n-keys one slot at a time, the N^i keys of every
    length i <= n, and then its N^(n+1) (n+1)-keys; building a key costs
    one step per slot, so degree n needs sum_(i <= n+1) i N^i slots
    (N = p^r - 1).  At N = 1 that is (n+1)(n+2)/2, so the table's cost
    grows as the cube of max_n, where a count of n-keys alone would stay
    at 2 per degree.  The terms grow with n, so the sum stops at the first
    degree whose running total exceeds the entry budget, and that total is
    the one reported.  Degree 0's N slots are charged first, so a huge N
    is refused on its logarithm.
    """
    big_n = check_budget(lambda: ctx.order - 1, _log10_size(ctx, 1))
    built = required = 0
    for n in range(max_n + 1):
        built += (n + 1) * big_n ** (n + 1)  # the slots of degree n
        required += built
        check_budget(required)


def graded_dimension(ctx: GroupContext, n: int) -> int:
    """Number of monomial signatures of degree n (the expected dim H^n):
    C(n+r-1, r-1) for every p.

    It counts monomials and calls no block code, so the block ranks are
    checked against it.  For p = 2 these are the degree-n monomials in r
    variables.  For p > 2 an exterior part of size l and a polynomial
    part of total degree k with 2k + l = n give the same count, because
    the Poincare series (1+t)^r / (1-t^2)^r is (1-t)^(-r).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return math.comb(n + ctx.r - 1, ctx.r - 1)
