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
block ranks.  Each block is row-reduced mod p in pure Python.

This derivation of d shares no code with the coboundary kernel, the
difference-basis ``oracle.d_matrix`` or the inverse map, so agreement
with them is independent evidence.  The module does not import numpy.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from .cochain import DEFAULT_MAX_ENTRIES, BudgetExceededError
from .group_ring import GroupContext


def _rank_mod_p(rows, p: int) -> int:
    """Rank mod p of an iterable of sparse rows ({column: value} dicts,
    consumed).

    Each pivot row is scaled to lead with 1 at its smallest column, so
    subtracting it from a row clears that column and adds only larger
    ones; a reduced row that is left nonzero becomes a new pivot.
    """
    pivots: dict = {}
    for row in rows:
        while row:
            col = min(row)
            prow = pivots.get(col)
            if prow is None:
                inv = pow(row[col], -1, p)
                pivots[col] = {j: v * inv % p for j, v in row.items()}
                break
            c = row[col]
            for j, v in prow.items():
                x = (row.get(j, 0) - c * v) % p
                if x:
                    row[j] = x
                else:
                    row.pop(j, None)
    return len(pivots)


@functools.lru_cache(maxsize=None)
def _block_ranks(ctx: GroupContext, n: int, max_entries: int) -> tuple:
    """((multidegree, rank), ...) for the blocks of d_n, by increasing
    multidegree.

    Refuses, before enumerating, when the N^n + N^(n+1) keys exceed
    ``max_entries``, and before eliminating, when the rows x columns of
    the largest block do.  Only the n-keys are held; the rows of one
    block at a time are generated as they are eliminated.
    """
    p, r, big_n = ctx.p, ctx.r, ctx.order - 1
    required = big_n**n + big_n ** (n + 1)
    if required > max_entries:
        raise BudgetExceededError(required, max_entries)
    # An exponent vector is coded in a base that no coordinate of an
    # (n+1)-key's multidegree reaches, so a key's multidegree is the sum
    # of its codes and a + b is an element iff its code is one.
    base = (n + 1) * (p - 1) + 1
    place = [base ** (r - 1 - j) for j in range(r)]
    elems = [sum(a * w for a, w in zip(u, place)) for u in ctx.nonidentity_elements()]
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
    if largest > max_entries:
        raise BudgetExceededError(largest, max_entries)
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
        out.append((tuple(m // w % base for w in place), _rank_mod_p(rows, p)))
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


def _rank(ctx: GroupContext, n: int, max_entries: int) -> int:
    return sum(rank for _, rank in _block_ranks(ctx, n, max_entries))


def cohomology_report(ctx: GroupContext, n: int,
                      max_entries: int = DEFAULT_MAX_ENTRIES) -> CohomologyReport:
    """Compute dim H^n as nullity(d_n) minus rank(d_(n-1)), summing the
    block ranks."""
    dim_c = (ctx.order - 1) ** n
    rank_dn = _rank(ctx, n, max_entries)
    dim_ker = dim_c - rank_dn
    rank_prev = _rank(ctx, n - 1, max_entries) if n > 0 else 0
    return CohomologyReport(ctx.p, ctx.r, n, dim_c, rank_dn, dim_ker,
                            rank_prev, dim_ker - rank_prev)
