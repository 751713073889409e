"""Explicit generator cocycles for the cohomology ring, and their probes.

Degree one is generated by the exponent-reading cocycles
(``exponent_cocycle``, the dual basis of the group); degree two by their
Bockstein images (``bockstein_cocycle``), the base-p carry cocycles.
``realize`` cups these two families into every monomial basis class.
The probe tensors built here are the distinguished arguments on which a
cup power evaluates to 1, tuples of ideal elements on the difference
basis, and their split variants resolve each (s_i - 1)^(p-1) factor into
single differences s_i^q - 1.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .cochain import ICochain
from .group_ring import MOD_P, GroupContext, shifted_monomial


def exponent_cocycle(ctx: GroupContext, i: int) -> ICochain:
    """The degree-1 mod-p cocycle sending u - 1 to the i-th exponent of u.

    On the shifted basis it is dual to s_i - 1: it gives 1 there and 0 on
    every other shifted monomial.  Represents the i-th degree-1 generator.
    The i-th exponent of u is digit i of its code, counted from the most
    significant.
    """
    p, w = ctx.p, ctx.generator(i)
    values = {}
    for u in ctx.nonidentity_elements():
        if digit := u // w % p:
            values[(u,)] = digit
    # keys of nonidentity elements, values in [1, p): valid as built
    return ICochain._trusted(ctx, 1, MOD_P, values)


def bockstein_cocycle(ctx: GroupContext, i: int) -> ICochain:
    """The degree-2 generator y_i, the Bockstein of the i-th degree-1
    class, as the mod-p carry cocycle: (u, v) -> 1 when the i-th
    exponents carry.

    With u, v having i-th exponents k, l in [0, p), the value is the carry
    digit of the base-p addition k + l, i.e. 1 exactly when k + l >= p.
    Read over Z, the same values are the integral carry cocycle, whose
    reduction mod p represents the Bockstein.  On pairs of shifted
    monomials it is 1 exactly on (s_i-1)^k x (s_i-1)^l with k + l = p,
    and 0 elsewhere (a fact the tests verify against
    ``bockstein_pair_value``).
    """
    p, w = ctx.p, ctx.generator(i)
    digits = [(u, u // w % p) for u in ctx.nonidentity_elements()]
    values = {}
    for u, k in digits:
        for v, l in digits:
            if k + l >= p:
                values[(u, v)] = 1
    # keys of nonidentity elements, coefficient 1: valid as built
    return ICochain._trusted(ctx, 2, MOD_P, values)


def bockstein_pair_value(ctx: GroupContext, i: int, k: int, l: int) -> int:
    """Exact integer value of the integral carry functional (the values of
    ``bockstein_cocycle`` read over Z) on (s_i - 1)^k x (s_i - 1)^l,
    1 <= k, l <= p - 1.

    Equals the alternating binomial sum over h from p to k + l of
    (-1)^(k+l-h) C(k+l, h), which is empty (0) when k + l < p and reduces
    mod p to 1 exactly when k + l = p.
    """
    ctx.check_index(i)
    p = ctx.p
    if not (1 <= k <= p - 1 and 1 <= l <= p - 1):
        raise ValueError(f"exponents must lie in [1, {p - 1}]: {(k, l)}")
    return sum((-1) ** (k + l - h) * math.comb(k + l, h) for h in range(p, k + l + 1))


def _power_factors(ctx: GroupContext, i: int, m: int) -> list:
    """The generator cocycles whose cup is the m-th power of variable i.

    Even m = 2k: k copies of the degree-2 generator; odd m = 2k + 1: the
    degree-1 generator followed by k copies of the degree-2 one.  m = 0
    gives no factors.  The degree-2 generator is built once and repeated.
    Its caller, ``realize``, has already checked i and m.
    """
    k, odd = divmod(m, 2)
    factors = [exponent_cocycle(ctx, i)] if odd else []
    if k:
        factors += [bockstein_cocycle(ctx, i)] * k
    return factors


def _power_support(ctx: GroupContext, m: int) -> int:
    """The number of entries of the m-th power of any variable i, the cup
    of ``_power_factors(ctx, i, m)``, without building it.

    The degree-1 generator is nonzero on the (p-1) p^(r-1) elements with
    a nonzero i-th exponent, the degree-2 one on the p(p-1)/2 p^(2r-2)
    pairs whose i-th exponents carry, and a cup's support is the product
    of its factors' supports, since products of nonzero residues mod p
    are nonzero.
    """
    p, r = ctx.p, ctx.r
    k, odd = divmod(m, 2)
    return ((p - 1) * p ** (r - 1)) ** odd * (p * (p - 1) // 2 * p ** (2 * r - 2)) ** k


def probe_tensor(ctx: GroupContext, i: int, m: int) -> tuple:
    """The degree-m probe tensor for variable i, as a tuple of m ideal
    elements on the difference basis.

    Even m = 2k: k blocks (s_i-1)^(p-1) x (s_i-1); odd m: a leading
    s_i - 1 followed by the k blocks.  The degree-m cup power of
    variable i evaluates to 1 on it.  The (s_i-1)^(p-1) factor is built
    once, and only when there is a block.
    """
    ctx.check_index(i)
    if m < 0:
        raise ValueError(f"m must be >= 0, got {m}")
    t = {ctx.generator(i): 1}
    k, odd = divmod(m, 2)
    factors = [t] if odd else []
    if k:
        t_top = shifted_monomial(ctx, tuple((ctx.p - 1) if j == i - 1 else 0
                                            for j in range(ctx.r)))
        factors += [t_top, t] * k
    return tuple(factors)


def probe_tensor_split(ctx: GroupContext, i: int, m: int, q: Sequence[int]) -> tuple:
    """The probe with each (s_i-1)^(p-1) factor replaced by s_i^q - 1:
    the differences u - 1, as {u: 1}, of the group elements
    (s_i^q1, s_i, ..., s_i^qk, s_i) for even m, with one s_i prepended
    for odd m.

    Summing over all q in [1, p-1]^(m//2) recovers the probe tensor mod p,
    so mod-p cochains take equal values on the probe and on the sum of its
    splits.

    >>> probe_tensor_split(GroupContext(3, 1), 1, 3, (2,))
    ({1: 1}, {2: 1}, {1: 1})
    """
    ctx.check_index(i)
    q = tuple(q)
    if len(q) != m // 2:
        raise ValueError(f"q must have length {m // 2} for degree {m}, got {len(q)}")
    if any(not 1 <= qe <= ctx.p - 1 for qe in q):
        raise ValueError(f"q entries must lie in [1, {ctx.p - 1}]: {q!r}")
    s = ctx.generator(i)
    out = [{s: 1}] if m % 2 else []
    for qe in q:
        out.extend(({ctx.generator_power(i, qe): 1}, {s: 1}))
    return tuple(out)


def q_choices(ctx: GroupContext, m: int) -> Iterator[tuple]:
    """All split patterns for degree m: tuples in [1, p-1]^(m//2)."""
    return itertools.product(range(1, ctx.p), repeat=m // 2)

