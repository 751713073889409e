"""The Bockstein y_i = β(x_i) at cochain level: β computed on cochains
from the integral coboundary, and Kraines' identity <x_i>^p = -y_i for the
p-fold Massey power of x_i."""

import itertools
import math
import operator
from functools import reduce

import pytest

from icochains import (
    INTEGERS,
    MOD_P,
    AlgebraElem,
    GroupContext,
    ICochain,
    compositions,
    exponent_cocycle,
    invert,
    realize,
)
from conftest import from_codes


def binomial_cochain(ctx, i, k):
    """gamma_k: u -> C(u_i, k) mod p, a degree-1 cochain read on the
    exponents of its one slot."""
    values = {(u,): math.comb(u[i - 1], k)
              for u in itertools.product(range(ctx.p), repeat=ctx.r) if any(u)}
    return ICochain(ctx, 1, MOD_P, values)


@pytest.mark.parametrize("p,r", [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (7, 2), (11, 1)])
def test_kraines_pth_power_is_minus_the_bockstein(p, r):
    """The divided powers gamma_k(u) = C(u_i, k) are a defining system for
    <x_i, ..., x_i>: d gamma_k = sum_(a<k) gamma_a cup gamma_(k-a) for
    2 <= k <= p - 1.  The p-th product M = sum_(a<p) gamma_a cup
    gamma_(p-a) is then a cocycle of class -y_i.  M is built from
    degree-1 data alone, so unlike a round trip it pins the class that
    ``invert`` reads as y_i."""
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        gamma = [None] + [binomial_cochain(ctx, i, k) for k in range(1, p)]
        assert gamma[1] == exponent_cocycle(ctx, i)

        def products(k):
            return reduce(operator.add, (gamma[a].cup(gamma[k - a]) for a in range(1, k)))

        for k in range(2, p):
            assert gamma[k].coboundary() == products(k), (i, k)
        massey = products(p)
        assert massey.is_cocycle()
        y_i = tuple(2 if j == i else 0 for j in range(1, r + 1))
        assert invert(massey) == AlgebraElem.monomial(ctx, y_i, -1)


def bockstein(f):
    """β(f) for a mod-p cocycle f, the connecting map of
    0 -> F_p -> Z/p^2 -> F_p -> 0: read f's values in [0, p) over Z, take
    the integral coboundary, whose every value is then divisible by p,
    divide by p and reduce mod p."""
    p = f.ctx.p
    lifted = from_codes(f.ctx, f.degree, INTEGERS, f.values).coboundary()
    assert all(v % p == 0 for v in lifted.values.values())
    return from_codes(f.ctx, f.degree + 1, MOD_P, {k: v // p for k, v in lifted.values.items()})


def bockstein_of_monomial(ctx, sig):
    """β on the algebra, the derivation with β x_i = y_i and β y_i = 0: at
    p > 2, β(sig) = sum over odd m_i of (-1)^(m_(i+1) + ... + m_r)
    (sig + e_i); at p = 2, where β = Sq^1, β(sig) = sum_i m_i (sig + e_i)."""
    terms = {}
    for i, m in enumerate(sig):
        raised = sig[:i] + (m + 1,) + sig[i + 1:]
        if ctx.p == 2:
            terms[raised] = m
        elif m % 2:
            terms[raised] = -1 if sum(sig[i + 1:]) % 2 else 1
    return AlgebraElem(ctx, terms)


@pytest.mark.parametrize("p,r,max_n", [(2, 2, 4), (3, 2, 4), (2, 3, 3), (7, 1, 5), (5, 1, 6),
                                       (5, 2, 2), (3, 3, 2)])
def test_bockstein_of_realize_is_the_derivation(p, r, max_n):
    """invert(β(realize(m))) = β(m) on every monomial m of degree at most
    max_n, and β(β(realize(m))) is zero in cohomology.  Round trips cannot
    see y_i rescaled by a unit c in both ``realize`` and ``invert``; β
    can, since it ties y_i to x_i."""
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        for sig in compositions(n, r):
            once = bockstein(realize(AlgebraElem.monomial(ctx, sig)))
            assert invert(once) == bockstein_of_monomial(ctx, sig), sig
            assert invert(bockstein(once)).is_zero(), sig
