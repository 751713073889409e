"""The Bockstein y_i = β(x_i) at cochain level, seen through Kraines'
identity <x_i>^p = -y_i for the p-fold Massey power of x_i."""

import math
import operator
from functools import reduce

import pytest

from icochains import MOD_P, AlgebraElem, GroupContext, ICochain, exponent_cocycle, invert


def binomial_cochain(ctx, i, k):
    """gamma_k: u -> C(u_i, k) mod p, a degree-1 cochain read on the
    exponents of its one slot."""
    values = {(u,): math.comb(u[i - 1], k) for u in ctx.nonidentity_elements()}
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
