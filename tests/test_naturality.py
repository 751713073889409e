"""Naturality under GL_r(F_p): an oracle-free check of ``realize`` and ``invert``.

An automorphism phi of G = F_p^r, u -> A u for an invertible matrix A,
pulls cochains back: (phi^* f)(u_1, ..., u_n) = f(A u_1, ..., A u_n).  On
the algebra it sends x_i to sum_j A_ij x_j, and, the Bockstein being
natural and linear, y_i to sum_j A_ij y_j.  So invert(phi^* realize(m))
must equal phi^*(m) for every monomial m.  A round trip cannot tell
``realize`` and ``invert`` apart from one change made to both, such as a
sign on every monomial with m_1 odd; a pullback mixes the variables, so
naturality can.
"""

import random

import pytest

from icochains import AlgebraElem, GroupContext, ICochain, compositions, invert, realize
from conftest import algebra_combination


def inverse_mod_p(a, p):
    """The inverse of the square matrix a (rows of ints) over F_p, or None
    when a is singular; Gauss-Jordan on [a | I]."""
    r = len(a)
    rows = [[x % p for x in row] + [int(i == j) for j in range(r)] for i, row in enumerate(a)]
    for col in range(r):
        pivot = next((i for i in range(col, r) if rows[i][col]), None)
        if pivot is None:
            return None
        rows[col], rows[pivot] = rows[pivot], rows[col]
        inv = pow(rows[col][col], -1, p)
        rows[col] = [x * inv % p for x in rows[col]]
        for i in range(r):
            c = rows[i][col]
            if i != col and c:
                rows[i] = [(x - c * y) % p for x, y in zip(rows[i], rows[col])]
    return [row[r:] for row in rows]


def random_invertible(p, r, rng):
    """A uniformly random element of GL_r(F_p), drawn by rejection."""
    while True:
        a = [[rng.randrange(p) for _ in range(r)] for _ in range(r)]
        if inverse_mod_p(a, p) is not None:
            return a


def pull_back(f, a):
    """phi^* f for phi(u) = A u.

    phi permutes the difference basis, phi(u - 1) = A u - 1, so the value
    stored at a key moves to the key whose slots are A^(-1) times its
    slots' exponent vectors, each element's image computed once; the size
    does not change.
    """
    p = f.ctx.p
    inv = inverse_mod_p(a, p)

    def image(u):
        u = f.ctx.decode(u)
        return tuple(sum(x * y for x, y in zip(row, u)) % p for row in inv)

    images = {u: image(u) for u in f.ctx.nonidentity_elements()}
    values = {tuple(map(images.__getitem__, key)): c for key, c in f.values.items()}
    return ICochain(f.ctx, f.degree, f.ring, values)


def substitute(ctx, sig, a):
    """phi^* of the monomial of signature sig, as an AlgebraElem.

    The monomial is the product, in variable order, of x_i^(sig_i) at
    p = 2 and of x_i^l y_i^k with sig_i = 2k + l at p > 2.  Each x_i
    becomes sum_j A_ij x_j and each y_i becomes sum_j A_ij y_j; the
    ``AlgebraElem`` product expands them, with its signs.
    """
    r = ctx.r

    def image(i, degree):
        return algebra_combination(ctx, *((a[i][j], AlgebraElem.monomial(
            ctx, tuple(degree * (t == j) for t in range(r)))) for j in range(r)))

    product = AlgebraElem.monomial(ctx, (0,) * r)
    for i, m in enumerate(sig):
        k, l = (0, m) if ctx.p == 2 else divmod(m, 2)
        for factor in [image(i, 1)] * l + [image(i, 2)] * k:
            product = product * factor
    return product


@pytest.mark.parametrize("p,r,max_degree", [(2, 2, 4), (3, 2, 3), (5, 2, 3), (3, 3, 3)])
def test_invert_of_a_pullback_is_the_substitution(p, r, max_degree):
    ctx = GroupContext(p, r)
    rng = random.Random(1000 * p + r)
    matrices = [random_invertible(p, r, rng) for _ in range(2)]
    for n in range(max_degree + 1):
        for sig in compositions(n, r):
            f = realize(AlgebraElem.monomial(ctx, sig))
            for a in matrices:
                assert invert(pull_back(f, a)) == substitute(ctx, sig, a), (sig, a)


def test_helpers_on_a_small_case():
    # A swaps the two variables of (3, 2): x_1 -> x_2 and y_1 -> y_2, and the
    # exterior x_1 x_2 -> x_2 x_1 = -x_1 x_2
    ctx = GroupContext(3, 2)
    swap = [[0, 1], [1, 0]]
    assert inverse_mod_p(swap, 3) == swap and inverse_mod_p([[1, 1], [2, 2]], 3) is None
    assert substitute(ctx, (2, 0), swap) == AlgebraElem.monomial(ctx, (0, 2))
    assert substitute(ctx, (1, 1), swap) == AlgebraElem.monomial(ctx, (1, 1), -1)
    f = ICochain(ctx, 2, "Fp", {((1, 0), (1, 2)): 2})
    assert pull_back(f, swap) == ICochain(ctx, 2, "Fp", {((0, 1), (2, 1)): 2})
