"""Group-ring arithmetic, shifted monomials, and the augmentation map."""

import itertools
import math
import random

import pytest

from icochains import (
    FpMatrix,
    GroupContext,
    INTEGERS,
    MOD_P,
    RingElem,
    as_difference_basis,
    augmentation,
    is_prime,
    rank,
    shifted_generator,
    shifted_monomial,
)
from icochains import algebra, generators
from icochains.algebra import _probe_expansions
from icochains.group_ring import NormExpansion
from conftest import DESK, random_ring_elem


def test_is_prime():
    assert [n for n in range(20) if is_prime(n)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_is_prime_matches_trial_division():
    def by_trial_division(n):
        return n >= 2 and all(n % d for d in range(2, math.isqrt(n) + 1))

    assert [n for n in range(10**5) if is_prime(n)] == [
        n for n in range(10**5) if by_trial_division(n)]


def test_is_prime_rejects_pseudoprimes():
    # Carmichael numbers pass Fermat's test to every coprime base
    carmichael = {561: (3, 11, 17), 1105: (5, 13, 17), 1729: (7, 13, 19),
                  41041: (7, 11, 13, 41),
                  3215031751: (151, 751, 28351),
                  3825123056546413051: (149491, 747451, 34233211)}
    for n, factors in carmichael.items():
        assert math.prod(factors) == n
        assert all((n - 1) % (q - 1) == 0 for q in factors)
        assert not is_prime(n)
    # strong pseudoprime to every base 2..37
    assert not is_prime(399165290221 * 798330580441)
    for q in (2**31 - 1, 2**61 - 1, 10**18 + 3, 4294967311, 2**64 + 13):
        assert is_prime(q)


def test_is_prime_refuses_undecided_input():
    limit = 1287836182261 * 2575672364521  # strong pseudoprime to bases 2..41
    assert not is_prime(limit - 2)
    for n in (limit, 2**89 - 1):
        with pytest.raises(ValueError, match="primality"):
            is_prime(n)
        with pytest.raises(ValueError):
            GroupContext(n, 1)


def test_context_validation():
    with pytest.raises(ValueError):
        GroupContext(4, 1)
    with pytest.raises(ValueError):
        GroupContext(1, 1)
    with pytest.raises(ValueError):
        GroupContext(3, 0)
    ctx = GroupContext(3, 2)
    with pytest.raises(ValueError):
        ctx.check_elem((0, 3))
    with pytest.raises(ValueError):
        ctx.check_elem((0,))


def test_group_mul_wraps():
    ctx = GroupContext(3, 1)
    s1 = RingElem.from_group_elem(ctx, (1,))
    s2 = RingElem.from_group_elem(ctx, (2,))
    assert s1 * s2 == RingElem.unit(ctx)


def test_mul_unit_and_mismatch():
    ctx = GroupContext(5, 1)
    rng = random.Random(7)
    a = random_ring_elem(ctx, rng)
    assert a * RingElem.unit(ctx) == a
    with pytest.raises(ValueError):
        a * RingElem.unit(ctx, MOD_P)
    with pytest.raises(ValueError):
        a * RingElem.unit(GroupContext(5, 2))


def test_shifted_generator_squared_p2():
    # (s - 1)^2 = s^2 - 2s + 1 = 2 - 2s when s^2 = 1
    ctx = GroupContext(2, 1)
    t = shifted_generator(ctx, 1)
    assert (t * t).terms == {(0,): 2, (1,): -2}
    assert (t * t).mod_p().is_zero()


def test_shifted_monomial_p3():
    # (s-1)^2 = s^2 - 2s + 1, and mod 3 it equals (s-1) + (s^2-1)
    ctx = GroupContext(3, 1)
    sq = shifted_monomial(ctx, (2,))
    assert sq.terms == {(2,): 1, (1,): -2, (0,): 1}
    split = (RingElem.from_group_elem(ctx, (1,)) - RingElem.unit(ctx)) + \
            (RingElem.from_group_elem(ctx, (2,)) - RingElem.unit(ctx))
    assert sq.mod_p() == split.mod_p()


@pytest.mark.parametrize("p,r", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1), (3, 3)])
@pytest.mark.parametrize("ring", [INTEGERS, MOD_P])
def test_shifted_monomial_matches_repeated_multiplication(p, r, ring):
    # the closed form against the convolution reference, exponents past p included
    ctx = GroupContext(p, r)
    powers = [[shifted_generator(ctx, i, ring).power(e) for e in range(2 * p + 1)]
              for i in range(1, r + 1)]
    for k in itertools.product(range(2 * p + 1), repeat=r):
        expected = RingElem.unit(ctx, ring)
        for i, e in enumerate(k):
            expected = expected * powers[i][e]
        got = shifted_monomial(ctx, k, ring)
        assert got == expected, k


def test_probe_top_factor_is_the_norm_element_mod_p(monkeypatch):
    # C(p-1, j) (-1)^(p-1-j) = 1 mod p, so (s-1)^(p-1) = 1 + s + ... + s^(p-1)
    p = 10007
    ctx = GroupContext(p, 1)
    top, t = _probe_expansions(ctx, 1, 2)
    assert top == {(j,): 1 for j in range(1, p)}
    assert t == {(1,): 1}
    # without an even part no (s-1)^(p-1) factor is built at all
    monkeypatch.setattr(algebra, "NormExpansion", None)
    monkeypatch.setattr(generators, "shifted_monomial", None)
    assert _probe_expansions(ctx, 1, 1) == [{(1,): 1}]
    assert _probe_expansions(ctx, 1, 0) == []
    assert len(generators.probe_tensor(ctx, 1, 1)) == 1


@pytest.mark.parametrize("p,r", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1), (11, 3)])
def test_norm_expansion_matches_shifted_monomial(p, r):
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        top = NormExpansion(ctx, i)
        k = tuple(p - 1 if j == i - 1 else 0 for j in range(r))
        expected = as_difference_basis(shifted_monomial(ctx, k, MOD_P))
        assert top == expected and dict(top.items()) == expected
        assert top.size == len(top) == len(expected) == p - 1
        for u in ctx.elements():
            assert top.get(u) == expected.get(u)
            assert (u in top) == (u in expected)
        for u in [(1,) * (r + 1), (p,) + (0,) * (r - 1), [1] + [0] * (r - 1)]:
            assert top.get(u, "absent") == "absent"
            with pytest.raises(KeyError):
                top[u]


def test_norm_expansion_beyond_sys_maxsize():
    p = 2**64 + 13
    ctx = GroupContext(p, 2)
    top = NormExpansion(ctx, 2)
    assert top.size == p - 1 and top.get((0, p - 1)) == 1 and top.get((1, 1)) is None
    with pytest.raises(OverflowError):
        len(top)
    with pytest.raises(ValueError):
        NormExpansion(ctx, 3)


def test_shifted_monomial_rejects_bad_input():
    ctx = GroupContext(3, 2)
    for k in [(1,), (1, -1), (1, 1.0)]:
        with pytest.raises(ValueError):
            shifted_monomial(ctx, k)
    with pytest.raises(ValueError):
        shifted_monomial(ctx, (1, 1), "Q")


@pytest.mark.parametrize("p,r", DESK)
def test_high_powers_vanish_mod_p(p, r):
    ctx = GroupContext(p, r)
    for i in range(r):
        for extra in (0, 1):
            k = tuple(p + extra if j == i else 0 for j in range(r))
            assert shifted_monomial(ctx, k).mod_p().is_zero()


def test_augmentation_examples():
    ctx = GroupContext(3, 2)
    assert augmentation(RingElem.unit(ctx)) == 1
    assert augmentation(shifted_generator(ctx, 1)) == 0
    for k in [(1, 0), (2, 1), (0, 2)]:
        assert augmentation(shifted_monomial(ctx, k)) == 0
    assert augmentation(shifted_generator(ctx, 2)) == 0
    assert augmentation(RingElem.unit(ctx)) != 0


@pytest.mark.parametrize("p,r", DESK)
def test_augmentation_is_ring_map(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(100 * p + r)
    for _ in range(25):
        a = random_ring_elem(ctx, rng)
        b = random_ring_elem(ctx, rng)
        assert augmentation(a * b) == augmentation(a) * augmentation(b)
        am, bm = a.mod_p(), b.mod_p()
        assert augmentation(am * bm) == augmentation(am) * augmentation(bm) % p


def test_difference_basis():
    ctx = GroupContext(3, 1)
    t = shifted_generator(ctx, 1)
    assert as_difference_basis(t) == {(1,): 1}
    assert as_difference_basis(t * t) == {(2,): 1, (1,): -2}
    with pytest.raises(ValueError):
        as_difference_basis(RingElem.unit(ctx))


@pytest.mark.parametrize("p,r", DESK)
def test_shifted_monomials_linearly_independent_mod_p(p, r):
    # the nonconstant shifted monomials are a basis of the augmentation ideal
    ctx = GroupContext(p, r)
    elems = list(ctx.elements())
    index = {u: i for i, u in enumerate(elems)}
    columns = []
    for k in ctx.elements():
        if not any(k):
            continue
        mono = shifted_monomial(ctx, k).mod_p()
        columns.append({index[u]: c for u, c in mono.terms.items()})
    mat = FpMatrix(p, len(elems), len(columns), columns)
    assert rank(mat) == ctx.order - 1


def test_scale_and_linearity():
    ctx = GroupContext(5, 1)
    rng = random.Random(11)
    a = random_ring_elem(ctx, rng)
    assert a.scale(0).is_zero()
    assert a + a == a.scale(2)
    assert (a - a).is_zero()


def test_power():
    ctx = GroupContext(3, 1)
    t = shifted_generator(ctx, 1)
    assert t.power(0) == RingElem.unit(ctx)
    assert t.power(3) == t * t * t
    with pytest.raises(ValueError):
        t.power(-1)
