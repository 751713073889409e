"""The group, and shifted monomials on the difference basis of the augmentation ideal."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icochains import (
    BudgetExceededError,
    GroupContext,
    ICochain,
    INTEGERS,
    MOD_P,
    is_prime,
    shifted_monomial,
)
from icochains import generators
from icochains.oracle import rank
from conftest import DESK, group_product, ideal_product, on_group_basis


def mod_p(a, p):
    """An ideal element with its coefficients reduced mod p, zeros dropped."""
    return {u: c % p for u, c in a.items() if c % p}


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


@pytest.mark.parametrize("build", [
    lambda: GroupContext(3.0, 1),
    lambda: GroupContext(3, 1.5),
    lambda: GroupContext("3", 1),
    lambda: ICochain(GroupContext(3, 1), 1.5, MOD_P, {}),
    lambda: ICochain(GroupContext(3, 1), "2", MOD_P, {}),
], ids=["float-p", "float-r", "str-p", "float-degree", "str-degree"])
def test_non_integer_parameters_are_refused(build):
    # p, r and the degree are read with operator.index: a float that
    # happens to equal an integer is refused like any other non-integer
    with pytest.raises(ValueError, match="integer"):
        build()


def test_context_validation():
    with pytest.raises(ValueError):
        GroupContext(4, 1)
    with pytest.raises(ValueError):
        GroupContext(1, 1)
    with pytest.raises(ValueError):
        GroupContext(3, 0)
    ctx = GroupContext(3, 2)
    with pytest.raises(ValueError):
        ctx.encode((0, 3))
    with pytest.raises(ValueError):
        ctx.encode((0,))
    for bad in (9, -1, True, 1.0, (0, 1)):
        with pytest.raises(ValueError):
            ctx.check_elem(bad)


def test_group_mul_wraps():
    ctx = GroupContext(3, 2)
    assert ctx.mul(ctx.encode((1, 2)), ctx.encode((2, 2))) == ctx.encode((0, 1))
    for u in range(ctx.order):
        assert ctx.mul(u, ctx.inverse(u)) == ctx.identity


# The exponent-vector semantics of the group, as tuples, against which the
# codes are checked: an element is the vector read in base p, first
# exponent most significant.

def vector_code(p, vector):
    return sum(a * p ** (len(vector) - 1 - i) for i, a in enumerate(vector))


@st.composite
def vector_pairs(draw):
    """(p, u, v): two exponent vectors of one group, at p in {2, 3, 5, 7}
    with r <= 6, or at p = 10^18 + 3 with r = 1."""
    p = draw(st.sampled_from([2, 3, 5, 7, 10**18 + 3]))
    r = 1 if p > 7 else draw(st.integers(1, 6))
    vector = st.tuples(*[st.integers(0, p - 1)] * r)
    return p, draw(vector), draw(vector)


@settings(max_examples=400, deadline=None)
@given(vector_pairs())
def test_codes_are_the_exponent_vectors_read_in_base_p(case):
    p, u, v = case
    r = len(u)
    ctx = GroupContext(p, r)
    a, b = ctx.encode(u), ctx.encode(v)
    assert (a, b) == (vector_code(p, u), vector_code(p, v))
    assert ctx.decode(a) == u and ctx.decode(b) == v
    assert (a < b) == (u < v) and 0 <= a < p**r
    assert ctx.encode((0,) * r) == ctx.identity == 0
    # the group law adds exponents digit by digit mod p, with no carry
    assert ctx.decode(ctx.mul(a, b)) == tuple((x + y) % p for x, y in zip(u, v))
    assert ctx.decode(ctx.inverse(a)) == tuple(-x % p for x in u)


@pytest.mark.parametrize("p,r", DESK + [(7, 2), (2, 5)])
def test_elements_are_the_vectors_in_lexicographic_order(p, r):
    ctx = GroupContext(p, r)
    vectors = list(itertools.product(range(p), repeat=r))
    assert [ctx.decode(u) for u in range(ctx.order)] == vectors
    assert list(range(ctx.order)) == [vector_code(p, u) for u in vectors]
    assert list(ctx.nonidentity_elements()) == [vector_code(p, u) for u in vectors if any(u)]
    for i in range(1, r + 1):
        for k in range(-1, p + 1):
            power = tuple(k % p if j == i - 1 else 0 for j in range(r))
            assert ctx.generator_power(i, k) == vector_code(p, power)
        assert ctx.generator(i) == ctx.generator_power(i, 1)


def test_ideal_product_reference():
    # the test-side group-ring product: (s - 1)^2 = s^2 - 2s + 1 at p = 3,
    # and s (s^2) = 1, so (s - 1)(s^2 - 1) = 2 - s - s^2; at r = 1 an
    # element's code is its exponent
    ctx = GroupContext(3, 1)
    s, s2 = {1: 1}, {2: 1}
    assert ideal_product(ctx, s, s) == {2: 1, 1: -2}
    assert ideal_product(ctx, s, s2) == {1: -1, 2: -1}
    assert ideal_product(ctx, s) == s
    assert ideal_product(ctx, {}, s) == {}


def test_shifted_generator_squared_p2():
    # (s - 1)^2 = s^2 - 2s + 1 = 2 - 2s = -2 (s - 1) when s^2 = 1
    ctx = GroupContext(2, 1)
    assert shifted_monomial(ctx, (2,)) == {1: -2}
    assert mod_p(shifted_monomial(ctx, (2,)), 2) == {}


def test_shifted_monomial_p3():
    # (s-1)^2 = s^2 - 2s + 1 = (s^2 - 1) - 2 (s - 1), and mod 3 it equals
    # (s - 1) + (s^2 - 1); (s-1)^3 = 3s - 3s^2 has no identity term at all
    ctx = GroupContext(3, 1)
    assert shifted_monomial(ctx, (1,)) == {1: 1}
    sq = shifted_monomial(ctx, (2,))
    assert sq == {2: 1, 1: -2}
    assert mod_p(sq, 3) == {1: 1, 2: 1}
    assert shifted_monomial(ctx, (3,)) == {1: 3, 2: -3}


@pytest.mark.parametrize("p,r", [(2, 1), (2, 3), (3, 2), (5, 2), (7, 1), (3, 3)])
@pytest.mark.parametrize("ring", [INTEGERS, MOD_P])
def test_shifted_monomial_matches_repeated_multiplication(p, r, ring):
    # the closed form against the convolution reference, exponents past p
    # included; over F_p both sides are reduced at the end
    ctx = GroupContext(p, r)
    gens = [{ctx.generator(i): 1} for i in range(1, r + 1)]
    for k in itertools.product(range(2 * p + 1), repeat=r):
        if not any(k):
            continue
        expected = ideal_product(ctx, *(g for g, e in zip(gens, k) for _ in range(e)))
        got = shifted_monomial(ctx, k)
        if ring == MOD_P:
            expected, got = mod_p(expected, p), mod_p(got, p)
        assert got == expected, k


def test_probe_top_factor_is_the_norm_element_mod_p(monkeypatch):
    # C(p-1, j) (-1)^(p-1-j) = 1 mod p, so (s-1)^(p-1) = 1 + s + ... + s^(p-1):
    # the splits s^q - 1, q = 1..p-1, sum to it, so the inverse formula reads
    # the probe tuples in place of the probe tensor
    p = 10007
    ctx = GroupContext(p, 1)
    top, t = generators.probe_tensor(ctx, 1, 2)
    assert mod_p(top, p) == {j: 1 for j in range(1, p)}
    assert t == {1: 1}
    # without an even part no (s-1)^(p-1) factor is built at all
    monkeypatch.setattr(generators, "shifted_monomial", None)
    assert generators.probe_tensor(ctx, 1, 1) == ({1: 1},)
    assert generators.probe_tensor(ctx, 1, 0) == ()


def test_shifted_monomial_rejects_bad_input():
    ctx = GroupContext(3, 2)
    for k in [(1,), (1, 1, 1), (1, -1), (1, 1.0), (0, 0)]:
        with pytest.raises(ValueError):
            shifted_monomial(ctx, k)
    with pytest.raises(ValueError, match="not in the ideal"):
        shifted_monomial(ctx, (0, 0))
    with pytest.raises(TypeError):
        shifted_monomial(ctx, (1, 1), "Fp")  # no coefficient-ring argument


@pytest.mark.parametrize("p,r", DESK)
def test_high_powers_vanish_mod_p(p, r):
    # (s_i - 1)^p = s_i^p - 1 = 0 mod p, and so does every multiple of it
    ctx = GroupContext(p, r)
    for i in range(r):
        for extra in (0, 1):
            k = tuple(p + extra if j == i else 0 for j in range(r))
            assert shifted_monomial(ctx, k)  # nonzero over Z
            assert mod_p(shifted_monomial(ctx, k), p) == {}


def augmentation(a):
    """The augmentation of an element on the group basis: its coefficient sum."""
    return sum(a.values())


def test_augmentation_examples():
    # an ideal element on the group basis has augmentation 0, so the identity
    # coefficient shifted_monomial drops is minus the sum of the rest; with
    # exponents below p no power wraps to 1, so it is the constant term
    # (-1)^|k| of the binomial expansion of the product
    ctx = GroupContext(3, 2)
    assert augmentation({ctx.identity: 1}) == 1
    for k in [(1, 0), (0, 1), (2, 1), (0, 2), (2, 2)]:
        mono = shifted_monomial(ctx, k)
        assert ctx.identity not in mono
        assert augmentation(on_group_basis(ctx, mono)) == 0
        assert -sum(mono.values()) == (-1) ** sum(k)
    with pytest.raises(ValueError, match="not in the ideal"):
        shifted_monomial(ctx, (0, 0))  # augmentation(1) = 1


@pytest.mark.parametrize("p,r", DESK)
def test_augmentation_is_ring_map(p, r):
    # the group-basis product the test references multiply with is a ring
    # product: the augmentation respects it, over Z and mod p
    ctx = GroupContext(p, r)
    rng = random.Random(100 * p + r)
    for _ in range(25):
        a, b = ({u: rng.randint(-9, 9) for u in range(ctx.order) if rng.random() < 0.7}
                for _ in range(2))
        assert augmentation(group_product(ctx, a, b)) == augmentation(a) * augmentation(b)
        am, bm = mod_p(a, p), mod_p(b, p)
        assert augmentation(group_product(ctx, am, bm)) % p == (
            augmentation(am) * augmentation(bm) % p)


def test_difference_basis():
    # s - 1 and (s - 1)^2 = (s^2 - 1) - 2 (s - 1) on the difference basis,
    # from the closed form and from the group-basis product alike; 1 has no
    # difference-basis form
    ctx = GroupContext(3, 1)
    s = {1: 1}
    assert shifted_monomial(ctx, (1,)) == s
    assert shifted_monomial(ctx, (2,)) == ideal_product(ctx, s, s) == {2: 1, 1: -2}
    assert on_group_basis(ctx, shifted_monomial(ctx, (2,))) == group_product(
        ctx, on_group_basis(ctx, s), on_group_basis(ctx, s))
    with pytest.raises(ValueError):
        shifted_monomial(ctx, (0,))


def test_power():
    # shifted_monomial(k e_1) is the k-th power of s - 1; the zeroth power
    # is 1, outside the ideal, and negative powers are refused
    ctx = GroupContext(3, 1)
    s = {1: 1}
    assert shifted_monomial(ctx, (3,)) == ideal_product(ctx, s, s, s)
    for bad in [(0,), (-1,)]:
        with pytest.raises(ValueError):
            shifted_monomial(ctx, bad)


@pytest.mark.parametrize("p,r", DESK)
def test_shifted_monomials_linearly_independent_mod_p(p, r):
    # the nonconstant shifted monomials of exponents below p are a basis of
    # the augmentation ideal mod p, as is the difference basis they are on
    ctx = GroupContext(p, r)
    index = {u: i for i, u in enumerate(ctx.nonidentity_elements())}
    columns = [{index[u]: c for u, c in mod_p(shifted_monomial(ctx, k), p).items()}
               for k in itertools.product(range(p), repeat=r) if any(k)]
    assert rank(columns, p) == ctx.order - 1


def test_budget_error_prints_huge_sizes_as_a_bound():
    # str() refuses ints past 4 300 digits; sizes past 3 900 print as a bound
    assert str(BudgetExceededError(12345)) == (
        "the computation needs 12345 entries, over the budget of 16777216")
    assert f"needs {10**3899} entries" in str(BudgetExceededError(10**3899))
    assert "needs more than 10^4999 entries" in str(BudgetExceededError(10**5000))
    assert "needs more than 10^5000 entries" in str(BudgetExceededError(7 * 10**5000))
    error = BudgetExceededError(None, 71568.19)
    assert error.required is None
    assert str(error) == ("the computation needs more than 10^71568 entries, "
                          "over the budget of 16777216")
