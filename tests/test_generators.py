"""The explicit generator cocycles and their probes."""

import itertools
import random

import pytest

from icochains import (
    INTEGERS,
    MOD_P,
    GroupContext,
    ICochain,
    bockstein_cocycle,
    bockstein_pair_value,
    exponent_cocycle,
    probe_tensor,
    probe_tensor_split,
    q_choices,
    shifted_monomial,
)
from icochains.acceptance import EXHAUSTIVE_TRIPLES
from conftest import DESK, from_codes, power_cocycle, random_icochain


def _shifted_power(ctx, i, k):
    return shifted_monomial(ctx, tuple(k if j == i - 1 else 0 for j in range(ctx.r)))


def carry_over_z(ctx, i):
    """The integral carry functional: the Bockstein cocycle's values, all 1,
    read over Z."""
    return from_codes(ctx, 2, INTEGERS, bockstein_cocycle(ctx, i).values)


def test_exponent_cocycle_dual_to_shifted_generators():
    for p, r in DESK:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            f = exponent_cocycle(ctx, i)
            for j in range(1, r + 1):
                t = [_shifted_power(ctx, j, 1)]
                assert f.evaluate(t) == (1 if i == j else 0)


def test_exponent_cocycle_kills_higher_shifted_powers():
    ctx = GroupContext(5, 1)
    f = exponent_cocycle(ctx, 1)
    for k in range(2, 5):
        assert f.evaluate([_shifted_power(ctx, 1, k)]) == 0


def test_exponent_cocycle_reads_exponents():
    ctx = GroupContext(5, 1)
    f = exponent_cocycle(ctx, 1)
    assert f.evaluate([{ctx.encode((2,)): 1}]) == 2  # s^2 - 1


def test_exponent_cocycle_is_cocycle():
    for p, r in DESK:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            assert exponent_cocycle(ctx, i).is_cocycle()


def test_index_validation():
    ctx = GroupContext(3, 2)
    for bad in (0, 3):
        with pytest.raises(ValueError):
            exponent_cocycle(ctx, bad)
        with pytest.raises(ValueError):
            bockstein_cocycle(ctx, bad)


def test_carry_cocycle_values():
    ctx = GroupContext(3, 1)
    z = carry_over_z(ctx, 1)

    def value(z, *vectors):
        return z.values.get(tuple(map(z.ctx.encode, vectors)), 0)

    assert value(z, (2,), (2,)) == 1  # 2 + 2 >= 3
    assert value(z, (1,), (1,)) == 0
    assert value(z, (1,), (2,)) == 1
    ctx2 = GroupContext(3, 2)
    z2 = carry_over_z(ctx2, 2)
    assert value(z2, (0, 2), (1, 2)) == 1
    assert value(z2, (2, 1), (2, 1)) == 0  # carries in slot 1, not slot 2


def test_carry_cocycle_is_cocycle():
    for p, r in [(2, 2), (3, 2), (5, 1)]:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            assert carry_over_z(ctx, i).is_cocycle()
            assert bockstein_cocycle(ctx, i).is_cocycle()


def test_bockstein_cocycle_matches_carry():
    # the Bockstein is the mod-p reduction of the integral carry cocycle,
    # whose values are all 1
    ctx = GroupContext(3, 2)
    b = bockstein_cocycle(ctx, 1)
    assert b.ring == MOD_P and set(b.values.values()) == {1}
    assert b == from_codes(ctx, 2, MOD_P, carry_over_z(ctx, 1).values)


@pytest.mark.parametrize("p,r", [(p, r) for p, r, _ in EXHAUSTIVE_TRIPLES] + [(7, 3)])
def test_bockstein_cocycle_equals_the_constructor_path(p, r):
    # bockstein_cocycle wraps keys it knows are valid; the checking
    # constructors must build the same cochains, over Z and mod p
    ctx = GroupContext(p, r)
    vectors = [u for u in itertools.product(range(p), repeat=r) if any(u)]
    for i in range(1, r + 1):
        values = {(u, v): 1 for u in vectors for v in vectors if u[i - 1] + v[i - 1] >= p}
        over_z = ICochain(ctx, 2, INTEGERS, values)
        assert carry_over_z(ctx, i) == over_z
        b = bockstein_cocycle(ctx, i)
        assert b == ICochain(ctx, 2, MOD_P, values)


def test_bockstein_pair_value_example():
    # p = 3, k = l = 2: -C(4,3) + C(4,4) = -3, reducing to 0 mod 3
    ctx = GroupContext(3, 1)
    assert bockstein_pair_value(ctx, 1, 2, 2) == -3
    assert bockstein_pair_value(ctx, 1, 1, 1) == 0  # sum below p: empty sum
    assert bockstein_pair_value(ctx, 1, 1, 2) == 1
    with pytest.raises(ValueError):
        bockstein_pair_value(ctx, 1, 0, 1)
    with pytest.raises(ValueError):
        bockstein_pair_value(ctx, 1, 1, 3)


@pytest.mark.parametrize("p,r", DESK)
def test_integral_pair_values_evaluate_exactly(p, r):
    # the integral carry functional on shifted-power pairs equals the
    # alternating binomial sum, on the nose over Z
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        hz = carry_over_z(ctx, i)
        for k in range(1, p):
            for l in range(1, p):
                t = [_shifted_power(ctx, i, k), _shifted_power(ctx, i, l)]
                assert hz.evaluate(t) == bockstein_pair_value(ctx, i, k, l)


def test_bockstein_on_shifted_pairs_mod_p():
    for p, r in [(3, 1), (5, 1), (3, 2)]:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            h = bockstein_cocycle(ctx, i)
            for k in range(1, p):
                for l in range(1, p):
                    t = [_shifted_power(ctx, i, k), _shifted_power(ctx, i, l)]
                    assert h.evaluate(t) == (1 if k + l == p else 0)


def test_bockstein_vanishes_on_mixed_variables():
    ctx = GroupContext(3, 2)
    h = bockstein_cocycle(ctx, 1)
    t = [_shifted_power(ctx, 2, 1), _shifted_power(ctx, 1, 2)]
    assert h.evaluate(t) == 0


def test_generator_power_cocycle_degree_zero_and_one():
    ctx = GroupContext(3, 2)
    assert power_cocycle(ctx, 1, 0) == ICochain.constant(ctx, 1)
    assert power_cocycle(ctx, 2, 1) == exponent_cocycle(ctx, 2)
    assert power_cocycle(ctx, 1, 2) == bockstein_cocycle(ctx, 1)


@pytest.mark.parametrize("p,r", DESK)
def test_generator_powers_hit_probes(p, r):
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        for m in range(6):
            f = power_cocycle(ctx, i, m)
            assert f.evaluate(probe_tensor(ctx, i, m)) == 1


def test_generator_power_misses_wrong_pair_sum():
    ctx = GroupContext(3, 1)
    f = power_cocycle(ctx, 1, 2)
    t = [_shifted_power(ctx, 1, 1), _shifted_power(ctx, 1, 1)]
    assert f.evaluate(t) == 0  # 1 + 1 != 3


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_generator_powers_are_cocycles(p, r):
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        for m in range(6):
            assert power_cocycle(ctx, i, m).is_cocycle()


def test_probe_tensor_shapes():
    # at r = 1 an element's code is its exponent
    ctx = GroupContext(3, 1)
    top, t = _shifted_power(ctx, 1, 2), {1: 1}
    assert top == {1: -2, 2: 1}
    assert probe_tensor(ctx, 1, 2) == (top, t)  # (s-1)^(p-1) first
    assert probe_tensor(ctx, 1, 1) == (t,)
    assert probe_tensor(ctx, 1, 5) == (t, top, t, top, t)
    assert probe_tensor(ctx, 1, 0) == ()


def test_probe_tuple_shapes():
    # the split probe's group elements: (s^q1, s, s^q2, s), one more s first
    # for odd m
    ctx = GroupContext(5, 1)

    def elements(m, q):
        factors = probe_tensor_split(ctx, 1, m, q)
        assert all(list(d.values()) == [1] for d in factors)
        return tuple(u for d in factors for u in d)

    assert elements(4, (2, 3)) == (2, 1, 3, 1)  # codes at r = 1 are exponents
    assert elements(5, (2, 3)) == (1, 2, 1, 3, 1)
    assert elements(0, ()) == ()
    with pytest.raises(ValueError):
        probe_tensor_split(ctx, 1, 4, (2,))
    with pytest.raises(ValueError):
        probe_tensor_split(ctx, 1, 2, (5,))


def test_probe_split_consistency():
    # with every q = 1 the split of an odd probe is all s_i - 1 factors
    ctx = GroupContext(3, 1)
    assert probe_tensor_split(ctx, 1, 3, (1,)) == ({1: 1},) * 3
    assert probe_tensor_split(ctx, 1, 3, (2,)) == ({1: 1}, {2: 1}, {1: 1})


@pytest.mark.parametrize("p,r", DESK)
def test_split_expansion_identity(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(800 * p + r)
    for i in range(1, r + 1):
        for m in range(5):
            for _ in range(20):
                f = random_icochain(ctx, m, rng, max_support=64)
                lhs = f.evaluate(probe_tensor(ctx, i, m))
                rhs = sum(f.evaluate(probe_tensor_split(ctx, i, m, q))
                          for q in q_choices(ctx, m)) % p
                assert lhs == rhs

