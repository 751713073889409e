"""The explicit generator cocycles and their probes."""

import random

import pytest

from icochains import (
    INTEGERS,
    MOD_P,
    GroupContext,
    ICochain,
    NormalizedCochain,
    RingElem,
    Tensor,
    bockstein_cocycle,
    bockstein_pair_value,
    carry_cocycle,
    carry_cocycle_over_z,
    exponent_cocycle,
    generator_power_cocycle,
    probe_tensor,
    probe_tensor_split,
    probe_tuple,
    q_choices,
    shifted_monomial,
)
from icochains.acceptance import EXHAUSTIVE_TRIPLES
from conftest import DESK, random_icochain


def _shifted_power(ctx, i, k):
    return shifted_monomial(ctx, tuple(k if j == i - 1 else 0 for j in range(ctx.r)))


def test_exponent_cocycle_dual_to_shifted_generators():
    for p, r in DESK:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            f = exponent_cocycle(ctx, i)
            for j in range(1, r + 1):
                t = Tensor(ctx, [_shifted_power(ctx, j, 1)])
                assert f.evaluate(t) == (1 if i == j else 0)


def test_exponent_cocycle_kills_higher_shifted_powers():
    ctx = GroupContext(5, 1)
    f = exponent_cocycle(ctx, 1)
    for k in range(2, 5):
        assert f.evaluate(Tensor(ctx, [_shifted_power(ctx, 1, k)])) == 0


def test_exponent_cocycle_reads_exponents():
    ctx = GroupContext(5, 1)
    f = exponent_cocycle(ctx, 1)
    square_diff = RingElem.from_group_elem(ctx, (2,)) - RingElem.unit(ctx)
    assert f.evaluate(Tensor(ctx, [square_diff])) == 2


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
    z = carry_cocycle_over_z(ctx, 1)
    assert z.value_at(((2,), (2,))) == 1  # 2 + 2 >= 3
    assert z.value_at(((1,), (1,))) == 0
    assert z.value_at(((1,), (2,))) == 1
    ctx2 = GroupContext(3, 2)
    z2 = carry_cocycle_over_z(ctx2, 2)
    assert z2.value_at(((0, 2), (1, 2))) == 1
    assert z2.value_at(((2, 1), (2, 1))) == 0  # carries in slot 1, not slot 2


def test_carry_cocycle_is_cocycle():
    for p, r in [(2, 2), (3, 2), (5, 1)]:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            assert carry_cocycle_over_z(ctx, i).is_cocycle()
            assert carry_cocycle(ctx, i).is_cocycle()


def test_bockstein_cocycle_matches_carry():
    ctx = GroupContext(3, 2)
    assert bockstein_cocycle(ctx, 1) == carry_cocycle(ctx, 1).to_icochain()


@pytest.mark.parametrize("p,r", [(p, r) for p, r, _ in EXHAUSTIVE_TRIPLES] + [(7, 3)])
def test_bockstein_cocycle_equals_the_constructor_path(p, r):
    # carry_cocycle_over_z, mod_p and to_icochain wrap keys they know are
    # valid; the checking constructors must build the same cochains
    ctx = GroupContext(p, r)
    nonid = list(ctx.nonidentity_elements())
    for i in range(1, r + 1):
        values = {(u, v): 1 for u in nonid for v in nonid if u[i - 1] + v[i - 1] >= p}
        over_z = NormalizedCochain(ctx, 2, INTEGERS, values)
        assert carry_cocycle_over_z(ctx, i) == over_z
        assert carry_cocycle(ctx, i) == NormalizedCochain(ctx, 2, MOD_P, over_z.values)
        b = bockstein_cocycle(ctx, i)
        assert b == ICochain(ctx, 2, MOD_P, over_z.values)
        assert b.to_normalized() == NormalizedCochain(ctx, 2, MOD_P, b.values)
        assert b.to_normalized().values is not b.values


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
        hz = carry_cocycle_over_z(ctx, i).to_icochain()
        for k in range(1, p):
            for l in range(1, p):
                t = Tensor(ctx, [_shifted_power(ctx, i, k), _shifted_power(ctx, i, l)])
                assert hz.evaluate(t) == bockstein_pair_value(ctx, i, k, l)


def test_bockstein_on_shifted_pairs_mod_p():
    for p, r in [(3, 1), (5, 1), (3, 2)]:
        ctx = GroupContext(p, r)
        for i in range(1, r + 1):
            h = bockstein_cocycle(ctx, i)
            for k in range(1, p):
                for l in range(1, p):
                    t = Tensor(ctx, [_shifted_power(ctx, i, k), _shifted_power(ctx, i, l)])
                    assert h.evaluate(t) == (1 if k + l == p else 0)


def test_bockstein_vanishes_on_mixed_variables():
    ctx = GroupContext(3, 2)
    h = bockstein_cocycle(ctx, 1)
    t = Tensor(ctx, [_shifted_power(ctx, 2, 1), _shifted_power(ctx, 1, 2)])
    assert h.evaluate(t) == 0


def test_generator_power_cocycle_degree_zero_and_one():
    ctx = GroupContext(3, 2)
    assert generator_power_cocycle(ctx, 1, 0) == ICochain.constant(ctx, 1)
    assert generator_power_cocycle(ctx, 2, 1) == exponent_cocycle(ctx, 2)
    assert generator_power_cocycle(ctx, 1, 2) == bockstein_cocycle(ctx, 1)


@pytest.mark.parametrize("p,r", DESK)
def test_generator_powers_hit_probes(p, r):
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        for m in range(6):
            f = generator_power_cocycle(ctx, i, m)
            assert f.evaluate(probe_tensor(ctx, i, m)) == 1


def test_generator_power_misses_wrong_pair_sum():
    ctx = GroupContext(3, 1)
    f = generator_power_cocycle(ctx, 1, 2)
    t = Tensor(ctx, [_shifted_power(ctx, 1, 1), _shifted_power(ctx, 1, 1)])
    assert f.evaluate(t) == 0  # 1 + 1 != 3


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (3, 2), (5, 1)])
def test_generator_powers_are_cocycles(p, r):
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        for m in range(6):
            assert generator_power_cocycle(ctx, i, m).is_cocycle()


def test_probe_tensor_shapes():
    ctx = GroupContext(3, 1)
    t2 = probe_tensor(ctx, 1, 2)
    assert len(t2) == 2
    assert t2.factors[0] == _shifted_power(ctx, 1, 2)  # (s-1)^(p-1) first
    assert t2.factors[1] == _shifted_power(ctx, 1, 1)
    t1 = probe_tensor(ctx, 1, 1)
    assert len(t1) == 1 and t1.factors[0] == _shifted_power(ctx, 1, 1)
    t5 = probe_tensor(ctx, 1, 5)
    assert [f == _shifted_power(ctx, 1, 2) for f in t5.factors] == \
        [False, True, False, True, False]


def test_probe_tuple_shapes():
    ctx = GroupContext(5, 1)
    assert probe_tuple(ctx, 1, 4, (2, 3)) == ((2,), (1,), (3,), (1,))
    assert probe_tuple(ctx, 1, 5, (2, 3)) == ((1,), (2,), (1,), (3,), (1,))
    assert probe_tuple(ctx, 1, 0, ()) == ()
    with pytest.raises(ValueError):
        probe_tuple(ctx, 1, 4, (2,))
    with pytest.raises(ValueError):
        probe_tuple(ctx, 1, 2, (5,))


def test_probe_split_consistency():
    # with every q = 1 the split of an odd probe is all s_i - 1 factors
    ctx = GroupContext(3, 1)
    t = probe_tensor_split(ctx, 1, 3, (1,))
    diff = _shifted_power(ctx, 1, 1)
    assert all(f == diff for f in t.factors)


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

