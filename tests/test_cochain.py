"""Cochain correspondence, linear structure, coboundaries and cups.

The coboundary implementations accumulate sparsely from stored keys; the
tests check them against direct evaluations of the defining formulas
(bar formula for normalized cochains, adjacent-factor contraction for
ideal-tensor cochains) on explicitly enumerated tuples.
"""

import itertools
import math
import random
from functools import reduce

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icochains import (
    AlgebraElem,
    BudgetExceededError,
    GroupContext,
    ICochain,
    INTEGERS,
    MOD_P,
    NormalizedCochain,
    RingElem,
    Tensor,
    cochain_basis,
    cup_many,
    random_cocycle,
    realize,
)
from conftest import DESK, random_icochain, random_ideal_elem, random_normalized


def bar_value(a, tup):
    """Direct bar-formula value of the coboundary of a at an (n+1)-tuple."""
    ctx, n = a.ctx, a.degree
    total = a.value_at(tup[1:])
    for j in range(1, n + 1):
        v = a.value_at(tup[: j - 1] + (ctx.mul(tup[j - 1], tup[j]),) + tup[j + 1:])
        total += -v if j % 2 else v
    tail = a.value_at(tup[:-1])
    total += -tail if (n + 1) % 2 else tail
    return total % ctx.p if a.ring == MOD_P else total


def ideal_value(f, tup):
    """Direct contraction-formula value of the coboundary of f at a tuple."""
    ctx, n = f.ctx, f.degree
    unit = RingElem.unit(ctx, f.ring)
    diffs = [RingElem.from_group_elem(ctx, u, f.ring) - unit for u in tup]
    total = 0
    for i in range(1, n + 1):
        factors = diffs[: i - 1] + [diffs[i - 1] * diffs[i]] + diffs[i + 1:]
        v = f.evaluate(Tensor(ctx, factors))
        total += -v if i % 2 else v
    return total % ctx.p if f.ring == MOD_P else total


def test_correspondence_is_value_identical():
    ctx = GroupContext(2, 1)
    a = NormalizedCochain(ctx, 1, MOD_P, {((1,),): 1})
    f = a.to_icochain()
    assert f.values == a.values
    assert f.to_normalized() == a


@pytest.mark.parametrize("p,r", DESK)
def test_correspondence_round_trip(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(300 * p + r)
    for n in range(4):
        for _ in range(25):
            a = random_normalized(ctx, n, rng, max_support=16)
            assert a.to_icochain().to_normalized() == a
            f = random_icochain(ctx, n, rng, max_support=16)
            assert f.to_normalized().to_icochain() == f
    zero = NormalizedCochain.zero(ctx, 2)
    assert zero.to_icochain() == ICochain.zero(ctx, 2)


def test_keys_reject_identity_and_shape():
    ctx = GroupContext(3, 1)
    with pytest.raises(ValueError):
        ICochain(ctx, 1, MOD_P, {((0,),): 1})
    with pytest.raises(ValueError):
        ICochain(ctx, 2, MOD_P, {((1,),): 1})


@pytest.mark.parametrize("p,r", DESK)
def test_linear_operations_match_the_constructor(p, r):
    # the operations wrap their result without re-checking keys; it must
    # equal what the validating constructor builds from the same dict
    ctx = GroupContext(p, r)
    rng = random.Random(100 * p + r)
    for cls in (ICochain, NormalizedCochain):
        for ring in (MOD_P, INTEGERS):
            for n in range(3):
                f = cls(ctx, n, ring, random_icochain(ctx, n, rng, ring, 12).values)
                g_values = dict(random_icochain(ctx, n, rng, ring, 12).values)
                # some entries of f + g cancel
                g_values.update((k, -c) for k, c in list(f.values.items())[:3])
                g = cls(ctx, n, ring, g_values)
                added = dict(f.values)
                for k, c in g.values.items():
                    added[k] = added.get(k, 0) + c
                assert f + g == cls(ctx, n, ring, added)
                assert -f == cls(ctx, n, ring, {k: -c for k, c in f.values.items()})
                assert f - g == cls(ctx, n, ring, {
                    k: f.values.get(k, 0) - g.values.get(k, 0)
                    for k in set(f.values) | set(g.values)})
                assert (f - f).is_zero()
                for c in (0, p, -1, 2**70):
                    assert f.scale(c) == cls(ctx, n, ring,
                                             {k: c * v for k, v in f.values.items()})
    f = ICochain.zero(ctx, 1)
    a = NormalizedCochain.zero(ctx, 1)
    for op in (lambda: f + a, lambda: a + f, lambda: f - a, lambda: a - f):
        with pytest.raises(ValueError):
            op()


def test_eval_matches_stored_values():
    ctx = GroupContext(3, 2)
    rng = random.Random(5)
    f = random_icochain(ctx, 2, rng)
    a = f.to_normalized()
    unit = RingElem.unit(ctx)
    for u, v in itertools.islice(itertools.product(ctx.nonidentity_elements(), repeat=2), 20):
        t = Tensor(ctx, [RingElem.from_group_elem(ctx, u) - unit,
                         RingElem.from_group_elem(ctx, v) - unit])
        assert f.evaluate(t) == a.value_at((u, v))


def test_eval_zero_factor_and_arity():
    ctx = GroupContext(3, 1)
    rng = random.Random(6)
    f = random_icochain(ctx, 2, rng)
    zero = RingElem.zero(ctx)
    t = Tensor(ctx, [zero, random_ideal_elem(ctx, rng)])
    assert f.evaluate(t) == 0
    with pytest.raises(ValueError):
        f.evaluate(Tensor(ctx, [random_ideal_elem(ctx, rng)]))
    with pytest.raises(ValueError):
        Tensor(ctx, [RingElem.unit(ctx)])  # not in the ideal


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (5, 1)])
def test_eval_multilinear(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(400 * p + r)
    for _ in range(20):
        f = random_icochain(ctx, 2, rng)
        alpha, beta, other = (random_ideal_elem(ctx, rng) for _ in range(3))
        c = rng.randrange(1, p)
        lhs = f.evaluate(Tensor(ctx, [other, alpha.scale(c) + beta]))
        rhs = (c * f.evaluate(Tensor(ctx, [other, alpha]))
               + f.evaluate(Tensor(ctx, [other, beta]))) % p
        assert lhs == rhs


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (3, 2)])
def test_eval_mod_p_invariance(p, r):
    # shifting any factor by p times an ideal element cannot change the value
    ctx = GroupContext(p, r)
    rng = random.Random(500 * p + r)
    for _ in range(20):
        f = random_icochain(ctx, 2, rng)
        alpha, beta = random_ideal_elem(ctx, rng), random_ideal_elem(ctx, rng)
        shifted = alpha + random_ideal_elem(ctx, rng).scale(p)
        assert (f.evaluate(Tensor(ctx, [alpha, beta]))
                == f.evaluate(Tensor(ctx, [shifted, beta])))


def evaluate_by_product(f, factors):
    """The sum over the whole product of the factors' supports."""
    total = 0
    for combo in itertools.product(*(d.items() for d in factors)):
        v = f.values.get(tuple(u for u, _ in combo), 0)
        for _, c in combo:
            v *= c
        total += v
    return total % f.ctx.p if f.ring == MOD_P else total


@pytest.mark.parametrize("ring", [MOD_P, INTEGERS])
def test_eval_enumerations_agree(ring):
    # evaluate_on_expansions runs over the stored entries when they are
    # fewer than the product of the supports, and over the product otherwise
    ctx = GroupContext(3, 2)
    rng = random.Random(23)
    nonid = list(ctx.nonidentity_elements())
    sides = set()
    for n in range(4):
        for support in (0, 1, 5, 40, len(nonid) ** n):
            f = random_icochain(ctx, n, rng, ring, max_support=support)
            factors = [{u: rng.randint(-4, 4) for u in rng.sample(nonid, rng.randint(0, 8))}
                       for _ in range(n)]
            sides.add(len(f.values) <= math.prod(len(d) for d in factors))
            assert f.evaluate_on_expansions(factors) == evaluate_by_product(f, factors)
    assert sides == {True, False}


def test_eval_kills_high_powers_mod_p():
    from icochains import shifted_monomial

    for p, r in [(2, 1), (3, 1), (5, 1)]:
        ctx = GroupContext(p, r)
        rng = random.Random(p)
        f = random_icochain(ctx, 2, rng)
        high = shifted_monomial(ctx, (p,))
        t = Tensor(ctx, [high, random_ideal_elem(ctx, rng)])
        assert f.evaluate(t) == 0


def test_degree_zero_coboundary_vanishes():
    ctx = GroupContext(3, 2)
    a = NormalizedCochain.constant(ctx, 2)
    assert a.coboundary().is_zero()
    f = ICochain.constant(ctx, 2)
    assert f.coboundary().is_zero()


def test_p2_degree_one_coboundary_example():
    # d a (u, v) = a(v) - a(uv) + a(u); the exponent cochain at (s, s)
    # gives 1 - 0 + 1 = 2, which vanishes mod 2
    ctx = GroupContext(2, 1)
    a = NormalizedCochain(ctx, 1, INTEGERS, {((1,),): 1})
    da = a.coboundary()
    assert da.value_at(((1,), (1,))) == 2
    assert a.mod_p().coboundary().is_zero()


@pytest.mark.parametrize("p,r", DESK)
def test_coboundary_squares_to_zero(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(600 * p + r)
    checked = 0
    for n in range(4):
        for trial in range(25):
            ring = MOD_P if trial % 2 else INTEGERS
            a = random_normalized(ctx, n, rng, ring=ring, max_support=8)
            assert a.coboundary().coboundary().is_zero()
            f = a.to_icochain()
            assert f.coboundary().coboundary().is_zero()
            checked += 1
    assert checked == 100


def assert_forms_agree(f):
    """The vectorized ideal-form coboundary equals the bar form through the
    correspondence, and is_cocycle of both kinds reads the same answer off it."""
    a = f.to_normalized()
    via_bar = a.coboundary().to_icochain()
    assert f.coboundary() == via_bar
    assert f.is_cocycle() == via_bar.is_zero()
    assert a.is_cocycle() == via_bar.is_zero()


@pytest.mark.parametrize("p,r", DESK)
def test_coboundaries_match_direct_formulas(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(700 * p + r)
    nonid = list(ctx.nonidentity_elements())
    for n in range(3):
        a = random_normalized(ctx, n, rng, max_support=12)
        da = a.coboundary()
        f = a.to_icochain()
        df = f.coboundary()
        for _ in range(40):
            tup = tuple(rng.choice(nonid) for _ in range(n + 1))
            assert da.value_at(tup) == bar_value(a, tup)
            assert df.value_at(tup) == ideal_value(f, tup)
        assert da.to_icochain() == df  # the correspondence intertwines them
    for n in range(5):
        for ring in (MOD_P, INTEGERS):
            assert_forms_agree(random_icochain(ctx, n, rng, ring=ring, max_support=40))
        assert_forms_agree(random_cocycle(ctx, min(n, 2), seed=n))


def test_coboundary_forms_agree_at_the_edges():
    ctx = GroupContext(5, 2)
    rng = random.Random(17)
    # integer coefficients beyond int64
    f = random_icochain(ctx, 2, rng, ring=INTEGERS, max_support=20)
    f = f + ICochain(ctx, 2, INTEGERS, {((1, 2), (3, 4)): 2**70 + 1})
    assert_forms_agree(f)
    assert_forms_agree(f.scale(-(2**65)))
    # packed terms fit int64 but a run of 3n terms of 2^61 may not
    one = GroupContext(2, 1)
    assert_forms_agree(ICochain(one, 6, INTEGERS, {((1,),) * 6: 2**61}))
    # a key space past int64: 24^14 > 2^63 codes in degree 14
    key = tuple(rng.choice(list(ctx.nonidentity_elements())) for _ in range(13))
    assert 24**14 > 2**63
    assert_forms_agree(ICochain(ctx, 13, MOD_P, {key: 3}))
    assert_forms_agree(ICochain(ctx, 13, INTEGERS, {key: -(2**64)}))
    # degree 0 and the empty cochain
    for ring in (MOD_P, INTEGERS):
        assert_forms_agree(ICochain.constant(ctx, 4, ring))
        for n in range(4):
            assert_forms_agree(ICochain.zero(ctx, n, ring))


def test_is_cocycle_misses_no_entry():
    ctx = GroupContext(5, 2)
    f = realize(AlgebraElem.monomial(ctx, (2, 1)))
    assert f.is_cocycle()
    rng = random.Random(23)
    for key in rng.sample(sorted(f.values), 5):
        values = dict(f.values)
        del values[key]
        assert not ICochain(ctx, f.degree, MOD_P, values).is_cocycle()


# (p, r) with N = p^r - 1 >= 3, so some degree-1 cochain has 3nE <= N
SPARSE_CONTEXTS = [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 1), (7, 1), (13, 1)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_sparse_cochains_are_not_cocycles(data):
    """The sparse-cocycle lemma: a nonzero degree-n >= 1 cochain with
    3nE <= N is never a cocycle, checked against the kernel."""
    p, r = data.draw(st.sampled_from(SPARSE_CONTEXTS))
    ctx = GroupContext(p, r)
    big_n = ctx.order - 1
    n = data.draw(st.integers(1, 3))
    bound = big_n // (3 * n)
    # mostly at or under the lemma's bound, sometimes just over it
    entries = data.draw(st.integers(1, max(1, bound + 2)))
    entries = min(entries, big_n**n)
    codes = data.draw(st.sets(st.integers(0, big_n**n - 1),
                              min_size=entries, max_size=entries))
    basis = cochain_basis(ctx, n)
    ring = data.draw(st.sampled_from([MOD_P, INTEGERS]))
    value = st.integers(1, p - 1) if ring == MOD_P else st.integers(-9, 9).filter(bool)
    values = {basis[c]: data.draw(value) for c in sorted(codes)}
    cls = data.draw(st.sampled_from([ICochain, NormalizedCochain]))
    f = cls(ctx, n, ring, values)
    by_kernel = ICochain(ctx, n, ring, values).coboundary().is_zero()
    assert f.is_cocycle() == by_kernel
    if 3 * n * entries <= big_n:
        assert not by_kernel


def check_agrees(f) -> bool:
    """is_cocycle of both kinds on f's values equals what the kernel and
    the bar loop say; returns that answer."""
    ctx, n, ring, values = f.ctx, f.degree, f.ring, f.values
    by_kernel = ICochain(ctx, n, ring, values).coboundary().is_zero()
    by_bar = NormalizedCochain(ctx, n, ring, values).coboundary().is_zero()
    assert by_kernel == by_bar
    assert ICochain(ctx, n, ring, values).is_cocycle() == by_kernel
    assert NormalizedCochain(ctx, n, ring, values).is_cocycle() == by_kernel
    return by_kernel


@pytest.mark.parametrize("p,r,max_n", [(2, 1, 5), (2, 2, 4), (2, 3, 3), (3, 1, 4),
                                       (3, 2, 3), (5, 1, 3), (5, 2, 2), (7, 1, 2)])
def test_is_cocycle_agrees_with_both_coboundaries(p, r, max_n):
    """Coboundaries, realize outputs and random cocycles, and each of them
    with one entry changed, over both rings and read as both kinds."""
    ctx = GroupContext(p, r)
    rng = random.Random(1000 * p + r)
    nonid = list(ctx.nonidentity_elements())
    seen = set()
    for n in range(1, max_n + 1):
        for ring in (MOD_P, INTEGERS):
            cocycles = [random_normalized(ctx, n - 1, rng, ring=ring, max_support=6).coboundary()]
            if ring == MOD_P:
                cocycles.append(realize(AlgebraElem.monomial(ctx, (n,) + (0,) * (r - 1))))
                if (p**r - 1) ** n <= 300:
                    cocycles.append(random_cocycle(ctx, n, seed=n))
            for f in cocycles:
                assert check_agrees(f)
                for _ in range(3):
                    key = tuple(rng.choice(nonid) for _ in range(n))
                    values = dict(f.values)
                    values[key] = values.get(key, 0) + rng.randint(1, max(1, p - 1))
                    seen.add(check_agrees(ICochain(ctx, n, ring, values)))
            if r > 1 and (p**r - 1) ** n <= 600:
                for i in range(r):
                    seen.add(check_agrees(pulled_back(ctx, n, i, rng, ring)))
    assert False in seen


def pulled_back(ctx, n, i, rng, ring):
    """A random cochain that reads only the exponents other than i of its
    arguments.  Its coboundary vanishes on every tuple that starts with the
    generator s_(i+1), and in general on no other partition."""
    quotient, values = {}, {}
    for key in itertools.product(list(ctx.nonidentity_elements()), repeat=n):
        image = tuple(u[:i] + u[i + 1:] for u in key)
        if all(any(v) for v in image):
            if image not in quotient:
                quotient[image] = rng.randint(0, ctx.p - 1) if ring == MOD_P else rng.randint(-3, 3)
            values[key] = quotient[image]
    return ICochain(ctx, n, ring, values)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_is_cocycle_agrees_on_perturbed_coboundaries(data):
    """A random coboundary plus a few random entries, against the kernel
    and the bar loop."""
    p, r = data.draw(st.sampled_from([(2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]))
    ctx = GroupContext(p, r)
    n = data.draw(st.integers(1, 3))
    ring = data.draw(st.sampled_from([MOD_P, INTEGERS]))
    value = st.integers(1, p - 1) if ring == MOD_P else st.integers(-5, 5).filter(bool)

    def draw_values(degree, max_size):
        basis = cochain_basis(ctx, degree)
        picks = data.draw(st.dictionaries(st.integers(0, len(basis) - 1), value,
                                          max_size=max_size))
        return {basis[i]: c for i, c in picks.items()}

    f = NormalizedCochain(ctx, n - 1, ring, draw_values(n - 1, 5)).coboundary()
    values = dict(f.values)
    for key, c in draw_values(n, 2).items():
        values[key] = values.get(key, 0) + c
    check_agrees(ICochain(ctx, n, ring, values))


def test_is_cocycle_refuses_an_over_budget_check():
    # past the sparse lemma, the E (2r + (n-1)(N-1) + N) terms summed at the
    # generator partitions are bounded: 1400 * 4100 are within the budget
    ctx = GroupContext(4099, 1)
    f = ICochain(ctx, 1, MOD_P, {((u,),): 1 for u in range(1, 1401)})
    assert not f.is_cocycle()
    assert not f.to_normalized().is_cocycle()
    g = ICochain(ctx, 2, MOD_P, {((1,), (u,)): 1 for u in range(1, 2101)})
    with pytest.raises(BudgetExceededError) as info:
        g.is_cocycle()
    assert info.value.required == 2100 * (2 + 4097 + 4098) == 17213700
    with pytest.raises(BudgetExceededError):
        g.to_normalized().is_cocycle()


@pytest.mark.parametrize("p,r", DESK)
def test_normalized_is_cocycle_matches_bar_coboundary(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(900 * p + r)
    seen = set()
    for n in range(4):
        cocycles = [random_cocycle(ctx, min(n, 2), seed=n).to_normalized()]
        if n:
            cocycles.append(realize(AlgebraElem.monomial(
                ctx, (n,) + (0,) * (r - 1))).to_normalized())
        for a in cocycles + [random_normalized(ctx, n, rng, max_support=30)]:
            for b in (a, NormalizedCochain(ctx, a.degree, MOD_P,
                                           dict(list(a.values.items())[1:]))):
                assert b.is_cocycle() == b.coboundary().is_zero()
                seen.add(b.is_cocycle())
    # at p = 2, r = 1 every cochain space is a line and every d is zero
    assert seen == ({True} if (p, r) == (2, 1) else {True, False})


def test_cup_sign_on_degree_one():
    # (f cup g)(alpha x beta) = -f(alpha) g(beta) in odd characteristic
    ctx = GroupContext(3, 1)
    rng = random.Random(9)
    f, g = random_icochain(ctx, 1, rng), random_icochain(ctx, 1, rng)
    fg = f.cup(g)
    for u in ctx.nonidentity_elements():
        for v in ctx.nonidentity_elements():
            assert fg.value_at((u, v)) == (-f.value_at((u,)) * g.value_at((v,))) % 3


def test_cup_p2_no_signs():
    ctx = GroupContext(2, 2)
    rng = random.Random(10)
    f, g = random_icochain(ctx, 1, rng), random_icochain(ctx, 1, rng)
    fg = f.cup(g)
    for u in ctx.nonidentity_elements():
        for v in ctx.nonidentity_elements():
            assert fg.value_at((u, v)) == f.value_at((u,)) * g.value_at((v,)) % 2


def test_cup_even_degrees_plain_product():
    ctx = GroupContext(3, 1)
    f = random_cocycle(ctx, 2, seed=1)
    g = random_cocycle(ctx, 2, seed=2)
    fg = f.cup(g)
    nonid = list(ctx.nonidentity_elements())
    rng = random.Random(11)
    for _ in range(20):
        tup = tuple(rng.choice(nonid) for _ in range(4))
        assert fg.value_at(tup) == f.value_at(tup[:2]) * g.value_at(tup[2:]) % 3


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (3, 2)])
def test_cup_of_cocycles_is_cocycle(p, r):
    ctx = GroupContext(p, r)
    for seed in range(4):
        f = random_cocycle(ctx, 1, seed=seed)
        g = random_cocycle(ctx, 2, seed=seed + 10)
        assert f.cup(g).is_cocycle()
        assert g.cup(f).is_cocycle()


def test_cup_requires_mod_p():
    ctx = GroupContext(3, 1)
    rng = random.Random(12)
    f = random_icochain(ctx, 1, rng, ring=INTEGERS)
    with pytest.raises(ValueError):
        f.cup(f)


def test_cup_many_equals_nested():
    rng = random.Random(13)
    for p, r in [(3, 1), (3, 2), (5, 1)]:
        ctx = GroupContext(p, r)
        for degrees in [(1, 1, 1), (1, 2, 1), (2, 1, 2), (0, 1, 2), (1, 1, 1, 1)]:
            fs = [random_icochain(ctx, d, rng, max_support=10) for d in degrees]
            assert cup_many(fs) == reduce(lambda x, y: x.cup(y), fs)


def test_cup_degree_zero_factor_scales():
    ctx = GroupContext(3, 1)
    rng = random.Random(14)
    f = random_icochain(ctx, 2, rng)
    two = ICochain.constant(ctx, 2)
    assert two.cup(f) == f.scale(2)
    assert f.cup(two) == f.scale(2)

