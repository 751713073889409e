"""Cochain correspondence, linear structure, coboundaries and cups.

The coboundary (the vectorized kernel) and its independent bar-formula
reference ``_bar_coboundary`` accumulate sparsely from stored keys; the
tests check them against each other and against direct evaluations of
the defining formulas (the bar formula on group-element tuples, the
adjacent-factor contraction on ideal tensors) on explicitly enumerated
tuples.
"""

import itertools
import math
import random
from functools import reduce

import numpy as np
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
    cochain_basis,
    compositions,
    cup_many,
    realize,
)
from icochains import cocycle
from icochains.acceptance import EXHAUSTIVE_TRIPLES
from icochains.cochain import _bar_coboundary, _key_codes
from icochains.kernel import _decode_keys
from conftest import (
    DESK,
    from_codes,
    ideal_product,
    random_cocycle,
    random_icochain,
    random_ideal_elem,
)


def bar_value(a, tup):
    """Direct bar-formula value of the coboundary of a at an (n+1)-tuple."""
    ctx, n = a.ctx, a.degree
    total = a.values.get(tup[1:], 0)
    for j in range(1, n + 1):
        v = a.values.get(tup[: j - 1] + (ctx.mul(tup[j - 1], tup[j]),) + tup[j + 1:], 0)
        total += -v if j % 2 else v
    tail = a.values.get(tup[:-1], 0)
    total += -tail if (n + 1) % 2 else tail
    return total % ctx.p if a.ring == MOD_P else total


def ideal_value(f, tup):
    """Direct contraction-formula value of the coboundary of f at a tuple."""
    ctx, n = f.ctx, f.degree
    diffs = [{u: 1} for u in tup]
    total = 0
    for i in range(1, n + 1):
        factors = diffs[: i - 1] + [ideal_product(ctx, diffs[i - 1], diffs[i])] + diffs[i + 1:]
        v = f.evaluate(factors)
        total += -v if i % 2 else v
    return total % ctx.p if f.ring == MOD_P else total


def test_correspondence_is_value_identical():
    # the isomorphism is the identity on stored values: the normalized
    # cochain's value at (u) is f(u - 1), the value stored at (u)
    ctx = GroupContext(2, 1)
    f = ICochain(ctx, 1, MOD_P, {((1,),): 1})
    s = ctx.encode((1,))
    assert f.evaluate([{s: 1}]) == f.values[(s,)] == 1


@pytest.mark.parametrize("p,r", DESK)
def test_correspondence_round_trip(p, r):
    # the normalized cochain a(u_1, ..., u_n) = f((u_1 - 1) x ... x (u_n - 1)),
    # read off f by multilinear evaluation, stores f's values again
    ctx = GroupContext(p, r)
    rng = random.Random(300 * p + r)
    nonid = list(ctx.nonidentity_elements())
    for n in range(4):
        tuples = list(itertools.product(nonid, repeat=n))
        for _ in range(5):
            f = random_icochain(ctx, n, rng, max_support=16)
            keys = set(f.values) | set(rng.sample(tuples, min(len(tuples), 30)))
            a = {key: f.evaluate([{u: 1} for u in key]) for key in keys}
            assert from_codes(ctx, n, MOD_P, a) == f


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
    for ring in (MOD_P, INTEGERS):
        for n in range(3):
            f = from_codes(ctx, n, ring, random_icochain(ctx, n, rng, ring, 12).values)
            g_values = dict(random_icochain(ctx, n, rng, ring, 12).values)
            # some entries of f + g cancel
            g_values.update((k, -c) for k, c in list(f.values.items())[:3])
            g = from_codes(ctx, n, ring, g_values)
            added = dict(f.values)
            for k, c in g.values.items():
                added[k] = added.get(k, 0) + c
            assert f + g == from_codes(ctx, n, ring, added)
            assert -f == from_codes(ctx, n, ring, {k: -c for k, c in f.values.items()})
            assert f - g == from_codes(ctx, n, ring, {
                k: f.values.get(k, 0) - g.values.get(k, 0)
                for k in set(f.values) | set(g.values)})
            assert (f - f).is_zero()
            for c in (0, p, -1, 2**70):
                assert f.scale(c) == from_codes(ctx, n, ring,
                                                {k: c * v for k, v in f.values.items()})
    # a degree or ring mismatch does not add
    f = ICochain.zero(ctx, 1)
    assert f + ICochain.zero(ctx, 1) == f
    for g in (ICochain.zero(ctx, 2), ICochain.zero(ctx, 1, INTEGERS)):
        for op in (lambda: f + g, lambda: g + f, lambda: f - g, lambda: g - f):
            with pytest.raises(ValueError):
                op()


def test_eval_matches_stored_values():
    ctx = GroupContext(3, 2)
    rng = random.Random(5)
    f = random_icochain(ctx, 2, rng)
    for u, v in itertools.islice(itertools.product(ctx.nonidentity_elements(), repeat=2), 20):
        assert f.evaluate([{u: 1}, {v: 1}]) == f.values.get((u, v), 0)


def test_eval_zero_factor_and_arity():
    ctx = GroupContext(3, 1)
    rng = random.Random(6)
    f = random_icochain(ctx, 2, rng)
    assert f.evaluate([{}, random_ideal_elem(ctx, rng)]) == 0
    assert f.evaluate([{1: 0, 2: 0}, random_ideal_elem(ctx, rng)]) == 0
    with pytest.raises(ValueError):
        f.evaluate([random_ideal_elem(ctx, rng)])
    with pytest.raises(ValueError):
        f.evaluate([{0: 1}, {1: 1}])  # 1 is not in the ideal


def test_eval_checks_its_factors():
    ctx = GroupContext(3, 2)
    f = ICochain(ctx, 2, MOD_P, {((1, 0), (0, 1)): 1})
    u = ctx.encode((1, 0))
    s = {u: 1}
    assert f.evaluate([s, {ctx.encode((0, 1)): 2}]) == 2
    bad_factors = [
        [s],  # too few factors
        [s, s, s],  # too many
        [s, {0: 1}],  # the identity is not in the difference basis
        [s, {(1, 0): 1}],  # an exponent vector in place of an element
        [s, {9: 1}],  # an element out of range
        [s, {-1: 1}],
        [s, {True: 1}],  # a bool is not an element
        [s, {u: 1.0}],  # a non-int coefficient
        [s, {u: "1"}],
    ]
    for factors in bad_factors:
        with pytest.raises(ValueError):
            f.evaluate(factors)
    # the factors are checked even where no entry would read them
    with pytest.raises(ValueError):
        ICochain.zero(ctx, 1).evaluate([{0: 1}])


def add(*terms):
    """A linear combination of difference-basis dicts, from (coefficient, dict) pairs."""
    out = {}
    for c, a in terms:
        for u, v in a.items():
            out[u] = out.get(u, 0) + c * v
    return out


@pytest.mark.parametrize("p,r", [(2, 2), (3, 1), (5, 1)])
def test_eval_multilinear(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(400 * p + r)
    for _ in range(20):
        f = random_icochain(ctx, 2, rng)
        alpha, beta, other = (random_ideal_elem(ctx, rng) for _ in range(3))
        c = rng.randrange(1, p)
        lhs = f.evaluate([other, add((c, alpha), (1, beta))])
        rhs = (c * f.evaluate([other, alpha]) + f.evaluate([other, beta])) % p
        assert lhs == rhs


@pytest.mark.parametrize("p,r", [(2, 1), (3, 1), (3, 2)])
def test_eval_mod_p_invariance(p, r):
    # shifting any factor by p times an ideal element cannot change the value
    ctx = GroupContext(p, r)
    rng = random.Random(500 * p + r)
    for _ in range(20):
        f = random_icochain(ctx, 2, rng)
        alpha, beta = random_ideal_elem(ctx, rng), random_ideal_elem(ctx, rng)
        shifted = add((1, alpha), (p, random_ideal_elem(ctx, rng)))
        assert f.evaluate([alpha, beta]) == f.evaluate([shifted, beta])


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
    # evaluate runs over the stored entries when they are fewer than the
    # product of the supports, and over the product otherwise
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
            assert f.evaluate(factors) == evaluate_by_product(f, factors)
    assert sides == {True, False}


def test_eval_kills_high_powers_mod_p():
    from icochains import shifted_monomial

    for p, r in [(2, 1), (3, 1), (5, 1)]:
        ctx = GroupContext(p, r)
        rng = random.Random(p)
        f = random_icochain(ctx, 2, rng)
        high = shifted_monomial(ctx, (p,))
        assert f.evaluate([high, random_ideal_elem(ctx, rng)]) == 0


def test_degree_zero_coboundary_vanishes():
    ctx = GroupContext(3, 2)
    f = ICochain.constant(ctx, 2)
    assert _bar_coboundary(f).is_zero()
    assert f.coboundary().is_zero()


def test_p2_degree_one_coboundary_example():
    # d a (u, v) = a(v) - a(uv) + a(u); the exponent cochain at (s, s)
    # gives 1 - 0 + 1 = 2, which vanishes mod 2
    ctx = GroupContext(2, 1)
    a = ICochain(ctx, 1, INTEGERS, {((1,),): 1})
    da = _bar_coboundary(a)
    assert da == ICochain(ctx, 2, INTEGERS, {((1,), (1,)): 2})
    a_mod_p = from_codes(ctx, 1, MOD_P, a.values)
    assert _bar_coboundary(a_mod_p).is_zero()
    assert a.coboundary() == da and a_mod_p.coboundary().is_zero()


@pytest.mark.parametrize("p,r", DESK)
def test_coboundary_squares_to_zero(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(600 * p + r)
    checked = 0
    for n in range(4):
        for trial in range(25):
            ring = MOD_P if trial % 2 else INTEGERS
            f = random_icochain(ctx, n, rng, ring=ring, max_support=8)
            assert _bar_coboundary(_bar_coboundary(f)).is_zero()
            assert f.coboundary().coboundary().is_zero()
            checked += 1
    assert checked == 100


def assert_forms_agree(f):
    """The vectorized ideal-form coboundary equals the bar form value for
    value, and is_cocycle reads the same answer off it."""
    via_bar = _bar_coboundary(f)
    assert f.coboundary() == via_bar
    assert f.is_cocycle() == via_bar.is_zero()


@pytest.mark.parametrize("p,r", DESK)
def test_coboundaries_match_direct_formulas(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(700 * p + r)
    nonid = list(ctx.nonidentity_elements())
    for n in range(3):
        f = random_icochain(ctx, n, rng, max_support=12)
        da = _bar_coboundary(f)
        df = f.coboundary()
        for _ in range(40):
            tup = tuple(rng.choice(nonid) for _ in range(n + 1))
            assert da.values.get(tup, 0) == bar_value(f, tup)
            assert df.values.get(tup, 0) == ideal_value(f, tup)
        assert da == df  # the correspondence intertwines them
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
    assert_forms_agree(from_codes(ctx, 13, MOD_P, {key: 3}))
    assert_forms_agree(from_codes(ctx, 13, INTEGERS, {key: -(2**64)}))
    # degree 0 and the empty cochain
    for ring in (MOD_P, INTEGERS):
        assert_forms_agree(ICochain.constant(ctx, 4, ring))
        for n in range(4):
            assert_forms_agree(ICochain.zero(ctx, n, ring))


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES + [(5, 2, 2), (2, 4, 2)])
def test_slot_codes_are_basis_positions(p, r, max_n):
    """The one key numbering: the encoder, the kernel's decoder and the
    oracle's basis order agree, so the code of a key is its position."""
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        basis = cochain_basis(ctx, n)
        codes = list(range((p**r - 1) ** n))
        assert _key_codes(ctx, basis) == codes
        if n:  # the kernel decodes keys of degree n + 1 >= 2 only
            assert _decode_keys(ctx, n, np.arange(len(codes))) == list(basis)


def test_is_cocycle_misses_no_entry():
    ctx = GroupContext(5, 2)
    f = realize(AlgebraElem.monomial(ctx, (2, 1)))
    assert f.is_cocycle()
    rng = random.Random(23)
    for key in rng.sample(sorted(f.values), 5):
        values = dict(f.values)
        del values[key]
        assert not from_codes(ctx, f.degree, MOD_P, values).is_cocycle()


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
    f = from_codes(ctx, n, ring, values)
    by_kernel = f.coboundary().is_zero()
    assert f.is_cocycle() == by_kernel
    if 3 * n * entries <= big_n:
        assert not by_kernel


def check_agrees(f) -> bool:
    """is_cocycle on f's values equals what the kernel and the bar loop
    say; returns that answer."""
    f = from_codes(f.ctx, f.degree, f.ring, f.values)
    by_kernel = f.coboundary().is_zero()
    assert by_kernel == _bar_coboundary(f).is_zero()
    assert f.is_cocycle() == by_kernel
    return by_kernel


@pytest.mark.parametrize("p,r,max_n", [(2, 1, 5), (2, 2, 4), (2, 3, 3), (3, 1, 4),
                                       (3, 2, 3), (5, 1, 3), (5, 2, 2), (7, 1, 2)])
def test_is_cocycle_agrees_with_both_coboundaries(p, r, max_n):
    """Coboundaries, realize outputs and random cocycles, and each of them
    with one entry changed, over both rings."""
    ctx = GroupContext(p, r)
    rng = random.Random(1000 * p + r)
    nonid = list(ctx.nonidentity_elements())
    seen = set()
    for n in range(1, max_n + 1):
        for ring in (MOD_P, INTEGERS):
            cocycles = [random_icochain(ctx, n - 1, rng, ring=ring, max_support=6).coboundary()]
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
                    seen.add(check_agrees(from_codes(ctx, n, ring, values)))
            if r > 1 and (p**r - 1) ** n <= 600:
                for i in range(r):
                    seen.add(check_agrees(pulled_back(ctx, n, i, rng, ring)))
    assert False in seen


def pulled_back(ctx, n, i, rng, ring):
    """A random cochain that reads only the exponents other than i of its
    arguments.  Its coboundary vanishes on every tuple that starts with the
    generator s_(i+1), and in general on no other partition."""
    quotient, values = {}, {}
    vectors = [u for u in itertools.product(range(ctx.p), repeat=ctx.r) if any(u)]
    for key in itertools.product(vectors, repeat=n):
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

    f = from_codes(ctx, n - 1, ring, draw_values(n - 1, 5)).coboundary()
    values = dict(f.values)
    for key, c in draw_values(n, 2).items():
        values[key] = values.get(key, 0) + c
    check_agrees(from_codes(ctx, n, ring, values))


# (p, r, largest degree) of the certificate property below
CERTIFICATE_SHAPES = [(2, 1, 6), (2, 2, 4), (2, 3, 3), (3, 1, 5), (3, 2, 3), (5, 1, 4),
                      (5, 2, 2), (7, 1, 3)]


@settings(max_examples=250, deadline=None)
@given(st.data())
def test_is_cocycle_agrees_with_the_bar_coboundary(data):
    """The first-slot certificate, and the expansion where it fails, give
    the answer of ``_bar_coboundary``: on realize outputs, random cocycles,
    Z cochains (realize outputs read over Z, and integral coboundaries)
    and products x_i cup g with g random, each as drawn or with one entry
    changed or added."""
    p, r, max_n = data.draw(st.sampled_from(CERTIFICATE_SHAPES), label="shape")
    ctx = GroupContext(p, r)
    big_n = ctx.order - 1
    n = data.draw(st.integers(1, max_n), label="n")
    sources = ["realize", "realize over Z", "Z coboundary", "x_i cup random"]
    sources += ["random cocycle"] if big_n**n <= 600 else []
    source = data.draw(st.sampled_from(sources), label="source")
    ring = INTEGERS if source in ("realize over Z", "Z coboundary") else MOD_P
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    if source.startswith("realize"):
        sig = data.draw(st.sampled_from(list(compositions(n, r))), label="sig")
        values = dict(realize(AlgebraElem.monomial(ctx, sig)).values)
    elif source == "random cocycle":
        values = dict(random_cocycle(ctx, n, rng.randrange(10)).values)
    elif source == "Z coboundary":
        values = dict(random_icochain(ctx, n - 1, rng, INTEGERS, max_support=4)
                      .coboundary().values)
    else:
        # S_a vanishes at every generator, and df = 0 iff the random
        # factor's coboundary does, which decides it one degree lower
        i = rng.randrange(r)
        x = realize(AlgebraElem.monomial(ctx, tuple(int(j == i) for j in range(r))))
        values = dict(x.cup(random_icochain(ctx, n - 1, rng, max_support=6)).values)
    change = data.draw(st.sampled_from(["none", "change", "add"]), label="change")
    if change == "change" and values:
        key = data.draw(st.sampled_from(sorted(values)), label="key")
        values[key] += data.draw(st.integers(1, max(1, p - 1)), label="by")
    elif change == "add":
        nonid = list(ctx.nonidentity_elements())
        key = tuple(data.draw(st.sampled_from(nonid)) for _ in range(n))
        values[key] = values.get(key, 0) + data.draw(st.integers(1, max(1, p - 1)), label="by")
    f = from_codes(ctx, n, ring, values)
    assert f.is_cocycle() == _bar_coboundary(f).is_zero()


# (p, r, largest degree) of the group-certificate property below
GROUP_CERTIFICATE_SHAPES = [(2, 2, 4), (2, 3, 3), (3, 1, 5), (3, 2, 3), (5, 1, 4), (5, 2, 2),
                            (7, 1, 3)]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_group_certificate_agrees_with_the_bar_coboundary(data):
    """The slow reference for the first-slot group certificate: over F_p
    and Z, ``is_cocycle`` is ``_bar_coboundary(f).is_zero()`` on
    realize(sig) + d g, on realize of a sum of 2-3 classes, plus d g or
    not (slices with keys that f_a lacks), on degree-1 cochains (a sum
    of exponent readings, a homomorphism, or random values) and on the
    one-key chains of p = 2, r = 1 (N = 1), each as drawn, with one value
    changed or with one key added, and with its entries in a shuffled
    order."""
    source = data.draw(st.sampled_from(["realize + d g", "sum of classes", "degree 1",
                                        "N = 1 chain"]), label="source")
    ring = data.draw(st.sampled_from([MOD_P, INTEGERS]), label="ring")
    rng = random.Random(data.draw(st.integers(0, 10**6), label="seed"))
    if source == "N = 1 chain":
        ctx, n = GroupContext(2, 1), data.draw(st.integers(1, 60), label="n")
        values = {(ctx.encode((1,)),) * n: data.draw(st.integers(-3, 3).filter(bool),
                                                     label="value")}
    else:
        shapes = [s for s in GROUP_CERTIFICATE_SHAPES if source != "sum of classes" or s[1] > 1]
        p, r, max_n = data.draw(st.sampled_from(shapes), label="shape")
        ctx = GroupContext(p, r)
        nonid = list(ctx.nonidentity_elements())
        if source == "degree 1":
            n = 1
            weights = [rng.randrange(p) for _ in range(r)]
            kind = data.draw(st.sampled_from(["homomorphism", "random"]), label="kind")
            values = {(u,): (sum(map(int.__mul__, weights, ctx.decode(u))) % p
                             if kind == "homomorphism" else rng.randint(-p, p)) for u in nonid}
        else:
            n = data.draw(st.integers(1, max_n), label="n")
            sigs = list(compositions(n, r))
            if source == "sum of classes":
                terms = data.draw(st.dictionaries(st.sampled_from(sigs), st.integers(1, p - 1),
                                                  min_size=2, max_size=3), label="terms")
                plus_d_g = data.draw(st.booleans(), label="plus d g")
            else:
                terms, plus_d_g = {data.draw(st.sampled_from(sigs), label="sig"): 1}, True
            values = dict(realize(AlgebraElem(ctx, terms)).values)
            if plus_d_g:
                g = random_icochain(ctx, n - 1, rng, ring, max_support=4)
                for key, c in _bar_coboundary(g).values.items():
                    values[key] = values.get(key, 0) + c
        change = data.draw(st.sampled_from(["none", "change", "add"]), label="change")
        if change == "change" and values:
            key = data.draw(st.sampled_from(sorted(values)), label="key")
            values[key] += data.draw(st.integers(1, p - 1), label="by")
        elif change == "add":
            key = tuple(data.draw(st.sampled_from(nonid), label="slot") for _ in range(n))
            values[key] = values.get(key, 0) + data.draw(st.integers(1, p - 1), label="by")
    items = list(values.items())
    rng.shuffle(items)
    f = from_codes(ctx, n, ring, dict(items))
    assert f.is_cocycle() == _bar_coboundary(f).is_zero()


@pytest.mark.parametrize("p,r,sig", [(2, 2, (2, 2)), (2, 3, (2, 2, 2)), (2, 3, (1, 3, 2)),
                                     (3, 2, (1, 1)), (3, 3, (1, 1, 1)), (5, 2, (1, 1))])
def test_group_certificate_decides_products_of_xs_without_expansion(p, r, sig, monkeypatch):
    # at p = 2 every class, and at p > 2 a product of x_i's, passes the
    # comparison at every generator of every level, f_a = 0 or not, so no
    # partition is expanded term by term (the expansion reads key numbers)
    f = realize(AlgebraElem.monomial(GroupContext(p, r), sig))

    def refuse(*args):
        raise AssertionError("a partition was expanded")

    monkeypatch.setattr(cocycle, "_key_codes", refuse)
    assert f.is_cocycle()


@pytest.mark.parametrize("p,r", [(2, 2), (2, 3), (3, 1), (3, 2), (5, 1)])
def test_is_cocycle_on_products_whose_first_factor_is_an_x(p, r):
    """x_i cup g passes the first-slot certificate at s_i, so its answer
    there is that of d g, one degree lower: with g a cocycle or a random
    cochain, as it is or with one entry added, at a random key or at a
    key (u, y) with u != s_i and y no key of the slice at s_i."""
    ctx = GroupContext(p, r)
    rng = random.Random(100 * p + r)
    nonid = list(ctx.nonidentity_elements())
    seen = set()
    for i in range(r):
        s_i = ctx.generator(i + 1)
        x = realize(AlgebraElem.monomial(ctx, tuple(int(j == i) for j in range(r))))
        for n in (2, 3):
            cocycle = realize(AlgebraElem.monomial(ctx, (n - 1,) + (0,) * (r - 1)))
            for g in (cocycle, random_icochain(ctx, n - 1, rng, max_support=6)):
                f = x.cup(g)
                rests = {key[1:] for key in f.values if key[0] == s_i}
                off = [y for y in itertools.product(nonid, repeat=n - 1) if y not in rests]
                extras = [None, tuple(rng.choice(nonid) for _ in range(n))]
                extras += [(rng.choice([u for u in nonid if u != s_i]),) + off[0]] if off else []
                for extra in extras:
                    values = dict(f.values)
                    if extra:
                        values[extra] = values.get(extra, 0) + 1
                    h = from_codes(ctx, n, MOD_P, values)
                    assert h.is_cocycle() == _bar_coboundary(h).is_zero()
                    seen.add(h.is_cocycle())
    assert seen == {True, False}


def test_is_cocycle_of_a_long_one_entry_chain():
    # at p = 2, r = 1 (N = 1) a slice would pass the certificate at every
    # level and save no term, so the check expands the one partition
    f = realize(AlgebraElem.monomial(GroupContext(2, 1), (5000,)))
    assert f.is_cocycle() and _bar_coboundary(f).is_zero()
    g = ICochain(GroupContext(2, 1), 5001, INTEGERS, {((1,),) * 5001: 1})
    assert g.is_cocycle() == _bar_coboundary(g).is_zero()


def test_is_cocycle_refuses_an_over_budget_check():
    # past the sparse lemma the check charges its running total: r (E + N)
    # for a node's comparisons, then 2E + |f_a| ((n-1)(N-1) + N) for the
    # partition it expands.  1400 degree-1 entries at N = 4098 (f_a one
    # entry) cost 1400 + 4098 + 2 * 1400 + 4098, within the budget
    big_n = 4098
    ctx = GroupContext(4099, 1)
    f = ICochain(ctx, 1, MOD_P, {((u,),): 1 for u in range(1, 1401)})
    assert not f.is_cocycle()
    # 2100 degree-2 keys (s, s^u): f_a is every entry, and its expansion is refused
    entries = 2100
    g = ICochain(ctx, 2, MOD_P, {((1,), (u,)): 1 for u in range(1, entries + 1)})
    with pytest.raises(BudgetExceededError) as info:
        g.is_cocycle()
    required = (big_n + entries) + 2 * entries + entries * ((big_n - 1) + big_n)
    assert info.value.required == required == 17219898


def test_is_cocycle_charges_each_step_before_it_runs(monkeypatch):
    # at p = 5, r = 1 (N = 4): r (E + N) before a node's comparisons, and
    # 2E + |f_a| ((n-1)(N-1) + N) before a partition is expanded
    totals = []
    monkeypatch.setattr(cocycle, "check_budget", lambda size: totals.append(size) or size)
    ctx = GroupContext(5, 1)
    # f(u, v) = u g(v), g = 1 everywhere: the comparisons certify the partition
    # at s, and its slice g (4 entries, not additive) is compared, then expanded
    f = ICochain._trusted(ctx, 2, MOD_P, {(u, v): u for u in range(1, 5) for v in range(1, 5)})
    assert not f.is_cocycle()
    assert totals == [16 + 4, 20 + (4 + 4), 28 + 2 * 4 + 1 * 4]
    # the keys (s, v) all lie in the partition at s, which is expanded at degree 2
    totals.clear()
    h = ICochain._trusted(ctx, 2, MOD_P, {(1, v): 1 for v in range(1, 5)})
    assert not h.is_cocycle()
    assert totals == [4 + 4, 8 + 2 * 4 + 4 * ((2 - 1) * (4 - 1) + 4)]


def test_is_cocycle_decides_a_class_whose_every_partition_expanded_is_over_the_budget():
    # E (nN + 2r - n + 1) = 262144 * 93 = 24 379 392 terms, were every
    # partition expanded; the comparisons certify most of them instead
    f = realize(AlgebraElem.monomial(GroupContext(2, 4), (2, 2, 2, 0)))
    assert len(f.values) * (6 * 15 + 2 * 4 - 6 + 1) == 24379392
    assert f.is_cocycle()


@pytest.mark.parametrize("p,r,n,entries,expanded", [
    (13, 1, 1, 4, False), (7, 1, 2, 1, False), (2, 2, 1, 1, False),
    (3, 2, 1, 3, True), (2, 2, 1, 2, True),
])
def test_the_sparse_lemma_answers_exactly_while_3nE_is_at_most_N(
        p, r, n, entries, expanded, monkeypatch):
    # 3nE = N is answered False at once; at 3nE = N + 1 = p^r (p = 3 only)
    # and past it the bar formula decides, here once on a cocycle
    calls = []
    vanishes = cocycle._bar_coboundary_vanishes
    monkeypatch.setattr(cocycle, "_bar_coboundary_vanishes",
                        lambda *args: calls.append(args) or vanishes(*args))
    ctx = GroupContext(p, r)
    f = ICochain._trusted(ctx, n, MOD_P, {(u,) * n: 1 for u in range(1, entries + 1)})
    assert f.is_cocycle() == _bar_coboundary(f).is_zero()
    assert bool(calls) == expanded


@pytest.mark.parametrize("p,r", DESK)
def test_normalized_is_cocycle_matches_bar_coboundary(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(900 * p + r)
    seen = set()
    for n in range(4):
        cocycles = [random_cocycle(ctx, min(n, 2), seed=n)]
        if n:
            cocycles.append(realize(AlgebraElem.monomial(ctx, (n,) + (0,) * (r - 1))))
        for a in cocycles + [random_icochain(ctx, n, rng, max_support=30)]:
            for b in (a, from_codes(ctx, a.degree, MOD_P, dict(list(a.values.items())[1:]))):
                assert b.is_cocycle() == _bar_coboundary(b).is_zero()
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
            assert fg.values.get((u, v), 0) == (-f.values.get((u,), 0) * g.values.get((v,), 0)) % 3


def test_cup_p2_no_signs():
    ctx = GroupContext(2, 2)
    rng = random.Random(10)
    f, g = random_icochain(ctx, 1, rng), random_icochain(ctx, 1, rng)
    fg = f.cup(g)
    for u in ctx.nonidentity_elements():
        for v in ctx.nonidentity_elements():
            assert fg.values.get((u, v), 0) == f.values.get((u,), 0) * g.values.get((v,), 0) % 2


def test_cup_even_degrees_plain_product():
    ctx = GroupContext(3, 1)
    f = random_cocycle(ctx, 2, seed=1)
    g = random_cocycle(ctx, 2, seed=2)
    fg = f.cup(g)
    nonid = list(ctx.nonidentity_elements())
    rng = random.Random(11)
    for _ in range(20):
        tup = tuple(rng.choice(nonid) for _ in range(4))
        assert fg.values.get(tup, 0) == f.values.get(tup[:2], 0) * g.values.get(tup[2:], 0) % 3


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


def reference_cup_many(factors):
    """The product definition of ``cup_many``: each combination of one
    entry per factor, in factor order, contributes the concatenation of
    their keys with the product of the front sign and their values."""
    ctx = factors[0].ctx
    l = sum(1 for f in factors if f.degree % 2)
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    values = {}
    for combo in itertools.product(*(f.values.items() for f in factors)):
        c = sign
        for _, v in combo:
            c = c * v % ctx.p
        if c:
            values[tuple(itertools.chain.from_iterable(k for k, _ in combo))] = c
    return from_codes(ctx, sum(f.degree for f in factors), MOD_P, values)


@st.composite
def cup_factors(draw):
    """One to four small mod-p cochains of degrees 0-3 on one group; a
    factor may be empty."""
    p, r = draw(st.sampled_from([(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]))
    ctx = GroupContext(p, r)
    elements = list(ctx.nonidentity_elements())
    factors = []
    for degree in draw(st.lists(st.integers(0, 3), min_size=1, max_size=4)):
        keys = draw(st.lists(st.tuples(*[st.sampled_from(elements)] * degree),
                             max_size=1 if degree == 0 else 5, unique=True))
        factors.append(from_codes(ctx, degree, MOD_P,
                                  {key: draw(st.integers(1, p - 1)) for key in keys}))
    return factors


@given(cup_factors())
@settings(max_examples=200, deadline=None)
def test_cup_many_fold_matches_product_definition(factors):
    result = cup_many(factors)
    assert result == reference_cup_many(factors)
    assert list(result.values) == sorted(result.values)


def test_cup_many_matches_product_definition_on_long_chains():
    # chains of up to 257 factors, at most three of them with several entries
    rng = random.Random(29)
    for p, r in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        ctx = GroupContext(p, r)
        elements = list(ctx.nonidentity_elements())
        for length in (1, 2, 3, 5, 8, 17, 64, 257):
            wide = set(rng.sample(range(length), min(length, 3)))
            factors = []
            for j in range(length):
                degree = rng.randint(0, 3)
                size = rng.randint(2, 3) if j in wide and degree else 1
                keys = {tuple(rng.choice(elements) for _ in range(degree)) for _ in range(size)}
                factors.append(from_codes(ctx, degree, MOD_P,
                                          {k: rng.randrange(1, p) for k in keys}))
            result = cup_many(factors)
            assert result == reference_cup_many(factors)
            assert list(result.values) == sorted(result.values)


def test_cup_many_of_a_long_one_entry_chain():
    # the degree-200 001 class at p = 2, r = 1 is one key; the pairwise
    # merges copy each slot about log2(m) times, not once per factor after it
    ctx = GroupContext(2, 1)
    s = ((1,),)
    f, h = ICochain(ctx, 1, MOD_P, {s: 1}), ICochain(ctx, 2, MOD_P, {s * 2: 1})
    m = 100000
    result = cup_many([f] + [h] * m)
    assert result.degree == 2 * m + 1
    assert result == ICochain(ctx, 2 * m + 1, MOD_P, {s * (2 * m + 1): 1})


def test_cup_many_of_a_repeated_factor():
    # cup_many sorts each distinct factor object once, and realize repeats
    # its generators; with two or three degree-1 factors the front sign is
    # odd, and negating the first list must leave the shared one alone
    ctx = GroupContext(3, 1)
    f = ICochain(ctx, 1, MOD_P, {((1,),): 1, ((2,),): 2})
    g = ICochain(ctx, 2, MOD_P, {((1,), (2,)): 1})
    before = dict(f.values)
    for factors in ([f, f, f], [f, f], [f, g, f]):
        copies = [from_codes(ctx, h.degree, MOD_P, dict(h.values)) for h in factors]
        assert cup_many(factors) == cup_many(copies) == reference_cup_many(copies)
    assert f.values == before


def test_cup_degree_zero_factor_scales():
    ctx = GroupContext(3, 1)
    rng = random.Random(14)
    f = random_icochain(ctx, 2, rng)
    two = ICochain.constant(ctx, 2)
    assert two.cup(f) == f.scale(2)
    assert f.cup(two) == f.scale(2)

