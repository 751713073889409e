"""The target algebra, shuffles, and both directions of the isomorphism."""

import math
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from icochains import (
    AlgebraElem,
    GroupContext,
    ICochain,
    INTEGERS,
    MOD_P,
    NormalizedCochain,
    Tensor,
    bockstein_cocycle,
    compositions,
    count_terms,
    count_terms_closed_form,
    cup_many,
    exponent_cocycle,
    generator_power_cocycle,
    graded_dimension,
    invert,
    invert_normalized_counted,
    monomial_mul,
    perm_sign,
    probe_tensor,
    random_cocycle,
    realize,
    shuffle_count,
    shuffles,
)
from icochains.algebra import _invert_direct_p2, _invert_entry_sum
from icochains.generators import _power_support
from conftest import DESK, random_icochain


def invert_via_shuffles(f) -> AlgebraElem:
    """The shuffle form of the inverse map, the slow reference for
    ``invert`` at every p: the coefficient of a signature (n_1, ..., n_r)
    is (-1)^(l(l-1)/2) (l the number of odd n_i) times the sum over block
    shuffles sigma of sgn(sigma) times f on the probe tensors' factors,
    scattered by sigma.  Either cochain kind is read as an ICochain."""
    ctx, n = f.ctx, f.degree
    f = ICochain(ctx, n, f.ring, f.values)
    terms = {}
    for comp in compositions(n, ctx.r):
        factors = [a for i, m in enumerate(comp, start=1)
                   for a in probe_tensor(ctx, i, m).factors]
        total = 0
        for sigma in shuffles(comp):
            permuted = [None] * n
            for j, a in enumerate(factors):
                permuted[sigma[j]] = a
            total += perm_sign(sigma) * f.evaluate(Tensor(ctx, permuted))
        odd = sum(m % 2 for m in comp)
        terms[comp] = (-1) ** (odd * (odd - 1) // 2) * total
    return AlgebraElem(ctx, terms)


def test_monomial_mul_examples():
    # odd times odd in the same variable vanishes for odd p
    assert monomial_mul((1,), (1,), 3)[0] == 0
    # moving an odd factor past a later odd factor flips the sign
    sign, sig = monomial_mul((0, 1), (1, 0), 5)
    assert (sign, sig) == (-1, (1, 1))
    sign, sig = monomial_mul((1, 0), (0, 1), 5)
    assert (sign, sig) == (1, (1, 1))
    # p = 2 is a plain polynomial ring
    assert monomial_mul((1,), (1,), 2) == (1, (2,))


def test_monomial_mul_even_parts_commute():
    assert monomial_mul((2,), (1,), 5) == (1, (3,))
    assert monomial_mul((1,), (2,), 5) == (1, (3,))


@pytest.mark.parametrize("p", [2, 3, 5])
def test_algebra_mul_associative_and_graded_commutative(p):
    ctx = GroupContext(p, 3)
    rng = random.Random(p)
    for _ in range(40):
        a, b, c = (AlgebraElem.monomial(ctx, tuple(rng.randrange(4) for _ in range(3)))
                   for _ in range(3))
        assert (a * b) * c == a * (b * c)
        da = sum(next(iter(a.terms)))
        db = sum(next(iter(b.terms)))
        flipped = (a * b).scale(-1 if (da * db) % 2 else 1)
        assert b * a == flipped


def test_algebra_str():
    ctx = GroupContext(5, 2)
    e = AlgebraElem(ctx, {(3, 2): 2, (0, 0): 1})
    assert str(e) == "1 + 2*x1*y1*y2"
    ctx2 = GroupContext(2, 2)
    assert str(AlgebraElem(ctx2, {(2, 1): 1})) == "x1^2*x2"
    assert str(AlgebraElem.zero(ctx2)) == "0"


def test_shuffles_small():
    assert sorted(shuffles((1, 1))) == [(0, 1), (1, 0)]
    assert len(list(shuffles((2, 1)))) == 3
    assert list(shuffles((3,))) == [(0, 1, 2)]
    assert list(shuffles((0, 2))) == [(0, 1)]
    assert perm_sign((1, 0, 2)) == -1
    assert perm_sign((1, 2, 0)) == 1


@pytest.mark.parametrize("sizes", [(2, 2), (1, 3), (2, 1, 2), (0, 2, 1), (1, 1, 1, 1)])
def test_shuffles_are_block_increasing_and_counted(sizes):
    seen = set()
    for perm in shuffles(sizes):
        assert sorted(perm) == list(range(sum(sizes)))
        start = 0
        for b in sizes:
            block = perm[start:start + b]
            assert list(block) == sorted(block)
            start += b
        seen.add(perm)
    assert len(seen) == shuffle_count(sizes)
    total = sum(sizes)
    denominator = math.prod(math.factorial(b) for b in sizes)
    assert shuffle_count(sizes) == math.factorial(total) // denominator


def test_compositions_count():
    for n in range(6):
        for r in (1, 2, 3):
            comps = list(compositions(n, r))
            assert len(comps) == math.comb(n + r - 1, r - 1)
            assert all(sum(c) == n and len(c) == r for c in comps)
            assert len(set(comps)) == len(comps)


def test_realize_unit_and_examples():
    ctx = GroupContext(3, 1)
    assert realize(AlgebraElem.unit(ctx)) == ICochain.constant(ctx, 1)
    # the degree-2 power of the single variable is the Bockstein generator
    assert realize(AlgebraElem.monomial(ctx, (2,))) == bockstein_cocycle(ctx, 1)


def test_realize_rejects_mixed_degrees():
    ctx = GroupContext(3, 1)
    e = AlgebraElem(ctx, {(1,): 1, (2,): 1})
    with pytest.raises(ValueError):
        realize(e)


@pytest.mark.parametrize("p,r", DESK)
def test_realize_produces_cocycles(p, r):
    ctx = GroupContext(p, r)
    for n in range(5):
        for sig in compositions(n, r):
            assert realize(AlgebraElem.monomial(ctx, sig)).is_cocycle()


def test_invert_examples():
    ctx = GroupContext(2, 2)
    m = AlgebraElem.monomial(ctx, (1, 1))
    assert invert(realize(m)) == m
    ctx31 = GroupContext(3, 1)
    assert invert(bockstein_cocycle(ctx31, 1)) == AlgebraElem.monomial(ctx31, (2,))


def test_invert_requires_mod_p():
    ctx = GroupContext(3, 1)
    f = ICochain(ctx, 1, INTEGERS, {((1,),): 1})
    with pytest.raises(ValueError):
        invert(f)


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_invert_kills_coboundaries_random(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(900 * p + r)
    for n in range(1, 4):
        for _ in range(8):
            g = random_icochain(ctx, n - 1, rng)
            assert invert(g.coboundary()).is_zero()


def test_invert_is_linear_and_class_invariant():
    ctx = GroupContext(3, 2)
    rng = random.Random(17)
    for n in range(1, 4):
        f = random_cocycle(ctx, n, seed=n)
        g = random_icochain(ctx, n - 1, rng)
        assert invert(f + g.coboundary()) == invert(f)
        assert invert(f.scale(2)) == invert(f).scale(2)


def test_shuffle_form_matches_direct_form_p2():
    for r in (1, 2, 3):
        ctx = GroupContext(2, r)
        for n in range(4):
            for seed in range(5):
                f = random_cocycle(ctx, n, seed=seed)
                assert invert_via_shuffles(f) == invert(f)


def test_p2_cup_powers_of_degree_one_generator():
    # at p = 2 the degree-m power cocycle is literally the m-fold cup of
    # the degree-1 generator: the carry cocycle is the product of exponents
    for r in (1, 2):
        ctx = GroupContext(2, r)
        for i in range(1, r + 1):
            fi = exponent_cocycle(ctx, i)
            for m in range(1, 5):
                assert generator_power_cocycle(ctx, i, m) == cup_many([fi] * m)


# The contexts, with their top degrees, where invert is checked against the
# shuffle form on cocycles of both kinds.
AGREE_MAX_DEGREE = {(2, 2): 3, (3, 1): 3, (3, 2): 4, (5, 1): 3, (5, 2): 3, (3, 3): 3,
                    (7, 1): 5}


@pytest.mark.parametrize("p,r", list(AGREE_MAX_DEGREE))
def test_invert_normalized_agrees(p, r):
    # a realized class, alone and plus the coboundary of a random cochain,
    # has E >= count_terms, so invert runs the formula; the shuffle form and
    # invert recover the class
    ctx = GroupContext(p, r)
    rng = random.Random(100 * p + r)
    for n in range(AGREE_MAX_DEGREE[p, r] + 1):
        sigs = list(compositions(n, r))
        for _ in range(2):
            e = AlgebraElem(ctx, {sig: rng.randrange(1, p)
                                  for sig in rng.sample(sigs, min(2, len(sigs)))})
            cocycles = [realize(e)]
            if n:
                g = random_icochain(ctx, n - 1, rng, max_support=20)
                cocycles.append(cocycles[0] + g.coboundary())
            for f in cocycles:
                assert len(f.values) >= count_terms(ctx, n)
                assert invert_via_shuffles(f) == e
                assert invert(f) == e


@pytest.mark.parametrize("p,r", DESK)
def test_evaluation_counter_matches_count_terms(p, r):
    ctx = GroupContext(p, r)
    rng = random.Random(1000 * p + r)
    for n in range(5):
        _, evaluations = invert_normalized_counted(random_icochain(ctx, n, rng))
        assert evaluations == count_terms(ctx, n)


ENTRY_SUM_CONTEXTS = [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)]


@st.composite
def sparse_cochains(draw):
    """A mod-p ICochain of degree 0-5 with up to 12 entries whose slots are
    mostly generator powers (often s_i itself), the rest any element."""
    p, r = draw(st.sampled_from(ENTRY_SUM_CONTEXTS))
    n = draw(st.integers(0, 5))
    power = st.builds(lambda g, e: tuple(e if j == g else 0 for j in range(r)),
                      st.integers(0, r - 1), st.one_of(st.just(1), st.integers(1, p - 1)))
    other = st.lists(st.integers(0, p - 1), min_size=r, max_size=r).filter(any).map(tuple)
    slot = st.one_of(power, power, power, other)
    keys = draw(st.lists(st.tuples(*[slot] * n), max_size=12, unique=True))
    values = {key: draw(st.integers(1, p - 1)) for key in keys}
    return ICochain(GroupContext(p, r), n, MOD_P, values)


@settings(max_examples=300, deadline=None)
@given(sparse_cochains())
def test_entry_sum_matches_the_formula_paths(f):
    expected = _invert_entry_sum(f)
    assert invert_via_shuffles(f) == expected
    assert invert_normalized_counted(f)[0] == expected
    if f.ctx.p == 2:
        assert _invert_direct_p2(f)[0] == expected
    assert invert(f) == expected


@pytest.mark.parametrize("p", [503, 1009])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_entry_sum_on_large_p_documents(p, n):
    # 200-entry r = 1 cochains, 20 of them on the probe's support (s^q at the
    # split slot, s elsewhere), as the benchmark's invert-largep documents
    ctx = GroupContext(p, 1)
    rng = random.Random(p * 10 + n)
    split = 1 if n % 2 else 0
    keys = {tuple((q,) if j == split else (1,) for j in range(n))
            for q in rng.sample(range(1, p), 20)} if n > 1 else {((1,),)}
    while len(keys) < 200:
        keys.add(tuple((rng.randrange(1, p),) for _ in range(n)))
    a = NormalizedCochain(ctx, n, MOD_P, {k: rng.randrange(1, p) for k in keys})
    expected = invert_normalized_counted(a)[0]
    assert not expected.is_zero()
    assert invert_via_shuffles(a) == expected
    assert invert(a) == expected


def test_invert_sparse_cochain_at_large_p():
    # the probe's (s-1)^(p-1) factors have p-1 terms each; a degree-4
    # signature (2,2) pairs two of them, (p-1)^2 ~ 10^8 products
    ctx = GroupContext(10007, 2)
    start = time.perf_counter()
    assert invert(ICochain.zero(ctx, 4)).is_zero()
    assert time.perf_counter() - start < 2.0


def test_formula_path_at_large_p():
    # E = p - 1 = count_terms: invert runs the formula, one probe tuple
    # ((q), (1)) per split q, each a stored key of value 1
    p = 10007
    ctx = GroupContext(p, 1)
    f = ICochain(ctx, 2, MOD_P, {((q,), (1,)): 1 for q in range(1, p)})
    assert len(f.values) == count_terms(ctx, 2)
    start = time.perf_counter()
    assert invert(f).terms == {(2,): p - 1}
    assert time.perf_counter() - start < 2.0


def test_invert_beyond_sys_maxsize():
    # count_terms is p - 1 > sys.maxsize; invert sums the stored entries
    p = 2**64 + 13
    ctx = GroupContext(p, 1)
    f = ICochain(ctx, 2, MOD_P, {((p - 2,), (1,)): 5, ((3,), (2,)): 7})
    assert invert(f) == AlgebraElem.monomial(ctx, (2,), 5)
    g = ICochain(ctx, 3, MOD_P, {((1,), (p - 1,), (1,)): 4})
    assert invert(g) == AlgebraElem.monomial(ctx, (3,), 4)


@pytest.mark.parametrize("p,r", [(2, 2), (3, 2), (2, 3), (5, 1)])
def test_realize_is_the_nested_cup_of_generator_powers(p, r):
    # realize cups every generator factor in one flat cup_many; the nested
    # cup of the variables' generator powers is the definition
    ctx = GroupContext(p, r)
    for n in range(5):
        for sig in compositions(n, r):
            nested = cup_many([generator_power_cocycle(ctx, i, m)
                               for i, m in enumerate(sig, start=1)])
            for c in {1, p - 1}:
                f = realize(AlgebraElem.monomial(ctx, sig, c))
                assert f == nested.scale(c), (sig, c)
                assert list(f.values) == sorted(f.values), (sig, c)


@pytest.mark.parametrize("p,r", [(2, 3), (3, 2), (5, 2)])
def test_realize_output_is_canonical(p, r):
    # the constructor re-validates and reduces, so equality shows that the
    # unchecked output of realize/cup_many is already canonical
    ctx = GroupContext(p, r)
    rng = random.Random(p * 10 + r)
    for degree in (1, 2, 3):
        sigs = list(compositions(degree, r))
        for _ in range(3):
            chosen = rng.sample(sigs, min(len(sigs), rng.randint(2, 3)))
            e = AlgebraElem(ctx, {sig: rng.randrange(1, p) for sig in chosen})
            f = realize(e)
            assert f.degree == degree and len(e.terms) > 1
            assert f == ICochain(ctx, degree, MOD_P, f.values)
    f = realize(AlgebraElem.monomial(ctx, (1,) + (0,) * (r - 1)))
    g = cup_many([f, f.scale(-1)])
    assert g == ICochain(ctx, 2, MOD_P, g.values)


@pytest.mark.parametrize("p,r", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                 (5, 1), (5, 2), (7, 1)])
def test_power_support_predicts_realize(p, r):
    # realize refuses on this prediction before building any factor
    ctx = GroupContext(p, r)
    for degree in range(5):
        for sig in compositions(degree, r):
            predicted = math.prod(_power_support(ctx, m) for m in sig)
            assert predicted == len(realize(AlgebraElem.monomial(ctx, sig)).values), sig


def test_count_terms_spot_values():
    assert count_terms(GroupContext(3, 1), 2) == 2
    assert count_terms(GroupContext(3, 2), 2) == 6
    assert count_terms(GroupContext(2, 2), 3) == 8
    # p = 2 collapses to r^n
    for r in (1, 2, 3):
        ctx = GroupContext(2, r)
        for n in range(6):
            assert count_terms(ctx, n) == r**n
    assert count_terms(GroupContext(3, 1), 0) == 1


def test_count_terms_matches_the_enumeration():
    # the signatures' terms, summed one composition at a time
    for p in (2, 3, 5, 7):
        for r in range(1, 5):
            ctx = GroupContext(p, r)
            for n in range(8):
                enumerated = sum(shuffle_count(comp) * (p - 1) ** sum(m // 2 for m in comp)
                                 for comp in compositions(n, r))
                assert count_terms(ctx, n) == enumerated, (p, r, n)


@pytest.mark.parametrize("p,r", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (5, 2), (7, 1)])
def test_count_terms_closed_form(p, r):
    ctx = GroupContext(p, r)
    for n in range(9):
        exact = count_terms(ctx, n)
        closed = count_terms_closed_form(ctx, n)
        assert abs(closed - exact) <= 1e-9 * max(1, abs(exact))


def test_graded_dimension_tables():
    assert [graded_dimension(GroupContext(2, 2), n) for n in range(5)] == [1, 2, 3, 4, 5]
    assert [graded_dimension(GroupContext(2, 3), n) for n in range(4)] == [1, 3, 6, 10]
    assert [graded_dimension(GroupContext(3, 2), n) for n in range(4)] == [1, 2, 3, 4]
    assert [graded_dimension(GroupContext(5, 1), n) for n in range(5)] == [1, 1, 1, 1, 1]
    # the parity-split count agrees with the plain composition count
    for p in (3, 5):
        for r in (1, 2, 3):
            ctx = GroupContext(p, r)
            for n in range(7):
                assert graded_dimension(ctx, n) == math.comb(n + r - 1, r - 1)
