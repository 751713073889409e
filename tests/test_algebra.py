"""The target algebra and both directions of the isomorphism."""

import itertools
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
    bockstein_cocycle,
    compositions,
    count_terms,
    count_terms_closed_form,
    cup_many,
    exponent_cocycle,
    graded_dimension,
    invert,
    invert_normalized_counted,
    monomial_mul,
    probe_tensor,
    realize,
)
from icochains import inverse
from icochains.generators import _power_support
from conftest import (
    DESK,
    algebra_combination,
    from_codes,
    power_cocycle,
    random_cocycle,
    random_icochain,
)


def shuffles(block_sizes):
    """All permutations increasing on each consecutive block.

    Permutations are 0-based tuples with perm[j] the image of position j,
    generated by choosing image sets block by block.
    """
    def rec(avail, sizes):
        if not sizes:
            yield ()
            return
        for chosen in itertools.combinations(avail, sizes[0]):
            remaining = tuple(x for x in avail if x not in chosen)
            for tail in rec(remaining, sizes[1:]):
                yield chosen + tail

    return rec(tuple(range(sum(block_sizes))), tuple(block_sizes))


def perm_sign(perm) -> int:
    """The sign of a 0-based permutation, by counting inversions."""
    inversions = sum(1 for i, j in itertools.combinations(range(len(perm)), 2)
                     if perm[i] > perm[j])
    return -1 if inversions % 2 else 1


def multinomial(block_sizes) -> int:
    """The number of shuffles of blocks of these sizes."""
    return math.factorial(sum(block_sizes)) // math.prod(map(math.factorial, block_sizes))


def invert_via_shuffles(f) -> AlgebraElem:
    """The shuffle form of the inverse map, the slow reference for
    ``invert`` at every p: the coefficient of a signature (n_1, ..., n_r)
    is (-1)^(l(l-1)/2) (l the number of odd n_i) times the sum over block
    shuffles sigma of sgn(sigma) times f on the probe tensors' factors,
    scattered by sigma.  Either cochain kind is read as an ICochain."""
    ctx, n = f.ctx, f.degree
    f = from_codes(ctx, n, f.ring, f.values)
    terms = {}
    for comp in compositions(n, ctx.r):
        factors = [a for i, m in enumerate(comp, start=1)
                   for a in probe_tensor(ctx, i, m)]
        total = 0
        for sigma in shuffles(comp):
            permuted = [None] * n
            for j, a in enumerate(factors):
                permuted[sigma[j]] = a
            total += perm_sign(sigma) * f.evaluate(permuted)
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
        flipped = algebra_combination(ctx, (-1 if (da * db) % 2 else 1, a * b))
        assert b * a == flipped


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
    assert len(seen) == multinomial(sizes)


def test_compositions_count():
    for n in range(6):
        for r in (1, 2, 3):
            comps = list(compositions(n, r))
            assert len(comps) == math.comb(n + r - 1, r - 1)
            assert all(sum(c) == n and len(c) == r for c in comps)
            assert len(set(comps)) == len(comps)


def recursive_compositions(n, parts):
    """The first part, then every composition of the rest: the order the
    iterative compositions must keep."""
    if parts == 1:
        return [(n,)]
    return [(first,) + rest for first in range(n + 1)
            for rest in recursive_compositions(n - first, parts - 1)]


def test_compositions_order_and_many_parts():
    for n in range(8):
        for parts in range(1, 6):
            assert list(compositions(n, parts)) == recursive_compositions(n, parts)
    # one frame per part would pass the recursion limit
    comps = list(compositions(1, 1200))
    assert len(comps) == 1200
    assert comps[0] == (0,) * 1199 + (1,) and comps[-1] == (1,) + (0,) * 1199


@pytest.mark.parametrize("build", [
    lambda ctx: ICochain(ctx, 1, MOD_P, {((1,),): 1.5}),
    lambda ctx: ICochain(ctx, 1, INTEGERS, {((1,),): 2.0}),
    lambda ctx: AlgebraElem(ctx, {(1,): 1.5}),
], ids=["icochain-fp", "icochain-z", "algebra-elem"])
def test_constructors_refuse_non_integer_coefficients(build):
    with pytest.raises(ValueError, match="coefficients must be integers"):
        build(GroupContext(3, 1))


def test_realize_unit_and_examples():
    ctx = GroupContext(3, 1)
    assert realize(AlgebraElem.monomial(ctx, (0,))) == ICochain.constant(ctx, 1)
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
        assert invert(f.scale(2)) == algebra_combination(ctx, (2, invert(f)))


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
                assert power_cocycle(ctx, i, m) == cup_many([fi] * m)


# The contexts, with their top degrees, where invert is checked against the
# shuffle form on cocycles of both kinds.
AGREE_MAX_DEGREE = {(2, 2): 3, (3, 1): 3, (3, 2): 4, (5, 1): 3, (5, 2): 3, (3, 3): 3,
                    (7, 1): 5}


@pytest.mark.parametrize("p,r", list(AGREE_MAX_DEGREE))
def test_invert_normalized_agrees(p, r):
    # a realized class, alone and plus the coboundary of a random cochain,
    # has at least as many entries as the formula has terms; the shuffle
    # form and invert, which sums the entries, recover the class
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


def word_cochain(ctx, n, rng, size=100):
    """A mod-p cochain of up to ``size`` entries whose slots are mostly
    generator powers, often s_i itself, and a key on a term of the formula:
    a random generator word with s_i on every slot that an even number of
    later slots share, and a random power on the others."""
    def slot():
        if rng.random() < 0.1:
            return ctx.encode(tuple(rng.randrange(ctx.p) for _ in range(ctx.r - 1)) + (1,))
        e = 1 if rng.random() < 0.6 else rng.randrange(1, ctx.p)
        return ctx.generator_power(rng.randrange(1, ctx.r + 1), e)

    keys = {tuple(slot() for _ in range(n)) for _ in range(size)}
    later = [0] * ctx.r
    probe = []
    for g in reversed([rng.randrange(ctx.r) for _ in range(n)]):
        probe.append(ctx.generator_power(g + 1, rng.randrange(1, ctx.p) if later[g] % 2 else 1))
        later[g] += 1
    probe = tuple(reversed(probe))
    return from_codes(ctx, n, MOD_P, {key: rng.randrange(1, ctx.p) for key in keys}), probe


# Every (p, r, n) with p in {2, 3, 5, 7}, r <= 3 and at most 2 000 formula
# terms, up to degree 10 (at p = 2, r = 1 every degree has one term).
FORMULA_CASES = [(p, r, n) for p in (2, 3, 5, 7) for r in (1, 2, 3) for n in range(11)
                 if count_terms(GroupContext(p, r), n) <= 2000]


@pytest.mark.parametrize("p,r,n", FORMULA_CASES)
def test_formula_matches_the_shuffle_form_and_the_entry_sum(p, r, n):
    ctx = GroupContext(p, r)
    f, probe = word_cochain(ctx, n, random.Random(f"{p}-{r}-{n}"))
    # the one key on a term gives one signature, with coefficient +-1
    for g in (f, from_codes(ctx, n, MOD_P, {probe: 1})):
        formula, evaluations = invert_normalized_counted(g)
        assert evaluations == count_terms(ctx, n)
        assert formula == invert_via_shuffles(g)
        assert formula == invert(g)
    assert len(formula.terms) == 1 and set(formula.terms.values()) <= {1, p - 1}


def test_formula_at_degree_20000():
    # at p = 2, r = 1 the formula has one term at every degree, and it runs
    # without recursion
    ctx = GroupContext(2, 1)
    f = ICochain(ctx, 20000, MOD_P, {((1,),) * 20000: 1})
    assert invert_normalized_counted(f) == (AlgebraElem.monomial(ctx, (20000,)), 1)
    assert invert(f).terms == {(20000,): 1}


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
    # invert is the entry sum; the formula and the shuffle form agree with it
    expected = invert(f)
    assert invert_via_shuffles(f) == expected
    assert invert_normalized_counted(f)[0] == expected


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
    a = ICochain(ctx, n, MOD_P, {k: rng.randrange(1, p) for k in keys})
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


def largep_probe_cochain(p=10007):
    """The degree-2 cochain at (p, 1) whose p - 1 entries are the formula's
    terms: one probe tuple ((q), (1)) per split q, each of value 1."""
    return ICochain(GroupContext(p, 1), 2, MOD_P, {((q,), (1,)): 1 for q in range(1, p)})


def test_formula_path_at_large_p():
    # E = p - 1 = count_terms: invert sums the p - 1 probe tuples, and the
    # formula evaluates the same keys
    p = 10007
    f = largep_probe_cochain(p)
    assert len(f.values) == count_terms(f.ctx, 2)
    start = time.perf_counter()
    assert invert(f).terms == {(2,): p - 1}
    assert time.perf_counter() - start < 2.0


# The (p, r, degree) classes of the benchmark's roundtrip workload, whose
# realized cocycles have 4 096-5 000 entries against 32-729 formula terms.
ROUNDTRIP_CLASSES = ((5, 2, 3), (3, 2, 5), (3, 3, 3), (2, 3, 6))


def test_invert_never_runs_the_formula(monkeypatch):
    # inputs with at least as many entries as the formula has terms, and
    # the word cochains: invert sums the entries and neither evaluates the
    # formula nor counts its terms
    cochains = [realize(AlgebraElem.monomial(GroupContext(p, r), sig))
                for p, r, n in ROUNDTRIP_CLASSES for sig in compositions(n, r)]
    cochains += [word_cochain(GroupContext(p, r), n, random.Random(f"{p}-{r}-{n}"))[0]
                 for p, r, n in FORMULA_CASES]
    cochains.append(largep_probe_cochain())
    expected = [invert_normalized_counted(f)[0] for f in cochains]

    def refuse(*args):
        raise AssertionError("invert reached the formula or its term count")

    monkeypatch.setattr(inverse, "invert_normalized_counted", refuse)
    monkeypatch.setattr(inverse, "count_terms", refuse)
    assert [invert(f) for f in cochains] == expected


@pytest.mark.parametrize("n", [0, 1])
def test_invert_at_large_r(n):
    # a generator slot is told by its own exponents, so a key costs O(n r)
    # and nothing is built per generator: r = 20 000, empty and one entry
    ctx = GroupContext(2, 20000)
    one_entry = from_codes(ctx, n, MOD_P, {(ctx.generator(7),) * n: 1})
    monomial = AlgebraElem.monomial(ctx, tuple(n if j == 6 else 0 for j in range(ctx.r)))
    start = time.perf_counter()
    assert invert(ICochain.zero(ctx, n)).is_zero()
    assert invert(one_entry) == monomial
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
            nested = cup_many([power_cocycle(ctx, i, m)
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
            assert f == from_codes(ctx, degree, MOD_P, f.values)
    f = realize(AlgebraElem.monomial(ctx, (1,) + (0,) * (r - 1)))
    g = cup_many([f, f.scale(-1)])
    assert g == from_codes(ctx, 2, MOD_P, g.values)


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
                enumerated = sum(multinomial(comp) * (p - 1) ** sum(m // 2 for m in comp)
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
    # for p > 2 the binomial is the count split over an exterior part of
    # size l and a polynomial part of degree k, with 2k + l = n
    for p in (3, 5):
        for r in (1, 2, 3, 6):
            ctx = GroupContext(p, r)
            for n in range(40):
                split = sum(math.comb(r, l) * math.comb((n - l) // 2 + r - 1, r - 1)
                            for l in range(min(r, n) + 1) if (n - l) % 2 == 0)
                assert graded_dimension(ctx, n) == split
