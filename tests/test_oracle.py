"""The rank/kernel oracle and the class-level comparisons built on it."""

import itertools
import random
import subprocess
import sys
import time

import numpy as np
import pytest

from icochains import (
    AlgebraElem,
    BudgetExceededError,
    GroupContext,
    ICochain,
    MOD_P,
    NotACocycleError,
    bockstein_cocycle,
    classes_equal,
    cochain_basis,
    cohomology_report,
    compositions,
    exponent_cocycle,
    graded_dimension,
    invert,
    is_coboundary,
    realize,
)
from icochains.acceptance import EXHAUSTIVE_TRIPLES
from icochains.cochain import _bar_coboundary
from icochains.graded import _block_ranks, _echelon, _reduce
from icochains.oracle import d_matrix, rank
from conftest import DESK, from_codes, kernel_basis, random_cocycle, random_icochain


def reference_rref(rows, cols, p):
    """Gauss-Jordan mod p in Python ints, each row a {column: value} dict.

    The slow reference for the oracle's elimination (``graded._echelon``):
    it pivots in column order, on the first row, and clears each pivot
    column above and below.  Sparse rows keep the 4096 x 512 coboundary
    matrix at (3, 2, n=3) to a few seconds.
    """
    red = [{j: a % p for j, a in enumerate(row) if a % p} for row in rows]
    pivots = []
    for col in range(cols):
        r = len(pivots)
        pivot = next((i for i in range(r, len(red)) if col in red[i]), None)
        if pivot is None:
            continue
        red[r], red[pivot] = red[pivot], red[r]
        inv = pow(red[r][col], -1, p)
        red[r] = prow = {j: a * inv % p for j, a in red[r].items()}
        for i, row in enumerate(red):
            c = row.get(col)
            if c and i != r:
                for j, b in prow.items():
                    v = (row.get(j, 0) - c * b) % p
                    if v:
                        row[j] = v
                    else:
                        del row[j]
        pivots.append(col)
    return [[row.get(j, 0) for j in range(cols)] for row in red], pivots


# one prime on each side of every boundary where a row update mod p, below
# (p-1)^2 + p, outgrows a fixed-width integer, named by the narrowest one
# that holds it, and one whose products overflow int64
DTYPE_LADDER = [(2, "int8"), (3, "int8"), (11, "int8"), (13, "int16"),
                (181, "int16"), (191, "int32"), (46337, "int32"),
                (46349, "int64"), (4294967311, "object")]


def dense(columns, rows):
    """The numpy array of a list of sparse {row: value} columns."""
    arr = np.zeros((rows, len(columns)), dtype=np.int64)
    for j, col in enumerate(columns):
        for i, v in col.items():
            arr[i, j] = v
    return arr


def vector(f):
    """Coordinates of a cochain on the lexicographic basis, as a list of ints."""
    return [f.values.get(k, 0) for k in cochain_basis(f.ctx, f.degree)]


def from_rows(p, mat, cols):
    """The sparse columns of the matrix whose rows are mat, lists of cols
    ints, with every entry reduced into [1, p) and zeros dropped: the
    form ``_echelon`` takes, whose pivot inverse fails on a value p."""
    return [{i: row[j] % p for i, row in enumerate(mat) if row[j] % p} for j in range(cols)]


def assert_elimination_matches_reference(columns, mat, p):
    """The oracle's elimination of columns, the matrix whose rows are mat,
    against reference_rref: the same rank, every reference row in the
    row space of the echelon of the rows, and cols - rank independent
    null vectors."""
    cols = len(columns)
    ref, ref_pivots = reference_rref(mat, cols, p)
    echelon = _echelon(({j: a % p for j, a in enumerate(row) if a % p} for row in mat), p)
    assert rank(columns, p) == len(echelon) == len(ref_pivots)
    for row in ref:
        reduced = {j: a for j, a in enumerate(row) if a}
        _reduce(reduced, echelon, p)
        assert not reduced, row
    kb = kernel_basis(columns, p)
    assert len(kb) == cols - len(ref_pivots)
    for v in kb:
        image = {}
        for j, c in v.items():
            for i, a in columns[j].items():
                image[i] = (image.get(i, 0) + c * a) % p
        assert not any(image.values()), v
    kb_rows = [[v.get(j, 0) for j in range(cols)] for v in kb]
    assert len(reference_rref(kb_rows, cols, p)[1]) == len(kb)


def random_matrix(rng, p, rows, cols):
    """A random rows x cols matrix mod p of random rank, with some zero
    rows and columns."""
    if rng.random() < 0.5:
        mat = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
    else:
        k = rng.randrange(min(rows, cols) + 1)
        left = [[rng.randrange(p) for _ in range(k)] for _ in range(rows)]
        right = [[rng.randrange(p) for _ in range(cols)] for _ in range(k)]
        mat = [[sum(left[i][t] * right[t][j] for t in range(k)) % p for j in range(cols)]
               for i in range(rows)]
    for i in range(rows):
        if rng.random() < 0.2:
            mat[i] = [0] * cols
    for j in range(cols):
        if rng.random() < 0.2:
            for row in mat:
                row[j] = 0
    return mat


def test_rank_identity_and_zero():
    for k in (1, 3, 5):
        assert rank(from_rows(3, np.eye(k, dtype=np.int64).tolist(), k), 3) == k
    zero = from_rows(3, [[0] * 5] * 4, 5)
    assert rank(zero, 3) == 0
    assert len(kernel_basis(zero, 3)) == 5


def test_rank_plus_nullity():
    rng = random.Random(18)
    for p in (2, 3, 5):
        for _ in range(10):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            arr = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                           dtype=np.int64)
            m = from_rows(p, arr.tolist(), cols)
            kb = kernel_basis(m, p)
            assert rank(m, p) + len(kb) == cols
            for v in kb:
                assert not ((arr @ [v.get(j, 0) for j in range(cols)]) % p).any()


@pytest.mark.parametrize("p", [p for p, _ in DTYPE_LADDER],
                         ids=[f"{p}-{name}" for p, name in DTYPE_LADDER])
def test_rref_matches_reference(p):
    rng = random.Random(p)
    shapes = [(4, 9), (9, 4), (1, 7), (7, 1), (1, 1), (6, 6), (0, 3), (3, 0)]
    for rows, cols in shapes * 4:
        # entries off their residues by a multiple of p: from_rows reduces them
        mat = [[a + p * rng.randint(-3, 3) for a in row]
               for row in random_matrix(rng, p, rows, cols)]
        assert_elimination_matches_reference(from_rows(p, mat, cols), mat, p)


def test_rref_is_exact_beyond_int64():
    p = 2**64 + 13  # entries themselves overflow int64
    rng = random.Random(64)
    for rows, cols in [(3, 5), (5, 3), (4, 4), (2, 6)] * 3:
        mat = random_matrix(rng, p, rows, cols)
        assert_elimination_matches_reference(from_rows(p, mat, cols), mat, p)


def test_rank_one_matrices_at_large_p():
    # (p-1)^2 > 2^63: int64 row updates would wrap
    p = 4294967311
    rng = random.Random(4294967311)
    for _ in range(200):
        u = [rng.randrange(1, p) for _ in range(3)]
        v = [rng.randrange(1, p) for _ in range(3)]
        columns = [{i: a * b % p for i, a in enumerate(u)} for b in v]
        assert rank(columns, p) == 1


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES)
def test_d_matrix_rref_matches_reference(p, r, max_n):
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        m = d_matrix(ctx, n)
        assert_elimination_matches_reference(m, dense(m, (ctx.order - 1) ** (n + 1)).tolist(), p)


def test_d_matrix_shapes_and_chain_property():
    for p, r in DESK:
        ctx = GroupContext(p, r)
        size = ctx.order - 1
        for n in range(3):
            dn = d_matrix(ctx, n)
            assert len(dn) == size**n
            assert all(0 <= i < size ** (n + 1) for col in dn for i in col)
            assert rank(dn, p) + len(kernel_basis(dn, p)) == len(dn)
            dn1 = d_matrix(ctx, n + 1)
            product = (dense(dn1, size ** (n + 2)) @ dense(dn, size ** (n + 1))) % p
            assert not product.any()


def test_d_matrix_degree_zero_and_one_p2r1():
    ctx = GroupContext(2, 1)
    assert rank(d_matrix(ctx, 0), 2) == 0  # trivial action: d_0 = 0
    assert rank(d_matrix(ctx, 1), 2) == 0  # every degree-1 cochain is a cocycle


def test_d_matrix_is_linear_in_cochains():
    ctx = GroupContext(3, 2)
    rng = random.Random(19)
    dn = dense(d_matrix(ctx, 2), 8**3)
    for _ in range(5):
        f = random_icochain(ctx, 2, rng)
        assert ((dn @ vector(f)) % 3 == vector(f.coboundary())).all()


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES)
def test_d_matrix_columns_are_kernel_coboundaries(p, r, max_n):
    # the columns come from the bar formula; the kernel is derived apart
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        arr = dense(d_matrix(ctx, n), (ctx.order - 1) ** (n + 1))
        for j, key in enumerate(cochain_basis(ctx, n)):
            image = from_codes(ctx, n, MOD_P, {key: 1}).coboundary()
            assert (arr[:, j] == vector(image)).all(), (n, key)


@pytest.mark.parametrize("call,args", [
    (cohomology_report, (GroupContext(3, 2), -1)),
    (lambda n, parts: list(compositions(n, parts)), (-1, 1)),
    (lambda n, parts: list(compositions(n, parts)), (2, 0)),
    (d_matrix, (GroupContext(3, 2), -1)),
    (random_cocycle, (GroupContext(3, 2), -1, 0)),
], ids=["cohomology_report", "compositions-n", "compositions-parts", "d_matrix",
        "random_cocycle"])
def test_negative_degrees_are_refused(call, args):
    with pytest.raises(ValueError, match=r"must be >= [01]"):
        call(*args)


@pytest.mark.parametrize("module", ["icochains.kernel", "numpy"])
def test_oracle_import_loads_no_kernel(module):
    probe = f"import sys, icochains.oracle; sys.exit({module!r} in sys.modules)"
    result = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                            timeout=60)
    assert result.returncode == 0, result.stderr


def test_budget_refusal():
    # the dense d_4 at (3, 2) has 8^5 x 8^4 cells, refused before any is built
    ctx = GroupContext(3, 2)
    with pytest.raises(BudgetExceededError) as info:
        d_matrix(ctx, 4)
    assert info.value.required == 8**5 * 8**4 == 134217728
    assert str(info.value) == ("the computation needs 134217728 entries, "
                               "over the budget of 16777216")


HUGE = GroupContext(3, 16_000_000)
ONE_ENTRY = ICochain._trusted(HUGE, 1, MOD_P, {(1,): 1})


@pytest.mark.parametrize("call", [
    ONE_ENTRY.coboundary,
    lambda: _bar_coboundary(ONE_ENTRY),
    lambda: _block_ranks(HUGE, 0),
    lambda: d_matrix(HUGE, 0),
    lambda: cohomology_report(HUGE, 0),
], ids=["coboundary", "_bar_coboundary", "_block_ranks", "d_matrix", "cohomology_report"])
def test_budget_sites_refuse_a_huge_group_by_its_logarithm(call):
    # p^r at r = 16 000 000 has 7 633 941 digits and takes seconds; each
    # size is refused on its logarithm before p^r is computed
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match=r"needs more than 10\^7633940 entries"):
        call()
    assert time.perf_counter() - start < 0.5


def test_a_power_of_n_1_is_never_refused():
    # at p = 2, r = 1 every power of N = 1 is 1, though 2^(2n+1) has 4 215
    # digits at n = 7000; the one basis cochain's coboundary is 1 - 1 = 0
    assert d_matrix(GroupContext(2, 1), 7000) == [{}]


def test_cohomology_dimension_tables():
    tables = [
        (2, 2, [1, 2, 3, 4, 5]),
        (2, 3, [1, 3, 6, 10]),
        (3, 2, [1, 2, 3, 4]),
        (5, 1, [1, 1, 1, 1, 1]),
    ]
    for p, r, expected in tables:
        ctx = GroupContext(p, r)
        for n, want in enumerate(expected):
            rep = cohomology_report(ctx, n)
            assert rep.dim_h == want
            assert rep.dim_h == graded_dimension(ctx, n)
            assert rep.dim_h == rep.dim_ker_dn - rep.rank_d_prev >= 0
            assert rep.dim_cochains == (p**r - 1) ** n


def block_ranks(ctx, n):
    """Rank of each multidegree block of d_n; absent blocks have rank 0."""
    return dict(_block_ranks(ctx, n)) if n >= 0 else {}


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES + [(2, 4, 2), (5, 2, 2)])
def test_block_ranks_match_dense_rank(p, r, max_n):
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        assert sum(block_ranks(ctx, n).values()) == rank(d_matrix(ctx, n), p), n


def monomial_weights(p, r, n):
    """Multidegree -> number of degree-n basis monomials of that weight.

    x_i weighs e_i; for odd p, y_i (degree 2) weighs p e_i.  At p = 2
    the monomials are the x^a with |a| = n, of weight a.
    """
    counts = {}
    if p == 2:
        gens = [(a, a) for a in itertools.product(range(n + 1), repeat=r)]
    else:
        gens = [(tuple(e + 2 * k for e, k in zip(eps, ks)),
                 tuple(e + p * k for e, k in zip(eps, ks)))
                for eps in itertools.product((0, 1), repeat=r)
                for ks in itertools.product(range(n // 2 + 1), repeat=r)]
    for degrees, weight in gens:
        if sum(degrees) == n:
            counts[weight] = counts.get(weight, 0) + 1
    return counts


@pytest.mark.parametrize("p,r,max_n", [(3, 2, 3), (2, 3, 3), (5, 1, 5), (2, 2, 6), (3, 1, 6)])
def test_multigraded_dimensions(p, r, max_n):
    """dim H^n_m, block by block, equals the count of degree-n basis
    monomials of weight m: each class sits in its own block."""
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        keys = {}
        for key in itertools.product(t_exponents(ctx), repeat=n):
            weight = tuple(map(sum, zip(*key))) if n else (0,) * r
            keys[weight] = keys.get(weight, 0) + 1
        rank_n, rank_prev = block_ranks(ctx, n), block_ranks(ctx, n - 1)
        dims = {m: k - rank_n.get(m, 0) - rank_prev.get(m, 0) for m, k in keys.items()}
        assert all(d >= 0 for d in dims.values()), n
        assert {m: d for m, d in dims.items() if d} == monomial_weights(p, r, n), n


def t_exponents(ctx):
    """The exponent vectors a != 0 of the monomials t^a that span the
    augmentation ideal over F_p, one per nonidentity element."""
    return [a for a in itertools.product(range(ctx.p), repeat=ctx.r) if any(a)]


def key_weights(ctx, n):
    """Multidegree -> number of n-keys of that weight, by convolving the
    weight counts one slot at a time."""
    counts = {(0,) * ctx.r: 1}
    exponents = t_exponents(ctx)
    for _ in range(n):
        longer = {}
        for weight, k in counts.items():
            for a in exponents:
                m = tuple(map(sum, zip(weight, a)))
                longer[m] = longer.get(m, 0) + k
        counts = longer
    return counts


def monomial_count(p, n, m):
    """The number of degree-n basis monomials of weight m, in closed form.

    At p = 2 only x^m has weight m.  At odd p, x_i weighs e_i and y_i
    weighs p e_i, so m_i mod p says whether x_i divides and m_i // p is
    the power of y_i.
    """
    if p == 2:
        return int(sum(m) == n)
    return int(all(w % p < 2 for w in m) and sum(w % p + 2 * (w // p) for w in m) == n)


def weight_defects(ctx, n, rank_n, rank_prev):
    """The weights m at which #n-keys(m) - rank_n(m) - rank_(n-1)(m), the
    dimension of H^n_m, differs from the monomial count."""
    keys = key_weights(ctx, n)
    return {m for m in keys.keys() | rank_n.keys() | rank_prev.keys()
            if keys.get(m, 0) - rank_n.get(m, 0) - rank_prev.get(m, 0)
            != monomial_count(ctx.p, n, m)}


@pytest.mark.parametrize("p,r,max_n", [(2, 2, 6), (2, 3, 4), (3, 1, 8), (3, 2, 4), (5, 1, 6),
                                       (7, 1, 5), (2, 4, 3)])
def test_cohomology_per_weight(p, r, max_n):
    """Every multidegree block of H^n has the dimension the ring
    presentation gives it, so no rank error can move cohomology between
    weights while keeping each total dim H^n."""
    ctx = GroupContext(p, r)
    ranks = [block_ranks(ctx, n) for n in range(-1, max_n + 1)]  # ranks[n + 1] is d_n's
    moves = 0
    for n in range(max_n + 1):
        rank_n, rank_prev = ranks[n + 1], ranks[n]
        assert not weight_defects(ctx, n, rank_n, rank_prev), n
        nonzero = [m for m, k in rank_n.items() if k]
        if len(nonzero) > 1:
            # one unit of rank moved between two blocks keeps every total
            moved = dict(rank_n)
            moved[nonzero[0]] -= 1
            moved[nonzero[-1]] += 1
            assert weight_defects(ctx, n, moved, rank_prev), n
            moves += 1
    assert moves


def test_is_coboundary_basics():
    ctx = GroupContext(3, 1)
    rng = random.Random(20)
    for n in range(1, 4):
        g = random_icochain(ctx, n - 1, rng)
        assert is_coboundary(g.coboundary())
    # the Bockstein generator represents a nonzero class
    assert not is_coboundary(bockstein_cocycle(ctx, 1))
    non_cocycle = ICochain(ctx, 1, MOD_P, {((1,),): 1, ((2,),): 1})
    with pytest.raises(NotACocycleError):
        is_coboundary(non_cocycle)


def test_is_coboundary_degree_zero():
    ctx = GroupContext(3, 1)
    assert is_coboundary(ICochain.zero(ctx, 0))
    assert not is_coboundary(ICochain.constant(ctx, 1))


def test_classes_equal_bockstein_is_square_p2():
    for r in (1, 2, 3):
        ctx = GroupContext(2, r)
        for i in range(1, r + 1):
            fi = exponent_cocycle(ctx, i)
            assert classes_equal(fi.cup(fi), bockstein_cocycle(ctx, i))


def test_classes_equal_validates():
    ctx = GroupContext(3, 1)
    f = random_cocycle(ctx, 1, seed=0)
    g = random_cocycle(ctx, 2, seed=0)
    with pytest.raises(ValueError):
        classes_equal(f, g)


def test_realize_is_ring_map_up_to_coboundary():
    ctx = GroupContext(3, 2)
    rng = random.Random(21)
    sigs = [sig for d in range(3) for sig in compositions(d, 2)]
    pairs = [(a, b) for a in sigs for b in sigs if sum(a) + sum(b) <= 4]
    for a, b in rng.sample(pairs, 10):
        ea, eb = AlgebraElem.monomial(ctx, a), AlgebraElem.monomial(ctx, b)
        product = ea * eb
        lhs = (ICochain.zero(ctx, sum(a) + sum(b)) if product.is_zero()
               else realize(product))
        assert classes_equal(lhs, realize(ea).cup(realize(eb)))


def test_random_cocycle_deterministic_and_closed():
    ctx = GroupContext(3, 2)
    for n in range(4):
        f1 = random_cocycle(ctx, n, seed=42)
        f2 = random_cocycle(ctx, n, seed=42)
        assert f1 == f2
        assert f1.is_cocycle()
    assert random_cocycle(ctx, 2, seed=1) != random_cocycle(ctx, 2, seed=2)


def test_invert_constant_on_classes():
    ctx = GroupContext(5, 1)
    rng = random.Random(22)
    for n in range(1, 4):
        f = random_cocycle(ctx, n, seed=n)
        g = random_icochain(ctx, n - 1, rng)
        assert invert(f + g.coboundary()) == invert(f)


@pytest.mark.parametrize("p,r,max_n", [(2, 2, 3), (3, 1, 4), (3, 2, 3)])
def test_invert_injective_on_kernel(p, r, max_n):
    """rank of the inverse map on a kernel basis equals dim H.

    Combined with invert(coboundary) = 0 this says the map kills nothing
    beyond coboundaries, and with the round-trip identity it certifies
    that both maps are mutually inverse bijections on cohomology.
    """
    for n in range(max_n + 1):
        ctx = GroupContext(p, r)
        kb = kernel_basis(d_matrix(ctx, n), p)
        basis = cochain_basis(ctx, n)
        sig_index = {s: i for i, s in enumerate(sorted(compositions(n, r)))}
        columns = []
        for v in kb:
            f = from_codes(ctx, n, MOD_P, {basis[j]: c for j, c in v.items()})
            columns.append({sig_index[sig]: c for sig, c in invert(f).terms.items()})
        assert rank(columns, p) == cohomology_report(ctx, n).dim_h
