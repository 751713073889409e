"""The rank/kernel oracle and the class-level comparisons built on it."""

import itertools
import random

import numpy as np
import pytest

from icochains import (
    AlgebraElem,
    BudgetExceededError,
    FpMatrix,
    GroupContext,
    ICochain,
    MOD_P,
    NormalizedCochain,
    NotACocycleError,
    bockstein_cocycle,
    classes_equal,
    cochain_basis,
    cohomology_report,
    compositions,
    d_matrix,
    exponent_cocycle,
    graded_dimension,
    invert,
    is_coboundary,
    kernel_basis,
    random_cocycle,
    rank,
    realize,
    vectorize,
)
from icochains.acceptance import EXHAUSTIVE_TRIPLES
from icochains.cochain import DEFAULT_MAX_ENTRIES
from icochains.graded import _block_ranks
from icochains.oracle import _rref
from conftest import DESK, random_icochain


def reference_rref(rows, cols, p):
    """Gauss-Jordan mod p in Python ints, each row a {column: value} dict.

    The slow reference for ``_rref``; sparse rows keep the 4096 x 512
    coboundary matrix at (3, 2, n=3) to a few seconds.
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


# one prime on each side of every elimination-dtype boundary, and one
# whose products overflow int64
DTYPE_LADDER = [(2, np.int8), (3, np.int8), (11, np.int8), (13, np.int16),
                (181, np.int16), (191, np.int32), (46337, np.int32),
                (46349, np.int64), (4294967311, object)]


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
        assert rank(FpMatrix.from_dense(3, np.eye(k, dtype=np.int64))) == k
    zero = FpMatrix.from_dense(3, np.zeros((4, 5), dtype=np.int64))
    assert rank(zero) == 0
    assert len(kernel_basis(zero)) == 5


def test_rank_plus_nullity():
    rng = random.Random(18)
    for p in (2, 3, 5):
        for _ in range(10):
            rows, cols = rng.randrange(1, 8), rng.randrange(1, 8)
            arr = np.array([[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
                           dtype=np.int64)
            m = FpMatrix.from_dense(p, arr)
            kb = kernel_basis(m)
            assert rank(m) + len(kb) == cols
            for v in kb:
                assert not ((arr @ v) % p).any()


@pytest.mark.parametrize("p,dtype", DTYPE_LADDER)
def test_rref_matches_reference(p, dtype):
    rng = random.Random(p)
    shapes = [(4, 9), (9, 4), (1, 7), (7, 1), (1, 1), (6, 6), (0, 3), (3, 0)]
    for rows, cols in shapes * 4:
        # entries off their residues by a multiple of p: _rref reduces them
        mat = [[a + p * rng.randint(-3, 3) for a in row]
               for row in random_matrix(rng, p, rows, cols)]
        red, pivots = _rref(np.array(mat, dtype=np.int64).reshape(rows, cols), p)
        assert red.dtype == dtype
        assert (red.tolist(), pivots) == reference_rref(mat, cols, p), (rows, cols, mat)


def test_rref_is_exact_beyond_int64():
    p = 2**64 + 13  # entries themselves overflow int64
    rng = random.Random(64)
    for rows, cols in [(3, 5), (5, 3), (4, 4), (2, 6)] * 3:
        mat = random_matrix(rng, p, rows, cols)
        red, pivots = _rref(np.array(mat, dtype=object), p)
        assert (red.tolist(), pivots) == reference_rref(mat, cols, p)
        columns = [{i: row[j] for i, row in enumerate(mat)} for j in range(cols)]
        m = FpMatrix(p, rows, cols, columns)
        assert rank(m) == len(pivots)
        kb = kernel_basis(m)
        assert len(kb) == cols - len(pivots)
        for v in kb:
            assert all(sum(a * int(b) for a, b in zip(row, v)) % p == 0 for row in mat)


def test_rank_one_matrices_at_large_p():
    # (p-1)^2 > 2^63: int64 row updates would wrap
    p = 4294967311
    rng = random.Random(4294967311)
    for _ in range(200):
        u = [rng.randrange(1, p) for _ in range(3)]
        v = [rng.randrange(1, p) for _ in range(3)]
        columns = [{i: a * b % p for i, a in enumerate(u)} for b in v]
        assert rank(FpMatrix(p, 3, 3, columns)) == 1


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES)
def test_d_matrix_rref_matches_reference(p, r, max_n):
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        m = d_matrix(ctx, n)
        dense = m.to_dense()
        ref, ref_pivots = reference_rref(dense.tolist(), m.cols, p)
        red, pivots = _rref(dense, p)
        assert pivots == ref_pivots and red.tolist() == ref, n
        assert rank(m) == len(ref_pivots)


def test_dense_round_trip():
    arr = np.array([[1, 0, 2], [0, 0, 1]], dtype=np.int64)
    m = FpMatrix.from_dense(3, arr)
    assert (m.to_dense() == arr).all()


def test_d_matrix_shapes_and_chain_property():
    for p, r in DESK:
        ctx = GroupContext(p, r)
        size = ctx.order - 1
        for n in range(3):
            dn = d_matrix(ctx, n)
            assert dn.cols == size**n
            assert dn.rows == size ** (n + 1)
            assert rank(dn) + len(kernel_basis(dn)) == dn.cols
            dn1 = d_matrix(ctx, n + 1)
            product = (dn1.to_dense() @ dn.to_dense()) % p
            assert not product.any()


def test_d_matrix_degree_zero_and_one_p2r1():
    ctx = GroupContext(2, 1)
    assert rank(d_matrix(ctx, 0)) == 0  # trivial action: d_0 = 0
    assert rank(d_matrix(ctx, 1)) == 0  # every degree-1 cochain is a cocycle


def test_d_matrix_is_linear_in_cochains():
    ctx = GroupContext(3, 2)
    rng = random.Random(19)
    dn = d_matrix(ctx, 2).to_dense()
    for _ in range(5):
        f = random_icochain(ctx, 2, rng)
        assert ((dn @ vectorize(f)) % 3 == vectorize(f.coboundary())).all()


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES)
def test_d_matrix_columns_are_bar_coboundaries(p, r, max_n):
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        dense = d_matrix(ctx, n).to_dense()
        for j, key in enumerate(cochain_basis(ctx, n)):
            bar = NormalizedCochain(ctx, n, MOD_P, {key: 1}).coboundary().to_icochain()
            assert (dense[:, j] == vectorize(bar)).all(), (n, key)


def test_budget_refusal():
    ctx = GroupContext(3, 2)
    with pytest.raises(BudgetExceededError) as info:
        d_matrix(ctx, 3, max_entries=1000)
    assert info.value.required == 4096 * 512
    assert str(info.value.required) in str(info.value)


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
    return dict(_block_ranks(ctx, n, DEFAULT_MAX_ENTRIES)) if n >= 0 else {}


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES + [(2, 4, 2), (5, 2, 2)])
def test_block_ranks_match_dense_rank(p, r, max_n):
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        assert sum(block_ranks(ctx, n).values()) == rank(d_matrix(ctx, n)), n


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
        for key in itertools.product(tuple(ctx.nonidentity_elements()), repeat=n):
            weight = tuple(map(sum, zip(*key))) if n else (0,) * r
            keys[weight] = keys.get(weight, 0) + 1
        rank_n, rank_prev = block_ranks(ctx, n), block_ranks(ctx, n - 1)
        dims = {m: k - rank_n.get(m, 0) - rank_prev.get(m, 0) for m, k in keys.items()}
        assert all(d >= 0 for d in dims.values()), n
        assert {m: d for m, d in dims.items() if d} == monomial_weights(p, r, n), n


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
        kb = kernel_basis(d_matrix(ctx, n))
        sigs = sorted(compositions(n, r))
        sig_index = {s: i for i, s in enumerate(sigs)}
        rows = []
        for v in kb:
            f = ICochain(ctx, n, MOD_P,
                         {k: int(c) for k, c in zip(cochain_basis(ctx, n), v) if c})
            row = [0] * len(sigs)
            for sig, c in invert(f).terms.items():
                row[sig_index[sig]] = c
            rows.append(row)
        arr = (np.array(rows, dtype=np.int64).T if rows
               else np.zeros((len(sigs), 0), dtype=np.int64))
        assert rank(FpMatrix.from_dense(p, arr)) == cohomology_report(ctx, n).dim_h
