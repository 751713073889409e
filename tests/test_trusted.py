"""Cochains and coboundary columns the library builds from its own keys
skip the public constructors' checks, and hold what those checks admit."""

import random

import pytest

from icochains import (
    INTEGERS,
    MOD_P,
    AlgebraElem,
    GroupContext,
    ICochain,
    classes_equal,
    cochain_basis,
    compositions,
    exponent_cocycle,
    random_cocycle,
    realize,
)
from icochains.acceptance import EXHAUSTIVE_TRIPLES, _random_cochain
from icochains.cochain import _bar_coboundary
from icochains.oracle import d_matrix
from conftest import DESK, random_icochain


def test_library_builders_never_check_their_own_keys(monkeypatch):
    def refuse(self, u):
        raise AssertionError(f"check_elem({u!r}) on a library-built key")

    monkeypatch.setattr(GroupContext, "check_elem", refuse)
    ctx = GroupContext(3, 2)
    for i in (1, 2):
        exponent_cocycle(ctx, i)
    for n in range(4):
        for sig in compositions(n, 2):
            realize(AlgebraElem.monomial(ctx, sig))
    f = _random_cochain(ctx, 2, random.Random(1))
    _bar_coboundary(f)
    for n in range(3):
        d_matrix(ctx, n)
    z = random_cocycle(ctx, 2, 7)
    assert classes_equal(z, z + _bar_coboundary(_random_cochain(ctx, 1, random.Random(2))))


@pytest.mark.parametrize("p,r", DESK + [(5, 2)])
def test_exponent_cocycle_equals_the_constructor_path(p, r):
    ctx = GroupContext(p, r)
    for i in range(1, r + 1):
        f = exponent_cocycle(ctx, i)
        assert f == ICochain(ctx, 1, MOD_P, f.values)


@pytest.mark.parametrize("p,r", DESK)
@pytest.mark.parametrize("ring", [MOD_P, INTEGERS])
def test_bar_coboundary_equals_the_constructor_path(p, r, ring):
    ctx = GroupContext(p, r)
    rng = random.Random(p * 10 + r)
    for n in range(3):
        for _ in range(3):
            f = random_icochain(ctx, n, rng, ring=ring, max_support=40)
            df = _bar_coboundary(f)
            assert df == ICochain(ctx, n + 1, ring, df.values)


@pytest.mark.parametrize("p,r,max_n", EXHAUSTIVE_TRIPLES)
def test_oracle_builds_equal_the_constructor_path(p, r, max_n):
    ctx = GroupContext(p, r)
    for n in range(max_n + 1):
        # the columns hold what the elimination takes: rows of the
        # degree-(n+1) basis, values reduced into [1, p)
        rows = (ctx.order - 1) ** (n + 1)
        assert all(0 <= i < rows and 0 < v < p for col in d_matrix(ctx, n)
                   for i, v in col.items())
        for seed in range(3):
            z = random_cocycle(ctx, n, seed)
            assert z == ICochain(ctx, n, MOD_P, z.values)


@pytest.mark.parametrize("p,r", DESK)
def test_random_cochain_draws_are_unchanged(p, r):
    # the constructor path the acceptance suite used to take, draw for draw
    ctx = GroupContext(p, r)
    for n in range(4):
        got = _random_cochain(ctx, n, random.Random(n))
        rng = random.Random(n)
        want = ICochain(ctx, n, MOD_P, {k: rng.randrange(p) for k in cochain_basis(ctx, n)})
        assert got == want
