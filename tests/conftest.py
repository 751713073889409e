"""Shared helpers for the test suite."""

from icochains import ICochain, INTEGERS, MOD_P, RingElem, cochain_basis

# (p, r) pairs every broad property test runs over.
DESK = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


def random_ring_elem(ctx, rng, ring=INTEGERS, lo=-9, hi=9):
    terms = {u: rng.randint(lo, hi) for u in ctx.elements() if rng.random() < 0.7}
    return RingElem(ctx, ring, terms)


def random_ideal_elem(ctx, rng, ring=INTEGERS):
    """A random element of the augmentation ideal."""
    from icochains import augmentation

    a = random_ring_elem(ctx, rng, ring)
    return a - RingElem.unit(ctx, ring).scale(augmentation(a))


def random_icochain(ctx, n, rng, ring=MOD_P, max_support=None):
    """Random cochain; support capped to keep large bases cheap."""
    basis = cochain_basis(ctx, n)
    if max_support is not None and len(basis) > max_support:
        basis = rng.sample(basis, max_support)
    if ring == MOD_P:
        values = {k: rng.randrange(ctx.p) for k in basis}
    else:
        values = {k: rng.randint(-9, 9) for k in basis}
    return ICochain(ctx, n, ring, values)

