"""Shared helpers for the test suite."""

import functools
import itertools
import json
import random

from icochains import MOD_P, AlgebraElem, ICochain, cochain_basis, realize
from icochains.graded import _echelon
from icochains.oracle import d_matrix

# (p, r) pairs every broad property test runs over.
DESK = [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]


def algebra_terms(text):
    """The {signature: coeff} map of an algebra document's text, as ``invert`` writes it."""
    return {tuple(e["signature"]): e["coeff"] for e in json.loads(text)["entries"]}


def random_ideal_elem(ctx, rng, lo=-9, hi=9):
    """A random element of the augmentation ideal on the difference basis."""
    return {u: rng.randint(lo, hi) for u in ctx.nonidentity_elements() if rng.random() < 0.7}


def on_group_basis(ctx, a):
    """An ideal element given on the difference basis, written on the group
    basis: u - 1 has coefficient 1 at u and -1 at the identity."""
    out = dict(a)
    out[ctx.identity] = out.get(ctx.identity, 0) - sum(a.values())
    return out


def group_product(ctx, a, b):
    """The product in Z[G] of two elements on the group basis, by convolution
    through the group law."""
    out = {}
    for u, cu in a.items():
        for v, cv in b.items():
            w = ctx.mul(u, v)
            out[w] = out.get(w, 0) + cu * cv
    return out


def ideal_product(ctx, *factors):
    """The product in Z[G] of ideal elements given on the difference basis,
    on the difference basis again.

    The factors are written on the group basis and multiplied by convolution
    through the group law: a reference that uses neither the identity
    (x - 1)(y - 1) = (xy - 1) - (x - 1) - (y - 1) nor the binomial theorem.
    The product lies in the ideal, so dropping its identity coefficient keeps
    all of it.
    """
    product = {ctx.identity: 1}
    for a in factors:
        product = group_product(ctx, product, on_group_basis(ctx, a))
    assert sum(product.values()) == 0, "a product of ideal elements has augmentation 0"
    return {u: c for u, c in product.items() if c and u != ctx.identity}


def algebra_combination(ctx, *pairs):
    """The algebra element sum of c e over the (c, e) pairs, added and
    scaled on its terms: ``AlgebraElem`` itself has only the product."""
    terms: dict = {}
    for c, e in pairs:
        for sig, v in e.terms.items():
            terms[sig] = terms.get(sig, 0) + c * v
    return AlgebraElem(ctx, terms)


def random_icochain(ctx, n, rng, ring=MOD_P, max_support=None):
    """Random cochain; support capped to keep large bases cheap."""
    basis = cochain_basis(ctx, n)
    if max_support is not None and len(basis) > max_support:
        basis = rng.sample(basis, max_support)
    if ring == MOD_P:
        values = {k: rng.randrange(ctx.p) for k in basis}
    else:
        values = {k: rng.randint(-9, 9) for k in basis}
    return from_codes(ctx, n, ring, values)


def from_codes(ctx, n, ring, values):
    """The cochain of {key: value} with keys of element codes, built by the
    public constructor, which checks the keys' exponent vectors."""
    decode = functools.lru_cache(maxsize=None)(ctx.decode)
    return ICochain(ctx, n, ring, {tuple(map(decode, k)): c for k, c in values.items()})


def power_cocycle(ctx, i, m):
    """The degree-m power of variable i, as the library builds it: ``realize``
    on the one-variable signature m e_i (the constant 1 for m = 0)."""
    return realize(AlgebraElem.monomial(ctx, tuple(m if j == i - 1 else 0 for j in range(ctx.r))))


def kernel_basis(columns: list, p: int) -> list:
    """A basis of the null space of a list of sparse {row: value} columns,
    one sparse {column: coeff} vector per free column.

    Column j is eliminated with a tag entry 1 at index -1-j, below every
    row index, so each pivot carries in its tags the combination of
    columns it is.  A combination whose row entries cancel leads with a
    tag, and its tags are the coefficients of a null vector.
    """
    tagged = ({**col, -1 - j: 1} for j, col in enumerate(columns))
    return [{-1 - t: c for t, c in combo.items()}
            for lead, combo in _echelon(tagged, p).items() if lead < 0]


@functools.lru_cache(maxsize=None)
def _kernel_basis_cached(ctx, n):
    return tuple(kernel_basis(d_matrix(ctx, n), ctx.p))


def random_cocycle(ctx, n, seed):
    """A uniformly random element of ker d_n on the oracle's dense
    ``d_matrix``, deterministic per seed."""
    basis = _kernel_basis_cached(ctx, n)
    rng = random.Random(seed)
    p = ctx.p
    v: dict = {}
    for b in basis:
        c = rng.randrange(p)
        for j, y in b.items():
            v[j] = (v.get(j, 0) + c * y) % p
    keys = cochain_basis(ctx, n)
    return ICochain._trusted(ctx, n, MOD_P, {keys[j]: v[j] for j in sorted(v) if v[j]})


def every_block_ranks(ctx, n):
    """((multidegree, rank), ...) for the blocks of d_n, by increasing
    multidegree, each block eliminated on its own.

    The reference for ``graded._block_ranks``, which eliminates one block
    per orbit of the coordinate permutations.  Here every block is built
    from the definition: its columns are the n-keys of t-exponent vectors
    of that multidegree, and the row of an (n+1)-key holds (-1)^i at the
    key that merges slots i and i+1, wherever their sum stays below p.
    """
    p, r = ctx.p, ctx.r
    elems = [a for a in itertools.product(range(p), repeat=r) if any(a)]

    def weight(key):
        return tuple(map(sum, zip(*key))) if key else (0,) * r

    cols, rows = {}, {}
    for key in itertools.product(elems, repeat=n):
        cols.setdefault(weight(key), []).append(key)
    for key in itertools.product(elems, repeat=n + 1):
        if weight(key) in cols:
            rows.setdefault(weight(key), []).append(key)
    out = []
    for m in sorted(rows):
        index = {k: j for j, k in enumerate(cols[m])}

        def row(key):
            entries = {}
            for i in range(n):
                merged = tuple(a + b for a, b in zip(key[i], key[i + 1]))
                if max(merged) < p:
                    entries[index[key[:i] + (merged,) + key[i + 2:]]] = p - 1 if i % 2 else 1
            return entries

        out.append((m, len(_echelon(map(row, rows[m]), p))))
    return tuple(out)
