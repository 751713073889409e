"""Cochains as linear functionals on tensor powers of the augmentation ideal.

The paper's cochains are C^n(G, M) = Hom(T^n(I), M), with T^n(I) the n-fold
tensor power of the augmentation ideal I.  An ``ICochain`` f stores its
values on the difference basis (u_1 - 1) x ... x (u_n - 1), a sparse map
from tuples of nonidentity group elements, their codes in [1, p^r) (see
``group_ring``), to coefficients.  Read on those tuples, the same map is
the normalized bar cochain a(u_1, ..., u_n) = f((u_1 - 1) x ... x
(u_n - 1)), so one class serves both.  Coefficients lie in F_p (``MOD_P``, stored reduced) or in Z
(``INTEGERS``); the cochain operations keep the ring, and an integral
cochain is reduced mod p by building its values again over ``MOD_P``.

* the coboundary contracts adjacent tensor factors with the group-ring
  product, with alternating signs (the coefficients are F_p or Z with the
  trivial action, on which an ideal element acts as zero);
* a cochain evaluates by multilinearity on tensors of ideal elements,
  each given on the difference basis as a dict {u: c} (see
  ``group_ring``);
* cup products concatenate tensor factors, with the sign convention that
  (f cup g) on an (m+n)-tensor is (-1)^(m n) f(first m) g(last n).

The coboundary is one vectorized kernel in ``kernel.py``: keys are
numbered in base p^r - 1 (``_key_codes``), every contraction term is
generated as a numpy broadcast, and one sort followed by a segmented sum
collapses equal keys.  ``_bar_coboundary`` writes the classical bar formula
independently, as a plain loop over the stored keys, and the oracle's
``d_matrix`` is built from it; the acceptance suite and the tests compare
the two pointwise on full bases.  ``is_cocycle`` uses neither: it
answers the sparse cases here, and decides the rest on the bar formula
in pure Python, in ``cocycle.py``, which it loads on first use.  Each of
these computations refuses, through ``group_ring.check_budget``, the
terms it would sum once they are over the default entry budget, before
it sums them.  This module itself does not import numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

from .group_ring import MOD_P, GroupContext, _check_ring, _log10_size, check_budget


class ICochain:
    """Linear functional on the n-th tensor power of the augmentation ideal.

    Stored values are the evaluations on the difference basis
    (u_1 - 1) x ... x (u_n - 1); evaluation extends multilinearly.  Read on
    the tuples (u_1, ..., u_n), they are a normalized bar cochain.  The
    constructor alone takes keys of exponent vectors, which it checks and
    encodes:

    >>> ICochain(GroupContext(3, 2), 1, MOD_P, {((1, 2),): 4}).values
    {(5,): 1}
    """

    __slots__ = ("ctx", "degree", "ring", "values")

    def __init__(self, ctx: GroupContext, degree: int, ring: str, values: dict):
        try:
            degree = operator.index(degree)
        except TypeError:
            raise ValueError(f"degree must be an integer: {degree!r}") from None
        if degree < 0:
            raise ValueError(f"degree must be >= 0, got {degree}")
        self.ctx = ctx
        self.degree = degree
        self.ring = _check_ring(ring)
        p = ctx.p
        clean = {}
        for key, c in values.items():
            if not isinstance(key, tuple) or len(key) != degree:
                raise ValueError(f"key must be a {degree}-tuple of exponent vectors: {key!r}")
            key = tuple(map(ctx.encode, key))
            if 0 in key:
                raise ValueError("keys may not contain the identity element")
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be integers: {c!r}")
            if ring == MOD_P:
                c %= p
            if c:
                clean[key] = c
        self.values = clean

    @classmethod
    def _trusted(cls, ctx: GroupContext, degree: int, ring: str, values: dict):
        """Wrap values that are already valid: keys of nonidentity element
        codes, nonzero coefficients, reduced into [0, p) over MOD_P.
        No check, no copy."""
        cochain = cls.__new__(cls)
        cochain.ctx, cochain.degree, cochain.ring, cochain.values = ctx, degree, ring, values
        return cochain

    @classmethod
    def zero(cls, ctx: GroupContext, degree: int, ring: str = MOD_P) -> "ICochain":
        return cls(ctx, degree, ring, {})

    @classmethod
    def constant(cls, ctx: GroupContext, value: int, ring: str = MOD_P) -> "ICochain":
        return cls(ctx, 0, ring, {(): value})

    def _like(self, values: dict, degree: int | None = None):
        """A cochain of this context and ring, of this degree unless ``degree``
        is given, on valid keys: reduce mod p, drop zeros, no key check."""
        if self.ring == MOD_P:
            p = self.ctx.p
            values = {k: m for k, c in values.items() if (m := c % p)}
        else:
            values = {k: c for k, c in values.items() if c}
        return self._trusted(self.ctx, self.degree if degree is None else degree,
                             self.ring, values)

    def __add__(self, other):
        if self.ctx != other.ctx or self.ring != other.ring or self.degree != other.degree:
            raise ValueError("context, ring, or degree mismatch")
        values = dict(self.values)
        for key, c in other.values.items():
            values[key] = values.get(key, 0) + c
        return self._like(values)

    def __neg__(self):
        return self._like({k: -c for k, c in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return self._like({k: c * v for k, v in self.values.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, ICochain):
            return NotImplemented
        return (self.ctx == other.ctx and self.degree == other.degree
                and self.ring == other.ring and self.values == other.values)

    def is_zero(self) -> bool:
        return not self.values

    def is_cocycle(self) -> bool:
        """Whether the coboundary vanishes, decided in pure Python on the
        bar formula: the ideal-form coboundary equals the bar coboundary
        of the same values, value for value.

        A nonzero cochain of degree n >= 1 with E entries and
        3nE <= N = p^r - 1 is never a cocycle, so such input is answered
        at once, without p^r (``GroupContext.below_order``).  Take a stored
        key K with coefficient c: the slot-n contraction of K gives every
        (n+1)-key (K, y) of the ideal-form coboundary the term -+c, and
        each of its other 3nE - 1 (entry, slot, family) term sets meets
        the line {(K, y)} in at most one point, so one of its N points
        keeps a nonzero value.

        Otherwise ``cocycle._bar_coboundary_vanishes`` decides the rest
        and charges the work it runs against the entry budget.  It loads
        on first use, so a command that decides no cocycle never compiles it.
        """
        n, entries = self.degree, len(self.values)
        if not n or not entries:
            return True
        ctx = self.ctx
        if ctx.below_order(3 * n * entries):
            return False
        from .cocycle import _bar_coboundary_vanishes  # compiled only when a check runs
        return _bar_coboundary_vanishes(ctx, n, self.values, self.ring)

    def __repr__(self):
        return (f"ICochain(p={self.ctx.p}, r={self.ctx.r}, "
                f"degree={self.degree}, {self.ring}, {len(self.values)} entries)")

    def evaluate(self, factors: Sequence[dict]) -> int:
        """Evaluate on a tensor of n augmentation-ideal elements, each on
        the difference basis: {u: c} is the sum of c (u - 1).

        The value is the sum over basis tensors of the stored value times
        the product of the factors' coefficients, exact over Z; a mod-p
        cochain reduces it at the end.  It runs over whichever side is
        smaller: the stored entries, looking each slot up in its factor,
        or the product of the factors' supports.  Every key must be a
        nonidentity element of the context and every coefficient an int.
        """
        ctx = self.ctx
        if len(factors) != self.degree:
            raise ValueError(f"expected {self.degree} factors, got {len(factors)}")
        for d in factors:
            for u, c in d.items():
                if ctx.check_elem(u) == ctx.identity:
                    raise ValueError("the identity is not a difference-basis element")
                if not isinstance(c, int):
                    raise ValueError(f"coefficients must be integers: {c!r}")
        values = self.values
        total = 0
        if len(values) <= math.prod(len(d) for d in factors):
            for key, v in values.items():
                for u, d in zip(key, factors):
                    c = d.get(u)
                    if not c:
                        break
                    v *= c
                else:
                    total += v
        else:
            for combo in itertools.product(*(d.items() for d in factors)):
                v = values.get(tuple(u for u, _ in combo))
                if v:
                    for _, c in combo:
                        v *= c
                    total += v
        return total % ctx.p if self.ring == MOD_P else total

    def coboundary(self) -> "ICochain":
        """The coboundary in ideal-tensor form.

        On an (n+1)-tensor this is the alternating sum over adjacent
        factor contractions a_i a_(i+1) (a product in the group ring); an
        ideal element acts as zero on the trivial coefficient module, so
        there is no action term.  The contractions run in one vectorized
        pass (``kernel.coboundary_values``), which refuses them over the
        entry budget.  A constant or a zero cochain has nothing to contract.
        """
        ctx, n, values = self.ctx, self.degree, self.values
        if not n or not values:
            return ICochain._trusted(ctx, n + 1, self.ring, {})
        from .kernel import coboundary_values  # numpy loads only when a coboundary is computed

        # The kernel's keys and sums are valid as they stand.
        return ICochain._trusted(ctx, n + 1, self.ring,
                                 coboundary_values(ctx, n, values, self.ring))

    def cup(self, other: "ICochain") -> "ICochain":
        """Cup product with the (-1)^(m n) front sign.

        Requires mod-p coefficients (the trivial-action hypothesis under
        which the block formula holds is automatic for our modules).
        """
        return cup_many([self, other])


# A normalized bar cochain stores the same values (see the module
# docstring).  This older name is kept for the benchmark's reference
# (bench/workloads.py); the package does not export it.
NormalizedCochain = ICochain


def _key_codes(ctx: GroupContext, keys) -> list:
    """The number of each key, the one numbering of keys that the kernel,
    the cocycle check and the oracle share: a degree-n key is an integer
    in base N = p^r - 1, slot 1 most significant, each slot its element
    less one (its index among the nonidentity elements).  Numbers sort as
    the keys do: a key's number is its position in
    ``oracle.cochain_basis``."""
    big_n = ctx.order - 1
    codes = []
    for key in keys:
        code = 0
        for u in key:
            code = code * big_n + u - 1
        codes.append(code)
    return codes


def _bar_coboundary(f: ICochain) -> ICochain:
    """The coboundary by the classical bar formula, a plain loop over the
    stored keys: the independent reference the tests and acceptance
    criterion 3 compare ``ICochain.coboundary`` with.

    The action on the coefficients is trivial, so the leading term
    u_1 . a(u_2, ...) is a plain copy of a(u_2, ...).
    """
    ctx, n = f.ctx, f.degree
    terms = (n + 2) * len(f.values)  # per entry: N leading, N per inner slot, N trailing
    check_budget(lambda: terms * (ctx.order - 1), _log10_size(ctx, terms))
    out: dict = {}
    nonid = ctx.nonidentity_elements()
    pairs: dict = {}  # k -> the pairs (x, x^-1 k); x = k would make the second 1
    trail_sign = -1 if (n + 1) % 2 else 1
    for key, c in f.values.items():
        for v in nonid:
            t = (v,) + key
            out[t] = out.get(t, 0) + c
        for j in range(1, n + 1):
            kj = key[j - 1]
            if kj not in pairs:
                pairs[kj] = [(x, ctx.mul(ctx.inverse(x), kj)) for x in nonid if x != kj]
            sign_c = -c if j % 2 else c
            head, tail = key[: j - 1], key[j:]
            for pair in pairs[kj]:
                t = head + pair + tail
                out[t] = out.get(t, 0) + sign_c
        for v in nonid:
            t = key + (v,)
            out[t] = out.get(t, 0) + trail_sign * c
    # keys of nonidentity elements, built from valid keys
    return f._like(out, n + 1)


def cup_many(factors: Sequence[ICochain]) -> ICochain:
    """Cup product of several cochains.

    The front sign is (-1)^(l(l-1)/2) where l counts the odd-degree
    factors; this equals the product of the pairwise signs picked up by
    left-nested cupping, so the result coincides with reduce(cup, factors).
    Refuses, before enumerating, a product of supports over the default
    entry budget.

    Each distinct factor object is checked and sorted once, however often
    it repeats.  The sorted entry lists are merged pairwise, neighbour with
    neighbour, until one is left, and only the last merge is built as a
    dict.  A merge pairs each entry of the first list with each entry of
    the second, concatenating keys and multiplying values mod p.  The keys
    of a list share one length, so a merge of sorted lists comes out
    sorted and never repeats a key, and neither does the result.  Keys are
    concatenations of valid keys, so they are not re-checked; products of
    nonzero residues mod p are nonzero, so no value is dropped.  Merging
    in a balanced tree copies each key slot about log2(m) times for m
    factors, where a fold of one factor at a time copies the whole key so
    far at every step, quadratic in the degree on a chain of one-entry
    factors.
    """
    factors = list(factors)
    if not factors:
        raise ValueError("cup_many needs at least one factor")
    ctx = factors[0].ctx
    distinct = {id(f): f for f in factors}  # ``realize`` repeats its generators
    for f in distinct.values():
        if f.ctx != ctx:
            raise ValueError("context mismatch")
        if f.ring != MOD_P:
            raise ValueError("cup products are defined for mod-p cochains")
    check_budget(math.prod(len(f.values) for f in factors))
    l = sum(1 for f in factors if f.degree % 2)
    p = ctx.p
    entries = {i: sorted(f.values.items()) for i, f in distinct.items()}
    lists = [entries[id(f)] for f in factors]
    if (l * (l - 1) // 2) % 2:
        lists[0] = [(k, -c % p) for k, c in lists[0]]
    while len(lists) > 2:
        merged = [[(ka + kb, ca * cb % p) for ka, ca in a for kb, cb in b]
                  for a, b in zip(lists[::2], lists[1::2])]
        if len(lists) % 2:
            merged.append(lists[-1])
        lists = merged
    if len(lists) == 2:
        a, b = lists
        values = {ka + kb: ca * cb % p for ka, ca in a for kb, cb in b}
    else:
        values = dict(lists[0])
    degree = sum(f.degree for f in factors)
    return ICochain._trusted(ctx, degree, MOD_P, values)
