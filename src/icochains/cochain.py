"""Cochains as linear functionals on tensor powers of the augmentation ideal.

The paper's cochains are C^n(G, M) = Hom(T^n(I), M), with T^n(I) the n-fold
tensor power of the augmentation ideal I.  An ``ICochain`` f stores its
values on the difference basis (u_1 - 1) x ... x (u_n - 1), a sparse map
from tuples of nonidentity group elements to coefficients.  Read on those
tuples, the same map is the normalized bar cochain
a(u_1, ..., u_n) = f((u_1 - 1) x ... x (u_n - 1)), so one class serves
both, and ``NormalizedCochain`` is another name for it.  Coefficients lie
in F_p (``MOD_P``, stored reduced) or in Z (``INTEGERS``); the cochain
operations keep the ring, and an integral cochain is reduced mod p by
building its values again over ``MOD_P``.

* the coboundary contracts adjacent tensor factors with the group-ring
  product, with alternating signs (the coefficients are F_p or Z with the
  trivial action, on which an ideal element acts as zero);
* a cochain evaluates by multilinearity on tensors of ideal elements,
  each given on the difference basis as a dict {u: c} (see
  ``group_ring``);
* cup products concatenate tensor factors, with the sign convention that
  (f cup g) on an (m+n)-tensor is (-1)^(m n) f(first m) g(last n).

The coboundary is one vectorized kernel in ``kernel.py``: keys are
encoded as integers in base p^r - 1, every contraction term is generated
as a numpy broadcast, and one sort followed by a segmented sum collapses
equal keys.  ``_bar_coboundary`` writes the classical bar formula
independently, as a plain loop over the stored keys, and the oracle's
``d_matrix`` is built from it; the acceptance suite and the tests compare
the two pointwise on full bases.  ``is_cocycle`` uses neither: it sums
the bar coboundary in pure Python, one first-argument partition at a
time, and only at the r generators of G.  Each of these computations
refuses, through ``group_ring.check_budget``, a count of terms over the
default entry budget before it starts.  This module itself does not
import numpy.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Sequence

from .group_ring import MOD_P, GroupContext, _check_ring, check_budget


class ICochain:
    """Linear functional on the n-th tensor power of the augmentation ideal.

    Stored values are the evaluations on the difference basis
    (u_1 - 1) x ... x (u_n - 1); evaluation extends multilinearly.  Read on
    the tuples (u_1, ..., u_n), they are a normalized bar cochain.
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
        identity = ctx.identity
        clean = {}
        for key, c in values.items():
            if not isinstance(key, tuple) or len(key) != degree:
                raise ValueError(f"key must be a {degree}-tuple of group elements: {key!r}")
            for u in key:
                ctx.check_elem(u)
                if u == identity:
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
        """Wrap values that are already valid: keys of nonidentity group
        elements, nonzero coefficients, reduced into [0, p) over MOD_P.
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

    def __hash__(self):
        return hash((self.ctx, self.degree, self.ring, frozenset(self.values.items())))

    def is_zero(self) -> bool:
        return not self.values

    def is_cocycle(self) -> bool:
        """Whether the coboundary vanishes, decided in pure Python on the
        bar formula: the ideal-form coboundary equals the bar coboundary
        of the same values, value for value.

        A nonzero cochain of degree n >= 1 with E entries and
        3nE <= N = p^r - 1 is never a cocycle, so such input is answered
        at once, whatever the size of N.  Take a stored key K with
        coefficient c: the slot-n contraction of K gives every (n+1)-key
        (K, y) of the ideal-form coboundary the term -+c, and each of its
        other 3nE - 1 (entry, slot, family) term sets meets the line
        {(K, y)} in at most one point, so one of its N points keeps a
        nonzero value.

        Otherwise ``_bar_coboundary_vanishes`` decides the rest, unless
        the terms it sums, at most E (2r + (n-1)(N-1) + N), are over the
        entry budget; then it is refused before any work.
        """
        n, entries = self.degree, len(self.values)
        if not n or not entries:
            return True
        r, big_n = self.ctx.r, self.ctx.order - 1
        if 3 * n * entries <= big_n:
            return False
        # per entry: a leading and a slot-1 term in each of the r partitions,
        # and in the one partition of its first slot N - 1 terms per inner
        # slot and N trailing terms
        check_budget(entries * (2 * r + (n - 1) * (big_n - 1) + big_n))
        return _bar_coboundary_vanishes(self.ctx, n, self.values, self.ring)

    def value_at(self, key: tuple) -> int:
        """The stored coefficient at a basis tuple (0 if absent or normalized away)."""
        if len(key) != self.degree:
            raise ValueError(f"expected a {self.degree}-tuple, got {key!r}")
        if any(u == self.ctx.identity for u in key):
            return 0
        return self.values.get(key, 0)

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
        identity = ctx.identity
        for d in factors:
            for u, c in d.items():
                ctx.check_elem(u)
                if u == identity:
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
        pass (``kernel.coboundary_values``).
        """
        from .kernel import coboundary_values  # numpy loads only when a coboundary is computed

        ctx, n, values = self.ctx, self.degree, self.values
        # the kernel's three (E, N) families per slot
        check_budget(len(values) * 3 * n * (ctx.order - 1))
        # The kernel's keys and sums are valid as they stand.
        return ICochain._trusted(ctx, n + 1, self.ring,
                                 coboundary_values(ctx, n, values, self.ring))

    def cup(self, other: "ICochain") -> "ICochain":
        """Cup product with the (-1)^(m n) front sign.

        Requires mod-p coefficients (the trivial-action hypothesis under
        which the block formula holds is automatic for our modules).
        """
        return cup_many([self, other])


# A normalized bar cochain stores the same values (see the module docstring).
NormalizedCochain = ICochain


def _bar_coboundary_vanishes(ctx: GroupContext, n: int, values: dict, ring: str) -> bool:
    """Whether the bar coboundary df of degree-n >= 1 values is zero,
    computed one first-argument partition at a time.

    The first arguments a at which df(a, ...) vanishes form a subgroup:
    d(df) = 0 read at (a, b, x_3, ...) gives df(b, x_3, ...) =
    df(ab, x_3, ...) once df vanishes on the tuples starting with a,
    since every other term starts with a.  So df = 0 exactly when its
    partitions at the r generators s_i vanish, and only those are summed.

    A degree-n key is coded in base N = p^r - 1, slot 1 most significant,
    each element as its index among the nonidentity elements in
    lexicographic order.  The sums on (a, x_2, ..., x_(n+1)) come from
    the leading term f(x_2, ...) of every entry; the slot-1 term
    -f(a x_2, x_3, ...) of every entry (k_1, ...) with k_1 != a, at
    x_2 = a^-1 k_1; and the inner terms and the trailing term of the
    entries with k_1 = a alone.  The pairs (x, x^-1 k) of an inner slot
    are listed only for the k that occur.
    """
    p, r, big_n = ctx.p, ctx.r, ctx.order - 1
    top = big_n ** (n - 1)  # weight of slot 1 in a degree-n code
    index: dict = {}
    codes = {}
    for key, c in values.items():
        code = 0
        for u in key:
            i = index.get(u)
            if i is None:
                i = 0
                for digit in u:
                    i = i * p + digit
                i = index[u] = i - 1
            code = code * big_n + i
        codes[code] = c
    trail = 1 if n % 2 else -1  # (-1)^(n+1)
    pairs: dict = {}
    for g in range(r):
        w = p ** (r - 1 - g)  # weight of exponent g in an element's value
        a = w - 1  # the index of the generator s_(g+1)
        sums = dict(codes)  # the leading term
        get = sums.get
        own = []
        for code, c in codes.items():
            b, rest = divmod(code, top)
            if b == a:
                own.append((rest, c))
                continue
            # a^-1 b lowers exponent g of b by one, mod p
            t = (b - w if (b + 1) // w % p else b + (p - 1) * w) * top + rest
            sums[t] = get(t, 0) - c
        for rest, c in own:
            for j in range(2, n + 1):
                low = big_n ** (n - j)  # weight of slot j in a degree-n code
                k = rest // low % big_n
                offsets = pairs.get((k, low))
                if offsets is None:
                    offsets = pairs[k, low] = [o * low for o in _pair_codes(p, r, k)]
                base = rest // (low * big_n) * (low * big_n * big_n) + rest % low
                term = -c if j % 2 else c
                for o in offsets:
                    t = base + o
                    sums[t] = get(t, 0) + term
            base = rest * big_n
            term = trail * c
            for t in range(base, base + big_n):
                sums[t] = get(t, 0) + term
        if any(map(p.__rmod__, sums.values()) if ring == MOD_P else sums.values()):
            return False
    return True


def _pair_codes(p: int, r: int, k: int) -> list:
    """The base-N codes of the 2-slot keys (x, x^-1 k), x neither 1 nor k:
    the keys whose two slots multiply to the element of index k."""
    big_n = p**r - 1
    quotients = [0]  # value of x^-1 k, for x in lexicographic order
    for g in range(r - 1, -1, -1):
        digit = (k + 1) // p**g % p
        quotients = [q * p + (digit - x) % p for q in quotients for x in range(p)]
    return [(x - 1) * big_n + q - 1 for x, q in enumerate(quotients) if x and q]


def _bar_coboundary(f: ICochain) -> ICochain:
    """The coboundary by the classical bar formula, a plain loop over the
    stored keys: the independent reference the tests and acceptance
    criterion 3 compare ``ICochain.coboundary`` with.

    The action on the coefficients is trivial, so the leading term
    u_1 . a(u_2, ...) is a plain copy of a(u_2, ...).
    """
    ctx, n = f.ctx, f.degree
    # per entry: N leading, at most N per inner slot and N trailing terms
    check_budget(len(f.values) * (n + 2) * (ctx.order - 1))
    out: dict = {}
    nonid = list(ctx.nonidentity_elements())
    inv = ctx.inverse
    trail_sign = -1 if (n + 1) % 2 else 1
    for key, c in f.values.items():
        for v in nonid:
            t = (v,) + key
            out[t] = out.get(t, 0) + c
        for j in range(1, n + 1):
            kj = key[j - 1]
            sign_c = -c if j % 2 else c
            head, tail = key[: j - 1], key[j:]
            for x in nonid:
                if x == kj:
                    continue  # would force the second factor to be 1
                t = head + (x, ctx.mul(inv(x), kj)) + tail
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

    The factors' sorted entry lists are merged pairwise, neighbour with
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
    for f in factors:
        if f.ctx != ctx:
            raise ValueError("context mismatch")
        if f.ring != MOD_P:
            raise ValueError("cup products are defined for mod-p cochains")
    check_budget(math.prod(len(f.values) for f in factors))
    l = sum(1 for f in factors if f.degree % 2)
    p = ctx.p
    lists = [sorted(f.values.items()) for f in factors]
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
