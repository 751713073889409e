"""Normalized cochains and ideal-tensor cochains, with coboundaries and cups.

A normalized cochain of degree n is a function on G^n vanishing whenever an
argument is the identity.  An ideal-tensor cochain (``ICochain``) is a linear
functional on the n-fold tensor power of the augmentation ideal.  The two
are in bijection: a normalized cochain a corresponds to the functional f
with ``a(u_1, ..., u_n) = f((u_1 - 1) x ... x (u_n - 1))``, so both kinds
store the same sparse map from tuples of nonidentity group elements to
coefficients.  What differs is the semantics of everything built on top:

* the coboundary of a normalized cochain follows the classical bar formula;
* the coboundary of an ICochain contracts adjacent tensor factors with the
  group-ring product, with alternating signs (the coefficients are F_p or Z
  with the trivial action, on which an ideal element acts as zero);
* an ICochain evaluates on arbitrary ideal tensors by multilinearity;
* cup products concatenate tensor factors, with the sign convention that
  (f cup g) on an (m+n)-tensor is (-1)^(m n) f(first m) g(last n).

Both coboundary routes are implemented independently and agree (a fact the
test suite checks pointwise on full bases).  The bar form is a plain loop
over stored keys and serves as the reference.  The ideal form, which the
oracle's ``d_matrix`` also uses, is one vectorized kernel in
``kernel.py``: keys are encoded as integers in base p^r - 1, every
contraction term is generated as a numpy broadcast, and one sort followed
by a segmented sum collapses equal keys.  ``is_cocycle`` (of both kinds)
uses neither: it sums the bar coboundary in pure Python, one
first-argument partition at a time, and only at the r generators of G.
This module itself does not import numpy.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .group_ring import (
    INTEGERS,
    MOD_P,
    GroupContext,
    NormExpansion,
    RingElem,
    _check_ring,
    as_difference_basis,
    augmentation,
)

# Default entry budget of the oracles' dense matrices and enumerated keys, and
# of the terms of coboundaries and cup products.
DEFAULT_MAX_ENTRIES = 1 << 24


class NotACocycleError(ValueError):
    """Raised when an operation defined on cohomology classes gets a non-cocycle."""


class BudgetExceededError(RuntimeError):
    """A matrix, the key set of a block computation, or the terms of a
    coboundary or cup product would exceed the configured entry budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"the computation needs {required} entries, over the budget of {budget}")
        self.required = required
        self.budget = budget


def _check_output_budget(required: int) -> None:
    """Refuse, before allocating, an output of more terms than the default
    entry budget."""
    if required > DEFAULT_MAX_ENTRIES:
        raise BudgetExceededError(required, DEFAULT_MAX_ENTRIES)


class _Cochain:
    """Shared storage and linear structure for both cochain kinds."""

    __slots__ = ("ctx", "degree", "ring", "values")

    def __init__(self, ctx: GroupContext, degree: int, ring: str, values: dict):
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

    def _compatible(self, other: "_Cochain") -> None:
        if type(self) is not type(other):
            raise ValueError("cannot mix normalized cochains and ideal-tensor cochains")
        if self.ctx != other.ctx or self.ring != other.ring or self.degree != other.degree:
            raise ValueError("context, ring, or degree mismatch")

    def _like(self, values: dict):
        """A cochain of this kind, context, ring and degree holding values
        whose keys are already valid: reduce mod p, drop zeros, no key check."""
        if self.ring == MOD_P:
            p = self.ctx.p
            values = {k: m for k, c in values.items() if (m := c % p)}
        else:
            values = {k: c for k, c in values.items() if c}
        return self._trusted(self.ctx, self.degree, self.ring, values)

    def __add__(self, other):
        self._compatible(other)
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
        if type(self) is not type(other):
            return NotImplemented
        return (self.ctx == other.ctx and self.degree == other.degree
                and self.ring == other.ring and self.values == other.values)

    def __hash__(self):
        return hash((self.ctx, self.degree, self.ring, frozenset(self.values.items())))

    def is_zero(self) -> bool:
        return not self.values

    def is_cocycle(self) -> bool:
        """Whether the coboundary vanishes, decided in pure Python on the
        bar formula.  For an ICochain this is the same test: its
        ideal-form coboundary equals the bar coboundary of the
        corresponding normalized cochain value for value.

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
        default entry budget; then it is refused before any work.
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
        _check_output_budget(entries * (2 * r + (n - 1) * (big_n - 1) + big_n))
        return _bar_coboundary_vanishes(self.ctx, n, self.values, self.ring)

    def value_at(self, key: tuple) -> int:
        """The stored coefficient at a basis tuple (0 if absent or normalized away)."""
        if len(key) != self.degree:
            raise ValueError(f"expected a {self.degree}-tuple, got {key!r}")
        if any(u == self.ctx.identity for u in key):
            return 0
        return self.values.get(key, 0)

    def mod_p(self):
        p = self.ctx.p
        return self._trusted(self.ctx, self.degree, MOD_P,
                             {k: m for k, c in self.values.items() if (m := c % p)})

    def __repr__(self):
        return (f"{type(self).__name__}(p={self.ctx.p}, r={self.ctx.r}, "
                f"degree={self.degree}, {self.ring}, {len(self.values)} entries)")


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


class NormalizedCochain(_Cochain):
    """Degree-n function on G^n over Z or F_p, zero on identity arguments."""

    @classmethod
    def zero(cls, ctx: GroupContext, degree: int, ring: str = MOD_P) -> "NormalizedCochain":
        return cls(ctx, degree, ring, {})

    @classmethod
    def constant(cls, ctx: GroupContext, value: int, ring: str = MOD_P) -> "NormalizedCochain":
        return cls(ctx, 0, ring, {(): value})

    def to_icochain(self) -> "ICochain":
        """The corresponding ideal-tensor functional (value-for-value)."""
        return ICochain._trusted(self.ctx, self.degree, self.ring, dict(self.values))

    def coboundary(self) -> "NormalizedCochain":
        """The bar coboundary; normalized because this cochain is.

        The action on the coefficients is trivial, so the leading term
        u_1 . a(u_2, ...) is a plain copy of a(u_2, ...).
        """
        n = self.degree
        # per entry: N leading, at most N per inner slot and N trailing terms
        _check_output_budget(len(self.values) * (n + 2) * (self.ctx.order - 1))
        out: dict = {}
        nonid = list(self.ctx.nonidentity_elements())
        inv = self.ctx.inverse
        trail_sign = -1 if (n + 1) % 2 else 1
        for key, c in self.values.items():
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
                    t = head + (x, self.ctx.mul(inv(x), kj)) + tail
                    out[t] = out.get(t, 0) + sign_c
            for v in nonid:
                t = key + (v,)
                out[t] = out.get(t, 0) + trail_sign * c
        return NormalizedCochain(self.ctx, n + 1, self.ring, out)


class Tensor:
    """A tensor of augmentation-ideal elements, the argument type of ICochains."""

    __slots__ = ("ctx", "factors")

    def __init__(self, ctx: GroupContext, factors: Sequence[RingElem]):
        self.ctx = ctx
        self.factors = tuple(factors)
        for a in self.factors:
            if a.ctx != ctx:
                raise ValueError("tensor factor from a different context")
            if augmentation(a) != 0:
                raise ValueError("tensor factor outside the augmentation ideal")

    def __len__(self) -> int:
        return len(self.factors)


class ICochain(_Cochain):
    """Linear functional on the n-th tensor power of the augmentation ideal.

    Stored values are the evaluations on the difference basis
    (u_1 - 1) x ... x (u_n - 1); evaluation extends multilinearly.
    """

    @classmethod
    def zero(cls, ctx: GroupContext, degree: int, ring: str = MOD_P) -> "ICochain":
        return cls(ctx, degree, ring, {})

    @classmethod
    def constant(cls, ctx: GroupContext, value: int, ring: str = MOD_P) -> "ICochain":
        return cls(ctx, 0, ring, {(): value})

    def to_normalized(self) -> NormalizedCochain:
        """The corresponding normalized cochain (value-for-value)."""
        return NormalizedCochain._trusted(self.ctx, self.degree, self.ring, dict(self.values))

    def evaluate(self, tensor: Tensor) -> int:
        """Evaluate on an ideal tensor by expanding each factor.

        Mod-p cochains accept factors over either coefficient ring (the
        value only depends on the factors mod p); integer cochains demand
        integer factors.
        """
        if tensor.ctx != self.ctx:
            raise ValueError("tensor from a different context")
        if len(tensor) != self.degree:
            raise ValueError(f"expected {self.degree} factors, got {len(tensor)}")
        if self.ring == INTEGERS and any(a.ring != INTEGERS for a in tensor.factors):
            raise ValueError("integer cochains require integer tensor factors")
        return self.evaluate_on_expansions([as_difference_basis(a) for a in tensor.factors])

    def evaluate_on_expansions(self, factors: Sequence[dict]) -> int:
        """Evaluate on factors already written on the difference basis.

        The value is the sum over basis tensors of the stored value times
        the product of the factors' coefficients.  It runs over whichever
        side is smaller: the stored entries, looking each slot up in its
        factor, or the product of the factors' supports.  A factor may be
        a ``NormExpansion``, whose support can outgrow ``len()``.
        """
        if len(factors) != self.degree:
            raise ValueError(f"expected {self.degree} factors, got {len(factors)}")
        values = self.values
        total = 0
        sizes = (d.size if isinstance(d, NormExpansion) else len(d) for d in factors)
        if len(values) <= math.prod(sizes):
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
        return total % self.ctx.p if self.ring == MOD_P else total

    def coboundary(self) -> "ICochain":
        """The coboundary in ideal-tensor form.

        On an (n+1)-tensor this is the alternating sum over adjacent
        factor contractions a_i a_(i+1) (a product in the group ring); an
        ideal element acts as zero on the trivial coefficient module, so
        there is no action term.  The contractions run in one vectorized
        pass (``kernel._coboundary_sums``).
        """
        from . import kernel  # numpy loads only when a coboundary is computed

        ctx, n, values = self.ctx, self.degree, self.values
        # the kernel's three (E, N) families per slot
        _check_output_budget(len(values) * 3 * n * (ctx.order - 1))
        codes, sums = kernel._coboundary_sums(ctx, n, kernel._encode_keys(ctx, n, list(values)),
                                              list(values.values()), self.ring)
        out = dict(zip(kernel._decode_keys(ctx, n + 1, codes), sums.tolist()))
        # The kernel's keys and sums are valid as they stand.
        return ICochain._trusted(ctx, n + 1, self.ring, out)

    def cup(self, other: "ICochain") -> "ICochain":
        """Cup product with the (-1)^(m n) front sign.

        Requires mod-p coefficients (the trivial-action hypothesis under
        which the block formula holds is automatic for our modules).
        """
        return cup_many([self, other])


def cup_many(factors: Sequence[ICochain]) -> ICochain:
    """Cup product of several cochains in one pass.

    The front sign is (-1)^(l(l-1)/2) where l counts the odd-degree
    factors; this equals the product of the pairwise signs picked up by
    left-nested cupping, so the result coincides with reduce(cup, factors).
    Keys are concatenations of valid keys, so they are not re-checked.
    Refuses, before enumerating, a product of supports over the default
    entry budget.
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
    _check_output_budget(math.prod(len(f.values) for f in factors))
    l = sum(1 for f in factors if f.degree % 2)
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    degree = sum(f.degree for f in factors)
    p = ctx.p
    values: dict = {}
    # Concatenation is injective at fixed factor degrees: no key repeats.
    for combo in itertools.product(*(f.values.items() for f in factors)):
        c = sign
        for _, v in combo:
            c = c * v % p
        if c:
            values[tuple(itertools.chain.from_iterable(k for k, _ in combo))] = c
    return ICochain._trusted(ctx, degree, MOD_P, values)

