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
  group-ring product, picking up only the alternating signs when the module
  action is trivial;
* an ICochain evaluates on arbitrary ideal tensors by multilinearity;
* cup products concatenate tensor factors, with the sign convention that
  (f cup g) on an (m+n)-tensor is (-1)^(m n) f(first m) g(last n).

Both coboundary routes are implemented independently and agree (a fact the
test suite checks pointwise on full bases).  The bar form is a plain loop
over stored keys and serves as the reference.  The ideal form, which
``is_cocycle`` (of both kinds) and the oracle's ``d_matrix`` also use, is
one vectorized kernel: keys are encoded as integers in base p^r - 1, every
contraction term is generated as a numpy broadcast, and one sort followed
by a segmented sum collapses equal keys.
"""

from __future__ import annotations

import itertools
import math
from typing import Callable, Sequence

import numpy as np

from .group_ring import (
    INTEGERS,
    MOD_P,
    GroupContext,
    RingElem,
    _check_ring,
    as_difference_basis,
    augmentation,
)

# Optional module action for coefficients: (group element, value) -> value.
# None means the trivial action.  Only the unit-test surface exercises
# nontrivial actions; all shipped computations use trivial modules.
Action = Callable[[tuple, int], int]


class NotACocycleError(ValueError):
    """Raised when an operation defined on cohomology classes gets a non-cocycle."""


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

    def __add__(self, other):
        self._compatible(other)
        values = dict(self.values)
        for key, c in other.values.items():
            values[key] = values.get(key, 0) + c
        return type(self)(self.ctx, self.degree, self.ring, values)

    def __neg__(self):
        return type(self)(self.ctx, self.degree, self.ring,
                          {k: -c for k, c in self.values.items()})

    def __sub__(self, other):
        return self + (-other)

    def scale(self, c: int):
        return type(self)(self.ctx, self.degree, self.ring,
                          {k: c * v for k, v in self.values.items()})

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
        """Whether the coboundary vanishes, decided by the vectorized
        ideal-form kernel.  For a normalized cochain this is the same
        test: its bar coboundary equals the ideal-form coboundary of the
        corresponding ICochain value for value."""
        return self._coboundary_sums()[0].size == 0

    def _coboundary_sums(self) -> tuple:
        keys = _encode_keys(self.ctx, self.degree, list(self.values))
        return _coboundary_sums(self.ctx, self.degree, keys,
                                list(self.values.values()), self.ring)

    def value_at(self, key: tuple) -> int:
        """The stored coefficient at a basis tuple (0 if absent or normalized away)."""
        if len(key) != self.degree:
            raise ValueError(f"expected a {self.degree}-tuple, got {key!r}")
        if any(u == self.ctx.identity for u in key):
            return 0
        return self.values.get(key, 0)

    def mod_p(self):
        return type(self)(self.ctx, self.degree, MOD_P, self.values)

    def __repr__(self):
        return (f"{type(self).__name__}(p={self.ctx.p}, r={self.ctx.r}, "
                f"degree={self.degree}, {self.ring}, {len(self.values)} entries)")


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
        return ICochain(self.ctx, self.degree, self.ring, self.values)

    def coboundary(self, action: Action | None = None) -> "NormalizedCochain":
        """The bar coboundary; normalized because this cochain is.

        With the default trivial action the leading term u_1 . a(u_2, ...)
        reduces to a plain copy of a(u_2, ...).
        """
        out: dict = {}
        nonid = list(self.ctx.nonidentity_elements())
        inv = self.ctx.inverse
        n = self.degree
        trail_sign = -1 if (n + 1) % 2 else 1
        for key, c in self.values.items():
            for v in nonid:
                t = (v,) + key
                out[t] = out.get(t, 0) + (c if action is None else action(v, c))
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
        return NormalizedCochain(self.ctx, self.degree, self.ring, self.values)

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
        factor, or the product of the factors' supports.
        """
        if len(factors) != self.degree:
            raise ValueError(f"expected {self.degree} factors, got {len(factors)}")
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
        return total % self.ctx.p if self.ring == MOD_P else total

    def coboundary(self, action: Action | None = None) -> "ICochain":
        """The coboundary in ideal-tensor form.

        On an (n+1)-tensor this is the alternating sum over adjacent
        factor contractions a_i a_(i+1) (a product in the group ring),
        plus the module-action term when the action is nontrivial; an
        ideal element acts as zero on a trivial module, so the default
        skips that term entirely.  The contractions run in one vectorized
        pass (``_coboundary_sums``).
        """
        ctx, n = self.ctx, self.degree
        codes, sums = self._coboundary_sums()
        out = dict(zip(_decode_keys(ctx, n + 1, codes), sums.tolist()))
        if action is None:
            # The kernel's keys and sums are valid as they stand.
            return ICochain._trusted(ctx, n + 1, self.ring, out)
        # (v - 1) . c = action(v, c) - c on the leading slot.
        for key, c in self.values.items():
            for v in ctx.nonidentity_elements():
                t = (v,) + key
                out[t] = out.get(t, 0) + action(v, c) - c
        return ICochain(ctx, n + 1, self.ring, out)

    def cup(self, other: "ICochain") -> "ICochain":
        """Cup product with the (-1)^(m n) front sign.

        Requires mod-p coefficients (the trivial-action hypothesis under
        which the block formula holds is automatic for our modules).
        """
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        if self.ring != MOD_P or other.ring != MOD_P:
            raise ValueError("cup products are defined for mod-p cochains")
        sign = -1 if (self.degree * other.degree) % 2 else 1
        values: dict = {}
        for ku, cu in self.values.items():
            for kv, cv in other.values.items():
                values[ku + kv] = sign * cu * cv
        return ICochain(self.ctx, self.degree + other.degree, MOD_P, values)


def cup_many(factors: Sequence[ICochain]) -> ICochain:
    """Cup product of several cochains in one pass.

    The front sign is (-1)^(l(l-1)/2) where l counts the odd-degree
    factors; this equals the product of the pairwise signs picked up by
    left-nested cupping, so the result coincides with reduce(cup, factors).
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
    l = sum(1 for f in factors if f.degree % 2)
    sign = -1 if (l * (l - 1) // 2) % 2 else 1
    degree = sum(f.degree for f in factors)
    values: dict = {}
    for combo in itertools.product(*(f.values.items() for f in factors)):
        key = tuple(itertools.chain.from_iterable(k for k, _ in combo))
        c = sign
        for _, v in combo:
            c *= v
        values[key] = values.get(key, 0) + c
    return ICochain(ctx, degree, MOD_P, values)


# -- vectorized ideal-form coboundary ----------------------------------
#
# A degree-n key is encoded as an integer in base N = p^r - 1: slot 1 is
# the most significant digit and each nonidentity element is its index in
# lexicographic order, so a code equals the key's row in
# ``oracle.cochain_basis``.

_INT64_MAX = int(np.iinfo(np.int64).max)


def _code_dtype(limit: int):
    """int64 when every value stays below ``limit`` <= 2^63, else exact Python ints."""
    return np.int64 if limit - 1 <= _INT64_MAX else object


def _encode_keys(ctx: GroupContext, n: int, keys: list) -> np.ndarray:
    """Codes of degree-n keys (tuples of nonidentity exponent vectors)."""
    big_n = ctx.order - 1
    dtype = _code_dtype(big_n**n)
    if not keys or n == 0:
        return np.zeros(len(keys), dtype=dtype)
    vectors = np.array(keys, dtype=np.int64).reshape(len(keys), n, ctx.r)
    index = (vectors @ ctx.p ** np.arange(ctx.r - 1, -1, -1, dtype=np.int64) - 1).astype(dtype)
    codes = index[:, 0]
    for j in range(1, n):
        codes = codes * big_n + index[:, j]
    return codes


def _decode_keys(ctx: GroupContext, n: int, codes: np.ndarray) -> list:
    """The degree-n keys (tuples of exponent vectors) with the given codes."""
    big_n = ctx.order - 1
    elems = list(ctx.nonidentity_elements())
    slots = []
    for _ in range(n):
        slots.append([elems[i] for i in (codes % big_n).tolist()])
        codes = codes // big_n
    return list(zip(*reversed(slots)))


def _coboundary_sums(ctx: GroupContext, n: int, codes: np.ndarray, coeffs: list,
                     ring: str, by_entry: bool = False) -> tuple:
    """Ideal-form coboundary of sparse degree-n data as one sort-and-reduce.

    Entry e is the key with code ``codes[e]`` and coefficient
    ``coeffs[e]``.  Its image under the coboundary is, for each slot i
    with sign (-1)^i, the contraction (x-1)(y-1) = (xy-1) - (x-1) - (y-1)
    read backwards: the key k_i at slot i is hit by the (n+1)-keys with
    (x, x^-1 k_i) for x != k_i (coefficient +sign), (k_i, y) for every y
    and (x, k_i) for every x (coefficient -sign) in slots i, i+1.  Each
    family is an (E, N) broadcast; x^-1 k_i is worked out on exponent
    digits, with no p^r x p^r table.

    Terms are packed as code * width + coefficient digit (c mod p, or
    c + m for integers bounded by m in absolute value), sorted once, and
    equal codes are summed.  Packed values and sums are int64 when their
    bounds fit, otherwise exact Python ints.  With ``by_entry`` every
    code is offset by e * N^(n+1), which keeps the images of the entries
    apart.

    Returns (codes, sums): the distinct (n+1)-key codes in increasing
    order and their nonzero sums, reduced into [1, p) over MOD_P.
    """
    p, r, big_n = ctx.p, ctx.r, ctx.order - 1
    entries = len(coeffs)
    if n == 0 or entries == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if ring == MOD_P:
        shift, width = 0, p
    else:
        shift = max(abs(c) for c in coeffs)
        width = 2 * shift + 1
    span = big_n ** (n + 1)
    # Besides zero terms a code is hit at most once per slot and family,
    # so a run sums at most 3n digits.
    dtype = _code_dtype(max((entries if by_entry else 1) * span * width,
                            3 * n * max(p - 1, shift) + 1))
    c = np.array(coeffs, dtype=dtype)
    pos, neg = (c % p, -c % p) if ring == MOD_P else (c + shift, shift - c)
    codes = np.asarray(codes).astype(dtype)
    offset = np.arange(entries, dtype=dtype) * (span * width) if by_entry else 0
    elems = np.arange(big_n, dtype=dtype)
    # exponent digits of the elements, most significant first
    digits = (np.arange(1, big_n + 1)[:, None]
              // p ** np.arange(r - 1, -1, -1)) % p
    terms = np.empty((n, 3, entries, big_n), dtype=dtype)
    rows = np.arange(entries)
    for i in range(1, n + 1):
        low = big_n ** (n - i)  # weight of slot i in a degree-n code
        k = (codes // low) % big_n
        k_index = k.astype(np.int64)
        kd = digits[k_index]
        # the (n+1)-code with slots i, i+1 empty; they weigh low*N and low
        base = ((codes // (low * big_n)) * (low * big_n * big_n) + codes % low) * width + offset
        wa, wb = low * big_n * width, low * width
        plus, minus = (neg, pos) if i % 2 else (pos, neg)
        lex = sum(((kd[:, j, None] - digits[None, :, j]) % p) * p ** (r - 1 - j)
                  for j in range(r))
        family = terms[i - 1]
        family[0] = (base + plus)[:, None] + elems * wa + (lex - 1).astype(dtype) * wb
        family[0][rows, k_index] = offset + shift  # x = k_i: a zero term
        family[1] = (base + minus + k * wa)[:, None] + elems * wb
        family[2] = (base + minus + k * wb)[:, None] + elems * wa
    flat = terms.reshape(-1)
    flat.sort()
    values = flat % width
    flat //= width
    if shift:
        values -= shift
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    sums = np.add.reduceat(values, starts)
    if ring == MOD_P:
        sums %= p
    keep = np.flatnonzero(sums)
    return flat[starts[keep]], sums[keep]


# -- signed symmetric-group action -------------------------------------

def perm_inverse(perm: Sequence[int]) -> tuple:
    inv = [0] * len(perm)
    for i, j in enumerate(perm):
        inv[j] = i
    return tuple(inv)


def perm_compose(s: Sequence[int], t: Sequence[int]) -> tuple:
    """The product (s t)(i) = t(s(i)): s acts first, then t.

    This left-to-right convention is the one under which the signed slot
    action below is a group action:
    ``signed_permute(f, perm_compose(s, t)) ==
    signed_permute(signed_permute(f, t), s)``.
    """
    return tuple(t[s[i]] for i in range(len(s)))


def perm_sign(perm: Sequence[int]) -> int:
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def signed_permute(f: ICochain, perm: Sequence[int]) -> ICochain:
    """The signed permutation action on tensor slots.

    (sigma f) evaluated on b_1 x ... x b_n is sgn(sigma) times f on the
    tensor whose j-th slot holds b at sigma^(-1)(j); permutations are
    0-based tuples with perm[i] = sigma(i).  The action satisfies
    (sigma tau) f = sigma (tau f).
    """
    if sorted(perm) != list(range(f.degree)):
        raise ValueError(f"permutation must be of size {f.degree}: {perm!r}")
    sign = perm_sign(perm)
    values = {}
    for key, c in f.values.items():
        newkey = tuple(key[perm[i]] for i in range(len(perm)))
        values[newkey] = sign * c
    return ICochain(f.ctx, f.degree, f.ring, values)
