"""Exact arithmetic in Z[G] and F_p[G] for an elementary abelian p-group G.

G is F_p^r written multiplicatively: an element is an exponent vector
``(k_1, ..., k_r)`` with ``0 <= k_i < p``, and multiplication adds exponents
mod p.  Ring elements are stored sparsely on the group basis, the only
basis they are kept on.  ``shifted_monomial`` expands the products of the
differences ``s_i - 1`` of the distinguished generators onto it.  The
augmentation ideal (kernel of the coefficient-sum map) has the nonidentity
differences ``u - 1`` as a basis; ``as_difference_basis`` rewrites an
element on it, and ``NormExpansion`` gives (s_i - 1)^(p-1) there in closed
form.
"""

from __future__ import annotations

import itertools
from collections.abc import Mapping
from typing import Iterator

# Coefficient-ring tags.  MOD_P values are always stored reduced into [0, p).
INTEGERS = "Z"
MOD_P = "Fp"

# A group element is a plain tuple of ints; validation happens at the
# GroupContext / RingElem boundary.
GroupElem = tuple


# Strong-probable-prime bases 2..41 (the first 13 primes) decide primality
# exactly below _PRIME_LIMIT, the least composite that passes all of them
# (3 317 044 064 679 887 385 961 981 = 1287836182261 * 2575672364521).
# Bases 2..37 alone are fooled by 318 665 857 834 031 151 167 461.
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_LIMIT = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test.

    Raises ValueError for n >= _PRIME_LIMIT, where the fixed witnesses no
    longer decide the question.
    """
    if n >= _PRIME_LIMIT:
        raise ValueError(f"primality is only decided below {_PRIME_LIMIT}, got {n}")
    if n < 2:
        return False
    for a in _WITNESSES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _WITNESSES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class GroupContext:
    """Ambient parameters (p, r) for G = F_p^r, shared by all values.
    Immutable, compared and hashed by (p, r).

    >>> ctx = GroupContext(3, 2)
    >>> ctx
    GroupContext(p=3, r=2)
    >>> ctx.mul((1, 2), (2, 2))
    (0, 1)
    >>> ctx.identity
    (0, 0)
    """

    __slots__ = ("p", "r")

    def __init__(self, p: int, r: int):
        if not is_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if r < 1:
            raise ValueError(f"r must be >= 1, got {r}")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "r", r)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable GroupContext")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable GroupContext")

    def __eq__(self, other) -> bool:
        if type(other) is not GroupContext:
            return NotImplemented
        return self.p == other.p and self.r == other.r

    def __hash__(self):
        return hash((self.p, self.r))

    def __repr__(self):
        return f"GroupContext(p={self.p!r}, r={self.r!r})"

    @property
    def identity(self) -> GroupElem:
        return (0,) * self.r

    @property
    def order(self) -> int:
        return self.p**self.r

    def elements(self) -> Iterator[GroupElem]:
        """All p^r exponent vectors in lexicographic order."""
        return itertools.product(range(self.p), repeat=self.r)

    def nonidentity_elements(self) -> Iterator[GroupElem]:
        return (u for u in self.elements() if any(u))

    def generator(self, i: int) -> GroupElem:
        """The i-th distinguished generator s_i (1-based)."""
        self.check_index(i)
        return tuple(1 if j == i - 1 else 0 for j in range(self.r))

    def generator_power(self, i: int, k: int) -> GroupElem:
        self.check_index(i)
        return tuple(k % self.p if j == i - 1 else 0 for j in range(self.r))

    def mul(self, u: GroupElem, v: GroupElem) -> GroupElem:
        return tuple((a + b) % self.p for a, b in zip(u, v))

    def inverse(self, u: GroupElem) -> GroupElem:
        return tuple((-a) % self.p for a in u)

    def check_elem(self, u) -> GroupElem:
        if not isinstance(u, tuple) or len(u) != self.r:
            raise ValueError(f"group element must be a tuple of length {self.r}: {u!r}")
        if any(not isinstance(a, int) or not 0 <= a < self.p for a in u):
            raise ValueError(f"exponents must be integers in [0, {self.p}): {u!r}")
        return u

    def check_index(self, i: int) -> int:
        if not 1 <= i <= self.r:
            raise ValueError(f"generator index must be in [1, {self.r}], got {i}")
        return i


def _check_ring(ring: str) -> str:
    if ring not in (INTEGERS, MOD_P):
        raise ValueError(f"unknown coefficient ring {ring!r}")
    return ring


class RingElem:
    """Sparse element of Z[G] or F_p[G], keyed by exponent vectors.

    Zero coefficients are never stored; mod-p coefficients are kept in
    [0, p).  Instances are immutable by convention: every operation
    returns a fresh element.
    """

    __slots__ = ("ctx", "ring", "terms")

    def __init__(self, ctx: GroupContext, ring: str, terms: dict):
        self.ctx = ctx
        self.ring = _check_ring(ring)
        p = ctx.p
        clean = {}
        for u, c in terms.items():
            ctx.check_elem(u)
            if ring == MOD_P:
                c %= p
            if c:
                clean[u] = c
        self.terms = clean

    @classmethod
    def _trusted(cls, ctx: GroupContext, ring: str, terms: dict) -> "RingElem":
        """Wrap terms that are already valid: group-element keys, nonzero
        coefficients, reduced into [0, p) over MOD_P.  No check, no copy."""
        elem = cls.__new__(cls)
        elem.ctx, elem.ring, elem.terms = ctx, ring, terms
        return elem

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, ctx: GroupContext, ring: str = INTEGERS) -> "RingElem":
        return cls(ctx, ring, {})

    @classmethod
    def unit(cls, ctx: GroupContext, ring: str = INTEGERS) -> "RingElem":
        return cls(ctx, ring, {ctx.identity: 1})

    @classmethod
    def from_group_elem(cls, ctx: GroupContext, u: GroupElem, ring: str = INTEGERS) -> "RingElem":
        return cls(ctx, ring, {u: 1})

    # -- ring structure -----------------------------------------------

    def _compatible(self, other: "RingElem") -> None:
        if self.ctx != other.ctx or self.ring != other.ring:
            raise ValueError("context or coefficient-ring mismatch")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._compatible(other)
        terms = dict(self.terms)
        for u, c in other.terms.items():
            terms[u] = terms.get(u, 0) + c
        return RingElem(self.ctx, self.ring, terms)

    def __neg__(self) -> "RingElem":
        return RingElem(self.ctx, self.ring, {u: -c for u, c in self.terms.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        # Convolution product induced by s^k * s^l = s^(k+l mod p).
        self._compatible(other)
        ctx = self.ctx
        terms: dict = {}
        for u, cu in self.terms.items():
            for v, cv in other.terms.items():
                w = ctx.mul(u, v)
                terms[w] = terms.get(w, 0) + cu * cv
        return RingElem(ctx, self.ring, terms)

    def scale(self, c: int) -> "RingElem":
        return RingElem(self.ctx, self.ring, {u: c * v for u, v in self.terms.items()})

    def power(self, k: int) -> "RingElem":
        if k < 0:
            raise ValueError("negative powers are not defined")
        result = RingElem.unit(self.ctx, self.ring)
        for _ in range(k):
            result = result * self
        return result

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.ctx == other.ctx and self.ring == other.ring and self.terms == other.terms

    def __hash__(self):
        return hash((self.ctx, self.ring, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, u: GroupElem) -> int:
        return self.terms.get(u, 0)

    def mod_p(self) -> "RingElem":
        """The image in F_p[G] (identity if already mod p)."""
        return RingElem(self.ctx, MOD_P, self.terms)

    def __repr__(self):
        items = ", ".join(f"{u}: {c}" for u, c in sorted(self.terms.items()))
        return f"RingElem(p={self.ctx.p}, r={self.ctx.r}, {self.ring}, {{{items}}})"


def augmentation(a: RingElem) -> int:
    """Sum of the coefficients; a ring map onto the coefficient ring."""
    total = sum(a.terms.values())
    return total % a.ctx.p if a.ring == MOD_P else total


def shifted_generator(ctx: GroupContext, i: int, ring: str = INTEGERS) -> RingElem:
    """The difference s_i - 1 of the i-th generator."""
    ctx.check_index(i)
    return RingElem(ctx, ring, {ctx.generator(i): 1, ctx.identity: -1})


def _difference_power(e: int, p: int, ring: str) -> dict:
    """(s - 1)^e for one generator s of order p, as {j: coefficient of s^j}.

    Expands sum over j of C(e, j) (-1)^(e-j) s^(j mod p), updating the
    signed term by t_(j+1) = -t_j (e - j) / (j + 1).  Over F_p with e < p
    every j + 1 is a unit, so the update runs mod p on word-size numbers
    (with the inverses of 1..e tabulated in one pass); otherwise it runs
    exactly over Z and reduces at the end.
    """
    coeffs: dict = {}
    if ring == MOD_P and e < p:
        inv = [0, 1]
        for i in range(2, e + 1):
            inv.append(-(p // i) * inv[p % i] % p)
        t = (-1) ** e % p
        for j in range(e):
            coeffs[j] = t
            t = -t * (e - j) * inv[j + 1] % p
        coeffs[e] = t
        return coeffs
    t = (-1) ** e
    for j in range(e + 1):
        coeffs[j % p] = coeffs.get(j % p, 0) + t
        t = -t * (e - j) // (j + 1)
    if ring == MOD_P:
        return {j: c % p for j, c in coeffs.items() if c % p}
    return {j: c for j, c in coeffs.items() if c}


def shifted_monomial(ctx: GroupContext, k, ring: str = INTEGERS) -> RingElem:
    """The product of (s_i - 1)^(k_i), expanded on the group basis.

    Each factor is expanded in closed form by the binomial theorem, and
    since the factors involve distinct generators their product is the
    outer product of the expansions: no ring multiplication is needed, so
    a factor with exponent e costs O(e) coefficient updates (word-size
    ones over F_p when e < p).  Exponents >= p are legal: the power is
    taken honestly in the group ring (where s_i^p = 1), which is what
    transient computations with (s_i - 1)^p need.  Only basis enumeration
    restricts to k_i <= p - 1.  ``shifted_generator(...).power`` is the
    slow reference the tests compare against.

    >>> ctx = GroupContext(2, 1)
    >>> shifted_monomial(ctx, (2,)).terms == {(0,): 2, (1,): -2}
    True
    """
    _check_ring(ring)
    if len(k) != ctx.r or any(not isinstance(a, int) or a < 0 for a in k):
        raise ValueError(f"exponent vector must be {ctx.r} nonnegative integers: {k!r}")
    p = ctx.p
    terms: dict = {(): 1}
    for e in k:
        factor = _difference_power(e, p, ring).items()
        terms = {u + (j,): c * v for u, c in terms.items() for j, v in factor}
    if ring == MOD_P:
        terms = {u: c % p for u, c in terms.items()}
    # Products of nonzero coefficients stay nonzero, over Z and over F_p.
    return RingElem._trusted(ctx, ring, terms)


def as_difference_basis(a: RingElem) -> dict:
    """Write an augmentation-ideal element as sum of c_u * (u - 1), u != 1.

    The coefficient of u - 1 is simply the group-basis coefficient of u;
    the identity coefficient is then forced by augmentation zero.  Raises
    if a is not in the ideal.
    """
    if augmentation(a) != 0:
        raise ValueError("element has nonzero augmentation, not in the augmentation ideal")
    identity = a.ctx.identity
    return {u: c for u, c in a.terms.items() if u != identity}


class NormExpansion(Mapping):
    """(s_i - 1)^(p-1) over F_p on the difference basis, in closed form.

    C(p-1, j) (-1)^(p-1-j) = 1 mod p, so the power is the norm element
    1 + s_i + ... + s_i^(p-1); it lies in the augmentation ideal, so its
    coefficient on s_i^j - 1 is 1 for every j = 1..p-1.  A lookup costs
    O(r) at any p.  ``size`` is the support size p - 1 as a plain int,
    since ``len()`` fails past ``sys.maxsize``.
    ``as_difference_basis(shifted_monomial(...))`` is the reference.
    """

    __slots__ = ("ctx", "i", "size")

    def __init__(self, ctx: GroupContext, i: int):
        self.ctx, self.i, self.size = ctx, ctx.check_index(i), ctx.p - 1

    def get(self, u, default=None):
        j = self.i - 1
        if (isinstance(u, tuple) and len(u) == self.ctx.r and 0 < u[j] < self.ctx.p
                and not any(u[:j]) and not any(u[j + 1:])):
            return 1
        return default

    def __getitem__(self, u):
        c = self.get(u)
        if c is None:
            raise KeyError(u)
        return c

    def __iter__(self):
        return (self.ctx.generator_power(self.i, k) for k in range(1, self.ctx.p))

    def __len__(self) -> int:
        return self.size
