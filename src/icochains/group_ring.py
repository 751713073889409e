"""The group G = F_p^r, and elements of its augmentation ideal.

G is F_p^r written multiplicatively: an element is an exponent vector
``(k_1, ..., k_r)`` with ``0 <= k_i < p``, and multiplication adds exponents
mod p.  The augmentation ideal I of Z[G] (the kernel of the coefficient-sum
map) has the nonidentity differences ``u - 1`` as a basis, and an element
of I is kept on that basis only: a dict {u: c} with u a nonidentity
element and c an exact int, the form in which cochains store their values
and evaluate.  ``shifted_monomial`` expands the products of the
differences ``s_i - 1`` of the distinguished generators onto it.  The
entry budget, ``check_budget`` (which refuses a size over it) and the two
errors every layer raises (``BudgetExceededError``, ``NotACocycleError``)
live here too, so the block oracle and the CLI reach them without
loading any cochain code.
"""

from __future__ import annotations

import itertools
import math
import operator
from typing import Iterator

# Coefficient-ring tags.  MOD_P values are always stored reduced into [0, p).
INTEGERS = "Z"
MOD_P = "Fp"

# A group element is a plain tuple of ints, checked by GroupContext.check_elem
# where it enters from outside.
GroupElem = tuple

# The entry budget of the oracles' dense matrices and enumerated keys, and of
# the terms of coboundaries and cup products.  No flag or parameter raises it.
DEFAULT_MAX_ENTRIES = 1 << 24


class NotACocycleError(ValueError):
    """Raised when an operation defined on cohomology classes gets a non-cocycle."""


# Sizes of more decimal digits than this are printed as a bound; str()
# refuses ints of more than 4 300 digits.
EXACT_SIZE_DIGITS = 3900


class BudgetExceededError(RuntimeError):
    """A matrix, the key set of a block computation, or the terms of a
    coboundary or cup product would exceed the entry budget.

    ``required`` is the size needed, printed in full up to
    ``EXACT_SIZE_DIGITS`` digits and as a bound, "more than 10^k", past
    them.  A caller that cannot afford the exact size passes None and its
    base-10 logarithm ``log10``; ``required`` is then None.
    """

    def __init__(self, required: int | None, log10: float | None = None):
        if required is not None:
            log10 = math.log10(max(required, 1))
        if required is not None and log10 <= EXACT_SIZE_DIGITS:
            needs = str(required)
        else:  # the margin keeps a float log10 of exactly k from claiming 10^k
            needs = f"more than 10^{math.floor(log10 * (1 - 1e-12))}"
        super().__init__(f"the computation needs {needs} entries, "
                         f"over the budget of {DEFAULT_MAX_ENTRIES}")
        self.required = required


def check_budget(required: int) -> None:
    """Refuse, before any work, a computation that needs more entries than
    the entry budget.  Callers that can only afford the logarithm of the
    size raise ``BudgetExceededError`` with it themselves."""
    if required > DEFAULT_MAX_ENTRIES:
        raise BudgetExceededError(required)


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
        try:
            p, r = operator.index(p), operator.index(r)
        except TypeError:
            raise ValueError(f"p and r must be integers: {p!r}, {r!r}") from None
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


def _difference_power(e: int, p: int) -> dict:
    """(s - 1)^e for one generator s of order p, as {j: coefficient of s^j}.

    Expands sum over j of C(e, j) (-1)^(e-j) s^(j mod p) exactly over Z,
    updating the signed term by t_(j+1) = -t_j (e - j) / (j + 1).
    """
    coeffs: dict = {}
    t = (-1) ** e
    for j in range(e + 1):
        coeffs[j % p] = coeffs.get(j % p, 0) + t
        t = -t * (e - j) // (j + 1)
    return {j: c for j, c in coeffs.items() if c}


def shifted_monomial(ctx: GroupContext, k) -> dict:
    """The product of (s_i - 1)^(k_i), an element of the augmentation
    ideal, on the difference basis: {u: c} stands for the sum of
    c (u - 1) over nonidentity u, with exact int coefficients.

    Each factor is expanded in closed form by the binomial theorem, and
    since the factors involve distinct generators their product on the
    group basis is the outer product of the expansions.  Its coefficient
    at u != 1 is its coefficient on u - 1; the identity's is forced by
    augmentation zero and dropped.  The zero vector is refused, since 1
    is not in the ideal.  Exponents >= p are legal: the power is taken
    honestly in Z[G] (where s_i^p = 1).  Callers that need residues
    reduce the result mod p.

    >>> ctx = GroupContext(3, 1)
    >>> shifted_monomial(ctx, (2,)) == {(1,): -2, (2,): 1}
    True
    """
    if len(k) != ctx.r or any(not isinstance(a, int) or a < 0 for a in k):
        raise ValueError(f"exponent vector must be {ctx.r} nonnegative integers: {k!r}")
    if not any(k):
        raise ValueError("the zero exponent vector gives 1, which is not in the ideal")
    p = ctx.p
    terms: dict = {(): 1}
    for e in k:
        factor = _difference_power(e, p).items()
        terms = {u + (j,): c * v for u, c in terms.items() for j, v in factor}
    # Products of nonzero integers stay nonzero, so only the identity goes.
    terms.pop(ctx.identity, None)
    return terms
