"""The group G = F_p^r, and elements of its augmentation ideal.

G is F_p^r written multiplicatively, and an element is its code: the int
in [0, p^r) whose base-p digits, first most significant, are its exponent
vector (k_1, ..., k_r).  The identity is 0, the generator s_i is p^(r-i),
codes sort as the vectors do, and multiplication adds digits mod p with
no carry.  Cochain documents write the same ints; ``GroupContext.encode``
and ``decode`` are the one pair that knows exponent vectors.  The
augmentation ideal I of Z[G] (the kernel of the coefficient-sum map) has
the nonidentity differences ``u - 1`` as a basis, and an element of I is
kept on that basis only: a dict {u: c} with u a nonidentity element and
c an exact int, the form in which cochains store their values and
evaluate.  ``shifted_monomial`` expands the products of the differences
``s_i - 1`` of the distinguished generators onto it.  ``check_budget``
refuses every size over the entry budget, on its logarithm first, so no
refused size needs p^r; it and the two errors every layer raises
(``BudgetExceededError``, ``NotACocycleError``) live here, so the block
oracle and the CLI reach them without loading any cochain code.
"""

from __future__ import annotations

import math
import operator

# Coefficient-ring tags.  MOD_P values are always stored reduced into [0, p).
INTEGERS = "Z"
MOD_P = "Fp"

# The entry budget of the oracles' dense matrices and enumerated keys, and of
# the terms of coboundaries and cup products.  No flag or parameter raises it.
DEFAULT_MAX_ENTRIES = 1 << 24


class NotACocycleError(ValueError):
    """Raised when an operation defined on cohomology classes gets a non-cocycle."""


class DocumentError(ValueError):
    """A document, or a command-line argument, failed to parse or validate."""


# Sizes of more decimal digits than this are printed as a bound; str()
# refuses ints of more than 4 300 digits.
EXACT_SIZE_DIGITS = 3900


class BudgetExceededError(RuntimeError):
    """A computation would exceed the entry budget (see ``check_budget``):
    ``required``, the size needed, is printed in full up to
    ``EXACT_SIZE_DIGITS`` digits and as "more than 10^k" past them; it is
    None for a size refused on a bound ``log10`` of its logarithm alone."""

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


def check_budget(size, log10: float = 0.0, digits: int = EXACT_SIZE_DIGITS) -> int:
    """Refuse, before any work, a computation of more entries than the
    entry budget, and return its size: on ``log10``, a lower bound of the
    size's base-10 logarithm, alone past ``digits`` digits, and otherwise
    on ``size``, an int or a function that computes it.  A count that is
    returned, not built, passes its own logarithm and ``digits`` = the budget."""
    if log10 >= digits:
        raise BudgetExceededError(None, log10)
    size = size() if callable(size) else size
    if size > DEFAULT_MAX_ENTRIES:
        raise BudgetExceededError(size)
    return size


def _log10_size(ctx: GroupContext, factor: int, power: int = 1) -> float:
    """log10(factor N^power), from N = p^r - 1 = p^r (1 - p^-r) without p^r;
    N = 1 (p = 2, r = 1) gives 0 for every power."""
    log10_n = ctx.r * math.log10(ctx.p) + math.log10(-math.expm1(-ctx.r * math.log(ctx.p)))
    return math.log10(factor) + power * log10_n if factor else -math.inf


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
    Immutable, compared and hashed by (p, r).  Elements are codes (see the
    module docstring).

    >>> ctx = GroupContext(3, 2)
    >>> ctx
    GroupContext(p=3, r=2)
    >>> ctx.decode(ctx.mul(ctx.encode((1, 2)), ctx.encode((2, 2))))
    (0, 1)
    >>> ctx.generator(1), ctx.identity
    (3, 0)
    """

    __slots__ = ("p", "r")

    identity = 0

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
    def order(self) -> int:
        return self.p**self.r

    def nonidentity_elements(self) -> range:
        return range(1, self.order)

    def generator(self, i: int) -> int:
        """The i-th distinguished generator s_i (1-based)."""
        self.check_index(i)
        return self.p ** (self.r - i)

    def generator_power(self, i: int, k: int) -> int:
        return k % self.p * self.generator(i)

    def mul(self, u: int, v: int) -> int:
        p = self.p
        return _code(((a + b) % p for a, b in zip(self.decode(u), self.decode(v))), p)

    def inverse(self, u: int) -> int:
        p = self.p
        return _code((-a % p for a in self.decode(u)), p)

    def encode(self, vector) -> int:
        """The element of an exponent vector, a tuple of r ints in [0, p)."""
        if not isinstance(vector, tuple) or len(vector) != self.r:
            raise ValueError(f"exponent vector must be a tuple of length {self.r}: {vector!r}")
        p = self.p
        for a in vector:
            if not isinstance(a, int) or not 0 <= a < p:
                raise ValueError(f"exponents must be integers in [0, {p}): {vector!r}")
        return _code(vector, p)

    def decode(self, u: int) -> tuple:
        """The exponent vector of an element, read off by r divmods."""
        p, digits = self.p, [0] * self.r
        for i in range(self.r - 1, -1, -1):
            u, digits[i] = divmod(u, p)
        return tuple(digits)

    def below_order(self, u: int) -> bool:
        """Whether a nonnegative int is below p^r.  The bound is tested
        against p^min(r, bits of u), which is at least p^r or larger than
        u, so p^r itself is never computed."""
        return u < self.p ** min(self.r, u.bit_length())

    def check_elem(self, u) -> int:
        if type(u) is not int or u < 0 or not self.below_order(u):
            raise ValueError(f"group elements are integers in [0, {self.p}^{self.r}): {u!r}")
        return u

    def check_index(self, i: int) -> int:
        if not 1 <= i <= self.r:
            raise ValueError(f"generator index must be in [1, {self.r}], got {i}")
        return i


def _code(digits, p: int) -> int:
    """The int whose base-p digits are ``digits``, most significant first."""
    code = 0
    for digit in digits:
        code = code * p + digit
    return code


def _group_context(p: int, r: int, where: str = "") -> GroupContext:
    """GroupContext(p, r) read from a document or the command line, whose
    ValueError becomes a DocumentError."""
    try:
        return GroupContext(p, r)
    except ValueError as exc:
        raise DocumentError(f"{where}{exc}") from None


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

    The exponent vector ``k`` is a vector of exponents of the t_i =
    s_i - 1, not an element; the result's keys are elements.

    >>> ctx = GroupContext(3, 1)
    >>> shifted_monomial(ctx, (2,)) == {1: -2, 2: 1}
    True
    """
    if len(k) != ctx.r or any(not isinstance(a, int) or a < 0 for a in k):
        raise ValueError(f"exponent vector must be {ctx.r} nonnegative integers: {k!r}")
    if not any(k):
        raise ValueError("the zero exponent vector gives 1, which is not in the ideal")
    p = ctx.p
    terms: dict = {0: 1}
    for e in k:  # the element codes, one base-p digit per generator
        factor = _difference_power(e, p).items()
        terms = {u * p + j: c * v for u, c in terms.items() for j, v in factor}
    # Products of nonzero integers stay nonzero, so only the identity goes.
    terms.pop(0, None)
    return terms
