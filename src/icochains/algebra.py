"""The target algebra and the forward map.

For p = 2 the cohomology ring of G = F_p^r is a polynomial algebra on r
degree-1 variables; for p > 2 it is the exterior algebra on r degree-1
variables tensored with a polynomial algebra on their r degree-2 Bockstein
images.  In both cases a monomial basis of the degree-n part is indexed by
exponent signatures (n_1, ..., n_r) with sum n, where for p > 2 the parity
of n_i splits into the exterior part (odd) and the polynomial part (even):
signature entry m = 2k + l, l in {0, 1}, stands for (i-th degree-1
variable)^l times (its Bockstein)^k.

``realize`` maps a signature to an explicit cocycle by cupping generator
powers.  The reverse map, ``invert``, and the count of its formula's
terms live in ``inverse``, so that realizing loads no inverse map and
inverting loads no generator cocycles.  The older names read here from
``inverse`` (``invert``, ``invert_normalized``, ``count_terms``) resolve
on first access, for the benchmark (bench/).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .cochain import ICochain, cup_many
from .group_ring import EXACT_SIZE_DIGITS, BudgetExceededError, GroupContext, check_budget

MonomialSig = tuple  # r nonnegative ints; degree = their sum


def compositions(n: int, parts: int) -> Iterator[tuple]:
    """All tuples of `parts` nonnegative integers summing to n."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if parts < 1:
        raise ValueError("parts must be >= 1")
    # the parts are the gaps between parts - 1 bars among n + parts - 1 slots
    for bars in itertools.combinations(range(n + parts - 1), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1,) + bars, bars + (n + parts - 1,)))


def monomial_mul(a: MonomialSig, b: MonomialSig, p: int) -> tuple[int, MonomialSig]:
    """Multiply two monomial signatures; returns (sign, combined signature).

    For p = 2 the product is the plain exponent sum with sign +1.  For
    p > 2 the product vanishes (sign 0) when some variable is odd in both
    factors (its exterior part squares to zero); otherwise the exponents
    add and the sign is the Koszul sign from moving the odd parts of b
    past the odd parts of a with larger index.
    """
    if len(a) != len(b):
        raise ValueError("signature length mismatch")
    combined = tuple(x + y for x, y in zip(a, b))
    if p == 2:
        return 1, combined
    if any(x % 2 and y % 2 for x, y in zip(a, b)):
        return 0, combined
    inversions = 0
    for j, y in enumerate(b):
        if y % 2:
            inversions += sum(1 for x in a[j + 1:] if x % 2)
    return (-1 if inversions % 2 else 1), combined


class AlgebraElem:
    """Sparse element of the target algebra in the monomial-signature basis."""

    __slots__ = ("ctx", "terms")

    def __init__(self, ctx: GroupContext, terms: dict):
        self.ctx = ctx
        clean = {}
        for sig, c in terms.items():
            if not isinstance(sig, tuple) or len(sig) != ctx.r:
                raise ValueError(f"signature must be a tuple of length {ctx.r}: {sig!r}")
            if any(not isinstance(m, int) or m < 0 for m in sig):
                raise ValueError(f"signature entries must be nonnegative integers: {sig!r}")
            if not isinstance(c, int):
                raise ValueError(f"coefficients must be integers: {c!r}")
            c %= ctx.p
            if c:
                clean[sig] = c
        self.terms = clean

    @classmethod
    def monomial(cls, ctx: GroupContext, sig: Sequence[int], coeff: int = 1) -> "AlgebraElem":
        return cls(ctx, {tuple(sig): coeff})

    def __mul__(self, other: "AlgebraElem") -> "AlgebraElem":
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        p = self.ctx.p
        terms: dict = {}
        for sa, ca in self.terms.items():
            for sb, cb in other.terms.items():
                sign, sig = monomial_mul(sa, sb, p)
                if sign:
                    terms[sig] = terms.get(sig, 0) + sign * ca * cb
        return AlgebraElem(self.ctx, terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, AlgebraElem):
            return NotImplemented
        return self.ctx == other.ctx and self.terms == other.terms

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {sum(sig) for sig in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def __repr__(self):
        return f"AlgebraElem(p={self.ctx.p}, r={self.ctx.r}, {self.terms!r})"


# -- the forward map ----------------------------------------------------

def realize(e: AlgebraElem) -> ICochain:
    """Realize a homogeneous algebra element as an explicit cocycle.

    A basis signature (n_1, ..., n_r) maps to the cup product of the
    degree-n_i generator powers of the r variables, taken in variable
    order; the map extends linearly.  Each signature's support is known
    before any factor is built (a product of nonzero residues mod p is
    nonzero), and one over the entry budget is refused first.

    Each signature is one flat ``cup_many`` of all its generator factors,
    scaled when c != 1, and the terms are added as cochains; a one-term
    element comes back with its keys in sorted order.
    """
    if not e.is_homogeneous():
        raise ValueError("can only realize homogeneous elements")
    ctx = e.ctx
    if e.is_zero():
        return ICochain.zero(ctx, 0)
    for sig in e.terms:
        _check_signature_budget(ctx, sig)
    total = None
    for sig, c in e.terms.items():
        f = _signature_cocycle(ctx, sig)
        if c != 1:
            f = f.scale(c)
        total = f if total is None else total + f
    return total


def _check_signature_budget(ctx: GroupContext, sig: MonomialSig) -> None:
    """Refuse a signature whose cocycle has more entries than the entry
    budget, before any factor is built.

    Its support is a^odd b^pairs, with a and b the supports of a degree-1
    and a degree-2 generator (see ``_power_support``), odd the number of
    odd exponents and pairs the sum of their halves.  The logarithm decides
    first, so a huge signature is refused without the exact product, which
    takes seconds at degree 10^7.

    A signature whose degree is over the budget is refused too: each key
    holds one slot per degree.  So is one whose key slots ``cup_many``
    copies, degree x ceil(log2 m) for its m = odd + pairs generator
    factors, are over it.  These are the only refusals at p = 2, r = 1,
    where every generator, and so every power, has one entry.  Last come
    the key slots that the cocycle and its document hold, entries x
    degree: at p = 3, r = 1 a degree-30 signature has 3^15 entries, under
    the budget, but 430 467 210 slots.
    """
    from .generators import _power_support

    a, b = _power_support(ctx, 1), _power_support(ctx, 2)
    odd, pairs = sum(m % 2 for m in sig), sum(m // 2 for m in sig)
    log10 = odd * math.log10(a) + pairs * math.log10(b)
    if log10 > EXACT_SIZE_DIGITS:
        raise BudgetExceededError(None, log10)
    entries = a**odd * b**pairs
    check_budget(entries)
    degree = sum(sig)
    check_budget(degree)
    check_budget(degree * (odd + pairs - 1).bit_length())
    check_budget(entries * degree)


def _signature_cocycle(ctx: GroupContext, sig: MonomialSig) -> ICochain:
    """The cocycle of one signature: the degree-1 and degree-2 generators
    of every variable, in variable order, cupped in one ``cup_many``.  Its
    sign is that of the nested cup of generator powers, since each power
    has at most one odd factor."""
    from .generators import _power_factors

    factors = [f for i, m in enumerate(sig, start=1)
               for f in _power_factors(ctx, i, m)]
    return cup_many(factors) if factors else ICochain.constant(ctx, 1)


def __getattr__(name: str):
    # names of the inverse map that callers outside the package read here
    if name in ("invert", "invert_normalized", "count_terms"):
        from . import inverse
        return getattr(inverse, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
