"""The target algebra and the inverse isomorphism.

For p = 2 the cohomology ring of G = F_p^r is a polynomial algebra on r
degree-1 variables; for p > 2 it is the exterior algebra on r degree-1
variables tensored with a polynomial algebra on their r degree-2 Bockstein
images.  In both cases a monomial basis of the degree-n part is indexed by
exponent signatures (n_1, ..., n_r) with sum n, where for p > 2 the parity
of n_i splits into the exterior part (odd) and the polynomial part (even):
signature entry m = 2k + l, l in {0, 1}, stands for (i-th degree-1
variable)^l times (its Bockstein)^k.

``realize`` maps a signature to an explicit cocycle by cupping generator
powers.  ``invert`` is the reverse map on cochain representatives, one
function of the stored values, which is all the paper's formula reads.
It kills coboundaries exactly, so it is well defined on cohomology.

The formula is one sum over generator words w in [r]^n, for every p:

- slot j holds generator w_j;
- a slot is a split slot, taking every power s_i^q with q in [1, p), when
  an odd number of later slots hold the same generator;
- every other slot holds s_i itself;
- the term's sign is the parity of w's out-of-order pairs times
  ``_block_sign`` of w's content, the signature it adds to.

These are the paper's block shuffles of the probe tuples: blocks being
increasing, a word fixes its shuffle, whose inversions are the word's
out-of-order pairs, and mod p the splits s_i^q - 1 of each
(s_i - 1)^(p-1) factor sum to that factor.  At p = 2 a split slot has
the one choice s_i and every sign is 1, so the coefficient of a monomial
is the sum of the values on the generator tuples of that content.

So each stored key meets at most one term: its slots must be powers of
single generators, s_i itself on every slot the rule does not split, and
its word then names the term.  ``invert`` is therefore a sum over the E
stored entries, in O(E n r), which reads each key once.
``invert_normalized_counted`` evaluates the formula itself, term by
term, and counts its evaluations; it is the reference the tests compare
``invert`` with.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .cochain import ICochain, cup_many
from .generators import _power_factors, _power_support
from .group_ring import (
    DEFAULT_MAX_ENTRIES,
    EXACT_SIZE_DIGITS,
    MOD_P,
    BudgetExceededError,
    GroupContext,
    check_budget,
)

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
    def zero(cls, ctx: GroupContext) -> "AlgebraElem":
        return cls(ctx, {})

    @classmethod
    def monomial(cls, ctx: GroupContext, sig: Sequence[int], coeff: int = 1) -> "AlgebraElem":
        return cls(ctx, {tuple(sig): coeff})

    def __add__(self, other: "AlgebraElem") -> "AlgebraElem":
        if self.ctx != other.ctx:
            raise ValueError("context mismatch")
        terms = dict(self.terms)
        for sig, c in other.terms.items():
            terms[sig] = terms.get(sig, 0) + c
        return AlgebraElem(self.ctx, terms)

    def __neg__(self) -> "AlgebraElem":
        return AlgebraElem(self.ctx, {s: -c for s, c in self.terms.items()})

    def __sub__(self, other: "AlgebraElem") -> "AlgebraElem":
        return self + (-other)

    def scale(self, c: int) -> "AlgebraElem":
        return AlgebraElem(self.ctx, {s: c * v for s, v in self.terms.items()})

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
    factors = [f for i, m in enumerate(sig, start=1)
               for f in _power_factors(ctx, i, m)]
    return cup_many(factors) if factors else ICochain.constant(ctx, 1)


# -- the inverse map ----------------------------------------------------

def _require_mod_p(f) -> None:
    if f.ring != MOD_P:
        raise ValueError("the inverse map is defined for mod-p cochains")


def _block_sign(comp: Sequence[int]) -> int:
    """(-1)^(l(l-1)/2), l the number of odd blocks of the signature."""
    l = sum(1 for ni in comp if ni % 2)
    return -1 if (l * (l - 1) // 2) % 2 else 1


def _signed(ctx: GroupContext, totals: dict) -> AlgebraElem:
    """The algebra element of the word sums by content, each signed by
    ``_block_sign``."""
    return AlgebraElem(ctx, {comp: _block_sign(comp) * t for comp, t in totals.items()})


def invert(f) -> AlgebraElem:
    """Map a degree-n cochain of either kind to algebra coordinates.

    This is the raw linear map on cochains; it vanishes on coboundaries,
    so on cocycles it computes the inverse of ``realize`` on classes.  It
    sums over the stored keys, in O(E n r): each key meets at most one
    term of the formula (see the module docstring).  A key is read from
    its last slot, which ends a block and so is a generator on every
    probe; most keys off the probes fail that first test.  A slot's
    exponents lie in [0, p), so they sum to 1 only at a generator, and
    nothing is built per generator.
    """
    _require_mod_p(f)
    ctx = f.ctx
    slots: dict = {}  # element -> (generator index, exponent), or None
    totals: dict = {}
    for key, v in f.values.items():
        if key and sum(key[-1]) != 1:
            continue
        sizes = [0] * ctx.r  # slots of each generator read so far
        inversions = 0  # pairs of the generator word out of order
        for u in reversed(key):
            slot = slots.get(u, False)
            if slot is False:
                support = [g for g, e in enumerate(u) if e]
                slot = slots[u] = (support[0], u[support[0]]) if len(support) == 1 else None
            if slot is None:
                break
            g, e = slot
            if e != 1 and not sizes[g] % 2:
                break  # an even offset from the block's end holds s_g on the probe
            inversions += sum(sizes[:g])
            sizes[g] += 1
        else:
            comp = tuple(sizes)
            totals[comp] = totals.get(comp, 0) + (-v if inversions % 2 else v)
    return _signed(ctx, totals)


# The older name of ``invert``, kept for the benchmark's reference
# (bench/workloads.py); the package does not export it.
invert_normalized = invert


def invert_normalized_counted(a) -> tuple[AlgebraElem, int]:
    """The paper's formula, evaluated term by term over generator words,
    with the number of cochain evaluations performed (the advertised term
    count of the formula).  It is the same map as ``invert``, which sums
    the stored entries instead; the tests compare the two, and criterion 7
    checks the count against ``count_terms``.

    One backward pass over a word w in [r]^n finds its split slots, the
    parity of its out-of-order pairs and its content; its term then
    evaluates every key of the slots' choices (see the module
    docstring).  A generator's p - 1 powers are built at its first split
    slot.
    """
    _require_mod_p(a)
    ctx, n, values = a.ctx, a.degree, a.values
    r = ctx.r
    steady = [(ctx.generator(g),) for g in range(1, r + 1)]
    split: list = [None] * r
    totals: dict = {}
    evaluations = 0
    for word in itertools.product(range(r), repeat=n):
        sizes = [0] * r  # slots of each generator read so far
        inversions = 0
        slots = []  # each slot's choices, last slot first
        for g in reversed(word):
            inversions += sum(sizes[:g])
            if sizes[g] % 2 and split[g] is None:
                split[g] = tuple(ctx.generator_power(g + 1, q) for q in range(1, ctx.p))
            slots.append(split[g] if sizes[g] % 2 else steady[g])
            sizes[g] += 1
        total = 0
        for key in itertools.product(*reversed(slots)):
            evaluations += 1
            total += values.get(key, 0)
        comp = tuple(sizes)
        totals[comp] = totals.get(comp, 0) + (-total if inversions % 2 else total)
    return _signed(ctx, totals), evaluations


# -- term counting ------------------------------------------------------

def count_terms(ctx: GroupContext, n: int) -> int:
    """Exact number of cochain evaluations in the degree-n inverse formula.

    Each signature contributes the multinomial number of shuffles times
    (p-1)^(number of split choices).  The sum is taken one variable at a
    time, T_k(n) = sum_m C(n, m) (p-1)^(m//2) T_(k-1)(n-m) with
    T_1(m) = (p-1)^(m//2), in at most (r-1) n^2 steps.  Before any
    arithmetic it refuses a count whose bound r^n (p-1)^(n//2) has more
    decimal digits than the entry budget, or more steps than it.

    >>> count_terms(GroupContext(3, 2), 2)
    6
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p, r = ctx.p, ctx.r
    # the digits of r^n (p-1)^(n//2), which bounds the count, reporting the
    # count's lower bound max(r^n, (p-1)^(n//2)); then the steps
    low, high = n * math.log10(r), n // 2 * math.log10(p - 1)
    if int(low + high) + 1 > DEFAULT_MAX_ENTRIES:
        raise BudgetExceededError(None, max(low, high))
    check_budget((r - 1) * n * n)
    if r == 1 or n == 0:
        return (p - 1) ** (n // 2)
    first = [(p - 1) ** (m // 2) for m in range(n + 1)]  # T_1
    layer = first
    for _ in range(r - 2):
        layer = [sum(math.comb(k, m) * first[m] * layer[k - m] for m in range(k + 1))
                 for k in range(n + 1)]
    return sum(math.comb(n, m) * first[m] * layer[n - m] for m in range(n + 1))


def count_terms_closed_form(ctx: GroupContext, n: int) -> float:
    """Closed form of ``count_terms`` via the exponential generating function.

    With w = sqrt(p-1), A = (1 + 1/w)/2 and B = (1 - 1/w)/2, the count is
    sum over k of C(r, k) A^(r-k) B^k ((r-2k) w)^n.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    w = math.sqrt(ctx.p - 1)
    a, b = (1 + 1 / w) / 2, (1 - 1 / w) / 2
    return sum(
        math.comb(ctx.r, k) * a ** (ctx.r - k) * b**k * ((ctx.r - 2 * k) * w) ** n
        for k in range(ctx.r + 1)
    )
