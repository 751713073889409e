"""The target algebra, shuffle combinatorics, and the inverse isomorphism.

For p = 2 the cohomology ring of G = F_p^r is a polynomial algebra on r
degree-1 variables; for p > 2 it is the exterior algebra on r degree-1
variables tensored with a polynomial algebra on their r degree-2 Bockstein
images.  In both cases a monomial basis of the degree-n part is indexed by
exponent signatures (n_1, ..., n_r) with sum n, where for p > 2 the parity
of n_i splits into the exterior part (odd) and the polynomial part (even):
signature entry m = 2k + l, l in {0, 1}, stands for (i-th degree-1
variable)^l times (its Bockstein)^k.

``realize`` maps a signature to an explicit cocycle by cupping generator
powers.  ``invert`` is the reverse map on cochain representatives: for
p = 2 it reads off values on tensors of shifted generators; for p > 2 each
coefficient is a signed sum, over shuffles of the blocks, of evaluations on
a fixed probe tensor.  ``invert_normalized`` computes the same coefficients
directly from normalized-cochain values on explicit group-element tuples.
Both kill coboundaries exactly, so they are well defined on cohomology.

Each stored key meets at most one (signature, shuffle, split) term of that
formula.  Its slots must be powers of single generators; its word of
generator indices fixes the signature and, blocks being increasing, the
shuffle, whose sign is the parity of the word's out-of-order pairs; and
each block must hold s_i itself on an odd block's leading slot and on the
second slot of every pair (from the block's end: the last slot and every
second one before it), any power on the split slots.  So the inverse is
also a sum over the E entries, in O(E n r), for both kinds and p = 2.
``invert`` and ``invert_normalized`` take it when E is below
``count_terms``, which is at least r^n and (p-1)^(n//2), so bit lengths
settle most inputs.  The formula paths stay as the references, and
``invert_normalized_counted`` always runs the formula.
"""

from __future__ import annotations

import itertools
import math
from typing import Iterator, Sequence

from .cochain import (
    ICochain,
    NormalizedCochain,
    NotACocycleError,
    _check_output_budget,
    cup_many,
)
from .generators import _power_support, generator_power_cocycle, probe_tuple, q_choices
from .group_ring import MOD_P, GroupContext, NormExpansion

MonomialSig = tuple  # r nonnegative ints; degree = their sum


def compositions(n: int, parts: int) -> Iterator[tuple]:
    """All tuples of `parts` nonnegative integers summing to n."""
    if parts == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in compositions(n - first, parts - 1):
            yield (first,) + rest


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
            c %= ctx.p
            if c:
                clean[sig] = c
        self.terms = clean

    @classmethod
    def zero(cls, ctx: GroupContext) -> "AlgebraElem":
        return cls(ctx, {})

    @classmethod
    def unit(cls, ctx: GroupContext) -> "AlgebraElem":
        return cls(ctx, {(0,) * ctx.r: 1})

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

    def __hash__(self):
        return hash((self.ctx, frozenset(self.terms.items())))

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set:
        return {sum(sig) for sig in self.terms}

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for sig in sorted(self.terms, key=lambda s: (sum(s), s)):
            c = self.terms[sig]
            factors = []
            for i, m in enumerate(sig, start=1):
                k, odd = divmod(m, 2)
                if self.ctx.p == 2:
                    if m:
                        factors.append(f"x{i}" + (f"^{m}" if m > 1 else ""))
                    continue
                if odd:
                    factors.append(f"x{i}")
                if k:
                    factors.append(f"y{i}" + (f"^{k}" if k > 1 else ""))
            mono = "*".join(factors) if factors else "1"
            parts.append(mono if c == 1 and factors else f"{c}*{mono}" if factors else str(c))
        return " + ".join(parts)

    def __repr__(self):
        return f"AlgebraElem(p={self.ctx.p}, r={self.ctx.r}, {self.terms!r})"


# -- shuffles -----------------------------------------------------------

def shuffles(block_sizes: Sequence[int]) -> Iterator[tuple]:
    """All permutations increasing on each consecutive block.

    Permutations are 0-based tuples with perm[j] the image of position j.
    Generated by choosing image sets block by block (never by filtering
    the full symmetric group), so the cost is the multinomial coefficient.

    >>> sorted(shuffles((1, 1)))
    [(0, 1), (1, 0)]
    """
    n = sum(block_sizes)

    def rec(avail: tuple, sizes: tuple) -> Iterator[tuple]:
        if not sizes:
            yield ()
            return
        for chosen in itertools.combinations(avail, sizes[0]):
            chosen_set = set(chosen)
            remaining = tuple(x for x in avail if x not in chosen_set)
            for tail in rec(remaining, sizes[1:]):
                yield chosen + tail

    return rec(tuple(range(n)), tuple(block_sizes))


def perm_sign(perm: Sequence[int]) -> int:
    """The sign of a 0-based permutation, by counting inversions."""
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def shuffle_count(block_sizes: Sequence[int]) -> int:
    total = sum(block_sizes)
    count = 1
    for b in block_sizes:
        count *= math.comb(total, b)
        total -= b
    return count


# -- the forward map ----------------------------------------------------

def realize(e: AlgebraElem) -> ICochain:
    """Realize a homogeneous algebra element as an explicit cocycle.

    A basis signature (n_1, ..., n_r) maps to the cup product of the
    degree-n_i generator powers of the r variables, taken in variable
    order; the map extends linearly.  Each signature's support is known
    before any factor is built (a product of nonzero residues mod p is
    nonzero), and one over the default entry budget is refused first.
    """
    if not e.is_homogeneous():
        raise ValueError("can only realize homogeneous elements")
    ctx = e.ctx
    if e.is_zero():
        return ICochain.zero(ctx, 0)
    degree = next(iter(e.degrees()))
    for sig in e.terms:
        _check_output_budget(math.prod(_power_support(ctx, m) for m in sig))
    p = ctx.p
    values: dict = {}
    for sig, c in e.terms.items():
        cocycle = cup_many([generator_power_cocycle(ctx, i, m)
                            for i, m in enumerate(sig, start=1)])
        for key, v in cocycle.values.items():
            values[key] = (values.get(key, 0) + c * v) % p
    # The keys come from cup_many; only the zero sums need dropping.
    return ICochain._trusted(ctx, degree, MOD_P, {k: v for k, v in values.items() if v})


# -- the inverse map ----------------------------------------------------

def _probe_expansions(ctx: GroupContext, i: int, m: int) -> list:
    """Difference-basis expansions of the degree-m probe factors for
    variable i, reduced mod p; each (s_i - 1)^(p-1) factor is the
    closed-form ``NormExpansion``."""
    t_exp = {ctx.generator(i): 1}
    k, odd = divmod(m, 2)
    out = [t_exp] if odd else []
    if k:
        top_exp = NormExpansion(ctx, i)
        for _ in range(k):
            out.extend((top_exp, t_exp))
    return out


def _require_mod_p(f) -> None:
    if f.ring != MOD_P:
        raise ValueError("the inverse map is defined for mod-p cochains")


def _block_sign(comp: Sequence[int]) -> int:
    """(-1)^(l(l-1)/2), l the number of odd blocks of the signature."""
    l = sum(1 for ni in comp if ni % 2)
    return -1 if (l * (l - 1) // 2) % 2 else 1


def _fewer_entries_than_terms(f) -> bool:
    """Whether f has fewer entries than ``count_terms`` evaluations.

    The count is at least r^n (one term per word at p = 2) and at least
    (p-1)^(n//2) (the splits of one signature), so bit lengths decide
    most inputs; the rest have degree below the entry count's bit length.
    """
    ctx, n, entries = f.ctx, f.degree, len(f.values)
    bits = entries.bit_length()
    if bits <= n * (ctx.r.bit_length() - 1) or bits <= n // 2 * ((ctx.p - 1).bit_length() - 1):
        return True
    return entries < count_terms(ctx, n)


def _invert_entry_sum(f) -> AlgebraElem:
    """The inverse map of either cochain kind as a sum over its stored
    keys, in O(E n r): each key meets at most one term of the formula
    (see the module docstring).  A key is read from its last slot, which
    ends a block and so is a generator on every probe; most keys off the
    probes fail that first test."""
    ctx = f.ctx
    generators = {ctx.generator(i) for i in range(1, ctx.r + 1)}
    slots: dict = {}  # element -> (generator index, exponent), or None
    totals: dict = {}
    for key, v in f.values.items():
        if key and key[-1] not in generators:
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
    return AlgebraElem(ctx, {comp: _block_sign(comp) * t for comp, t in totals.items()})


def invert(f: ICochain) -> AlgebraElem:
    """Map a degree-n cochain to algebra coordinates.

    This is the raw linear map on cochains; it vanishes on coboundaries,
    so on cocycles it computes the inverse of ``realize`` on classes.  Use
    ``invert_class`` to insist on cocycle input.  It sums over the stored
    entries when they are fewer than the formula's evaluations.
    """
    _require_mod_p(f)
    if _fewer_entries_than_terms(f):
        return _invert_entry_sum(f)
    if f.ctx.p == 2:
        return _invert_direct_p2(f)[0]
    return invert_via_shuffles(f)


def _invert_direct_p2(f) -> tuple[AlgebraElem, int]:
    """The p = 2 inverse of either cochain kind, with the number of
    cochain evaluations it performed.

    The coefficient of a monomial is the sum of the values on all tuples
    of generators (tensors of shifted generators) whose index word has
    that content; both kinds store those values under the same keys.
    """
    ctx = f.ctx
    gens = [ctx.generator(i) for i in range(1, ctx.r + 1)]
    evaluations = 0
    terms: dict = {}
    for word in itertools.product(range(ctx.r), repeat=f.degree):
        evaluations += 1
        v = f.values.get(tuple(gens[i] for i in word))
        if v:
            sig = [0] * ctx.r
            for i in word:
                sig[i] += 1
            sig = tuple(sig)
            terms[sig] = terms.get(sig, 0) + v
    return AlgebraElem(ctx, terms), evaluations


def invert_via_shuffles(f: ICochain) -> AlgebraElem:
    """The shuffle-sum form of the inverse map, valid for every p.

    For each signature (n_1, ..., n_r) of the degree, the coefficient is
    (-1)^(l(l-1)/2) (l = number of odd n_i) times the sum over block
    shuffles sigma of sgn(sigma) times f evaluated on the probe tensor
    with its slots scattered by sigma.  For p = 2 this agrees with the
    direct form used by ``invert``.
    """
    _require_mod_p(f)
    ctx = f.ctx
    n = f.degree
    terms: dict = {}
    for comp in compositions(n, ctx.r):
        factors: list[dict] = []
        for i, ni in enumerate(comp, start=1):
            factors.extend(_probe_expansions(ctx, i, ni))
        total = 0
        for sigma in shuffles(comp):
            permuted: list = [None] * n
            for j, d in enumerate(factors):
                permuted[sigma[j]] = d
            total += perm_sign(sigma) * f.evaluate_on_expansions(permuted)
        if total % ctx.p:
            terms[comp] = _block_sign(comp) * total
    return AlgebraElem(ctx, terms)


def invert_class(f: ICochain) -> AlgebraElem:
    """Inverse map on a cohomology class; raises unless f is a cocycle."""
    _require_mod_p(f)
    if not f.is_cocycle():
        raise NotACocycleError("input cochain is not a cocycle")
    return invert(f)


def invert_normalized(a: NormalizedCochain) -> AlgebraElem:
    """Inverse map computed from normalized-cochain values directly.

    Evaluates a on explicit group-element tuples (no ideal-tensor detour);
    agrees exactly with ``invert`` of the corresponding ICochain.  Like
    ``invert``, it sums over the stored entries when they are fewer.
    """
    _require_mod_p(a)
    if _fewer_entries_than_terms(a):
        return _invert_entry_sum(a)
    return invert_normalized_counted(a)[0]


def invert_normalized_counted(a: NormalizedCochain) -> tuple[AlgebraElem, int]:
    """The formula path of ``invert_normalized``, also reporting the number
    of cochain evaluations performed (the advertised term count of the
    formula); it never takes the entry sum."""
    _require_mod_p(a)
    ctx = a.ctx
    if ctx.p == 2:
        return _invert_direct_p2(a)
    n = a.degree
    evaluations = 0
    terms: dict = {}
    for comp in compositions(n, ctx.r):
        block_tuples = [
            [probe_tuple(ctx, i, ni, q) for q in q_choices(ctx, ni)]
            for i, ni in enumerate(comp, start=1)
        ]
        total = 0
        for sigma in shuffles(comp):
            sgn = perm_sign(sigma)
            for blocks in itertools.product(*block_tuples):
                arg: list = [None] * n
                for j, u in enumerate(itertools.chain.from_iterable(blocks)):
                    arg[sigma[j]] = u
                evaluations += 1
                v = a.values.get(tuple(arg))
                if v:
                    total += sgn * v
        if total % ctx.p:
            terms[comp] = _block_sign(comp) * total
    return AlgebraElem(ctx, terms), evaluations


# -- term counting ------------------------------------------------------

def count_terms(ctx: GroupContext, n: int) -> int:
    """Exact number of cochain evaluations in the degree-n inverse formula.

    Each signature contributes the multinomial number of shuffles times
    (p-1)^(number of split choices).  The sum is taken one variable at a
    time, T_k(n) = sum_m C(n, m) (p-1)^(m//2) T_(k-1)(n-m) with
    T_1(m) = (p-1)^(m//2), in at most (r-1) n^2 steps.  Before any
    arithmetic it refuses a count whose bound r^n (p-1)^(n//2) has more
    decimal digits than the default entry budget, or more steps than it.

    >>> count_terms(GroupContext(3, 2), 2)
    6
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p, r = ctx.p, ctx.r
    # the digits of r^n (p-1)^(n//2), which bounds the count, then the steps
    _check_output_budget(int(n * math.log10(r) + n // 2 * math.log10(p - 1)) + 1)
    _check_output_budget((r - 1) * n * n)
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


def graded_dimension(ctx: GroupContext, n: int) -> int:
    """Number of monomial signatures of degree n (the expected dim H^n).

    For p = 2 this is the count of degree-n monomials in r variables; for
    p > 2 it splits over the exterior part of size l and the polynomial
    part of total degree k with 2k + l = n.  Both equal C(n+r-1, r-1).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    if ctx.p == 2:
        return math.comb(n + ctx.r - 1, ctx.r - 1)
    total = 0
    for l in range(min(ctx.r, n) + 1):
        if (n - l) % 2 == 0:
            k = (n - l) // 2
            total += math.comb(ctx.r, l) * math.comb(k + ctx.r - 1, ctx.r - 1)
    return total
