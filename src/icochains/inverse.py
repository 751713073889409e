"""The inverse isomorphism, from cochain representatives back to algebra
coordinates, and the count of its formula's terms.

``invert`` is one function of the stored values, which is all the paper's
formula reads.  It kills coboundaries exactly, so it is well defined on
cohomology.

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

The module loads ``algebra`` for ``AlgebraElem`` and builds no generator
cocycle, so inverting never loads ``generators``.
"""

from __future__ import annotations

import itertools
import math
from typing import Sequence

from .algebra import AlgebraElem
from .group_ring import DEFAULT_MAX_ENTRIES, MOD_P, GroupContext, check_budget


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
    probe; most keys off the probes fail that first test.  A slot is read
    from its code's digits, and nothing is built per generator.
    """
    _require_mod_p(f)
    ctx = f.ctx
    totals: dict = {}
    for key, v in f.values.items():
        if key:
            last = _generator_power(ctx, key[-1])
            if last is None or last[1] != 1:
                continue  # no generator s_i itself at the end of a block
        sizes = [0] * ctx.r  # slots of each generator read so far
        inversions = 0  # pairs of the generator word out of order
        for u in reversed(key):
            slot = _generator_power(ctx, u)
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


def _generator_power(ctx: GroupContext, u: int):
    """(g, e) when the element u != 1 is s_(g+1)^e, else None: its code
    is e times a power of p, read off by stripping its low zero digits."""
    p, g = ctx.p, ctx.r - 1
    while not u % p:
        u //= p
        g -= 1
    return (g, u) if u < p else None


# The older name of ``invert``, kept for the benchmark's reference, which
# reads it as ``algebra.invert_normalized`` (bench/workloads.py); the
# package does not export it.
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
    split: dict = {}
    totals: dict = {}
    evaluations = 0
    for word in itertools.product(range(r), repeat=n):
        sizes = [0] * r  # slots of each generator read so far
        inversions = 0
        slots = []  # each slot's choices, last slot first
        for g in reversed(word):
            inversions += sum(sizes[:g])
            if sizes[g] % 2 and g not in split:
                split[g] = tuple(ctx.generator_power(g + 1, q) for q in range(1, ctx.p))
            slots.append(split[g] if sizes[g] % 2 else (ctx.generator(g + 1),))
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
    arithmetic it refuses a count of more decimal digits than the entry
    budget by its lower bound max(r^n, (p-1)^(n//2)), and then more steps
    than the budget.

    >>> count_terms(GroupContext(3, 2), 2)
    6
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    p, r = ctx.p, ctx.r
    # The count is returned, not built, so only a count of more digits than
    # the budget is refused, by its lower bound; then the steps are charged.
    log10 = max(n * math.log10(r), n // 2 * math.log10(p - 1))
    check_budget((r - 1) * n * n, log10, digits=DEFAULT_MAX_ENTRIES)
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
