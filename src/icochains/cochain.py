"""Cochains as linear functionals on tensor powers of the augmentation ideal.

The paper's cochains are C^n(G, M) = Hom(T^n(I), M), with T^n(I) the n-fold
tensor power of the augmentation ideal I.  An ``ICochain`` f stores its
values on the difference basis (u_1 - 1) x ... x (u_n - 1), a sparse map
from tuples of nonidentity group elements to coefficients.  Read on those
tuples, the same map is the normalized bar cochain
a(u_1, ..., u_n) = f((u_1 - 1) x ... x (u_n - 1)), so one class serves
both.  Coefficients lie in F_p (``MOD_P``, stored reduced) or in Z
(``INTEGERS``); the cochain operations keep the ring, and an integral
cochain is reduced mod p by building its values again over ``MOD_P``.

* the coboundary contracts adjacent tensor factors with the group-ring
  product, with alternating signs (the coefficients are F_p or Z with the
  trivial action, on which an ideal element acts as zero);
* a cochain evaluates by multilinearity on tensors of ideal elements,
  each given on the difference basis as a dict {u: c} (see
  ``group_ring``);
* cup products concatenate tensor factors, with the sign convention that
  (f cup g) on an (m+n)-tensor is (-1)^(m n) f(first m) g(last n).

The coboundary is one vectorized kernel in ``kernel.py``: keys are
slot codes (``_key_codes``), every contraction term is generated
as a numpy broadcast, and one sort followed by a segmented sum collapses
equal keys.  ``_bar_coboundary`` writes the classical bar formula
independently, as a plain loop over the stored keys, and the oracle's
``d_matrix`` is built from it; the acceptance suite and the tests compare
the two pointwise on full bases.  ``is_cocycle`` uses neither: it
decides the bar coboundary in pure Python, one first-argument partition
at a time, and only at the r generators of G.  With the slices
f_x(Y) = f(x, Y) and f_1 = 0, the partition at a is S_a - d f_a, where
S_a(x, Y) = f_x(Y) - f_(a x)(Y) + f_a(Y); so where f_(a x) = f_x + f_a
for every x, which compares the runs of the sorted entries grouped by
first slot, the partition is decided by the coboundary of f_a, one
degree lower, on a worklist, and elsewhere its terms are summed.  Each of
these computations refuses, through
``group_ring.check_budget``, a count of terms over the default entry
budget before it starts.  This module itself does not import numpy.
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
        the terms it sums at the top degree, at most
        E (2r + (n-1)(N-1) + N), are over the entry budget; then it is
        refused before any work.  A partition whose slot-1 part S_a
        vanishes, f_(a x) = f_x + f_a for every x (compared as runs of
        the sorted entries, grouped by first slot), is replaced by the
        check of f_a, whose entries are a subset of f's, one degree lower.
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


# A normalized bar cochain stores the same values (see the module
# docstring).  This older name is kept for the benchmark's reference
# (bench/workloads.py); the package does not export it.
NormalizedCochain = ICochain


def _bar_coboundary_vanishes(ctx: GroupContext, n: int, values: dict, ring: str) -> bool:
    """Whether the bar coboundary df of degree-n >= 1 values is zero,
    decided one first-argument partition at a time.

    The first arguments a at which df(a, ...) vanishes form a subgroup:
    d(df) = 0 read at (a, b, x_3, ...) gives df(b, x_3, ...) =
    df(ab, x_3, ...) once df vanishes on the tuples starting with a,
    since every other term starts with a.  So df = 0 exactly when its
    partitions at the r generators s_i vanish, and only those are decided.

    Write f_x for the slice f_x(Y) = f(x, Y), of degree n - 1, with
    f_1 = 0.  Of the terms of df(a, x, Y), the leading term f(x, Y) and the
    slot-1 term -f(a x, Y) do not come from f_a; the others are f_a(Y) and
    the terms of -(d f_a)(x, Y) but its first, so

        df(a, x, Y) = S_a(x, Y) - (d f_a)(x, Y),
        S_a(x, Y) = f_x(Y) - f_(a x)(Y) + f_a(Y).

    Once per worklist level the entries, sorted by key, are grouped by
    their first slot: each slice f_x is one run of them, and the r
    generators share the runs.  S_a vanishes exactly when
    f_(a x) = f_x + f_a for every x != 1 (``_slot_one_vanishes``): N
    comparisons of runs, as lists or dicts, each of which runs in C.  The
    comparison is exact: keys are unique and in increasing order within a
    run, and values are reduced into [1, p) over F_p and exact over Z, so
    two runs are equal as lists, or as dicts, exactly when they are the
    same function.  Where S_a vanishes, the partition is -d f_a, which
    vanishes iff d f_a = 0; so f_a, of degree n - 1 and holding only the
    entries whose first slot is a, goes on a worklist of cochains to check
    in the same way (a worklist, not recursion; at n = 1, f_a is a
    constant, which is a cocycle).

    Where S_a does not vanish, the partition is expanded term by term on
    the keys' slot codes (``_key_codes``), and the sums must vanish: they
    start from the leading term f(X) of every entry,
    X = (x_2, ..., x_(n+1)), the slot-1 term -f(a x_2, x_3, ...) of every
    entry (k_1, ...) with k_1 != a, at x_2 = a^-1 k_1, and the inner and
    trailing terms of the entries with k_1 = a.  The pairs (x, x^-1 k) of
    an inner slot are listed only for the k that occur.  At N = 1 (p = 2,
    r = 1) the one generator's partition is always expanded: there every
    level of a long one-key chain would pass the comparison, while the
    expansion adds one term per entry.
    """
    p, r, big_n = ctx.p, ctx.r, ctx.order - 1
    mod = p.__rmod__ if ring == MOD_P else operator.pos  # a sum's value in the ring
    pairs: dict = {}
    keys, vals = list(values), list(values.values())
    if any(map(operator.ge, keys, itertools.islice(keys, 1, None))):
        keys, vals = map(list, zip(*sorted(values.items())))
    work = [(n, keys, vals)]  # (degree, keys in increasing order, their values)
    while work:
        n, keys, vals = work.pop()
        if not n or not keys:
            continue  # a constant, or zero, is a cocycle
        if big_n > 1:
            runs = {}  # first slot x -> the run of f_x in the lists
            lo = 0
            for x, run in itertools.groupby(map(operator.itemgetter(0), keys)):
                runs[x] = lo, (lo := lo + len(list(run)))
            rests = list(map(operator.itemgetter(slice(1, None)), keys))
        codes = None
        top = big_n ** (n - 1)  # weight of slot 1 in a code
        trail = 1 if n % 2 else -1  # (-1)^(n+1)
        for g in range(r):
            if big_n > 1 and _slot_one_vanishes(ctx, g, runs, rests, vals, mod):
                run = runs.get(ctx.generator(g + 1))
                if n > 1 and run:  # the partition is -d f_a
                    work.append((n - 1, rests[run[0]:run[1]], vals[run[0]:run[1]]))
                continue
            if codes is None:
                codes = _key_codes(ctx, keys)
            w = p ** (r - 1 - g)  # weight of exponent g in an element's value
            a = w - 1  # the index of the generator s_(g+1) among the nonidentity elements
            sums = dict(zip(codes, vals))  # the leading term
            get = sums.get
            own = {}  # f_a, on (n-1)-codes
            for code, c in zip(codes, vals):
                b, rest = divmod(code, top)
                if b == a:
                    own[rest] = c
                    continue
                # a^-1 b lowers exponent g of b by one, mod p
                t = (b - w if (b + 1) // w % p else b + (p - 1) * w) * top + rest
                sums[t] = get(t, 0) - c
            for rest, c in own.items():
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
            if any(map(mod, sums.values())):
                return False
    return True


def _slot_one_vanishes(ctx: GroupContext, g: int, runs: dict, rests: list, vals: list,
                       mod) -> bool:
    """Whether S_a = 0 (see ``_bar_coboundary_vanishes``) for the
    generator a = s_(g+1): whether f_(a x) = f_x + f_a for every x != 1,
    with f_1 = 0.  The slice f_x is the run ``runs[x]`` of ``rests`` (the
    keys less their first slot) and ``vals``, its keys in increasing order.

    When f_a = 0 this reads f_(a x) = f_x, two runs equal as lists.  Only
    the x with f_x != 0 are compared: were f_x = 0 != f_(a x), then
    following x' = a x, a^2 x, ... around its orbit, which ends at x, some
    comparison of a nonzero f_x' would fail.  When f_a != 0, every x needs
    f_x or f_(a x) nonzero, so fewer than N / 2 slices fail at once.
    Otherwise every x is compared.  Where f_x is 0, or has the keys of
    f_a, f_x + f_a is the list of the sums of their values (reduced mod p
    over F_p), less the zeros; elsewhere two dicts are compared, each
    holding an item, 0 where it has no entry, at every key of f_a.  Both
    comparisons are exact, since values are reduced into [1, p) over F_p
    and exact over Z."""
    p = ctx.p

    def times_a(x: tuple) -> tuple:  # exponent g of x raised by one, mod p
        return x[:g] + ((x[g] + 1) % p,) + x[g + 1:]

    def run_of(x: tuple) -> tuple:  # the keys and the values of f_x
        lo, hi = runs.get(x, (0, 0))
        return rests[lo:hi], vals[lo:hi]

    a = ctx.generator(g + 1)
    if a not in runs:
        return all(run_of(times_a(x)) == run_of(x) for x in runs)
    if 2 * len(runs) < ctx.order - 1:
        return False
    keys_a, vals_a = run_of(a)
    padding = None
    for x in ctx.nonidentity_elements():
        keys_x, vals_x = run_of(x)
        keys_ax, vals_ax = run_of(times_a(x))
        if not keys_x or keys_x == keys_a:
            sums = list(map(mod, map(operator.add, vals_x, vals_a))) if keys_x else vals_a
            if keys_ax != list(itertools.compress(keys_a, sums)) or (
                    vals_ax != list(filter(None, sums))):
                return False
            continue
        if padding is None:
            padding = dict.fromkeys(keys_a, 0)
        f_x = dict(zip(keys_x, vals_x))
        sums = map(mod, map(operator.add, map(f_x.get, keys_a, itertools.repeat(0)), vals_a))
        if {**padding, **dict(zip(keys_ax, vals_ax))} != {**f_x, **dict(zip(keys_a, sums))}:
            return False
    return True


def _key_codes(ctx: GroupContext, keys) -> list:
    """The slot code of each key, the one numbering of keys that the
    kernel, the cocycle check and the oracle share: a degree-n key is an
    integer in base N = p^r - 1, slot 1 most significant, each slot the
    index of its element among the nonidentity elements in lexicographic
    order (its ``_slot_code`` minus one).  Codes sort as
    the keys do: a key's code is its position in ``oracle.cochain_basis``."""
    p, big_n = ctx.p, ctx.order - 1
    index: dict = {}
    codes = []
    for key in keys:
        code = 0
        for u in key:
            i = index.get(u)
            if i is None:
                i = index[u] = _slot_code(p, u) - 1
            code = code * big_n + i
        codes.append(code)
    return codes


def _slot_code(p: int, u) -> int:
    """The code of a key slot in a cochain document: the element's
    exponent vector read in base p, first exponent most significant, in
    [1, p^r) for a nonidentity element.  It is one more than the
    element's index among the nonidentity elements in lexicographic order
    (the per-slot index of ``_key_codes``).  With the first exponent most
    significant, codes sort as the vectors do, so a document's entries,
    sorted by code, keep the order of the keys."""
    code = 0
    for digit in u:
        code = code * p + digit
    return code


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

    Each distinct factor object is checked and sorted once, however often
    it repeats.  The sorted entry lists are merged pairwise, neighbour with
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
    distinct = {id(f): f for f in factors}  # ``realize`` repeats its generators
    for f in distinct.values():
        if f.ctx != ctx:
            raise ValueError("context mismatch")
        if f.ring != MOD_P:
            raise ValueError("cup products are defined for mod-p cochains")
    check_budget(math.prod(len(f.values) for f in factors))
    l = sum(1 for f in factors if f.degree % 2)
    p = ctx.p
    entries = {i: sorted(f.values.items()) for i, f in distinct.items()}
    lists = [entries[id(f)] for f in factors]
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
