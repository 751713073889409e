"""The cocycle decision behind ``ICochain.is_cocycle``: whether the bar
coboundary of a cochain's values vanishes, decided in pure Python.

``is_cocycle`` answers the sparse cases itself, then loads this module on
first use, as ``coboundary`` loads ``kernel``; so the commands that decide
no cocycle (``tau``, ``cup``, ``d``, ``count-terms``, ``dims`` and
``invert --unchecked``) never compile it.  The ideal-form coboundary has
the values of the bar coboundary, so the decision is made on the bar
formula, one first-argument partition at a time, at the r generators of
G only: by a comparison of first-slot slices where it certifies the
partition, and by summing its terms on key numbers
(``cochain._key_codes``) elsewhere.  Elements are their codes (see
``group_ring``), so multiplying by a generator is one digit step on an
int.  The tests compare it with ``cochain._bar_coboundary``, the bar
formula as a plain loop.
"""

from __future__ import annotations

import itertools
import operator

from .cochain import _key_codes
from .group_ring import MOD_P, GroupContext, check_budget


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
    f_(a x) = f_x + f_a for every x != 1 (``_slot_one_vanishes``): at
    most N comparisons of runs as lists, each of which runs in C.  The
    comparison is exact: keys are unique and in increasing order within a
    run, and values are reduced into [1, p) over F_p and exact over Z, so
    two runs are equal as lists exactly when they are the same function;
    it certifies S_a = 0 where every nonzero f_x has the keys of f_a, or
    f_a = 0, and answers no elsewhere.  Where it certifies S_a = 0, the
    partition is -d f_a, which vanishes iff d f_a = 0; so f_a, of degree
    n - 1 and holding only the entries whose first slot is a, goes on a
    worklist of cochains to check in the same way (a worklist, not
    recursion; at n = 1, f_a is a constant, which is a cocycle).

    Where the comparison fails, the partition is expanded term by term on
    the keys' numbers (``_key_codes``), and the sums must vanish: they
    start from the leading term f(X) of every entry,
    X = (x_2, ..., x_(n+1)), the slot-1 term -f(a x_2, x_3, ...) of every
    entry (k_1, ...) with k_1 != a, at x_2 = a^-1 k_1, and the inner and
    trailing terms of the entries with k_1 = a.  The pairs (x, x^-1 k) of
    an inner slot are listed only for the k that occur.  At N = 1 (p = 2,
    r = 1) the one generator's partition is always expanded: there every
    level of a long one-key chain would pass the comparison, while the
    expansion adds one term per entry.

    One running total of the work passes ``check_budget`` before each
    step, so the step that would take it over the entry budget is refused
    before it runs: r (E + N) for the comparisons at a node of E entries,
    and 2E + |f_a| ((n-1)(N-1) + N) for each partition expanded, a leading
    and at most one slot-1 term per entry and the inner and trailing terms
    of the entries of f_a.
    """
    p, r, big_n = ctx.p, ctx.r, ctx.order - 1
    mod = p.__rmod__ if ring == MOD_P else operator.pos  # a sum's value in the ring
    pairs: dict = {}
    keys, vals = list(values), list(values.values())
    if any(map(operator.ge, keys, itertools.islice(keys, 1, None))):
        keys, vals = map(list, zip(*sorted(values.items())))
    work = [(n, keys, vals)]  # (degree, keys in increasing order, their values)
    spent = 0  # the running total of the check's work
    while work:
        n, keys, vals = work.pop()
        if not n or not keys:
            continue  # a constant, or zero, is a cocycle
        if big_n > 1:
            spent = check_budget(spent + r * (len(keys) + big_n))
            runs = {}  # first slot x -> the run of f_x in the lists
            lo = 0
            for x, run in itertools.groupby(map(operator.itemgetter(0), keys)):
                runs[x] = lo, (lo := lo + len(list(run)))
            rests = list(map(operator.itemgetter(slice(1, None)), keys))
        codes = None
        top = big_n ** (n - 1)  # weight of slot 1 in a code
        trail = 1 if n % 2 else -1  # (-1)^(n+1)
        for g in range(r):
            w = ctx.generator(g + 1)  # s_(g+1), the weight of exponent g in an element
            if big_n > 1 and _slot_one_vanishes(ctx, g, runs, rests, vals, mod):
                run = runs.get(w)
                if n > 1 and run:  # the partition is -d f_a
                    work.append((n - 1, rests[run[0]:run[1]], vals[run[0]:run[1]]))
                continue
            lo, hi = runs.get(w, (0, 0)) if big_n > 1 else (0, len(keys))  # f_a's run
            spent = check_budget(spent + 2 * len(keys)
                                 + (hi - lo) * ((n - 1) * (big_n - 1) + big_n))
            if codes is None:
                codes = _key_codes(ctx, keys)
            a = w - 1  # the generator's slot in a key number
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
    with f_1 = 0, compared as lists.  The slice f_x is the run ``runs[x]``
    of ``rests`` (the keys less their first slot) and ``vals``, its keys
    in increasing order.

    When f_a = 0 this reads f_(a x) = f_x, and only the x with f_x != 0
    are compared: were f_x = 0 != f_(a x), then following x' = a x,
    a^2 x, ... around its orbit, which ends at x, some comparison of a
    nonzero f_x' would fail.  Otherwise every x is compared, and f_x must
    be 0 or have the keys of f_a: then f_x + f_a is the list of the sums
    of their values (reduced mod p over F_p), less the zeros.  A nonzero
    f_x with other keys answers False, and the caller sums the partition
    exactly.  The comparisons are exact, since values are reduced into
    [1, p) over F_p and exact over Z."""
    p = ctx.p
    a = ctx.generator(g + 1)  # the weight of exponent g in an element
    wrap = (p - 1) * a

    def times_a(x: int) -> int:  # exponent g of x raised by one, mod p
        return x + a if x // a % p != p - 1 else x - wrap

    def run_of(x: int) -> tuple:  # the keys and the values of f_x
        lo, hi = runs.get(x, (0, 0))
        return rests[lo:hi], vals[lo:hi]

    if a not in runs:
        return all(run_of(times_a(x)) == run_of(x) for x in runs)
    keys_a, vals_a = run_of(a)
    for x in ctx.nonidentity_elements():
        keys_x, vals_x = run_of(x)
        if keys_x and keys_x != keys_a:
            return False
        sums = list(map(mod, map(operator.add, vals_x, vals_a))) if keys_x else vals_a
        keys_ax, vals_ax = run_of(times_a(x))
        if keys_ax != list(itertools.compress(keys_a, sums)) or (
                vals_ax != list(filter(None, sums))):
            return False
    return True


def _pair_codes(p: int, r: int, k: int) -> list:
    """The base-N numbers of the 2-slot keys (x, x^-1 k), x neither 1 nor
    k: the keys whose two slots multiply to the element k + 1."""
    big_n = p**r - 1
    quotients = [0]  # the element x^-1 (k + 1), for each element x in order
    for g in range(r - 1, -1, -1):
        digit = (k + 1) // p**g % p
        quotients = [q * p + (digit - x) % p for q in quotients for x in range(p)]
    return [(x - 1) * big_n + q - 1 for x, q in enumerate(quotients) if x and q]
