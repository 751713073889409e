"""The vectorized ideal-form coboundary: one numpy sort-and-reduce kernel.

``ICochain.coboundary``, and with it ``d`` on either document kind, is
its one caller, through ``coboundary_values``.  It is the only code in
the library that needs numpy, and it imports numpy only once the
kernel's terms pass the budget check, so commands that never compute a
coboundary (every command but ``d`` and ``selftest``; ``is_cocycle``
decides on the bar formula in pure Python, in ``cocycle``) and a
refused ``d`` never import it.  The oracle builds its matrices from the
bar formula instead, so it checks this kernel rather than sharing it.

Keys travel as their numbers in base p^r - 1 (``cochain._key_codes``);
``_decode_keys`` is the vectorized inverse, whose slots are the element
codes themselves.
"""

from __future__ import annotations

from .cochain import _key_codes
from .group_ring import MOD_P, GroupContext, _log10_size, check_budget


def _decode_keys(ctx: GroupContext, n: int, codes) -> list:
    """The degree-n keys (tuples of element codes) with the given
    numbers: the inverse of ``_key_codes``."""
    big_n = ctx.order - 1
    slots = []
    for _ in range(n):
        slots.append((codes % big_n + 1).tolist())
        codes = codes // big_n
    return list(zip(*reversed(slots)))


def coboundary_values(ctx: GroupContext, n: int, values: dict, ring: str) -> dict:
    """Ideal-form coboundary of degree-n >= 1 values {key: coefficient},
    at least one of them, as one sort-and-reduce.

    Entry e is the e-th key, encoded as ``codes[e]``, with coefficient
    ``coeffs[e]``.  Its image under the coboundary is, for each slot i
    with sign (-1)^i, the contraction (x-1)(y-1) = (xy-1) - (x-1) - (y-1)
    read backwards: the key k_i at slot i is hit by the (n+1)-keys with
    (x, x^-1 k_i) for x != k_i (coefficient +sign), (k_i, y) for every y
    and (x, k_i) for every x (coefficient -sign) in slots i, i+1.  Each
    family is an (E, N) broadcast; x^-1 k_i is worked out on the
    elements' base-p digits, with no p^r x p^r table.

    Terms are packed as code * width + coefficient digit (c mod p, or
    c + m for integers bounded by m in absolute value), sorted once, and
    equal codes are summed.  Packed values and sums are int64 when their
    bounds fit, otherwise exact Python ints.

    Refuses its 3nEN terms over the entry budget, logarithm first, before
    numpy loads.  Returns the nonzero sums {(n+1)-key: value} in
    increasing key order, reduced into [1, p) over MOD_P.
    """
    entries = len(values)
    count = 3 * n * entries  # three (E, N) families per slot
    check_budget(lambda: count * (ctx.order - 1), _log10_size(ctx, count))
    import numpy as np  # loaded only when a coboundary is computed

    p, r, big_n = ctx.p, ctx.r, ctx.order - 1
    coeffs = list(values.values())
    if ring == MOD_P:
        shift, width = 0, p
    else:
        shift = max(abs(c) for c in coeffs)
        width = 2 * shift + 1
    # Besides zero terms a code is hit at most once per slot and family, so
    # a run sums at most 3n digits; int64 while every value stays below 2^63.
    limit = max(big_n ** (n + 1) * width, 3 * n * max(p - 1, shift) + 1)
    dtype = np.int64 if limit <= 1 << 63 else object
    c = np.array(coeffs, dtype=dtype)
    pos, neg = (c % p, -c % p) if ring == MOD_P else (c + shift, shift - c)
    codes = np.array(_key_codes(ctx, values), dtype=dtype)
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
        base = ((codes // (low * big_n)) * (low * big_n * big_n) + codes % low) * width
        wa, wb = low * big_n * width, low * width
        plus, minus = (neg, pos) if i % 2 else (pos, neg)
        lex = sum(((kd[:, j, None] - digits[None, :, j]) % p) * p ** (r - 1 - j)
                  for j in range(r))
        family = terms[i - 1]
        family[0] = (base + plus)[:, None] + elems * wa + (lex - 1).astype(dtype) * wb
        family[0][rows, k_index] = shift  # x = k_i: a zero term
        family[1] = (base + minus + k * wa)[:, None] + elems * wb
        family[2] = (base + minus + k * wb)[:, None] + elems * wa
    flat = terms.reshape(-1)
    flat.sort()
    term_values = flat % width
    flat //= width
    if shift:
        term_values -= shift
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    sums = np.add.reduceat(term_values, starts)
    if ring == MOD_P:
        sums %= p
    keep = np.flatnonzero(sums)
    return dict(zip(_decode_keys(ctx, n + 1, flat[starts[keep]]), sums[keep].tolist()))
