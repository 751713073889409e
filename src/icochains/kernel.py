"""The vectorized ideal-form coboundary: one numpy sort-and-reduce kernel.

``ICochain.coboundary``, and with it ``d``, and the oracle's
``d_matrix`` run through ``_coboundary_sums``.  Besides the rank oracle it
is the only code that needs numpy, so it lives apart from ``cochain``:
commands that never compute an ideal-form coboundary (every command but
``d`` on an icochain document and ``selftest``; ``is_cocycle`` sums the
bar formula in pure Python) never import numpy.

A degree-n key is encoded as an integer in base N = p^r - 1: slot 1 is
the most significant digit and each nonidentity element is its index in
lexicographic order, so a code equals the key's row in
``oracle.cochain_basis``.
"""

from __future__ import annotations

import numpy as np

from .group_ring import MOD_P, GroupContext

_INT64_MAX = int(np.iinfo(np.int64).max)


def _code_dtype(limit: int):
    """int64 when every value stays below ``limit`` <= 2^63, else exact Python ints."""
    return np.int64 if limit - 1 <= _INT64_MAX else object


def _encode_keys(ctx: GroupContext, n: int, keys: list) -> np.ndarray:
    """Codes of degree-n keys (tuples of nonidentity exponent vectors)."""
    big_n = ctx.order - 1
    dtype = _code_dtype(big_n**n)
    if not keys or n == 0:
        return np.zeros(len(keys), dtype=dtype)
    vectors = np.array(keys, dtype=np.int64).reshape(len(keys), n, ctx.r)
    index = (vectors @ ctx.p ** np.arange(ctx.r - 1, -1, -1, dtype=np.int64) - 1).astype(dtype)
    codes = index[:, 0]
    for j in range(1, n):
        codes = codes * big_n + index[:, j]
    return codes


def _decode_keys(ctx: GroupContext, n: int, codes: np.ndarray) -> list:
    """The degree-n keys (tuples of exponent vectors) with the given codes."""
    if not len(codes):
        return []  # without listing the N elements, which huge p forbids
    big_n = ctx.order - 1
    elems = list(ctx.nonidentity_elements())
    slots = []
    for _ in range(n):
        slots.append([elems[i] for i in (codes % big_n).tolist()])
        codes = codes // big_n
    return list(zip(*reversed(slots)))


def _coboundary_sums(ctx: GroupContext, n: int, codes: np.ndarray, coeffs: list,
                     ring: str, by_entry: bool = False) -> tuple:
    """Ideal-form coboundary of sparse degree-n data as one sort-and-reduce.

    Entry e is the key with code ``codes[e]`` and coefficient
    ``coeffs[e]``.  Its image under the coboundary is, for each slot i
    with sign (-1)^i, the contraction (x-1)(y-1) = (xy-1) - (x-1) - (y-1)
    read backwards: the key k_i at slot i is hit by the (n+1)-keys with
    (x, x^-1 k_i) for x != k_i (coefficient +sign), (k_i, y) for every y
    and (x, k_i) for every x (coefficient -sign) in slots i, i+1.  Each
    family is an (E, N) broadcast; x^-1 k_i is worked out on exponent
    digits, with no p^r x p^r table.

    Terms are packed as code * width + coefficient digit (c mod p, or
    c + m for integers bounded by m in absolute value), sorted once, and
    equal codes are summed.  Packed values and sums are int64 when their
    bounds fit, otherwise exact Python ints.  With ``by_entry`` every
    code is offset by e * N^(n+1), which keeps the images of the entries
    apart.

    Returns (codes, sums): the distinct (n+1)-key codes in increasing
    order and their nonzero sums, reduced into [1, p) over MOD_P.
    """
    p, r, big_n = ctx.p, ctx.r, ctx.order - 1
    entries = len(coeffs)
    if n == 0 or entries == 0:
        return np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    if ring == MOD_P:
        shift, width = 0, p
    else:
        shift = max(abs(c) for c in coeffs)
        width = 2 * shift + 1
    span = big_n ** (n + 1)
    # Besides zero terms a code is hit at most once per slot and family,
    # so a run sums at most 3n digits.
    dtype = _code_dtype(max((entries if by_entry else 1) * span * width,
                            3 * n * max(p - 1, shift) + 1))
    c = np.array(coeffs, dtype=dtype)
    pos, neg = (c % p, -c % p) if ring == MOD_P else (c + shift, shift - c)
    codes = np.asarray(codes).astype(dtype)
    offset = np.arange(entries, dtype=dtype) * (span * width) if by_entry else 0
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
        base = ((codes // (low * big_n)) * (low * big_n * big_n) + codes % low) * width + offset
        wa, wb = low * big_n * width, low * width
        plus, minus = (neg, pos) if i % 2 else (pos, neg)
        lex = sum(((kd[:, j, None] - digits[None, :, j]) % p) * p ** (r - 1 - j)
                  for j in range(r))
        family = terms[i - 1]
        family[0] = (base + plus)[:, None] + elems * wa + (lex - 1).astype(dtype) * wb
        family[0][rows, k_index] = offset + shift  # x = k_i: a zero term
        family[1] = (base + minus + k * wa)[:, None] + elems * wb
        family[2] = (base + minus + k * wb)[:, None] + elems * wa
    flat = terms.reshape(-1)
    flat.sort()
    values = flat % width
    flat //= width
    if shift:
        values -= shift
    starts = np.flatnonzero(np.concatenate(([True], flat[1:] != flat[:-1])))
    sums = np.add.reduceat(values, starts)
    if ring == MOD_P:
        sums %= p
    keep = np.flatnonzero(sums)
    return flat[starts[keep]], sums[keep]
