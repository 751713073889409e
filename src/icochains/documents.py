"""Cochain and algebra documents: the CLI's JSON interchange format.

Documents are UTF-8 JSON.  A cochain document carries (p, r, n), a kind
tag (``normalized`` or ``icochain``), a coefficient-ring tag (``Z`` or
``Fp``) and the E entries of the cochain.  ``tau``, ``cup`` and ``d``
write schema 3, whose entries are two columns:

* ``slots``, the n E slots of the keys, one key after another in entry
  order.  A slot code is the element itself (see ``group_ring``): its
  exponent vector read in base p, first exponent most significant, an
  integer in [1, p^r).
* ``values``, the E nonzero values; value i belongs to the key
  ``slots[i n : (i + 1) n]``.

Entries are sorted by key; codes sort as the vectors do.  Every command
also reads schema 1, whose entries are {"key", "value"} objects and
whose key is a list of n exponent vectors, each r integers in [0, p),
never the zero vector, which the reader encodes; no command writes it.
Schema 2, whose keys were lists of slot codes inside the same objects,
is no longer read.  Both kinds store the same values, so every document
parses to an ``ICochain``; the kind is a label, which ``d`` writes back.
An algebra document, which ``invert`` writes as schema 1 and no command
reads, carries (p, r) and entries mapping monomial signatures to
coefficients in [1, p).

``dumps_document`` writes a cochain document as
``json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"`` and an
algebra document as ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``.

``parse_cochain_document`` checks the columns of either schema in passes
of ``map``, ``set``, ``min`` and ``max`` that run in C.  Schema 3: the
length of ``slots`` is n times that of ``values``; every value is an
exact int, nonzero, in [1, p) over Fp; every slot an exact int in
[1, p^r); then r times the number of distinct codes must pass the entry
budget (exit 3), since every later operation on an element reads its r
digits.  The slot column is then cut into keys as it stands.  Schema 1:
entry fields, key lengths and value types and ranges; then each distinct
exponent vector is checked and encoded once.  In either schema no key
may repeat.  When a column fails, a loop finds the first failing item
and raises its error, naming ``slots[k]`` or ``values[i]`` (schema 3)
or ``entries[i]`` (schema 1).
"""

from __future__ import annotations

from itertools import chain, repeat
from operator import itemgetter

from .cochain import ICochain
from .group_ring import (
    INTEGERS,
    MOD_P,
    DocumentError,
    GroupContext,
    _group_context,
    check_budget,
)

# Cochain documents are written as schema 3 and read as schema 1 or 3;
# algebra documents are written as schema 1.
SCHEMA_VERSION = "3"
ALGEBRA_SCHEMA_VERSION = "1"


def _expect(cond: bool, message: str) -> None:
    if not cond:
        raise DocumentError(message)


def _is_int(value) -> bool:
    # bool is a subclass of int; JSON true/false must not pass as numbers
    return isinstance(value, int) and not isinstance(value, bool)


def _context_from(obj: dict, where: str) -> GroupContext:
    _expect(_is_int(obj.get("p")) and _is_int(obj.get("r")),
            f"{where}: fields 'p' and 'r' must be integers")
    return _group_context(obj["p"], obj["r"], f"{where}: ")


def _check_vector(vec, ctx: GroupContext, where: str) -> tuple:
    _expect(isinstance(vec, list) and len(vec) == ctx.r,
            f"{where}: expected a list of {ctx.r} integers")
    _expect(all(_is_int(a) and 0 <= a < ctx.p for a in vec),
            f"{where}: exponents must be integers in [0, {ctx.p})")
    _expect(any(vec),
            f"{where}: the all-zero exponent vector (identity) is not allowed")
    return tuple(vec)


def _check_code(code, ctx: GroupContext, where: str) -> int:
    """A slot code: an exact int in [1, p^r)."""
    _expect(_is_int(code) and 0 < code and ctx.below_order(code),
            f"{where}: slot codes must be integers in [1, {ctx.p}^{ctx.r})")
    return code


def _check_value(value, ctx: GroupContext, ring: str, where: str) -> None:
    _expect(_is_int(value) and value != 0, f"{where}: must be a nonzero integer")
    _expect(ring != MOD_P or 0 < value < ctx.p,
            f"{where}: mod-p values must lie in [1, {ctx.p})")


def _distinct_ints(column: list, bools: bool):
    """The set of a column's items if each is an exact int, else None.

    ``_load_json`` reads every float, NaN and Infinity as its text, so the
    only items that equal an int without being one are the bools.  Unless
    the document's text holds ``true`` (``bools``), the types of the
    distinct items decide, which is exact: ``false`` equals 0, which no
    column admits, so the range checks refuse it or the int it hides.
    """
    try:
        distinct = set(column)
    except TypeError:  # a list or an object among the items
        return None
    if set(map(type, column if bools else distinct)) != {int}:
        return None
    return distinct


def _values_pass(values: list, ctx: GroupContext, ring: str, bools: bool) -> bool:
    """Whether every value is an exact nonzero int, in [1, p) over Fp."""
    distinct = _distinct_ints(values, bools)
    return distinct is not None and (
        0 < min(distinct) and max(distinct) < ctx.p if ring == MOD_P else 0 not in distinct)


def _load_json(text: str):
    """The JSON value of a document's text, each float, NaN or Infinity
    in it read as its text: no field admits one, and a str is refused
    with the same message.  Bad syntax, an int past the digit limit and
    nesting past the recursion limit are DocumentErrors."""
    import json

    try:
        return json.loads(text, parse_float=str, parse_constant=str)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


def parse_cochain_document(text: str):
    """Parse and validate a cochain document of schema 1 or 3.

    Returns (cochain, kind): an ICochain holding the entries, whatever the
    kind and the schema, and the document's kind tag.
    """
    obj = _load_json(text)
    _expect(isinstance(obj, dict), "document must be a JSON object")
    schema = obj.get("schema_version")
    _expect(schema in ("1", SCHEMA_VERSION), "schema_version must be '1' or '3'")
    ctx = _context_from(obj, "document")
    n = obj.get("n")
    _expect(_is_int(n) and n >= 0, "field 'n' must be a nonnegative integer")
    kind = obj.get("kind")
    _expect(kind in ("normalized", "icochain"),
            "field 'kind' must be 'normalized' or 'icochain'")
    ring = obj.get("coeff_ring")
    _expect(ring in (INTEGERS, MOD_P), "field 'coeff_ring' must be 'Z' or 'Fp'")
    # every key and value is checked here; the constructor would repeat it
    bools = "true" in text
    if schema == "1":
        entries = obj.get("entries")
        _expect(isinstance(entries, list), "field 'entries' must be a list")
        values = _entry_values(entries, ctx, n, ring, bools)
    else:
        values = _column_values(obj.get("slots"), obj.get("values"), ctx, n, ring, bools)
    return ICochain._trusted(ctx, n, ring, values), kind


# -- schema 3: two columns --------------------------------------------------

def _column_values(slots, values, ctx: GroupContext, n: int, ring: str, bools: bool) -> dict:
    """The validated {key: value} map of a schema-3 document's columns;
    ``bools`` as in ``_distinct_ints``."""
    _expect(isinstance(slots, list), "field 'slots' must be a list")
    _expect(isinstance(values, list), "field 'values' must be a list")
    count = len(values)
    _expect(len(slots) == n * count, f"field 'slots': expected n x len(values) = "
                                     f"{n} x {count} slot codes, got {len(slots)}")
    if not count:
        return {}
    if not _values_pass(values, ctx, ring, bools):
        for i, value in enumerate(values):
            _check_value(value, ctx, ring, f"values[{i}]")
    if not n:
        keys = [()] * count
    else:
        distinct = _distinct_ints(slots, bools)
        if not (distinct is not None and min(distinct) > 0
                and ctx.below_order(max(distinct))):
            for k, code in enumerate(slots):
                _check_code(code, ctx, f"slots[{k}]")
        check_budget(ctx.r * len(distinct))
        keys = zip(*[iter(slots)] * n)  # each n consecutive slots form a key
    result = dict(zip(keys, values))
    if len(result) != count:
        seen: set = set()
        for i in range(count):
            key = tuple(slots[i * n:(i + 1) * n])
            _expect(key not in seen, f"values[{i}]: duplicate key slots[{i * n}:{(i + 1) * n}]")
            seen.add(key)
    return result


# -- schema 1: {key, value} objects -----------------------------------------

def _entry_values(entries: list, ctx: GroupContext, n: int, ring: str, bools: bool) -> dict:
    """The validated {key: value} map of a schema-1 document's entries.

    The entries are checked as columns, each in one pass that runs in C:
    every entry is a dict of two items, 'key' and 'value'; every key a list
    of n slots; every value an exact nonzero int, in [1, p) over Fp.  Then
    ``_vector_elements`` encodes the slots, and no key may repeat.  When
    any check fails, ``_raise_first_entry_error`` checks the entries again
    one by one and raises the first error.
    """
    count = len(entries)
    if not count:
        return {}
    if not (set(map(type, entries)) == {dict} and set(map(len, entries)) == {2}):
        _raise_first_entry_error(entries, ctx, n, ring)
    keys = list(map(dict.get, entries, repeat("key")))
    values = list(map(dict.get, entries, repeat("value")))
    if not (set(map(type, keys)) == {list} and set(map(len, keys)) == {n}
            and _values_pass(values, ctx, ring, bools)):
        _raise_first_entry_error(entries, ctx, n, ring)
    if n:
        elements = _vector_elements(list(chain.from_iterable(keys)), ctx)
        if elements is None:
            _raise_first_entry_error(entries, ctx, n, ring)
        keys = zip(*[iter(elements)] * n)  # each n consecutive slots form a key
    else:
        keys = [()] * count
    result = dict(zip(keys, values))
    if len(result) != count:
        _raise_first_entry_error(entries, ctx, n, ring)
    return result


def _vector_elements(slots: list, ctx: GroupContext):
    """Every slot an exponent vector, a list of r exact ints (so no bool
    or float equal to one passes) in [0, p), not all zero.  Each distinct
    vector is checked and encoded once.  Returns the slots' elements, or
    None when a slot fails."""
    if not (set(map(type, slots)) == {list}
            and set(map(type, chain.from_iterable(slots))) == {int}):
        return None
    vectors = list(map(tuple, slots))
    try:
        elements = {v: ctx.encode(v) for v in set(vectors)}
    except ValueError:
        return None
    if 0 in elements.values():
        return None
    return list(map(elements.__getitem__, vectors))


def _raise_first_entry_error(entries: list, ctx: GroupContext, n: int, ring: str):
    """Raise the DocumentError of the first entry that fails, checked one
    entry at a time: its fields, its key's length, each slot
    (``_check_vector``), a repeated key, then its value.  The column
    checks of ``_entry_values`` fail exactly when some entry does, so the
    loop always raises.
    """
    seen: set = set()
    for idx, entry in enumerate(entries):
        if not (isinstance(entry, dict) and entry.keys() == {"key", "value"}):
            raise DocumentError(f"entries[{idx}]: must be an object with exactly "
                                "'key' and 'value'")
        key_raw = entry["key"]
        if not (isinstance(key_raw, list) and len(key_raw) == n):
            raise DocumentError(f"entries[{idx}].key: expected a list of {n} exponent vectors")
        key = tuple(_check_vector(slot, ctx, f"entries[{idx}].key[{j}]")
                    for j, slot in enumerate(key_raw))
        if key in seen:
            raise DocumentError(f"entries[{idx}]: duplicate key")
        seen.add(key)
        _check_value(entry["value"], ctx, ring, f"entries[{idx}].value")
    raise AssertionError("the column checks refused entries that each pass")


# -- writing ----------------------------------------------------------------

def cochain_document(cochain, kind: str) -> dict:
    """The schema-3 document of a cochain: its entries sorted by key, the
    keys' slots, which are element codes, in one column and the values in
    another."""
    entries = sorted(cochain.values.items(), key=itemgetter(0))
    return {
        "schema_version": SCHEMA_VERSION,
        "p": cochain.ctx.p,
        "r": cochain.ctx.r,
        "n": cochain.degree,
        "kind": kind,
        "coeff_ring": cochain.ring,
        "slots": list(chain.from_iterable(map(itemgetter(0), entries))),
        "values": list(map(itemgetter(1), entries)),
    }


def algebra_document(e) -> dict:
    entries = [{"signature": list(sig), "coeff": c}
               for sig, c in sorted(e.terms.items())]
    return {
        "schema_version": ALGEBRA_SCHEMA_VERSION,
        "p": e.ctx.p,
        "r": e.ctx.r,
        "entries": entries,
    }


def dumps_document(doc: dict) -> str:
    """The text of a document built by ``cochain_document`` or
    ``algebra_document``.

    A schema-3 (cochain) document is byte-identical to
    ``json.dumps(doc, separators=(",", ":"), sort_keys=True)`` plus a
    newline; its two columns, lists of ints, are written with each
    distinct int rendered once.  A schema-1 (algebra) document, a few
    entries long, is ``json.dumps(doc, indent=2, sort_keys=True)`` plus a
    newline.
    """
    import json

    if doc["schema_version"] != SCHEMA_VERSION:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return "{" + ",".join([json.dumps(name) + ":" + (
        _ints_text(value) if name in ("slots", "values") else json.dumps(value))
        for name, value in sorted(doc.items())]) + "}\n"


def _ints_text(items: list) -> str:
    """The compact JSON text of a list of ints."""
    texts = {i: str(i) for i in set(items)}
    return "[" + ",".join(map(texts.__getitem__, items)) + "]"
