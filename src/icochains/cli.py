"""Command-line surface with a stable JSON interchange format.

Documents are UTF-8 JSON.  A cochain document carries (p, r, n), a kind
tag (``normalized`` or ``icochain``), a coefficient-ring tag (``Z`` or
``Fp``), and a list of entries mapping keys to nonzero values.  ``tau``,
``cup`` and ``d`` write schema 2, whose key is a list of n slot codes:
a group element's exponent vector read in base p, first exponent most
significant, an integer in [1, p^r) (``cochain._slot_code``).  Codes
sort as the vectors do, so the entries keep their order.  Every command
also reads schema 1, whose key is a list of n exponent vectors, each r
integers in [0, p), never the zero vector; no command writes it.  Both
kinds store the same values, so every document of either schema parses
to an ``ICochain``; the kind is a label, which ``d`` writes back.  An
algebra document, which ``invert`` writes as schema 1 and no command
reads, carries (p, r) and entries mapping monomial signatures to
coefficients in [1, p).  All output is deterministic: entries are sorted
and serialization is byte-stable for identical inputs.

``dumps_document`` writes a cochain document byte-identical to
``json.dumps(doc, separators=(",", ":"), sort_keys=True) + "\n"`` and an
algebra document byte-identical to
``json.dumps(doc, indent=2, sort_keys=True) + "\n"``, which the tests
keep as the references.  It writes the cochain layout directly, rendering
each distinct slot code once and the text of each key up to its last
slot once per run of keys that share it.

``parse_cochain_document`` reads the entries as columns, its one reading
path: each condition (entry fields, key lengths, value types, slot types,
duplicate keys) is one pass of ``map``, ``set`` or ``zip`` that runs in
C.  The header and entry checks are shared by both schemas; then one
slot check per schema range-checks each distinct exponent vector once,
or decodes each distinct slot code once by r ``divmod``s, after refusing
(exit 3) r times the number of distinct codes over the entry budget.
When any column fails, a per-entry loop, which builds nothing and decodes
no code, checks the entries again one by one and raises the first
entry's error.

Exit codes: 0 success; 1 parse/validation failure; 2 mathematical failure
(input is not a cocycle); 3 resource refusal (over the entry budget of
2^24, which no flag raises), with the required size in the message; 64
usage errors such as unknown flags; 141 (128 + SIGPIPE) when the reader
closes stdout early, with nothing on stderr.

At module level this file imports only ``sys``; ``argparse`` loads in
``build_parser``, ``json`` in the document functions, and each library
module in the handler that runs it, so a process compiles only what its
command needs.  ``dims`` loads ``group_ring`` and ``graded`` and ranks the
multigraded blocks in pure Python, with no cochain, algebra or inverse-map
code.  ``tau``, ``invert``, ``cup``, ``d``, ``check-cocycle`` and
``count-terms`` load ``algebra`` or ``cochain`` (and through them
``group_ring`` and ``generators``).  Only ``d``, which runs the
coboundary kernel on either kind, and ``selftest``, which checks that
kernel against the bar formula, import numpy; the dense oracle that
``selftest`` also runs is pure Python, and ``invert`` and
``check-cocycle`` decide cocycles on the bar formula in pure Python.  The handlers reach ``realize``, ``invert`` and the four
document functions through this module's globals, so replacing one of
these names here (as a tracer does) reaches every command that calls it.

Only the CLI's own boundary errors become exit codes: ``DocumentError``
(including a bad ``--p``/``--r``), ``NotACocycleError`` and
``BudgetExceededError``.  Any other exception is a bug and propagates.

``main`` runs one command and returns its exit code; tests and in-process
callers use it.  ``entry_point``, the console script and ``python -m``
entry, runs ``main``, flushes stdout and stderr and leaves with
``os._exit``, skipping the interpreter's teardown (its shutdown garbage
collection and module cleanup), which in a pipe such as ``tau | invert``
would delay the reader's end of input and the pipe's end.  ``atexit``
handlers therefore do not run.  When a flush fails, or a tracer or
profiler is installed (coverage, ``python -m cProfile``), it leaves
through ``sys.exit`` and the usual shutdown instead.  Exceptions, and
argparse's ``SystemExit``, propagate out of ``main`` either way, and out of
``entry_point`` too, except a ``BrokenPipeError`` on stdout.  Before
``main``, ``entry_point`` also defers the cyclic garbage collector
(``gc.freeze`` and a first-generation threshold of 50 000), because the
bulk of a command's data is acyclic; ``main`` leaves the collector as it
finds it.
"""

from __future__ import annotations

import sys

# Cochain documents are written as schema 2 and read as schema 1 or 2;
# algebra documents are written as schema 1.
SCHEMA_VERSION = "2"
ALGEBRA_SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_COCYCLE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


class DocumentError(ValueError):
    """A document failed to parse or validate."""


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


def _group_context(p: int, r: int, where: str = "") -> GroupContext:
    """GroupContext(p, r), whose ValueError becomes a DocumentError."""
    from .group_ring import GroupContext

    try:
        return GroupContext(p, r)
    except ValueError as exc:
        raise DocumentError(f"{where}{exc}") from None


def _check_vector(vec, ctx: GroupContext, where: str) -> tuple:
    _expect(isinstance(vec, list) and len(vec) == ctx.r,
            f"{where}: expected a list of {ctx.r} integers")
    _expect(all(_is_int(a) and 0 <= a < ctx.p for a in vec),
            f"{where}: exponents must be integers in [0, {ctx.p})")
    _expect(any(vec),
            f"{where}: the all-zero exponent vector (identity) is not allowed")
    return tuple(vec)


def _check_code(code, ctx: GroupContext, where: str) -> int:
    """A schema-2 key slot: an exact int in [1, p^r).  The bound is
    tested against p^min(r, bits of the code), which is at least p^r or
    larger than the code, so p^r itself is never computed."""
    _expect(_is_int(code) and 0 < code < ctx.p ** min(ctx.r, code.bit_length()),
            f"{where}: slot codes must be integers in [1, {ctx.p}^{ctx.r})")
    return code


def _slot_element(code: int, p: int, r: int):
    """The exponent vector of slot code ``code``, read off by r divmods,
    last exponent first; None unless 1 <= code < p^r, which holds exactly
    when the code is positive and the quotient left after the r steps is
    0."""
    if code < 1:
        return None
    digits = [0] * r
    for i in range(r - 1, -1, -1):
        code, digits[i] = divmod(code, p)
    return None if code else tuple(digits)


def _load_json(text: str):
    """The JSON value of a document's text.  Bad syntax, an int past the
    digit limit and nesting past the recursion limit are DocumentErrors."""
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


def parse_cochain_document(text: str):
    """Parse and validate a cochain document of schema 1 or 2.

    Returns (cochain, kind): an ICochain holding the entries, whatever the
    kind and the schema, and the document's kind tag.
    """
    from .cochain import ICochain
    from .group_ring import INTEGERS, MOD_P

    obj = _load_json(text)
    _expect(isinstance(obj, dict), "document must be a JSON object")
    schema = obj.get("schema_version")
    _expect(schema in ("1", "2"), "schema_version must be '1' or '2'")
    ctx = _context_from(obj, "document")
    n = obj.get("n")
    _expect(_is_int(n) and n >= 0, "field 'n' must be a nonnegative integer")
    kind = obj.get("kind")
    _expect(kind in ("normalized", "icochain"),
            "field 'kind' must be 'normalized' or 'icochain'")
    ring = obj.get("coeff_ring")
    _expect(ring in (INTEGERS, MOD_P), "field 'coeff_ring' must be 'Z' or 'Fp'")
    entries = obj.get("entries")
    _expect(isinstance(entries, list), "field 'entries' must be a list")
    # every key and value is checked here; the constructor would repeat it
    values = _entry_values(entries, ctx, n, ring, schema)
    return ICochain._trusted(ctx, n, ring, values), kind


def _entry_values(entries: list, ctx: GroupContext, n: int, ring: str, schema: str) -> dict:
    """The validated {key: value} map of a cochain document's entries.

    The entries are checked as columns, each in one pass that runs in C:
    every entry is a dict of two items, 'key' and 'value'; every key a list
    of n slots; every value an exact nonzero int, in [1, p) over Fp.  Then
    one slot check per schema (``_vector_elements``, ``_code_elements``)
    turns the slots into group elements, equal slots into one tuple, and
    no key may repeat.  When any check fails, ``_raise_first_entry_error``
    checks the entries again one by one and raises the first error.
    """
    from itertools import chain, repeat

    from .group_ring import MOD_P

    count = len(entries)
    if not count:
        return {}
    if not (set(map(type, entries)) == {dict} and set(map(len, entries)) == {2}):
        _raise_first_entry_error(entries, ctx, n, ring, schema)
    keys = list(map(dict.get, entries, repeat("key")))
    values = list(map(dict.get, entries, repeat("value")))
    if not (set(map(type, keys)) == {list} and set(map(len, keys)) == {n}
            and set(map(type, values)) == {int}
            and (0 < min(values) and max(values) < ctx.p if ring == MOD_P
                 else 0 not in values)):
        _raise_first_entry_error(entries, ctx, n, ring, schema)
    if n:
        elements = (_vector_elements if schema == "1" else _code_elements)(
            list(chain.from_iterable(keys)), ctx)
        if elements is None:
            _raise_first_entry_error(entries, ctx, n, ring, schema)
        keys = zip(*[iter(elements)] * n)  # each n consecutive slots form a key
    else:
        keys = [()] * count
    result = dict(zip(keys, values))
    if len(result) != count:
        _raise_first_entry_error(entries, ctx, n, ring, schema)
    return result


def _vector_elements(slots: list, ctx: GroupContext):
    """Schema 1: every slot an exponent vector, a list of r exact ints
    (so no bool or float equal to one passes) in [0, p), not all zero.
    Each distinct vector is range-checked once.  Returns the slots'
    elements, equal vectors sharing one tuple, or None when a slot
    fails."""
    from itertools import chain, tee

    if not (set(map(type, slots)) == {list}
            and set(map(type, chain.from_iterable(slots))) == {int}):
        return None
    distinct: dict = {}  # each distinct vector, mapped to its first tuple
    elements = list(map(distinct.setdefault, *tee(map(tuple, slots))))
    if not (set(map(len, distinct)) == {ctx.r} and all(map(any, distinct))
            and min(map(min, distinct)) >= 0 and max(map(max, distinct)) < ctx.p):
        return None
    return elements


def _code_elements(slots: list, ctx: GroupContext):
    """Schema 2: every slot a slot code, an exact int in [1, p^r).  Each
    distinct code is decoded once (``_slot_element``), after r times their
    number, the exponents the decoding writes, has passed the entry
    budget.  Returns the slots' elements, as an iterator, or None when a
    slot fails."""
    from .group_ring import check_budget

    if set(map(type, slots)) != {int}:
        return None
    distinct = set(slots)
    check_budget(ctx.r * len(distinct))
    p, r = ctx.p, ctx.r
    elements = {code: _slot_element(code, p, r) for code in distinct}
    if None in elements.values():
        return None
    return map(elements.__getitem__, slots)


def _raise_first_entry_error(entries: list, ctx: GroupContext, n: int, ring: str,
                             schema: str) -> NoReturn:
    """Raise the DocumentError of the first entry that fails, checked one
    entry at a time: its fields, its key's length, each slot
    (``_check_vector`` or ``_check_code``), a repeated key, then its
    value.  It builds nothing and decodes no code.  The column checks of
    ``_entry_values`` fail exactly when some entry does, so the loop
    always raises.
    """
    from .group_ring import MOD_P

    check_slot, slots = ((_check_vector, "exponent vectors") if schema == "1"
                         else (_check_code, "slot codes"))
    seen: set = set()
    for idx, entry in enumerate(entries):
        if not (isinstance(entry, dict) and entry.keys() == {"key", "value"}):
            raise DocumentError(f"entries[{idx}]: must be an object with exactly "
                                "'key' and 'value'")
        key_raw = entry["key"]
        if not (isinstance(key_raw, list) and len(key_raw) == n):
            raise DocumentError(f"entries[{idx}].key: expected a list of {n} {slots}")
        key = tuple(check_slot(slot, ctx, f"entries[{idx}].key[{j}]")
                    for j, slot in enumerate(key_raw))
        if key in seen:
            raise DocumentError(f"entries[{idx}]: duplicate key")
        seen.add(key)
        value = entry["value"]
        if not (_is_int(value) and value != 0):
            raise DocumentError(f"entries[{idx}].value: must be a nonzero integer")
        if ring == MOD_P and not 0 < value < ctx.p:
            raise DocumentError(f"entries[{idx}].value: mod-p values must lie in [1, {ctx.p})")
    raise AssertionError("the column checks refused entries that each pass")


class _SlotCodes(dict):
    """The slot code (``cochain._slot_code``) of each exponent vector
    looked up, computed on its first lookup, so that mapping a document's
    slots hashes each slot once."""

    def __init__(self, p: int):
        super().__init__()
        self.p = p

    def __missing__(self, u) -> int:
        from .cochain import _slot_code

        code = self[u] = _slot_code(self.p, u)
        return code


def cochain_document(cochain, kind: str) -> dict:
    """The schema-2 document of a cochain: each key a list of n slot
    codes, entries sorted by key."""
    from itertools import chain

    p, n, values = cochain.ctx.p, cochain.degree, cochain.values
    slots = map(_SlotCodes(p).__getitem__, chain.from_iterable(values))
    keys = zip(*[slots] * n) if n else [()] * len(values)
    # codes sort as the keys do, so the order is the order of the keys
    entries = [{"key": key, "value": c} for key, c in sorted(zip(keys, values.values()))]
    return {
        "schema_version": SCHEMA_VERSION,
        "p": p,
        "r": cochain.ctx.r,
        "n": n,
        "kind": kind,
        "coeff_ring": cochain.ring,
        "entries": entries,
    }


def algebra_document(e: AlgebraElem) -> dict:
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

    A schema-2 (cochain) document is byte-identical to
    ``json.dumps(doc, separators=(",", ":"), sort_keys=True)`` plus a
    newline, and is written directly.  Each distinct slot code is rendered
    once, each key's text up to its last slot once per run of entries
    sharing it, and the rest of an entry once per distinct last slot and
    value; the entries' pieces are joined once.  A
    schema-1 (algebra) document, a few entries long, is
    ``json.dumps(doc, indent=2, sort_keys=True)`` plus a newline.
    """
    import json

    if doc["schema_version"] != SCHEMA_VERSION:
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"
    return "{" + ",".join([json.dumps(name) + ":" + (
        _entries_text(value) if name == "entries" else json.dumps(value))
        for name, value in sorted(doc.items())]) + "}\n"


def _entries_text(entries: list) -> str:
    """The compact text of a cochain document's entries, {key, value}
    objects whose keys are lists of slot codes."""
    codes: dict = {}  # slot code -> its text and a comma
    tails: dict = {}  # (last slot code, value) -> the entry's text after its prefix
    prefix = head = None
    pieces = []
    for entry in entries:
        key, value = entry["key"], entry["value"]
        if key[:-1] != prefix:
            prefix = key[:-1]
            head = '{"key":[' + "".join([codes.get(c) or codes.setdefault(c, f"{c},")
                                         for c in prefix])
        last = (key[-1] if key else None, value)
        tail = tails.get(last)
        if tail is None:
            tail = tails[last] = f'{key[-1] if key else ""}],"value":{value}}}'
        pieces.append(head + tail)
    return "[" + ",".join(pieces) + "]"


def _read_input(path: str) -> str:
    """The text of the cochain document at ``path``, or of stdin for "-".

    The parser's modules load here, before the read, and ``invert`` loads
    ``algebra`` before calling this, so in a pipe such as
    ``tau | invert --in -`` the reader compiles them while the writer is
    still computing.
    """
    import json  # noqa: F401  (for the parser, ahead of the read)

    from . import cochain  # noqa: F401

    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


# -- the library entry points the handlers call ---------------------------
#
# The handlers call these names, and the four document functions above,
# through this module's globals, so a tracer can replace any of them here.
# Each loads ``algebra`` on its first call.  ``invert_normalized``, the
# older name of ``invert``, is kept for the benchmark's tracer
# (bench/spans.py).

def realize(e):
    from . import algebra
    return algebra.realize(e)


def invert(f):
    from . import algebra
    return algebra.invert(f)


invert_normalized = invert


def _write(text: str) -> None:
    """Write a command's output to stdout, every byte of it.

    Unbuffered (``python -u`` or ``PYTHONUNBUFFERED``), ``sys.stdout.buffer``
    is the raw file, whose ``write`` may take only part of the data, as when
    the reader of a pipe closes it mid-document, and ``sys.stdout.write``
    drops the rest without an error.  So the encoded text goes through the
    binary layer in a loop until all of it is out; a closed reader then
    fails the next write with ``BrokenPipeError``.  A stdout without a
    binary layer, such as an ``io.StringIO``, takes the text as it is.
    """
    out = getattr(sys.stdout, "buffer", None)
    if out is None:
        sys.stdout.write(text)
        return
    sys.stdout.flush()  # text already written goes first
    data = memoryview(text.encode())
    while data:
        data = data[out.write(data):]


# -- command handlers ---------------------------------------------------
#
# Each handler imports the library modules it runs, so a process compiles
# only what its command needs.

def _cmd_invert(args) -> int:
    from . import algebra  # noqa: F401  (for invert, ahead of the read)
    from .group_ring import MOD_P, NotACocycleError

    cochain, _ = parse_cochain_document(_read_input(args.infile))
    if cochain.ring != MOD_P:
        raise DocumentError("invert requires mod-p coefficients (coeff_ring 'Fp')")
    if not args.unchecked and not cochain.is_cocycle():
        raise NotACocycleError("input cochain is not a cocycle")
    _write(dumps_document(algebra_document(invert(cochain))))
    return EXIT_OK


def _cmd_tau(args) -> int:
    from .algebra import AlgebraElem

    ctx = _group_context(args.p, args.r)
    try:
        sig = tuple(int(s) for s in args.sig.split(","))
    except ValueError:
        raise DocumentError(f"--sig must be comma-separated integers: {args.sig!r}") from None
    if len(sig) != ctx.r or any(m < 0 for m in sig):
        raise DocumentError(f"--sig must be {ctx.r} nonnegative integers")
    cocycle = realize(AlgebraElem.monomial(ctx, sig))
    _write(dumps_document(cochain_document(cocycle, "icochain")))
    return EXIT_OK


def _cmd_cup(args) -> int:
    from .cochain import cup_many
    from .group_ring import MOD_P

    if len(args.infile) < 2:
        raise DocumentError("cup needs at least two --in documents")
    factors = []
    for path in args.infile:
        cochain, _ = parse_cochain_document(_read_input(path))
        if cochain.ring != MOD_P:
            raise DocumentError("cup requires mod-p coefficients")
        factors.append(cochain)
    if any(f.ctx != factors[0].ctx for f in factors):
        raise DocumentError("cup factors must share p and r")
    _write(dumps_document(cochain_document(cup_many(factors), "icochain")))
    return EXIT_OK


def _cmd_d(args) -> int:
    cochain, kind = parse_cochain_document(_read_input(args.infile))
    _write(dumps_document(cochain_document(cochain.coboundary(), kind)))
    return EXIT_OK


def _cmd_check_cocycle(args) -> int:
    cochain, _ = parse_cochain_document(_read_input(args.infile))
    if cochain.is_cocycle():
        _write("true\n")
        return EXIT_OK
    _write("false\n")
    return EXIT_NOT_COCYCLE


def _cmd_dims(args) -> int:
    from .graded import check_table_budget, cohomology_report, graded_dimension

    ctx = _group_context(args.p, args.r)
    check_table_budget(ctx, args.max_n)
    lines = ["n dim_C dim_Z dim_B dim_H expected_H"]
    for n in range(args.max_n + 1):
        rep = cohomology_report(ctx, n)
        lines.append(f"{n} {rep.dim_cochains} {rep.dim_ker_dn} {rep.rank_d_prev} "
                     f"{rep.dim_h} {graded_dimension(ctx, n)}")
    _write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_count_terms(args) -> int:
    from .algebra import count_terms

    _write(_decimal_text(count_terms(_group_context(args.p, args.r), args.n)) + "\n")
    return EXIT_OK


def _decimal_text(x: int) -> str:
    """The decimal digits of a nonnegative int of any length.

    ``str`` refuses ints of more than 4 300 digits and is quadratic past
    them on Python 3.11; this splits x at powers of two and rejoins the
    halves in ``decimal``, whose products are subquadratic.
    """
    import decimal

    powers: dict = {}

    def convert(value: int, bits: int) -> decimal.Decimal:
        if bits <= 4096:
            return decimal.Decimal(value)
        half = bits >> 1
        if half not in powers:
            powers[half] = decimal.Decimal(2) ** half
        high = value >> half
        return convert(value - (high << half), half) + convert(high, bits - half) * powers[half]

    with decimal.localcontext() as context:
        context.prec, context.Emax = decimal.MAX_PREC, decimal.MAX_EMAX
        context.traps[decimal.Inexact] = True
        return str(convert(x, x.bit_length()))


def _cmd_selftest(_args) -> int:
    from . import acceptance

    return EXIT_OK if acceptance.run_selftest(print) else 1


def build_parser():
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message):
            self.print_usage(sys.stderr)
            print(f"error: {message}", file=sys.stderr)
            raise SystemExit(EXIT_USAGE)

    def degree(text: str) -> int:
        """The type of a flag taking a degree, a nonnegative integer."""
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be a nonnegative degree, got {value}")
        return value

    parser = Parser(prog="icochains",
                     description="Mod-p cohomology of elementary abelian groups "
                                 "at explicit cochain level.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_invert = sub.add_parser("invert", help="map a cocycle document "
                              "to algebra coordinates")
    p_invert.add_argument("--in", dest="infile", required=True,
                          help="cochain document path, or - for stdin")
    # both kinds store the same values, so the kind flags change nothing
    kind = p_invert.add_mutually_exclusive_group()
    kind.add_argument("--normalized", action="store_true",
                      help="accepted for compatibility; no effect")
    kind.add_argument("--icochain", action="store_true",
                      help="accepted for compatibility; no effect")
    p_invert.add_argument("--unchecked", action="store_true",
                          help="skip the cocycle check (raw linear map)")
    p_invert.set_defaults(func=_cmd_invert)

    p_tau = sub.add_parser("tau", help="realize a monomial signature as a cocycle document")
    p_tau.add_argument("--p", type=int, required=True)
    p_tau.add_argument("--r", type=int, required=True)
    p_tau.add_argument("--sig", required=True, help="comma-separated signature, r entries")
    p_tau.set_defaults(func=_cmd_tau)

    p_cup = sub.add_parser("cup", help="cup product of two or more cochain documents")
    p_cup.add_argument("--in", dest="infile", action="append", required=True,
                       help="repeatable: cochain document path")
    p_cup.set_defaults(func=_cmd_cup)

    p_d = sub.add_parser("d", help="coboundary of a cochain document")
    p_d.add_argument("--in", dest="infile", required=True)
    p_d.set_defaults(func=_cmd_d)

    p_check = sub.add_parser("check-cocycle", help="report whether a document is a cocycle")
    p_check.add_argument("--in", dest="infile", required=True)
    p_check.set_defaults(func=_cmd_check_cocycle)

    p_dims = sub.add_parser("dims", help="cohomology dimension table from the rank oracle")
    p_dims.add_argument("--p", type=int, required=True)
    p_dims.add_argument("--r", type=int, required=True)
    p_dims.add_argument("--max-n", type=degree, required=True,
                        help="last degree of the table; refused when the key slots the "
                             "whole table enumerates, or rows x columns of its largest "
                             "multidegree block, exceed the entry budget of 2^24")
    p_dims.set_defaults(func=_cmd_dims)

    p_count = sub.add_parser("count-terms", help="number of evaluations in the inverse formula")
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--n", type=degree, required=True)
    p_count.set_defaults(func=_cmd_count_terms)

    p_self = sub.add_parser("selftest", help="run the acceptance suite")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    from .group_ring import BudgetExceededError, NotACocycleError

    try:
        return args.func(args)
    except DocumentError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except NotACocycleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NOT_COCYCLE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET


def entry_point() -> None:
    """Run ``main`` and exit with its code, without the interpreter's
    teardown unless a flush fails or a tracer or profiler is installed
    (see the module docstring).

    The cyclic garbage collector is deferred first: what the interpreter
    has allocated so far is frozen out of every collection, and the first
    generation is collected after 50 000 net container allocations
    instead of 700.  A command's bulk is acyclic (parsed documents, dicts
    of key tuples), so those collections would free almost nothing, and
    the process ends without a final one.  A ``BrokenPipeError`` on stdout
    (its reader has closed it) points stdout at ``os.devnull``, so that no
    later flush raises, and exits 141 with nothing on stderr."""
    import gc
    import os

    gc.freeze()
    gc.set_threshold(50_000, 20, 100)
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_BROKEN_PIPE
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError:
        sys.exit(code)
    if sys.gettrace() is not None or sys.getprofile() is not None:
        sys.exit(code)
    os._exit(code)


if __name__ == "__main__":
    entry_point()
