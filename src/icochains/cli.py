"""Command-line surface with a stable JSON interchange format.

Documents are UTF-8 JSON.  A cochain document carries (p, r, n), a kind
tag (``normalized`` or ``icochain``), a coefficient-ring tag (``Z`` or
``Fp``), and a list of entries mapping keys (lists of n exponent vectors,
each r integers in [0, p), never the zero vector) to nonzero values.  Both
kinds store the same values, so every document parses to an ``ICochain``;
the kind is a label, which ``d`` writes back.  An algebra document,
which ``invert`` writes and no command reads, carries (p, r) and entries
mapping monomial signatures to coefficients in [1, p).  All output is
deterministic: entries are sorted and serialization is byte-stable for
identical inputs.

``dumps_document`` writes the two layouts directly.  Its text is
byte-identical to ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``,
which the tests keep as the reference.  Every piece of the text, from the
opening brace to the closing newline, goes into one list that is joined
once, so the megabyte-sized text is copied once.  It renders each distinct
exponent vector once, and the text of each key up to its last slot once
per run of keys that share it.

``parse_cochain_document`` reads the entries as columns, its one reading
path: each condition (entry fields, key lengths, exponent and value
types, duplicate keys) is one pass of ``map``, ``set`` or ``zip`` that
runs in C, and each distinct exponent vector is range-checked once.  When
any column fails, a per-entry loop, which builds nothing, checks the
entries again one by one and raises the first entry's error.

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

SCHEMA_VERSION = "1"

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


def _load_json(text: str):
    """The JSON value of a document's text.  Bad syntax, an int past the
    digit limit and nesting past the recursion limit are DocumentErrors."""
    import json

    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None


def parse_cochain_document(text: str):
    """Parse and validate a cochain document.

    Returns (cochain, kind): an ICochain holding the entries, whatever the
    kind, and the document's kind tag.
    """
    from .cochain import ICochain
    from .group_ring import INTEGERS, MOD_P

    obj = _load_json(text)
    _expect(isinstance(obj, dict), "document must be a JSON object")
    _expect(obj.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION!r}")
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
    return ICochain._trusted(ctx, n, ring, _entry_values(entries, ctx, n, ring)), kind


def _entry_values(entries: list, ctx: GroupContext, n: int, ring: str) -> dict:
    """The validated {key: value} map of a cochain document's entries.

    The entries are checked as columns, each in one pass that runs in C:
    every entry is a dict of two items, 'key' and 'value'; every key a list
    of n lists; every exponent an exact int (so no bool or float equal to
    one passes); each distinct vector has r exponents in [0, p) and is not
    the zero vector; every value is an exact nonzero int, in [1, p) over
    Fp; and no key repeats.  Equal vectors share one tuple.  When any check
    fails, ``_raise_first_entry_error`` checks the entries again one by one
    and raises the first error.
    """
    from itertools import chain, repeat, tee

    from .group_ring import MOD_P

    count = len(entries)
    if not count:
        return {}
    if not (set(map(type, entries)) == {dict} and set(map(len, entries)) == {2}):
        _raise_first_entry_error(entries, ctx, n, ring)
    keys = list(map(dict.get, entries, repeat("key")))
    values = list(map(dict.get, entries, repeat("value")))
    if not (set(map(type, keys)) == {list} and set(map(len, keys)) == {n}
            and set(map(type, values)) == {int}
            and (0 < min(values) and max(values) < ctx.p if ring == MOD_P
                 else 0 not in values)):
        _raise_first_entry_error(entries, ctx, n, ring)
    vectors = list(chain.from_iterable(keys))
    if n and not (set(map(type, vectors)) == {list}
                  and set(map(type, chain.from_iterable(vectors))) == {int}):
        _raise_first_entry_error(entries, ctx, n, ring)
    distinct: dict = {}  # each distinct vector, mapped to its first tuple
    shared = map(distinct.setdefault, *tee(map(tuple, vectors)))
    # each n consecutive vectors form a key
    result = dict(zip(zip(*[shared] * n) if n else [()] * count, values))
    if len(result) != count or n and not (
            set(map(len, distinct)) == {ctx.r} and all(map(any, distinct))
            and min(map(min, distinct)) >= 0 and max(map(max, distinct)) < ctx.p):
        _raise_first_entry_error(entries, ctx, n, ring)
    return result


def _raise_first_entry_error(entries: list, ctx: GroupContext, n: int, ring: str) -> NoReturn:
    """Raise the DocumentError of the first entry that fails, checked one
    entry at a time: its fields, its key's length, each vector
    (``_check_vector``), a repeated key, then its value.  It builds
    nothing.  The column checks of ``_entry_values`` fail exactly when
    some entry does, so the loop always raises.
    """
    from .group_ring import MOD_P

    seen: set = set()
    for idx, entry in enumerate(entries):
        if not (isinstance(entry, dict) and entry.keys() == {"key", "value"}):
            raise DocumentError(f"entries[{idx}]: must be an object with exactly "
                                "'key' and 'value'")
        key_raw = entry["key"]
        if not (isinstance(key_raw, list) and len(key_raw) == n):
            raise DocumentError(f"entries[{idx}].key: expected a list of {n} exponent vectors")
        key = tuple(_check_vector(vec, ctx, f"entries[{idx}].key[{j}]")
                    for j, vec in enumerate(key_raw))
        if key in seen:
            raise DocumentError(f"entries[{idx}]: duplicate key")
        seen.add(key)
        value = entry["value"]
        if not (_is_int(value) and value != 0):
            raise DocumentError(f"entries[{idx}].value: must be a nonzero integer")
        if ring == MOD_P and not 0 < value < ctx.p:
            raise DocumentError(f"entries[{idx}].value: mod-p values must lie in [1, {ctx.p})")
    raise AssertionError("the column checks refused entries that each pass")


def cochain_document(cochain, kind: str) -> dict:
    # keys stay tuples of exponent-vector tuples, which JSON writes as arrays
    entries = [{"key": key, "value": c} for key, c in sorted(cochain.values.items())]
    return {
        "schema_version": SCHEMA_VERSION,
        "p": cochain.ctx.p,
        "r": cochain.ctx.r,
        "n": cochain.degree,
        "kind": kind,
        "coeff_ring": cochain.ring,
        "entries": entries,
    }


def algebra_document(e: AlgebraElem) -> dict:
    entries = [{"signature": list(sig), "coeff": c}
               for sig, c in sorted(e.terms.items())]
    return {
        "schema_version": SCHEMA_VERSION,
        "p": e.ctx.p,
        "r": e.ctx.r,
        "entries": entries,
    }


def dumps_document(doc: dict) -> str:
    """The text of a document built by ``cochain_document`` or
    ``algebra_document``.

    It is byte-identical to ``json.dumps(doc, indent=2, sort_keys=True)``
    plus a newline, which on Python 3.11 never uses the C encoder.  The
    fields and entries of the two layouts are written directly, as pieces
    of one list joined once at the end; each distinct exponent vector is
    rendered once per document, and each key prefix (all slots but the
    last) once per run of entries sharing it.
    """
    import json

    out = []
    sep = "{\n  "
    for name, value in sorted(doc.items()):
        out += (sep, json.dumps(name), ": ")
        if name == "entries":
            _write_entries(out, value)
        else:
            out.append(json.dumps(value))
        sep = ",\n  "
    out.append("\n}\n")
    return "".join(out)


def _write_entries(out: list, entries: list) -> None:
    """Append the pieces of the ``entries`` array to ``out``: {key, value}
    cochain entries, whose exponent vectors repeat, or {coeff, signature}
    algebra entries.

    A cochain entry's text up to its key's last slot is rendered once per
    run of entries whose keys agree on every slot but the last, which in
    sorted order is one run per prefix.
    """
    if not entries:
        out.append("[]")
        return
    slots: dict = {}  # exponent vector -> its text as a key slot
    lasts: dict = {}  # exponent vector -> its text as a key's last slot, to the value

    def slot_text(u) -> str:
        text = slots.get(u)
        if text is None:
            text = slots[u] = "\n        [\n          " + ",\n          ".join(
                map(int.__repr__, u)) + "\n        ]"
        return text

    prefix = head = None
    sep = "[\n    "
    for entry in entries:
        if "key" in entry:
            key = entry["key"]
            if key[:-1] != prefix:
                prefix = key[:-1]
                head = '{\n      "key": [' + "".join(slot_text(tuple(u)) + "," for u in prefix)
            last = tuple(key[-1]) if key else ()
            tail = lasts.get(last)
            if tail is None:
                tail = slot_text(last) + "\n      ]," if key else "],"
                tail = lasts[last] = tail + '\n      "value": '
            out += (sep, head, tail, int.__repr__(entry["value"]), "\n    }")
        else:
            out += (sep, '{\n      "coeff": ', int.__repr__(entry["coeff"]),
                    ',\n      "signature": [\n        ',
                    ",\n        ".join(map(int.__repr__, entry["signature"])), "\n      ]\n    }")
        sep = ",\n    "
    out.append("\n  ]")


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
