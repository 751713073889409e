"""Command-line surface with a stable JSON interchange format.

Documents are UTF-8 JSON.  A cochain document carries (p, r, n), a kind
tag (``normalized`` or ``icochain``), a coefficient-ring tag (``Z`` or
``Fp``), and a list of entries mapping keys (lists of n exponent vectors,
each r integers in [0, p), never the zero vector) to nonzero values.  An
algebra document carries (p, r) and entries mapping monomial signatures to
coefficients in [1, p).  All output is deterministic: entries are sorted
and serialization is byte-stable for identical inputs.

``dumps_document`` writes the two layouts directly.  Its text is
byte-identical to ``json.dumps(doc, indent=2, sort_keys=True) + "\n"``,
which the tests keep as the reference, and it renders each distinct
exponent vector once.  ``parse_cochain_document`` validates each distinct
exponent vector once: a later vector of r exact ints equal to it reuses
its tuple, and anything else goes through the full check, so every
message and exit code is that of the per-entry check.

Exit codes: 0 success; 1 parse/validation failure; 2 mathematical failure
(input is not a cocycle); 3 resource refusal (entry budget), with the
required size in the message; 64 usage errors such as unknown flags.

Only ``d`` on an icochain document, which runs the coboundary kernel, and
``selftest``, which runs the dense oracle, import numpy.  ``invert`` and
``check-cocycle`` decide cocycles on the bar formula in pure Python, and
``dims`` ranks the multigraded blocks of ``graded`` in pure Python.  The
rank modules and the acceptance suite are imported inside their handlers.
"""

from __future__ import annotations

import argparse
import json
import sys

from .algebra import (
    AlgebraElem,
    count_terms,
    graded_dimension,
    invert,
    invert_normalized,
    realize,
)
from .cochain import (
    DEFAULT_MAX_ENTRIES,
    BudgetExceededError,
    ICochain,
    NormalizedCochain,
    NotACocycleError,
)
from .group_ring import INTEGERS, MOD_P, GroupContext

SCHEMA_VERSION = "1"

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_COCYCLE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64


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
    try:
        return GroupContext(obj["p"], obj["r"])
    except ValueError as exc:
        raise DocumentError(f"{where}: {exc}") from None


def _check_vector(vec, ctx: GroupContext, where: str, allow_zero: bool) -> tuple:
    _expect(isinstance(vec, list) and len(vec) == ctx.r,
            f"{where}: expected a list of {ctx.r} integers")
    _expect(all(_is_int(a) and 0 <= a < ctx.p for a in vec),
            f"{where}: exponents must be integers in [0, {ctx.p})")
    _expect(allow_zero or any(vec),
            f"{where}: the all-zero exponent vector (identity) is not allowed")
    return tuple(vec)


def parse_cochain_document(text: str):
    """Parse and validate a cochain document.

    Returns (cochain, kind) where the cochain is a NormalizedCochain or an
    ICochain according to the document's kind tag.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
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
    cls = NormalizedCochain if kind == "normalized" else ICochain
    return cls._trusted(ctx, n, ring, _entry_values(entries, ctx, n, ring)), kind


def _entry_values(entries: list, ctx: GroupContext, n: int, ring: str) -> dict:
    """The validated {key: value} map of a cochain document's entries.

    Each distinct exponent vector goes through ``_check_vector`` once; a
    later vector of r exact ints that equals it reuses its tuple.  The
    types are checked before the lookup, because True == 1 and 1.0 == 1
    hash alike.  Messages are built only when a check fails.
    """
    int_row = [int] * ctx.r
    vectors: dict = {}  # every vector validated so far, mapped to itself
    values: dict = {}
    for idx, entry in enumerate(entries):
        if not (isinstance(entry, dict) and entry.keys() == {"key", "value"}):
            raise DocumentError(f"entries[{idx}]: must be an object with exactly "
                                "'key' and 'value'")
        key_raw = entry["key"]
        if not (isinstance(key_raw, list) and len(key_raw) == n):
            raise DocumentError(f"entries[{idx}].key: expected a list of {n} exponent vectors")
        key = []
        for j, vec in enumerate(key_raw):
            u = (vectors.get(tuple(vec))
                 if type(vec) is list and list(map(type, vec)) == int_row else None)
            if u is None:
                u = _check_vector(vec, ctx, f"entries[{idx}].key[{j}]", allow_zero=False)
                vectors[u] = u
            key.append(u)
        key = tuple(key)
        if key in values:
            raise DocumentError(f"entries[{idx}]: duplicate key")
        value = entry["value"]
        if not (_is_int(value) and value != 0):
            raise DocumentError(f"entries[{idx}].value: must be a nonzero integer")
        if ring == MOD_P and not 0 < value < ctx.p:
            raise DocumentError(f"entries[{idx}].value: mod-p values must lie in [1, {ctx.p})")
        values[key] = value
    return values


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


def parse_algebra_document(text: str) -> AlgebraElem:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from None
    _expect(isinstance(obj, dict), "document must be a JSON object")
    _expect(obj.get("schema_version") == SCHEMA_VERSION,
            f"schema_version must be {SCHEMA_VERSION!r}")
    ctx = _context_from(obj, "document")
    entries = obj.get("entries")
    _expect(isinstance(entries, list), "field 'entries' must be a list")
    terms: dict = {}
    for idx, entry in enumerate(entries):
        where = f"entries[{idx}]"
        _expect(isinstance(entry, dict) and set(entry) == {"signature", "coeff"},
                f"{where}: must be an object with exactly 'signature' and 'coeff'")
        raw = entry["signature"]
        _expect(isinstance(raw, list) and len(raw) == ctx.r
                and all(_is_int(a) and a >= 0 for a in raw),
                f"{where}.signature: expected {ctx.r} nonnegative integers")
        sig = tuple(raw)
        _expect(sig not in terms, f"{where}: duplicate signature")
        coeff = entry["coeff"]
        _expect(_is_int(coeff) and 0 < coeff < ctx.p,
                f"{where}.coeff: must be an integer in [1, {ctx.p})")
        terms[sig] = coeff
    return AlgebraElem(ctx, terms)


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
    fields and entries of the two layouts are written directly, and each
    distinct exponent vector is rendered once per document.
    """
    fields = []
    for name, value in sorted(doc.items()):
        text = _entries_text(value) if name == "entries" else json.dumps(value)
        fields.append(f"  {json.dumps(name)}: {text}")
    return "{\n" + ",\n".join(fields) + "\n}\n"


def _array_text(items: list, level: int) -> str:
    """An indent-2 JSON array of rendered items whose brackets sit at
    nesting ``level``."""
    if not items:
        return "[]"
    inner = "\n" + "  " * (level + 1)
    return "[" + inner + ("," + inner).join(items) + "\n" + "  " * level + "]"


def _entries_text(entries: list) -> str:
    """The ``entries`` array: {key, value} cochain entries, whose exponent
    vectors repeat, or {coeff, signature} algebra entries."""
    vectors: dict = {}
    rendered = []
    for entry in entries:
        if "key" in entry:
            slots = []
            for u in entry["key"]:
                u = tuple(u)
                text = vectors.get(u)
                if text is None:
                    text = vectors[u] = _array_text(list(map(int.__repr__, u)), 4)
                slots.append(text)
            rendered.append(f'{{\n      "key": {_array_text(slots, 3)},\n'
                            f'      "value": {int.__repr__(entry["value"])}\n    }}')
        else:
            sig = _array_text(list(map(int.__repr__, entry["signature"])), 3)
            rendered.append(f'{{\n      "coeff": {int.__repr__(entry["coeff"])},\n'
                            f'      "signature": {sig}\n    }}')
    return _array_text(rendered, 1)


def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


# -- command handlers ---------------------------------------------------

def _cmd_invert(args) -> int:
    cochain, kind = parse_cochain_document(_read_input(args.infile))
    if args.kind_override:
        kind = args.kind_override
        cls = NormalizedCochain if kind == "normalized" else ICochain
        cochain = cls._trusted(cochain.ctx, cochain.degree, cochain.ring, cochain.values)
    if cochain.ring != MOD_P:
        raise DocumentError("invert requires mod-p coefficients (coeff_ring 'Fp')")
    if not args.unchecked and not cochain.is_cocycle():
        raise NotACocycleError("input cochain is not a cocycle")
    if kind == "normalized":
        result = invert_normalized(cochain)
    else:
        result = invert(cochain)
    sys.stdout.write(dumps_document(algebra_document(result)))
    return EXIT_OK


def _cmd_tau(args) -> int:
    ctx = GroupContext(args.p, args.r)
    try:
        sig = tuple(int(s) for s in args.sig.split(","))
    except ValueError:
        raise DocumentError(f"--sig must be comma-separated integers: {args.sig!r}") from None
    if len(sig) != ctx.r or any(m < 0 for m in sig):
        raise DocumentError(f"--sig must be {ctx.r} nonnegative integers")
    cocycle = realize(AlgebraElem.monomial(ctx, sig))
    sys.stdout.write(dumps_document(cochain_document(cocycle, "icochain")))
    return EXIT_OK


def _cmd_cup(args) -> int:
    if len(args.infile) < 2:
        raise DocumentError("cup needs at least two --in documents")
    factors = []
    for path in args.infile:
        cochain, kind = parse_cochain_document(_read_input(path))
        if cochain.ring != MOD_P:
            raise DocumentError("cup requires mod-p coefficients")
        factors.append(cochain.to_icochain() if kind == "normalized" else cochain)
    result = factors[0]
    for g in factors[1:]:
        if g.ctx != result.ctx:
            raise DocumentError("cup factors must share p and r")
        result = result.cup(g)
    sys.stdout.write(dumps_document(cochain_document(result, "icochain")))
    return EXIT_OK


def _cmd_d(args) -> int:
    cochain, kind = parse_cochain_document(_read_input(args.infile))
    sys.stdout.write(dumps_document(cochain_document(cochain.coboundary(), kind)))
    return EXIT_OK


def _cmd_check_cocycle(args) -> int:
    cochain, _ = parse_cochain_document(_read_input(args.infile))
    if cochain.is_cocycle():
        print("true")
        return EXIT_OK
    print("false")
    return EXIT_NOT_COCYCLE


def _cmd_dims(args) -> int:
    from .graded import cohomology_report

    ctx = GroupContext(args.p, args.r)
    lines = ["n dim_C dim_Z dim_B dim_H expected_H"]
    for n in range(args.max_n + 1):
        rep = cohomology_report(ctx, n, max_entries=args.budget)
        lines.append(f"{n} {rep.dim_cochains} {rep.dim_ker_dn} {rep.rank_d_prev} "
                     f"{rep.dim_h} {graded_dimension(ctx, n)}")
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _cmd_count_terms(args) -> int:
    print(_decimal_text(count_terms(GroupContext(args.p, args.r), args.n)))
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


def _nonnegative(name: str):
    """The argparse type of a flag taking a nonnegative integer; ``name``
    appears in its messages."""
    def parse(text: str) -> int:
        value = int(text)
        if value < 0:
            raise argparse.ArgumentTypeError(f"must be a nonnegative {name}, got {value}")
        return value

    parse.__name__ = name
    return parse


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> _Parser:
    parser = _Parser(prog="icochains",
                     description="Mod-p cohomology of elementary abelian groups "
                                 "at explicit cochain level.")
    sub = parser.add_subparsers(dest="command", metavar="command")

    p_invert = sub.add_parser("invert", help="map a cocycle document "
                              "to algebra coordinates")
    p_invert.add_argument("--in", dest="infile", required=True,
                          help="cochain document path, or - for stdin")
    kind = p_invert.add_mutually_exclusive_group()
    kind.add_argument("--normalized", dest="kind_override", action="store_const",
                      const="normalized", help="reinterpret entries as a normalized cochain")
    kind.add_argument("--icochain", dest="kind_override", action="store_const",
                      const="icochain", help="reinterpret entries as an ideal-tensor cochain")
    p_invert.add_argument("--unchecked", action="store_true",
                          help="skip the cocycle check (raw linear map)")
    p_invert.set_defaults(func=_cmd_invert, kind_override=None)

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
    p_dims.add_argument("--max-n", type=_nonnegative("degree"), required=True)
    p_dims.add_argument("--budget", type=_nonnegative("budget"), default=DEFAULT_MAX_ENTRIES,
                        help="budget (default 2^24) on the degree-n and degree-(n+1) "
                             "keys enumerated and on rows x columns of the largest "
                             "multidegree block")
    p_dims.set_defaults(func=_cmd_dims)

    p_count = sub.add_parser("count-terms", help="number of evaluations in the inverse formula")
    p_count.add_argument("--p", type=int, required=True)
    p_count.add_argument("--r", type=int, required=True)
    p_count.add_argument("--n", type=_nonnegative("degree"), required=True)
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
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
