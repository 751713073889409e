"""Command-line surface: the argument parser, one handler per command,
and the exit path.

Commands read cochain documents and write cochain or algebra documents
(``documents``: the format, its reader and its writer).  All output is
deterministic and byte-stable for identical inputs.

Exit codes: 0 success; 1 parse/validation failure; 2 mathematical failure
(input is not a cocycle); 3 resource refusal (over the entry budget of
2^24, which no flag raises), with the required size in the message; 64
usage errors such as unknown flags; 141 (128 + SIGPIPE) when the reader
closes stdout early, with nothing on stderr.

At module level this file imports only ``sys``; ``argparse`` loads in
``build_parser``, and each library module in the handler or the wrapper
that runs it, so a process compiles only what its command needs.
``dims`` loads ``group_ring`` and ``graded`` and ranks the multigraded
blocks in pure Python, with no cochain, document, algebra or inverse-map
code.  ``tau`` loads ``algebra`` and ``generators`` to realize, and
``documents`` to write, but no inverse map.  ``invert`` loads
``documents`` and ``inverse`` (and through it ``algebra``), but not
``generators``.  ``cup``, ``d`` and ``check-cocycle`` load ``documents``
and ``cochain``; ``count-terms`` loads ``inverse``.  The cocycle check,
``cocycle``, loads only in ``check-cocycle`` and the checked ``invert``,
which decide cocycles on the bar formula in pure Python.  Only ``d``,
which runs the coboundary kernel on either kind, and ``selftest``, which
checks that kernel against the bar formula, import numpy; the dense
oracle that ``selftest`` also runs is pure Python.  The handlers reach
``realize``, ``invert`` and the four document functions through this
module's globals, so replacing one of these names here (as a tracer
does) reaches every command that calls it.

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

EXIT_OK = 0
EXIT_INVALID = 1
EXIT_NOT_COCYCLE = 2
EXIT_BUDGET = 3
EXIT_USAGE = 64
EXIT_BROKEN_PIPE = 141


def _read_input(path: str) -> str:
    """The text of the cochain document at ``path``, or of stdin for "-".

    The parser's modules load here, before the read, and ``invert`` loads
    ``inverse`` before calling this, so in a pipe such as
    ``tau | invert --in -`` the reader compiles them while the writer is
    still computing.
    """
    import json  # noqa: F401  (for the parser, ahead of the read)

    from . import documents  # noqa: F401
    from .group_ring import DocumentError

    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise DocumentError(f"cannot read {path}: {exc}") from None


# -- the library entry points the handlers call ---------------------------
#
# The handlers call these names through this module's globals, so a tracer
# can replace any of them here.  Each loads the module that does the work
# on its first call: ``documents`` for the four document functions,
# ``algebra`` for ``realize`` and ``inverse`` for ``invert``.
# ``invert_normalized``, the older name of ``invert``, is kept for the
# benchmark's tracer (bench/spans.py).

def parse_cochain_document(text: str):
    from . import documents
    return documents.parse_cochain_document(text)


def cochain_document(cochain, kind: str) -> dict:
    from . import documents
    return documents.cochain_document(cochain, kind)


def algebra_document(e) -> dict:
    from . import documents
    return documents.algebra_document(e)


def dumps_document(doc: dict) -> str:
    from . import documents
    return documents.dumps_document(doc)


def realize(e):
    from . import algebra
    return algebra.realize(e)


def invert(f):
    from . import inverse
    return inverse.invert(f)


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
    from . import inverse  # noqa: F401  (for invert, ahead of the read)
    from .group_ring import MOD_P, DocumentError, NotACocycleError

    cochain, _ = parse_cochain_document(_read_input(args.infile))
    if cochain.ring != MOD_P:
        raise DocumentError("invert requires mod-p coefficients (coeff_ring 'Fp')")
    if not args.unchecked and not cochain.is_cocycle():
        raise NotACocycleError("input cochain is not a cocycle")
    _write(dumps_document(algebra_document(invert(cochain))))
    return EXIT_OK


def _cmd_tau(args) -> int:
    from .algebra import AlgebraElem
    from .group_ring import DocumentError, _group_context

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
    from .group_ring import MOD_P, DocumentError

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
    from .group_ring import _group_context

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
    from .group_ring import _group_context
    from .inverse import count_terms

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
    from .group_ring import BudgetExceededError, DocumentError, NotACocycleError

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
