"""Command-line surface: the command table, one handler per command,
and the exit path.

Commands read cochain documents and write cochain or algebra documents
(``documents``: the format, its reader and its writer).  All output is
deterministic and byte-stable for identical inputs.

Exit codes: 0 success; 1 parse/validation failure; 2 mathematical failure
(input is not a cocycle); 3 resource refusal (over the entry budget of
2^24, which no flag raises), with the required size in the message; 64
usage errors such as unknown flags; 141 (128 + SIGPIPE) when the reader
closes stdout early, with nothing on stderr.

The command line is written once, in ``COMMANDS``.  ``main`` first reads
argv against it (``_parse``); only when that declines, on help and on
anything that may be a usage error, does ``build_parser`` build the
argparse parser from the same table, so every help text, usage error and
exit code is argparse's.  At module level this file imports only
``sys``; ``argparse`` loads in ``build_parser``, and each library module
in the handler or the wrapper that runs it, so a process compiles only
what its command needs.
``dims`` loads ``group_ring`` and ``graded`` and ranks the multigraded
blocks in pure Python, with no cochain, document, algebra or inverse-map
code.  ``tau`` loads ``algebra`` and ``generators`` to realize, and
``documents`` to write, but no inverse map.  ``invert`` loads
``documents`` and ``inverse`` (and through it ``algebra``), but not
``generators``.  ``cup``, ``d`` and ``check-cocycle`` load ``documents``
and ``cochain``; ``count-terms`` loads ``inverse``.  The cocycle check,
``cocycle``, loads only in ``check-cocycle`` and the checked ``invert``,
which decide cocycles on the bar formula in pure Python; they load it
before the read, so in ``tau | invert --in -`` it compiles while ``tau``
computes.  Only ``d``, which runs the coboundary kernel on either kind,
and ``selftest``, which checks that kernel against the bar formula,
import numpy; the dense oracle that ``selftest`` also runs is pure
Python.  The handlers reach ``realize``, ``invert`` and the four document
functions through this module's globals, so replacing one of these names
here (as a tracer does) reaches every command that calls it.

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
    ``inverse`` (and ``cocycle`` when checked) and ``check-cocycle`` loads
    ``cocycle`` before calling this, so in a pipe such as
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
    if not args.unchecked:
        from . import cocycle  # noqa: F401  (for the check, ahead of the read)
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
    _write(dumps_document(cochain_document(realize(AlgebraElem.monomial(ctx, sig)), "icochain")))
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
    from . import cocycle  # noqa: F401  (for the check, ahead of the read)

    cochain, _ = parse_cochain_document(_read_input(args.infile))
    ok = cochain.is_cocycle()
    _write("true\n" if ok else "false\n")
    return EXIT_OK if ok else EXIT_NOT_COCYCLE


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
    from .inverse import _decimal_text, count_terms

    _write(_decimal_text(count_terms(_group_context(args.p, args.r), args.n)) + "\n")
    return EXIT_OK


def _cmd_selftest(_args) -> int:
    from . import acceptance

    return EXIT_OK if acceptance.run_selftest(print) else 1


# -- the command line ------------------------------------------------------
#
# The one spec of the command line: command -> (handler, help, flags), each
# flag an (option, kind, help) triple.  A "bool" flag is store_true, and
# "one-of" flags are store_true flags of one mutually exclusive group.  An
# "str", "int" or "degree" (nonnegative int) flag takes one value and a
# "list" flag one value per use; each of these is required.  ``--in``
# stores to ``infile``, every other option to its own name.

_IN = (("--in", "str", None),)
COMMANDS = {
    "invert": (_cmd_invert, "map a cocycle document to algebra coordinates", (
        ("--in", "str", "cochain document path, or - for stdin"),
        # both kinds store the same values, so the kind flags change nothing
        ("--normalized", "one-of", "accepted for compatibility; no effect"),
        ("--icochain", "one-of", "accepted for compatibility; no effect"),
        ("--unchecked", "bool", "skip the cocycle check (raw linear map)"))),
    "tau": (_cmd_tau, "realize a monomial signature as a cocycle document", (
        ("--p", "int", None), ("--r", "int", None),
        ("--sig", "str", "comma-separated signature, r entries"))),
    "cup": (_cmd_cup, "cup product of two or more cochain documents",
            (("--in", "list", "repeatable: cochain document path"),)),
    "d": (_cmd_d, "coboundary of a cochain document", _IN),
    "check-cocycle": (_cmd_check_cocycle, "report whether a document is a cocycle", _IN),
    "dims": (_cmd_dims, "cohomology dimension table from the rank oracle", (
        ("--p", "int", None), ("--r", "int", None),
        ("--max-n", "degree", "last degree of the table; refused when the key slots the "
                              "whole table enumerates, or rows x columns of its largest "
                              "multidegree block, exceed the entry budget of 2^24"))),
    "count-terms": (_cmd_count_terms, "number of evaluations in the inverse formula",
                    (("--p", "int", None), ("--r", "int", None), ("--n", "degree", None))),
    "selftest": (_cmd_selftest, "run the acceptance suite", ()),
}
SWITCHES = ("bool", "one-of")


def _parse(argv: list):
    """The namespace argparse returns for a well-formed ``argv``, read from
    ``COMMANDS`` without argparse, or None to leave ``argv`` to argparse.

    It reads a command followed by its exact options, each value in the
    next argument, and declines everything else: help, an abbreviation,
    ``--opt=value``, a repeated option (other than a "list" one), a missing
    option or value, two "one-of" switches, ``--``, a value that starts
    with "-" (other than "-" itself), and an int or a degree that does not
    parse or a degree below 0.
    """
    # an unknown command has no handler and no flags
    func, _, options = COMMANDS.get(argv[0] if argv else None, (None, None, ()))
    flags = {option: ("infile" if option == "--in" else option[2:].replace("-", "_"), kind)
             for option, kind, _ in options}
    values = {dest: False if kind in SWITCHES else None for dest, kind in flags.values()}
    tokens = iter(argv[1:])
    for option in tokens:
        dest, kind = flags.get(option, (None, None))
        if kind in SWITCHES and not values[dest]:
            values[dest] = True
            continue
        value = next(tokens, "--")  # a missing value is declined as "--" is
        if (kind in (None, *SWITCHES) or value[:1] == "-" and value != "-"
                or kind != "list" and values[dest] is not None):
            return None
        try:
            values[dest] = ((values[dest] or []) + [value] if kind == "list"
                            else value if kind == "str" else int(value))
        except ValueError:
            return None
    if (func is None or None in values.values()
            or sum(values[d] for d, k in flags.values() if k == "one-of") > 1
            or any(values[d] < 0 for d, k in flags.values() if k == "degree")):
        return None
    from types import SimpleNamespace

    return SimpleNamespace(command=argv[0], func=func, **values)


def build_parser():
    """The argparse parser of ``COMMANDS``, for help and usage errors."""
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

    kinds = {"bool": {"action": "store_true"}, "one-of": {"action": "store_true"}, "str": {},
             "int": {"type": int}, "degree": {"type": degree}, "list": {"action": "append"}}
    parser = Parser(prog="icochains", description="Mod-p cohomology of elementary abelian "
                                                  "groups at explicit cochain level.")
    sub = parser.add_subparsers(dest="command", metavar="command")
    for name, (func, text, flags) in COMMANDS.items():
        command, group = sub.add_parser(name, help=text), None
        for option, kind, help_text in flags:
            if kind == "one-of":
                group = group or command.add_mutually_exclusive_group()
            (group if kind == "one-of" else command).add_argument(
                option, dest="infile" if option == "--in" else None, help=help_text,
                required=kind not in SWITCHES, **kinds[kind])
        command.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    args = _parse(sys.argv[1:] if argv is None else list(argv))
    if args is None:
        parser = build_parser()
        args = parser.parse_args(argv)
        if not getattr(args, "func", None):
            parser.print_usage(sys.stderr)
            return EXIT_USAGE
    from .group_ring import BudgetExceededError, DocumentError, NotACocycleError

    try:
        return args.func(args)
    except (DocumentError, NotACocycleError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return (EXIT_INVALID if isinstance(exc, DocumentError) else
                EXIT_NOT_COCYCLE if isinstance(exc, NotACocycleError) else EXIT_BUDGET)


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
